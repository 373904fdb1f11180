"""A fixed reference kernel that measures how fast the machine runs right now.

On a small shared host, other tenants slow every instruction of this
process by up to 1.5x, in spells that last from a fraction of a second to
minutes.  Neither the fastest repeat nor CPU time removes those spells: a
run that falls wholly inside one reads slow.  So the benchmark times this
kernel just before and just after every command it times, and reports the
command at the reference speed:

    seconds_at_reference = wall_seconds * REFERENCE_S / kernel_seconds

where kernel_seconds is the mean of the two kernel timings around the
command.  The kernel does what mepsim does most (a heap-driven event loop
over small records, CSV write and read, grouping in dicts, sorting), in
pure Python and without importing mepsim, so a change to mepsim never
changes the kernel.  It must never change either: every recorded result
is expressed in its units.

Measured on a 2-core shared VM (Python 3.11) over 11 windows of 55 s on
hypercube-arrivals, the quartile spread between windows of the run
command's time was 0.12 for the fastest raw repeat and 0.027 for the
median of the normalised times.
"""

import csv
import gc
import heapq
import io
import random
import time

# Seconds the kernel takes on an uncontended core of the machine the
# baseline was recorded on; it only fixes the unit of normalised times.
REFERENCE_S = 0.2
EVENTS = 12000  # the kernel's size; REFERENCE_S holds for this size only


class _Record:
    __slots__ = ("t", "cell", "kind", "src")

    def __init__(self, t, cell, kind, src):
        self.t, self.cell, self.kind, self.src = t, cell, kind, src


def kernel(events=EVENTS, cells=64):
    """A fixed amount of interpreter work; returns a checksum of it."""
    rng = random.Random(7)
    neighbors = [[(c + d) % cells for d in (1, 3, 7, 15, 31, 63)]
                 for c in range(cells)]
    heap = [(rng.randint(0, 1000), 1, c, -1) for c in range(cells)]
    heapq.heapify(heap)
    last = [-10**9] * cells
    records = []
    while heap and len(records) < events:
        t, kind, cell, src = heapq.heappop(heap)
        if t - last[cell] < 50:
            continue
        last[cell] = t
        records.append(_Record(t, cell, kind, src))
        for n in neighbors[cell]:
            heapq.heappush(heap, (t + rng.randint(1, 100), 0, n, cell))
        heapq.heappush(heap, (t + 1000, 1, cell, -1))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for r in records:
        writer.writerow((r.t, r.cell, r.kind, r.src))
    by_cell = {}
    for t, cell, _, _ in csv.reader(io.StringIO(buf.getvalue())):
        by_cell.setdefault(int(cell), []).append(int(t))
    gaps = sorted(b - a for ts in by_cell.values() for a, b in zip(ts, ts[1:]))
    return len(records), gaps[len(gaps) // 2]


def time_kernel(events=EVENTS):
    gc.collect()
    start = time.perf_counter()
    kernel(events)
    return time.perf_counter() - start


class ReferenceClock:
    """Turns wall seconds into seconds at the kernel's reference speed.

    Call ``start`` before a series of timed intervals and ``scale`` right
    after each: it times the kernel again and uses the mean of that and
    the previous kernel timing.  A smaller ``events`` only shortens the
    harness self-check; its times are then not in reference units.
    """

    def __init__(self, events=EVENTS):
        self.events = events
        self.kernel_s = []

    def start(self):
        self.kernel_s.append(time_kernel(self.events))

    def scale(self, seconds):
        self.kernel_s.append(time_kernel(self.events))
        return seconds * REFERENCE_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)
