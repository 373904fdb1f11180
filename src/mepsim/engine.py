"""Event-driven simulator for the mutual-exclusive propagation cells.

Each cell carries a 1-bit excitation state and a drifting local timer.
A cell fires externally when its elapsed local time reaches tau2, is
restored tau0 local ticks after any trigger, and fires internally when a
neighbor signal arrives while it is restored.  Every trigger emits one
signal per neighbor with an independently sampled bounded delay.

Tie-breaking at equal timestamps is fixed: arrivals are processed first,
then restorations, then external deadlines, each in ascending cell id
(and sender id) order.  An arrival coinciding with a restoration
therefore still sees the excited state, and an arrival coinciding with
an external deadline wins, producing an internal trigger.  Simultaneous
arrivals at one cell collapse into a single acceptance whose pioneer is
the smallest sender id.  A deadline that fires is not popped: the
cell's next deadline replaces its queue entry in one heapreplace.

simulate() settles most rejected signals where they are sent, without
queueing them.  A cell fires only at instants t > rest_due[c] (under
drift, SimParams's tau2 - tau0 >= 2 keeps each liveness deadline after
its restoration), and firing sets rest_due[c] to at least t, so
rest_due never decreases:

- A signal due at or before its receiver's rest_due is sure to be
  rejected by the receiver's latest trigger.
- A signal due after its receiver's pending liveness deadline is sure to
  be rejected by the receiver's next trigger when no cell restores
  sooner than d_max after a trigger, as under the paper's constraint: a
  signal sent at t is due by t + d_max, and its receiver fires next at
  some f in [t, deadline], so it stays excited past the due instant.
  Otherwise such a signal is queued like any other.

A settled rejection is recorded with its rejecting trigger's index among
its receiver's triggers (or dropped, when arrivals are not recorded or
it is due after the horizon).  Rejections draw nothing from the omission
stream, and a signal due at the deadline's own instant is still queued,
so it still wins the tie: the trace is the one that queueing every
signal gives.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import NamedTuple

from .errors import ParameterError
from .timing import (DELAY_UNIFORM, DriftAssignment, SimParams, checked,
                     local_to_real, stream)
from .topology import Graph
from .trace import (ArrivalRecord, OUTCOME_ACCEPTED, OUTCOME_OMITTED,
                    OUTCOME_REJECTED, Trace, paused_gc)

INIT_RANDOM_UNIFORM = "random-uniform"
INIT_ADVERSARIAL = "adversarial-explicit"

# event classes within one timestamp; restorations are applied lazily but
# logically sit between arrivals and external deadlines
_CLS_ARRIVAL = 0
_CLS_EXTERNAL = 2

# a raw arrival's outcome rank, ordered as _finalize needs
_OMITTED, _ACCEPTED, _REJECTED = 0, 1, 2
_OUTCOMES = (OUTCOME_OMITTED, OUTCOME_ACCEPTED, OUTCOME_REJECTED)


@checked
class InitState(NamedTuple):
    """Initial timer readings plus optional in-flight spurious signals.

    random-uniform draws each cell's initially elapsed local time from
    the integer-uniform U[0, tau2].  adversarial-explicit takes the
    per-cell readings, which must be >= 0 (readings beyond tau2 are
    clamped, which makes the cell fire immediately at t=0), and may
    inject pending signals with arrival instants within [0, d_max].
    """

    mode: str = INIT_RANDOM_UNIFORM
    elapsed: tuple | None = None
    signals: tuple = ()  # (from_cell, to_cell, arrival_ns)

    def _check(self):
        if self.mode not in (INIT_RANDOM_UNIFORM, INIT_ADVERSARIAL):
            raise ParameterError(f"unknown init mode {self.mode!r}")
        if self.elapsed is not None and min(self.elapsed, default=0) < 0:
            raise ParameterError(f"negative elapsed reading in {self.elapsed}")

    def resolve_elapsed(self, n: int, tau2: int, rng) -> list:
        if self.mode == INIT_RANDOM_UNIFORM:
            return [rng.randint(0, tau2) for _ in range(n)]
        if self.elapsed is None or len(self.elapsed) != n:
            raise ParameterError("adversarial init needs one elapsed reading per cell")
        return list(self.elapsed)


class _Setup(NamedTuple):
    """Everything a simulator derives from its inputs before time starts."""

    trace: Trace  # the header, without records; _finalize sorts them in
    init: InitState
    rest_due: list  # cell i is excited at instant t iff t <= rest_due[i]
    next_ext: list  # each cell's next liveness deadline; simulators update it
    sample: object  # delay_model.sampler on the "delays" stream
    uniform_random: object  # its random if uniform, for an inlined draw
    omission_random: object
    rest_off: list  # per-cell real ns from a trigger to restoration
    ext_off: list  # ... and to the next liveness deadline
    rest_off_c: list  # the same after an internal trigger, d_min-compensated
    ext_off_c: list  # when dmin_compensation is on


def _setup(graph: Graph, params: SimParams, delay_model, seed,
           drift: DriftAssignment | None, init: InitState | None, horizon: int,
           record_arrivals: bool) -> _Setup:
    """Validate the inputs and derive the trace header, drifts, initial
    timers, rng streams and offset tables; shared by simulate() and the
    per-ns oracle.  The delay and drift models hold no bounds; they are
    passed those of `params`, and one that does not fit them raises."""
    n = graph.node_count
    tau0, tau2 = params.tau0, params.tau2
    d_min = params.d_min

    delays = stream(seed, "delays")
    sample = delay_model.sampler(delays, d_min, params.d_max)
    drift = drift or DriftAssignment()
    drifts = drift.assign(n, stream(seed, "drifts"), params.rho)
    init = init or InitState()
    elapsed0 = init.resolve_elapsed(n, tau2, stream(seed, "init"))
    for frm, to, arrival in init.signals:
        if not 0 <= arrival <= params.d_max:
            raise ParameterError(
                f"injected signal arrival {arrival} outside [0, {params.d_max}]")
        if not 0 <= frm < n or to not in graph.adjacency[frm]:
            raise ParameterError(f"injected signal ({frm},{to}) is not an edge")

    rest_due = [-1] * n
    next_ext = [0] * n
    for i, dv in enumerate(drifts):
        e = min(elapsed0[i], tau2)  # timer self-recovery from invalid readings
        if e < tau0:
            rest_due[i] = local_to_real(tau0 - e, dv)
        next_ext[i] = local_to_real(tau2 - e, dv)

    rest_off = [local_to_real(tau0, dv) for dv in drifts]
    ext_off = [local_to_real(tau2, dv) for dv in drifts]
    if params.dmin_compensation and d_min > 0:
        rest_off_c = [local_to_real(tau0 - d_min, dv) for dv in drifts]
        ext_off_c = [local_to_real(tau2 - d_min, dv) for dv in drifts]
    else:
        rest_off_c, ext_off_c = rest_off, ext_off

    trace = Trace(graph=graph, params=params, triggers=[], arrivals=[],
                  horizon=horizon, seed=seed, arrivals_recorded=record_arrivals,
                  warnings=(["horizon shorter than one liveness period"]
                            if horizon < params.liveness_real_max else []),
                  models={"delay_model": delay_model.kind,
                          "omission_p": params.omission_p,
                          "drift_mode": drift.mode, "init_mode": init.mode})
    return _Setup(trace, init, rest_due, next_ext, sample,
                  delays.random if delay_model.kind == DELAY_UNIFORM else None,
                  stream(seed, "omissions").random,
                  rest_off, ext_off, rest_off_c, ext_off_c)


def simulate(graph: Graph, params: SimParams, *, delay_model, horizon: int,
             seed=0, drift: DriftAssignment | None = None,
             init: InitState | None = None,
             record_arrivals: bool = True) -> Trace:
    """Run one deterministic simulation up to the real-time horizon."""
    if horizon <= 0:
        raise ParameterError(f"need horizon > 0, got {horizon}")
    (trace, init, rest_due, next_ext, sample, rnd, omission_random, rest_off,
     ext_off, rest_off_c, ext_off_c) = _setup(graph, params, delay_model, seed,
                                              drift, init, horizon,
                                              record_arrivals)

    n = graph.node_count
    adjacency = graph.adjacency
    p = params.omission_p
    lo, width = params.d_min, params.d_max - params.d_min + 1
    # every late signal is rejected unless some cell restores within d_max
    settle_late = min(rest_off + rest_off_c) >= params.d_max

    fired = [0] * n  # each cell's trigger count
    raw_triggers = []  # (time, cell, pioneer)
    raw_arrivals = []  # (time, to, frm, rank, rejecting trigger's index at to)
    heap = []  # (time, class, cell, sender); a deadline's sender is its cell

    for i in range(n):
        heappush(heap, (next_ext[i], _CLS_EXTERNAL, i, i))
    for frm, to, arrival in init.signals:
        heappush(heap, (arrival, _CLS_ARRIVAL, to, frm))

    with paused_gc():  # the run builds many records and no reference cycles
        while heap and heap[0][0] <= horizon:
            t, cls, cell, sender = heap[0]
            if cls == _CLS_ARRIVAL:
                heappop(heap)
                senders = [sender]
                while heap and heap[0][0] == t and heap[0][1] == _CLS_ARRIVAL \
                        and heap[0][2] == cell:
                    senders.append(heappop(heap)[3])
                if t <= rest_due[cell]:
                    rank, rej = _REJECTED, fired[cell] - 1
                elif p > 0.0 and omission_random() < p:
                    rank, rej = _OMITTED, -1
                else:
                    rank, rej = _ACCEPTED, -1
                if record_arrivals:
                    for s in senders:
                        raw_arrivals.append((t, cell, s, rank, rej))
                if rank != _ACCEPTED:
                    continue
                pioneer, r_off, e_off = min(senders), rest_off_c, ext_off_c
                push = heappush
            elif t != next_ext[cell]:
                heappop(heap)  # timer was reset since this was scheduled
                continue
            else:  # the next deadline takes this one's place in the heap
                pioneer, r_off, e_off = cell, rest_off, ext_off
                push = heapreplace
            fired[cell] += 1
            raw_triggers.append((t, cell, pioneer))
            rest_due[cell] = t + r_off[cell]
            next_ext[cell] = ext = t + e_off[cell]
            push(heap, (ext, _CLS_EXTERNAL, cell, cell))
            t_lo = t + lo  # the earliest due of its signals
            for j in adjacency[cell]:
                due = t_lo + int(rnd() * width) if rnd else t + sample(cell, j)
                if due <= rest_due[j]:  # doomed: rest_due only grows
                    if record_arrivals and due <= horizon:
                        raw_arrivals.append((due, j, cell, _REJECTED,
                                             fired[j] - 1))
                elif settle_late and due > next_ext[j]:
                    # late: j's next trigger, by next_ext[j], rejects it
                    if record_arrivals and due <= horizon:
                        raw_arrivals.append((due, j, cell, _REJECTED,
                                             fired[j]))
                else:
                    heappush(heap, (due, _CLS_ARRIVAL, j, cell))
        return _finalize(trace, raw_triggers, raw_arrivals)


def _finalize(trace: Trace, raw_triggers, raw_arrivals) -> Trace:
    """The header `trace` with the raw (time, cell, pioneer) triggers
    and (time, to, frm, rank, k) arrivals sorted in.  Both lists are
    sorted in place, whole tuples without a key, and each raw arrival is
    replaced in its own slot by its ArrivalRecord.

    No two triggers share a (time, cell) pair (a cell fires only at t >
    rest_due, and firing sets rest_due >= t), so the trigger sort never
    compares a pioneer, and a cell's triggers keep their recording
    order.  A rejection's k is its rejecting trigger's index among the
    receiver's own triggers, so its final seq is the k-th seq of `to` in
    the sorted triggers; every other arrival, and a rejection by a
    cell's initial excitation, carries k = -1.

    At one (time, to) a cell records any omissions, then at most one
    acceptance (after which it fires), then rejections, all by that one
    trigger, since it stays excited through the instant; a rejection
    settled at send time ties only with rejections by that trigger.  So
    among equal (time, to, frm) ranks ascend in recording order and
    equal ranks are equal tuples: the sort keeps the recording order, as
    a stable keyed sort would.  Outcome strings would not do: 'accepted'
    < 'omitted'."""
    raw_triggers.sort()
    if raw_arrivals:
        seqs = [[] for _ in range(trace.graph.node_count)]
        for seq, (_, cell, _) in enumerate(raw_triggers):
            seqs[cell].append(seq)
        raw_arrivals.sort()
    # by slices: a comprehension beats a store per slot, and a slice of
    # 1024 keeps the peak near the trace's own size
    for i in range(0, len(raw_arrivals), 1024):
        raw_arrivals[i:i + 1024] = [
            ArrivalRecord(frm, to, t, _OUTCOMES[rank],
                          seqs[to][k] if k >= 0 else None)
            for t, to, frm, rank, k in raw_arrivals[i:i + 1024]]
    return trace._replace(triggers=raw_triggers, arrivals=raw_arrivals)
