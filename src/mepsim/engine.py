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
the smallest sender id.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import ParameterError
from .timing import DriftAssignment, SimParams, local_to_real, stream
from .topology import Graph
from .trace import (ArrivalRecord, KIND_EXTERNAL, KIND_INTERNAL,
                    OUTCOME_ACCEPTED, OUTCOME_OMITTED, OUTCOME_REJECTED,
                    Trace, TriggerRecord)

INIT_RANDOM_UNIFORM = "random-uniform"
INIT_ADVERSARIAL = "adversarial-explicit"

# event classes within one timestamp; restorations are applied lazily but
# logically sit between arrivals and external deadlines
_CLS_ARRIVAL = 0
_CLS_EXTERNAL = 2


@dataclass(frozen=True)
class InitState:
    """Initial timer readings plus optional in-flight spurious signals.

    random-uniform draws each cell's initially elapsed local time from
    the integer-uniform U[0, tau2].  adversarial-explicit takes the
    per-cell readings verbatim (readings beyond tau2 are clamped, which
    makes the cell fire immediately at t=0) and may inject pending
    signals with arrival instants within [0, d_max].
    """

    mode: str = INIT_RANDOM_UNIFORM
    elapsed: tuple | None = None
    signals: tuple = ()  # (from_cell, to_cell, arrival_ns)

    def resolve_elapsed(self, n: int, tau2: int, rng) -> list:
        if self.mode == INIT_RANDOM_UNIFORM:
            return [rng.randint(0, tau2) for _ in range(n)]
        if self.mode == INIT_ADVERSARIAL:
            if self.elapsed is None or len(self.elapsed) != n:
                raise ParameterError("adversarial init needs one elapsed reading per cell")
            return list(self.elapsed)
        raise ParameterError(f"unknown init mode {self.mode!r}")


class _Setup(NamedTuple):
    """Everything a simulator derives from its inputs before time starts."""

    drift: DriftAssignment
    init: InitState
    rest_due: list  # cell i is excited at instant t iff t <= rest_due[i]
    first_ext: list  # each cell's first liveness deadline
    sample: object  # (src, dst) -> delay
    omission_random: object
    rest_off: list  # per-cell real ns from a trigger to restoration
    ext_off: list  # ... and to the next liveness deadline
    rest_off_c: list  # the same after an internal trigger, d_min-compensated
    ext_off_c: list  # when dmin_compensation is on


def _setup(graph: Graph, params: SimParams, delay_model, seed,
           drift: DriftAssignment | None, init: InitState | None) -> _Setup:
    """Validate the inputs and derive drifts, initial timers, rng streams and
    offset tables; shared by simulate() and the per-ns oracle."""
    if delay_model.d_min < params.d_min or delay_model.d_max > params.d_max:
        raise ParameterError("delay model bounds exceed the params delay bounds")

    n = graph.node_count
    tau0, tau2 = params.tau0, params.tau2
    d_min = params.d_min

    drift = drift or DriftAssignment(rho=params.rho)
    drifts = drift.assign(n, stream(seed, "drifts"))
    init = init or InitState()
    elapsed0 = init.resolve_elapsed(n, tau2, stream(seed, "init"))
    for frm, to, arrival in init.signals:
        if not 0 <= arrival <= params.d_max:
            raise ParameterError(
                f"injected signal arrival {arrival} outside [0, {params.d_max}]")
        if not 0 <= frm < n or to not in graph.adjacency[frm]:
            raise ParameterError(f"injected signal ({frm},{to}) is not an edge")

    rest_due = [-1] * n
    first_ext = [0] * n
    for i, dv in enumerate(drifts):
        e = min(elapsed0[i], tau2)  # timer self-recovery from invalid readings
        if e < tau0:
            rest_due[i] = local_to_real(tau0 - e, dv)
        first_ext[i] = local_to_real(tau2 - e, dv)

    rest_off = [local_to_real(tau0, dv) for dv in drifts]
    ext_off = [local_to_real(tau2, dv) for dv in drifts]
    if params.dmin_compensation and d_min > 0:
        rest_off_c = [local_to_real(tau0 - d_min, dv) for dv in drifts]
        ext_off_c = [local_to_real(tau2 - d_min, dv) for dv in drifts]
    else:
        rest_off_c, ext_off_c = rest_off, ext_off
    return _Setup(drift, init, rest_due, first_ext,
                  delay_model.sampler(stream(seed, "delays")).sample,
                  stream(seed, "omissions").random,
                  rest_off, ext_off, rest_off_c, ext_off_c)


def simulate(graph: Graph, params: SimParams, *, delay_model, horizon: int,
             seed=0, drift: DriftAssignment | None = None,
             init: InitState | None = None,
             record_arrivals: bool = True) -> Trace:
    """Run one deterministic simulation up to the real-time horizon."""
    if horizon <= 0:
        raise ParameterError(f"need horizon > 0, got {horizon}")
    (drift, init, rest_due, first_ext, sample, omission_random, rest_off,
     ext_off, rest_off_c, ext_off_c) = _setup(graph, params, delay_model,
                                              seed, drift, init)

    n = graph.node_count
    adjacency = graph.adjacency
    p = params.omission_p

    generation = [0] * n
    last_seq = [-1] * n
    raw_triggers = []  # (time, cell, kind, pioneer)
    raw_arrivals = []  # (time, frm, to, outcome, provisional_rejecting_seq)
    heap = []
    counter = 0

    for i in range(n):
        heappush(heap, (first_ext[i], _CLS_EXTERNAL, i, i, 0))
    for frm, to, arrival in init.signals:
        heappush(heap, (arrival, _CLS_ARRIVAL, to, frm, counter))
        counter += 1

    while heap and heap[0][0] <= horizon:
        t, cls, cell, sender, aux = heappop(heap)
        if cls == _CLS_ARRIVAL:
            senders = [sender]
            while heap and heap[0][0] == t and heap[0][1] == _CLS_ARRIVAL \
                    and heap[0][2] == cell:
                senders.append(heappop(heap)[3])
            if t <= rest_due[cell]:
                if record_arrivals:
                    rej = last_seq[cell]
                    for s in senders:
                        raw_arrivals.append((t, s, cell, OUTCOME_REJECTED, rej))
            elif p > 0.0 and omission_random() < p:
                if record_arrivals:
                    for s in senders:
                        raw_arrivals.append((t, s, cell, OUTCOME_OMITTED, -1))
            else:
                pioneer = min(senders)
                last_seq[cell] = len(raw_triggers)
                raw_triggers.append((t, cell, KIND_INTERNAL, pioneer))
                generation[cell] += 1
                rest_due[cell] = t + rest_off_c[cell]
                heappush(heap, (t + ext_off_c[cell], _CLS_EXTERNAL, cell, cell,
                                generation[cell]))
                for j in adjacency[cell]:
                    heappush(heap, (t + sample(cell, j), _CLS_ARRIVAL, j, cell,
                                    counter))
                    counter += 1
                if record_arrivals:
                    for s in senders:
                        raw_arrivals.append((t, s, cell, OUTCOME_ACCEPTED, -1))
        else:  # external deadline
            if aux != generation[cell]:
                continue  # timer was reset since this deadline was scheduled
            last_seq[cell] = len(raw_triggers)
            raw_triggers.append((t, cell, KIND_EXTERNAL, cell))
            generation[cell] += 1
            rest_due[cell] = t + rest_off[cell]
            heappush(heap, (t + ext_off[cell], _CLS_EXTERNAL, cell, cell,
                            generation[cell]))
            for j in adjacency[cell]:
                heappush(heap, (t + sample(cell, j), _CLS_ARRIVAL, j, cell,
                                counter))
                counter += 1

    return _finalize(graph, params, raw_triggers, raw_arrivals, horizon, seed,
                     init, drift, delay_model, record_arrivals)


def _finalize(graph, params, raw_triggers, raw_arrivals, horizon, seed, init,
              drift, delay_model, record_arrivals) -> Trace:
    """Sort the raw (time, cell, kind, pioneer) triggers and (time, frm, to,
    outcome, provisional_rejecting_seq) arrivals into a Trace."""
    order = sorted(range(len(raw_triggers)),
                   key=lambda k: (raw_triggers[k][0], raw_triggers[k][1]))
    remap = [0] * len(raw_triggers)
    triggers = []
    for final_seq, k in enumerate(order):
        remap[k] = final_seq
        t, cell, kind, pioneer = raw_triggers[k]
        triggers.append(TriggerRecord(seq=final_seq, cell=cell, time=t,
                                      kind=kind, pioneer=pioneer))
    arrivals = []
    for t, frm, to, outcome, rej in sorted(raw_arrivals,
                                           key=lambda a: (a[0], a[2], a[1])):
        rej_seq = remap[rej] if rej >= 0 else None
        if outcome != OUTCOME_REJECTED:
            rej_seq = None
        arrivals.append(ArrivalRecord(frm=frm, to=to, time=t, outcome=outcome,
                                      rejecting_seq=rej_seq))

    warnings = []
    if horizon < params.liveness_real_max:
        warnings.append("horizon shorter than one liveness period")
    models = {
        "delay_model": delay_model.kind,
        "omission_p": params.omission_p,
        "drift_mode": drift.mode,
        "init_mode": init.mode,
    }
    return Trace(graph=graph, params=params, triggers=triggers,
                 arrivals=arrivals, horizon=horizon, seed=seed,
                 warnings=warnings, models=models,
                 arrivals_recorded=record_arrivals)
