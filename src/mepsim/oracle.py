"""Brute-force reference simulator for tiny networks.

Steps real time one nanosecond at a time instead of jumping between
heap events, keeping explicit per-cell state (excitation bit, pending
restoration, next liveness deadline) and a per-instant micro-queue for
the fixed tie-break order: arrivals first, then liveness deadlines, in
ascending cell id.  Intentionally simple and slow; it exists only to
cross-check the event-driven simulator on graphs of up to four cells.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .engine import _finalize, _setup
from .errors import ParameterError
from .timing import DriftAssignment, SimParams
from .topology import Graph
from .trace import (KIND_EXTERNAL, KIND_INTERNAL, OUTCOME_ACCEPTED,
                    OUTCOME_OMITTED, OUTCOME_REJECTED, Trace)

MAX_ORACLE_NODES = 4
MAX_ORACLE_HORIZON = 1_000_000  # ns; the stepper visits every instant


def brute_force_simulate(graph: Graph, params: SimParams, *, delay_model,
                         horizon: int, seed=0,
                         drift: DriftAssignment | None = None,
                         init=None, record_arrivals: bool = True) -> Trace:
    """Per-ns reference run; same inputs and output format as simulate().

    Only the stepping below is the oracle's own: input validation, drifts,
    initial timers, rng streams, offset tables and the final sorting into
    a Trace are shared with the engine.
    """
    if graph.node_count > MAX_ORACLE_NODES:
        raise ParameterError(
            f"oracle handles at most {MAX_ORACLE_NODES} cells, got {graph.node_count}")
    if not 0 < horizon <= MAX_ORACLE_HORIZON:
        raise ParameterError(
            f"oracle horizon must be in (0, {MAX_ORACLE_HORIZON}], got {horizon}")
    (drift, init, rest_due, next_ext, sample, omission_random, rest_off,
     ext_off, rest_off_c, ext_off_c) = _setup(graph, params, delay_model,
                                              seed, drift, init)

    n = graph.node_count
    adjacency = graph.adjacency
    p = params.omission_p
    last_seq = [-1] * n

    pending = {}  # arrival instant -> [(to, frm), ...] in emission order
    for frm, to, arrival in init.signals:
        pending.setdefault(arrival, []).append((to, frm))

    raw_triggers = []  # (time, cell, kind, pioneer) in emission order
    raw_arrivals = []  # (time, frm, to, outcome, provisional_rejecting_seq)

    def fire(cell: int, t: int, kind: str, pioneer: int, micro) -> None:
        # the protocol only triggers propagable cells
        excited = 1 if t <= rest_due[cell] else 0
        assert (1 - excited) == 1, "trigger on a non-propagable cell"
        last_seq[cell] = len(raw_triggers)
        raw_triggers.append((t, cell, kind, pioneer))
        if kind == KIND_INTERNAL:
            rest_due[cell] = t + rest_off_c[cell]
            next_ext[cell] = t + ext_off_c[cell]
        else:
            rest_due[cell] = t + rest_off[cell]
            next_ext[cell] = t + ext_off[cell]
        for j in adjacency[cell]:
            delay = sample(cell, j)
            if delay == 0:
                heappush(micro, (0, j, cell))
            else:
                pending.setdefault(t + delay, []).append((j, cell))

    for t in range(horizon + 1):
        micro = []
        for to, frm in pending.pop(t, ()):
            heappush(micro, (0, to, frm))
        for i in range(n):
            if next_ext[i] == t:
                heappush(micro, (2, i, i))
        while micro:
            cls, cell, sender = heappop(micro)
            if cls == 0:
                senders = [sender]
                while micro and micro[0][0] == 0 and micro[0][1] == cell:
                    senders.append(heappop(micro)[2])
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
                    if record_arrivals:
                        for s in senders:
                            raw_arrivals.append((t, s, cell, OUTCOME_ACCEPTED, -1))
                    fire(cell, t, KIND_INTERNAL, min(senders), micro)
            else:
                if next_ext[cell] != t:
                    continue  # deadline superseded earlier this instant
                fire(cell, t, KIND_EXTERNAL, cell, micro)

    return _finalize(graph, params, raw_triggers, raw_arrivals, horizon, seed,
                     init, drift, delay_model, record_arrivals)
