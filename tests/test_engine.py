import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import mepsim.engine
from mepsim import DelayModel, DriftAssignment, derive_params, simulate
from mepsim.analysis import required_horizon
from mepsim.engine import InitState
from mepsim.errors import ParameterError, ScheduleUnderrunError
from mepsim.oracle import brute_force_simulate
from mepsim.timing import SimParams
from mepsim.topology import (build_ring, from_edge_list, parse_topology,
                             topology_stats)
from mepsim.trace import OUTCOME_ACCEPTED, OUTCOME_REJECTED, ArrivalRecord

K2 = from_edge_list(2, [(0, 1)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])


def _params(graph, d=100, rho=0.0, **kw):
    return derive_params(topology_stats(graph), d, rho, **kw)


def test_determinism_same_seed():
    g = build_ring(6)
    p = _params(g)
    dm = DelayModel(kind="uniform")
    a = simulate(g, p, delay_model=dm, horizon=50000, seed="s1")
    b = simulate(g, p, delay_model=dm, horizon=50000, seed="s1")
    assert a == b
    c = simulate(g, p, delay_model=dm, horizon=50000, seed="s2")
    assert a.triggers != c.triggers


def test_all_omitted_runs_purely_external():
    p = _params(K2, omission_p=1.0)
    dm = DelayModel(kind="uniform")
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau2))
    tr = simulate(K2, p, delay_model=dm, horizon=10 * p.tau2, seed=0,
                  init=init)
    assert all(h == cell for _, cell, h in tr.triggers)
    for cell in (0, 1):
        times = [t for t, c, _ in tr.triggers if c == cell]
        assert times[0] == 0
        assert all(b - a == p.tau2 for a, b in zip(times, times[1:]))


def test_elapsed_beyond_period_clamps_to_immediate_fire():
    p = _params(K2, d_min=100)
    dm = DelayModel(kind="adversarial-max")
    init = InitState(mode="adversarial-explicit", elapsed=(10 * p.tau2, 0))
    tr = simulate(K2, p, delay_model=dm, horizon=p.tau2, seed=0, init=init)
    assert tr.triggers[0][:2] == (0, 0)


def test_negative_elapsed_rejected():
    for elapsed in ((-1_000_000_000, 0), (0, -1)):
        with pytest.raises(ParameterError, match="negative elapsed"):
            InitState(mode="adversarial-explicit", elapsed=elapsed)


def test_compensated_fixed_delay_becomes_simultaneous():
    # equal fixed delays + origin compensation lock both cells to one phase
    d = 100
    p = derive_params(topology_stats(K2), d, 0.0, d_min=d,
                      dmin_compensation=True)
    dm = DelayModel(kind="adversarial-max")
    tr = simulate(K2, p, delay_model=dm, horizon=20 * p.tau2, seed=5)
    by_cell = {0: [], 1: []}
    for t, cell, _ in tr.triggers:
        by_cell[cell].append(t)
    tail0, tail1 = by_cell[0][-5:], by_cell[1][-5:]
    assert tail0 == tail1
    assert all(b - a == p.tau2 for a, b in zip(tail0, tail0[1:]))


def test_zero_delay_cascade_same_instant():
    p = _params(P3)
    sched = {(0, 1): [0], (1, 0): [0], (1, 2): [0], (2, 1): [0]}
    dm = DelayModel(kind="adversarial-schedule", schedule=sched, cycle=True)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau0, p.tau0))
    tr = simulate(P3, p, delay_model=dm, horizon=p.tau0, seed=0, init=init)
    first = [(cell, h) for t, cell, h in tr.triggers if t == 0]
    assert first == [(0, 0), (1, 0), (2, 1)]


def test_simultaneous_arrivals_pick_smallest_pioneer():
    tri = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    p = _params(tri, d=60, d_min=60)
    dm = DelayModel(kind="adversarial-max")
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau0, p.tau2))
    tr = simulate(tri, p, delay_model=dm, horizon=100, seed=0, init=init)
    trig1 = [trig for trig in tr.triggers if trig[1] == 1]
    assert trig1[0][0] == 60 and trig1[0][2] == 0
    accepted = [a for a in tr.arrivals if a.to == 1 and a.time == 60]
    assert {a.frm for a in accepted} == {0, 2}
    assert all(a.outcome == OUTCOME_ACCEPTED for a in accepted)


def test_rejection_references_latest_trigger():
    p = _params(K2, d=60, d_min=60)
    dm = DelayModel(kind="adversarial-max")
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau2))
    tr = simulate(K2, p, delay_model=dm, horizon=200, seed=0, init=init)
    # both fire at 0; each signal lands at 60 on a freshly excited cell
    rejected = [a for a in tr.arrivals if a.outcome == OUTCOME_REJECTED]
    assert len(rejected) == 2
    for a in rejected:
        ref_time, ref_cell, _ = tr.triggers[a.rejecting_seq]
        assert ref_cell == a.to and ref_time == 0


def test_injected_signal_validation():
    p = _params(P3)
    dm = DelayModel(kind="uniform")
    for signal in ((0, 2, 10), (7, 0, 10), (-1, 1, 10)):
        bad_edge = InitState(mode="adversarial-explicit", elapsed=(0, 0, 0),
                             signals=(signal,))
        with pytest.raises(ParameterError):
            simulate(P3, p, delay_model=dm, horizon=1000, seed=0,
                     init=bad_edge)
    late = InitState(mode="adversarial-explicit", elapsed=(0, 0, 0),
                     signals=((0, 1, 101),))
    with pytest.raises(ParameterError):
        simulate(P3, p, delay_model=dm, horizon=1000, seed=0, init=late)


def test_injected_signal_can_trigger():
    p = _params(K2)
    dm = DelayModel(kind="uniform")
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau0, p.tau0),
                     signals=((0, 1, 5),))
    tr = simulate(K2, p, delay_model=dm, horizon=p.tau0, seed=0, init=init)
    assert tr.triggers[0] == (5, 1, 0)


def test_short_horizon_warns():
    p = _params(K2)
    dm = DelayModel(kind="uniform")
    tr = simulate(K2, p, delay_model=dm, horizon=p.tau2 - 1, seed=0)
    assert tr.warnings


def test_record_arrivals_off():
    g = build_ring(4)
    p = _params(g)
    dm = DelayModel(kind="uniform")
    a = simulate(g, p, delay_model=dm, horizon=30000, seed=1,
                 record_arrivals=False)
    b = simulate(g, p, delay_model=dm, horizon=30000, seed=1)
    assert a.arrivals == [] and not a.arrivals_recorded
    assert a.triggers == b.triggers


def test_explicit_params_accepted():
    p = SimParams(d_min=0, d_max=100, rho=0.0, tau0=1000, tau1=4000, tau2=4000)
    dm = DelayModel(kind="uniform")
    tr = simulate(K2, p, delay_model=dm, horizon=20000, seed=2)
    assert tr.triggers


def test_stale_liveness_deadline_is_cancelled():
    # a cell triggered internally must not also fire at its old deadline
    p = _params(K2, d=60, d_min=60)
    dm = DelayModel(kind="adversarial-max")
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau2 - 60))
    tr = simulate(K2, p, delay_model=dm, horizon=3 * p.tau2, seed=0, init=init)
    trig1 = [trig for trig in tr.triggers if trig[1] == 1]
    assert trig1[0][0] == 60 and trig1[0][2] == 0  # internal, from cell 0
    assert trig1[1][0] > 60
    gaps = [b[0] - a[0] for a, b in zip(trig1, trig1[1:])]
    assert all(g >= p.tau0 for g in gaps)


def test_arrival_at_restoration_instant_is_rejected_one_ns_later_accepted():
    # ring 0-1-2-3-0: cell 0 fires at 0, so it is excited through tau0.
    # Cell 2 fires at tau0-150 and triggers cells 1 and 3, whose signals
    # reach cell 0 exactly at tau0 (from 1) and at tau0+1 (from 3).
    g = build_ring(4)
    p = _params(g)
    T = p.tau0
    sched = {(0, 1): [10], (0, 3): [10], (2, 1): [50], (2, 3): [51],
             (1, 0): [100], (3, 0): [100], (1, 2): [100], (3, 2): [100]}
    dm = DelayModel(kind="adversarial-schedule", schedule=sched, cycle=True)
    init = InitState(mode="adversarial-explicit",
                     elapsed=(p.tau2, T - 100, p.tau2 - (T - 150), T - 100))
    kw = dict(delay_model=dm, horizon=T + 200, seed=0, init=init)
    tr = simulate(g, p, **kw)
    assert tr.triggers[0][:2] == (0, 0)
    at_0 = {(a.frm, a.time): a for a in tr.arrivals if a.to == 0}
    assert at_0[(1, T)].outcome == OUTCOME_REJECTED
    assert at_0[(1, T)].rejecting_seq == 0
    assert at_0[(3, T + 1)].outcome == OUTCOME_ACCEPTED
    fired = [(t, h) for t, cell, h in tr.triggers if cell == 0]
    assert fired == [(0, 0), (T + 1, 3)]
    for record in (True, False):
        a = simulate(g, p, record_arrivals=record, **kw)
        b = brute_force_simulate(g, p, record_arrivals=record, **kw)
        assert a == b
        assert a.triggers == tr.triggers


@pytest.mark.parametrize("timing, outcome, fired_by_1", [
    ("explicit", OUTCOME_ACCEPTED, [(50, 1), (95, 0)]),
    ("derived", OUTCOME_REJECTED, [(50, 1)])], ids=["explicit", "derived"])
def test_signal_due_after_its_receivers_deadline(timing, outcome, fired_by_1):
    """ring 0-1-2-3-0: cell 0 fires at 0 and its signal reaches cell 1 at
    95, after cell 1's deadline at 50.  At tau0 = 40 < d_max cell 1 is
    restored by 90, so the signal is queued like any other and accepted;
    a run may not settle it at send time.  Derived timing has tau0 >=
    d_max, so cell 1's trigger at 50 rejects it, and a recording run
    records that rejection at send time, naming that trigger.  Both
    recording and unrecorded runs match the per-ns oracle."""
    g = build_ring(4)
    if timing == "explicit":
        p = SimParams(d_min=0, d_max=100, rho=0.0, tau0=40, tau1=1000,
                      tau2=1000)
    else:
        p = _params(g)
    sched = {(i, j): [95 if (i, j) == (0, 1) else 100]
             for i in range(4) for j in g.adjacency[i]}
    dm = DelayModel(kind="adversarial-schedule", schedule=sched, cycle=True)
    init = InitState(mode="adversarial-explicit",
                     elapsed=(p.tau2, p.tau2 - 50, p.tau0, p.tau0))
    kw = dict(delay_model=dm, horizon=120, seed=0, init=init)
    recorded = simulate(g, p, **kw)
    late = [a for a in recorded.arrivals if (a.frm, a.to) == (0, 1)]
    assert [(a.time, a.outcome) for a in late] == [(95, outcome)]
    assert [(t, h) for t, cell, h in recorded.triggers if cell == 1] == \
        fired_by_1
    assert recorded == brute_force_simulate(g, p, **kw)
    unrecorded = simulate(g, p, record_arrivals=False, **kw)
    assert unrecorded.triggers == recorded.triggers
    oracle = brute_force_simulate(g, p, record_arrivals=False, **kw)
    assert unrecorded == oracle


@pytest.mark.parametrize("enabled", [True, False])
def test_simulate_restores_gc_state(enabled):
    p = _params(K2)
    ok = DelayModel(kind="uniform")
    short = DelayModel(kind="adversarial-schedule",
                       schedule={(0, 1): [50], (1, 0): [50]})
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        simulate(K2, p, delay_model=ok, horizon=10 * p.tau2, seed=0)
        assert gc.isenabled() is enabled
        with pytest.raises(ScheduleUnderrunError):  # raised mid-run
            simulate(K2, p, delay_model=short, horizon=10 * p.tau2, seed=0)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("topology, rho, record", [
    ("grid:8x8", 0.0, False), ("hypercube:4", 1e-4, True)])
def test_rejected_signals_mostly_skip_the_queue(monkeypatch, topology, rho,
                                                record):
    """Nearly every signal of a stabilized run is rejected.  Settled at
    send time, as sure to be rejected by the receiver's latest or next
    trigger, such signals skip the queue, so a run pops few more events
    than it has triggers.  A firing deadline's heapreplace is its pop."""
    g = parse_topology(topology)
    stats = topology_stats(g)
    p = _params(g, rho=rho)
    calls = {"heappop": 0, "heapreplace": 0}

    def counting(name, pop):
        def counted(*args):
            calls[name] += 1
            return pop(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(mepsim.engine, name,
                            counting(name, getattr(mepsim.engine, name)))
    tr = simulate(g, p, delay_model=DelayModel(kind="uniform"),
                  horizon=required_horizon(p, stats) + 100 * p.tau2, seed=0,
                  drift=DriftAssignment(mode="uniform" if rho else "zero"),
                  record_arrivals=record)
    assert calls["heappop"] + calls["heapreplace"] <= 1.5 * len(tr.triggers)
    # each external trigger, pioneered by its own cell, replaced its entry
    assert calls["heapreplace"] == sum(cell == pioneer
                                       for _, cell, pioneer in tr.triggers)


@pytest.mark.parametrize("topology, record, omission_p", [
    ("hypercube:4", True, 0.1), ("grid:8x8", False, 0.0)])
def test_simulate_peak_memory_is_close_to_its_trace(topology, record,
                                                    omission_p):
    """_finalize sorts the raw records in place and builds no key tuples
    or second copy, so simulate's peak heap is barely above what its
    returned trace holds."""
    g = parse_topology(topology)
    stats = topology_stats(g)
    p = _params(g, omission_p=omission_p)
    tracemalloc.start()
    try:
        tr = simulate(g, p, delay_model=DelayModel(kind="uniform"),
                      horizon=required_horizon(p, stats) + 100 * p.tau2,
                      seed=0, record_arrivals=record)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.triggers and bool(tr.arrivals) is record
    assert peak <= 1.3 * held


def _reference_finalize(trace, raw_triggers, raw_arrivals):
    """_finalize by definition: stable sorts of the triggers by (time, cell)
    and of the arrivals by (time, to, frm), each in recording order; a
    rejection's k names the k-th of its receiver's sorted triggers."""
    triggers = sorted(raw_triggers, key=lambda trig: trig[:2])

    def final_seq(to, k):
        return [s for s, trig in enumerate(triggers) if trig[1] == to][k]

    arrivals = sorted(raw_arrivals, key=lambda a: a[:3])
    return trace._replace(
        triggers=triggers,
        arrivals=[ArrivalRecord(frm, to, t, mepsim.engine._OUTCOMES[rank],
                                final_seq(to, k) if k >= 0 else None)
                  for t, to, frm, rank, k in arrivals])


def _assert_finalize_matches_reference(run):
    """Run `run()` with simulate's raw records also finalized by the
    reference, and compare the two traces."""
    finalize = mepsim.engine._finalize
    references = []

    def both(trace, raw_triggers, raw_arrivals):
        references.append(_reference_finalize(trace, raw_triggers,
                                               raw_arrivals))
        return finalize(trace, raw_triggers, raw_arrivals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mepsim.engine, "_finalize", both)
        trace = run()
    assert trace == references[0]
    assert trace.arrivals == references[0].arrivals


@st.composite
def _zero_delay_runs(draw):
    """Explicit timing with d_min = 0 and tau0 < d_max: signals re-sent
    within one instant tie on (time, to, frm) with other outcomes."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    graph = from_edge_list(n, sorted(edges))
    d_max = draw(st.integers(2, 20))
    tau0 = draw(st.integers(1, d_max - 1))
    tau2 = draw(st.integers(tau0 + 2, tau0 + 4 * d_max))
    drift_mode = draw(st.sampled_from(["zero", "uniform", "extremal"]))
    rho = 0.0 if drift_mode == "zero" else draw(st.sampled_from([1e-4, 0.05]))
    params = SimParams(d_min=0, d_max=d_max, rho=rho, tau0=tau0,
                       tau1=round(tau2 / (1 + rho)), tau2=tau2,
                       omission_p=draw(st.sampled_from([0.0, 0.2, 0.5])))
    if draw(st.booleans()):
        delays = st.one_of(st.just(0), st.integers(0, d_max))
        schedule = {(a, b): draw(st.lists(delays, min_size=1, max_size=4))
                    for a in range(n) for b in graph.adjacency[a]}
        dm = DelayModel(kind="adversarial-schedule", schedule=schedule, cycle=True)
    else:
        dm = DelayModel(kind="uniform")
    signal = st.sampled_from(sorted(graph.edges)).flatmap(
        lambda e: st.tuples(st.permutations(e), st.integers(0, d_max)))
    init = InitState(
        mode="adversarial-explicit",
        elapsed=tuple(draw(st.lists(st.integers(0, tau2), min_size=n,
                                    max_size=n))),
        signals=tuple((a, b, t) for (a, b), t in
                      draw(st.lists(signal, max_size=4))))
    return graph, params, dict(
        delay_model=dm, seed=draw(st.integers(0, 2**16)),
        horizon=draw(st.integers(params.liveness_real_max,
                                 5 * params.liveness_real_max)),
        drift=DriftAssignment(mode=drift_mode), init=init)


@settings(max_examples=200, deadline=None)
@given(_zero_delay_runs())
def test_finalize_keeps_recording_order_among_ties(case):
    graph, params, kw = case
    _assert_finalize_matches_reference(lambda: simulate(graph, params, **kw))


@pytest.mark.parametrize("overrides", [
    ("hypercube:3", 3, 6, 16, 300),
    ("grid:3x3", 7, 24, 39, 1200),
])
def test_finalize_orders_omission_before_acceptance(overrides):
    """Two runs where one sender's omitted and accepted signals reach a
    cell at one instant; sorting outcome strings would swap them.  Each
    sets the topology, tau0, tau1 = tau2, the seed and the horizon of a
    run at d_max = 10 with omissions."""
    topology, tau0, tau1, seed, horizon = overrides
    params = SimParams(d_min=0, d_max=10, rho=0.0, tau0=tau0, tau1=tau1,
                       tau2=tau1, omission_p=0.2)
    _assert_finalize_matches_reference(lambda: simulate(
        parse_topology(topology), params,
        delay_model=DelayModel(kind="uniform"), horizon=horizon, seed=seed,
        drift=DriftAssignment(mode="uniform")))
