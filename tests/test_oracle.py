import pytest
from hypothesis import given, settings, strategies as st

from mepsim import DelayModel, DriftAssignment, derive_params, simulate
from mepsim.engine import InitState
from mepsim.errors import ParameterError
from mepsim.oracle import brute_force_simulate
from mepsim.timing import SimParams
from mepsim.topology import build_ring, from_edge_list, topology_stats

K2 = from_edge_list(2, [(0, 1)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])


def _params(graph, d=100, rho=0.0, **kw):
    return derive_params(topology_stats(graph), d, rho, **kw)


def test_guard_node_count():
    g = build_ring(5)
    p = _params(g)
    dm = DelayModel(kind="uniform")
    with pytest.raises(ParameterError):
        brute_force_simulate(g, p, delay_model=dm, horizon=1000, seed=0)


def test_guard_horizon():
    p = _params(K2)
    dm = DelayModel(kind="uniform")
    with pytest.raises(ParameterError):
        brute_force_simulate(K2, p, delay_model=dm, horizon=10**9, seed=0)


def test_k2_fixed_delay_matches_engine():
    p = _params(K2, d_min=100)
    dm = DelayModel(kind="adversarial-max")
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau0))
    kw = dict(delay_model=dm, horizon=8 * p.tau2, seed=0, init=init)
    a = simulate(K2, p, **kw)
    b = brute_force_simulate(K2, p, **kw)
    assert a == b


def test_all_omitted_is_periodic():
    p = _params(K2, omission_p=1.0)
    dm = DelayModel(kind="uniform")
    init = InitState(mode="adversarial-explicit", elapsed=(0, p.tau0))
    tr = brute_force_simulate(K2, p, delay_model=dm, horizon=6 * p.tau2,
                              seed=0, init=init)
    for cell in (0, 1):
        times = [t for t, c, _ in tr.triggers if c == cell]
        assert all(b - a == p.tau2 for a, b in zip(times, times[1:]))
        assert all(h == cell for _, c, h in tr.triggers if c == cell)


def test_path3_scheduled_delays_match_engine():
    p = _params(P3)
    sched = {(0, 1): [40, 80], (1, 0): [0, 100], (1, 2): [100, 0],
             (2, 1): [60, 60]}
    dm = DelayModel(kind="adversarial-schedule", schedule=sched, cycle=True)
    init = InitState(mode="adversarial-explicit",
                     elapsed=(p.tau2, p.tau2 // 2, p.tau0))
    kw = dict(delay_model=dm, horizon=6 * p.tau2, seed=1, init=init)
    a = simulate(P3, p, **kw)
    b = brute_force_simulate(P3, p, **kw)
    assert a.triggers == b.triggers
    assert a.arrivals == b.arrivals


def test_drift_and_omission_match_engine():
    p = _params(P3, rho=1e-4, omission_p=0.2)
    dm = DelayModel(kind="uniform")
    drift = DriftAssignment(mode="extremal")
    for seed in range(5):
        kw = dict(delay_model=dm, horizon=5 * p.liveness_real_max, seed=seed,
                  drift=drift)
        a = simulate(P3, p, **kw)
        b = brute_force_simulate(P3, p, **kw)
        assert a == b


@st.composite
def _differential_case(draw):
    n = draw(st.integers(2, 4))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    graph = from_edge_list(n, sorted(edges))
    d_max = draw(st.integers(1, 100))
    d_min = draw(st.integers(0, d_max))
    faults = dict(omission_p=draw(st.sampled_from([0.0, 0.2, 1.0])),
                  dmin_compensation=draw(st.booleans()))
    if draw(st.booleans()):
        # explicit timing with tau0 near the delays: a signal due past its
        # receiver's deadline can still arrive after the next restoration
        tau0 = draw(st.integers(d_min + 1, d_min + 2 * d_max))
        if draw(st.booleans()):
            drift_mode, rho = "zero", 0.0
            tau2 = draw(st.integers(tau0 + 1, tau0 + 4 * d_max))
        else:
            # drifted, with the least tau2 - tau0 SimParams admits: rounding
            # brings restoration and liveness deadline within a ns or two
            drift_mode = draw(st.sampled_from(["extremal", "uniform"]))
            rho = draw(st.sampled_from([1e-4, 0.05, 0.5]))
            tau2 = tau0 + draw(st.sampled_from([2, 3]))
        params = SimParams(d_min=d_min, d_max=d_max, rho=rho, tau0=tau0,
                           tau1=round(tau2 / (1 + rho)), tau2=tau2, **faults)
    else:
        drift_mode = draw(st.sampled_from(["zero", "extremal", "uniform"]))
        rho = 0.0 if drift_mode == "zero" else draw(st.sampled_from([1e-4, 0.05]))
        params = derive_params(topology_stats(graph), d_max, rho, d_min=d_min,
                               **faults)
    delays = st.integers(d_min, d_max)
    if draw(st.booleans()):
        directed = [(a, b) for a in range(n) for b in graph.adjacency[a]]
        schedule = {e: draw(st.lists(delays, min_size=1, max_size=4))
                    for e in directed}
        dm = DelayModel(kind="adversarial-schedule", schedule=schedule, cycle=True)
    else:
        dm = DelayModel(kind="uniform")
    init = None
    if draw(st.booleans()):
        readings = st.integers(0, 2 * params.tau2)
        signal = st.sampled_from(sorted(graph.edges)).flatmap(
            lambda e: st.tuples(st.permutations(e),
                                st.integers(0, d_max)))
        signals = tuple((a, b, t) for (a, b), t in
                        draw(st.lists(signal, max_size=4)))
        init = InitState(mode="adversarial-explicit",
                         elapsed=tuple(draw(st.lists(readings, min_size=n,
                                                     max_size=n))),
                         signals=signals)
    return graph, params, dict(
        delay_model=dm, seed=draw(st.integers(0, 2**16)),
        horizon=draw(st.integers(params.liveness_real_max,
                                 5 * params.liveness_real_max)),
        drift=DriftAssignment(mode=drift_mode), init=init,
        record_arrivals=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_differential_case())
def test_engine_matches_oracle_on_random_small_runs(case):
    graph, params, kw = case
    a = simulate(graph, params, **kw)
    b = brute_force_simulate(graph, params, **kw)
    assert a == b
    # _finalize sorts whole trigger tuples, relying on no (time, cell)
    # pair repeating: the keys must ascend strictly
    keys = [trig[:2] for trig in a.triggers]
    assert all(k < k2 for k, k2 in zip(keys, keys[1:]))


@settings(max_examples=300, deadline=None)
@given(_differential_case())
def test_recording_arrivals_does_not_change_triggers(case):
    graph, params, kw = case
    unrecorded = simulate(graph, params, **dict(kw, record_arrivals=False))
    recorded = simulate(graph, params, **dict(kw, record_arrivals=True))
    assert unrecorded.triggers == recorded.triggers
