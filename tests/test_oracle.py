import pytest
from hypothesis import given, settings, strategies as st

from mepsim import DelayModel, DriftAssignment, derive_params, simulate
from mepsim.engine import InitState
from mepsim.errors import ParameterError
from mepsim.oracle import brute_force_simulate
from mepsim.topology import build_ring, from_edge_list, topology_stats
from mepsim.trace import KIND_EXTERNAL, trace_to_text

K2 = from_edge_list(2, [(0, 1)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])


def _params(graph, d=100, rho=0.0, **kw):
    return derive_params(topology_stats(graph), d, rho, **kw)


def test_guard_node_count():
    g = build_ring(5)
    p = _params(g)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    with pytest.raises(ParameterError):
        brute_force_simulate(g, p, delay_model=dm, horizon=1000, seed=0)


def test_guard_horizon():
    p = _params(K2)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    with pytest.raises(ParameterError):
        brute_force_simulate(K2, p, delay_model=dm, horizon=10**9, seed=0)


def test_k2_fixed_delay_matches_engine():
    p = _params(K2)
    dm = DelayModel(kind="fixed", d_min=100, d_max=100)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau0))
    kw = dict(delay_model=dm, horizon=8 * p.tau2, seed=0, init=init)
    a = simulate(K2, p, **kw)
    b = brute_force_simulate(K2, p, **kw)
    assert trace_to_text(a) == trace_to_text(b)


def test_all_omitted_is_periodic():
    p = _params(K2, omission_p=1.0)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    init = InitState(mode="adversarial-explicit", elapsed=(0, p.tau0))
    tr = brute_force_simulate(K2, p, delay_model=dm, horizon=6 * p.tau2,
                              seed=0, init=init)
    for cell in (0, 1):
        times = [t.time for t in tr.triggers if t.cell == cell]
        assert all(b - a == p.tau2 for a, b in zip(times, times[1:]))
        assert all(t.kind == KIND_EXTERNAL
                   for t in tr.triggers if t.cell == cell)


def test_path3_scheduled_delays_match_engine():
    p = _params(P3)
    sched = {(0, 1): [40, 80], (1, 0): [0, 100], (1, 2): [100, 0],
             (2, 1): [60, 60]}
    dm = DelayModel(kind="adversarial-schedule", d_min=0, d_max=100,
                    schedule=sched, cycle=True)
    init = InitState(mode="adversarial-explicit",
                     elapsed=(p.tau2, p.tau2 // 2, p.tau0))
    kw = dict(delay_model=dm, horizon=6 * p.tau2, seed=1, init=init)
    a = simulate(P3, p, **kw)
    b = brute_force_simulate(P3, p, **kw)
    assert a.triggers == b.triggers
    assert a.arrivals == b.arrivals


def test_drift_and_omission_match_engine():
    p = _params(P3, rho=1e-4, omission_p=0.2)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    drift = DriftAssignment(mode="extremal", rho=1e-4)
    for seed in range(5):
        kw = dict(delay_model=dm, horizon=5 * p.liveness_real_max, seed=seed,
                  drift=drift)
        a = simulate(P3, p, **kw)
        b = brute_force_simulate(P3, p, **kw)
        assert trace_to_text(a) == trace_to_text(b)


@st.composite
def _differential_case(draw):
    n = draw(st.integers(2, 4))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    graph = from_edge_list(n, sorted(edges))
    d_max = draw(st.integers(1, 100))
    d_min = draw(st.integers(0, d_max))
    drift_mode = draw(st.sampled_from(["zero", "extremal", "uniform"]))
    rho = 0.0 if drift_mode == "zero" else draw(st.sampled_from([1e-4, 0.05]))
    params = derive_params(topology_stats(graph), d_max, rho, d_min=d_min,
                           omission_p=draw(st.sampled_from([0.0, 0.2, 1.0])),
                           dmin_compensation=draw(st.booleans()))
    delays = st.integers(d_min, d_max)
    if draw(st.booleans()):
        directed = [(a, b) for a in range(n) for b in graph.adjacency[a]]
        schedule = {e: draw(st.lists(delays, min_size=1, max_size=4))
                    for e in directed}
        dm = DelayModel(kind="adversarial-schedule", d_min=d_min, d_max=d_max,
                        schedule=schedule, cycle=True)
    else:
        dm = DelayModel(kind="uniform", d_min=d_min, d_max=d_max)
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
        drift=DriftAssignment(mode=drift_mode, rho=rho), init=init)


@settings(max_examples=300, deadline=None)
@given(_differential_case())
def test_engine_matches_oracle_on_random_small_runs(case):
    graph, params, kw = case
    a = simulate(graph, params, **kw)
    b = brute_force_simulate(graph, params, **kw)
    assert trace_to_text(a) == trace_to_text(b)
