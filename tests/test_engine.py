import pytest

from mepsim import DelayModel, derive_params, simulate
from mepsim.engine import InitState
from mepsim.errors import ParameterError
from mepsim.timing import SimParams
from mepsim.topology import build_ring, from_edge_list, topology_stats
from mepsim.trace import (KIND_EXTERNAL, KIND_INTERNAL, OUTCOME_ACCEPTED,
                          OUTCOME_REJECTED, trace_to_text)

K2 = from_edge_list(2, [(0, 1)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])


def _params(graph, d=100, rho=0.0, **kw):
    return derive_params(topology_stats(graph), d, rho, **kw)


def test_determinism_same_seed():
    g = build_ring(6)
    p = _params(g)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    a = simulate(g, p, delay_model=dm, horizon=50000, seed="s1")
    b = simulate(g, p, delay_model=dm, horizon=50000, seed="s1")
    assert trace_to_text(a) == trace_to_text(b)
    c = simulate(g, p, delay_model=dm, horizon=50000, seed="s2")
    assert trace_to_text(a) != trace_to_text(c)


def test_all_omitted_runs_purely_external():
    p = _params(K2, omission_p=1.0)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau2))
    tr = simulate(K2, p, delay_model=dm, horizon=10 * p.tau2, seed=0,
                  init=init)
    assert all(t.kind == KIND_EXTERNAL for t in tr.triggers)
    for cell in (0, 1):
        times = [t.time for t in tr.triggers if t.cell == cell]
        assert times[0] == 0
        assert all(b - a == p.tau2 for a, b in zip(times, times[1:]))


def test_elapsed_beyond_period_clamps_to_immediate_fire():
    p = _params(K2)
    dm = DelayModel(kind="fixed", d_min=100, d_max=100)
    init = InitState(mode="adversarial-explicit", elapsed=(10 * p.tau2, 0))
    tr = simulate(K2, p, delay_model=dm, horizon=p.tau2, seed=0, init=init)
    assert tr.triggers[0].cell == 0 and tr.triggers[0].time == 0


def test_compensated_fixed_delay_becomes_simultaneous():
    # equal fixed delays + origin compensation lock both cells to one phase
    d = 100
    p = derive_params(topology_stats(K2), d, 0.0, d_min=d,
                      dmin_compensation=True)
    dm = DelayModel(kind="fixed", d_min=d, d_max=d)
    tr = simulate(K2, p, delay_model=dm, horizon=20 * p.tau2, seed=5)
    by_cell = {0: [], 1: []}
    for t in tr.triggers:
        by_cell[t.cell].append(t.time)
    tail0, tail1 = by_cell[0][-5:], by_cell[1][-5:]
    assert tail0 == tail1
    assert all(b - a == p.tau2 for a, b in zip(tail0, tail0[1:]))


def test_zero_delay_cascade_same_instant():
    p = _params(P3)
    sched = {(0, 1): [0], (1, 0): [0], (1, 2): [0], (2, 1): [0]}
    dm = DelayModel(kind="adversarial-schedule", d_min=0, d_max=100,
                    schedule=sched, cycle=True)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau0, p.tau0))
    tr = simulate(P3, p, delay_model=dm, horizon=p.tau0, seed=0, init=init)
    first = [t for t in tr.triggers if t.time == 0]
    assert [(t.cell, t.kind, t.pioneer) for t in first] == [
        (0, KIND_EXTERNAL, 0), (1, KIND_INTERNAL, 0), (2, KIND_INTERNAL, 1)]


def test_simultaneous_arrivals_pick_smallest_pioneer():
    tri = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    p = _params(tri)
    dm = DelayModel(kind="fixed", d_min=60, d_max=60)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau0, p.tau2))
    tr = simulate(tri, p, delay_model=dm, horizon=100, seed=0, init=init)
    trig1 = [t for t in tr.triggers if t.cell == 1]
    assert trig1[0].time == 60 and trig1[0].pioneer == 0
    accepted = [a for a in tr.arrivals if a.to == 1 and a.time == 60]
    assert {a.frm for a in accepted} == {0, 2}
    assert all(a.outcome == OUTCOME_ACCEPTED for a in accepted)


def test_rejection_references_latest_trigger():
    p = _params(K2)
    dm = DelayModel(kind="fixed", d_min=60, d_max=60)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau2))
    tr = simulate(K2, p, delay_model=dm, horizon=200, seed=0, init=init)
    # both fire at 0; each signal lands at 60 on a freshly excited cell
    rejected = [a for a in tr.arrivals if a.outcome == OUTCOME_REJECTED]
    assert len(rejected) == 2
    for a in rejected:
        ref = tr.triggers[a.rejecting_seq]
        assert ref.cell == a.to and ref.time == 0


def test_injected_signal_validation():
    p = _params(P3)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
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
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau0, p.tau0),
                     signals=((0, 1, 5),))
    tr = simulate(K2, p, delay_model=dm, horizon=p.tau0, seed=0, init=init)
    assert tr.triggers[0].cell == 1 and tr.triggers[0].time == 5
    assert tr.triggers[0].kind == KIND_INTERNAL and tr.triggers[0].pioneer == 0


def test_delay_model_must_fit_params():
    p = _params(K2, d=100)
    with pytest.raises(ParameterError):
        simulate(K2, p, delay_model=DelayModel(kind="uniform", d_min=0,
                                               d_max=200),
                 horizon=1000, seed=0)


def test_short_horizon_warns():
    p = _params(K2)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    tr = simulate(K2, p, delay_model=dm, horizon=p.tau2 - 1, seed=0)
    assert tr.warnings


def test_record_arrivals_off():
    g = build_ring(4)
    p = _params(g)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    a = simulate(g, p, delay_model=dm, horizon=30000, seed=1,
                 record_arrivals=False)
    b = simulate(g, p, delay_model=dm, horizon=30000, seed=1)
    assert a.arrivals == [] and not a.arrivals_recorded
    assert a.triggers == b.triggers


def test_explicit_params_accepted():
    p = SimParams(d_min=0, d_max=100, rho=0.0, tau0=1000, tau1=4000, tau2=4000)
    dm = DelayModel(kind="uniform", d_min=0, d_max=100)
    tr = simulate(K2, p, delay_model=dm, horizon=20000, seed=2)
    assert tr.triggers


def test_stale_liveness_deadline_is_cancelled():
    # a cell triggered internally must not also fire at its old deadline
    p = _params(K2)
    dm = DelayModel(kind="fixed", d_min=60, d_max=60)
    init = InitState(mode="adversarial-explicit", elapsed=(p.tau2, p.tau2 - 60))
    tr = simulate(K2, p, delay_model=dm, horizon=3 * p.tau2, seed=0, init=init)
    times1 = [t for t in tr.triggers if t.cell == 1]
    assert times1[0].time == 60 and times1[0].kind == KIND_INTERNAL
    assert times1[1].time > 60
    gaps = [b.time - a.time for a, b in zip(times1, times1[1:])]
    assert all(g >= p.tau0 for g in gaps)
