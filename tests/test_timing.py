import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mepsim.errors import ParameterError, ScheduleUnderrunError
from mepsim.timing import (DelayModel, DriftAssignment, SimParams,
                           check_strict_constraint, derive_params,
                           local_to_real, read_schedule_file, sample_delay,
                           stream)
from mepsim.topology import build_grid, build_ring, topology_stats


def test_local_to_real_identity_at_zero_drift():
    assert local_to_real(12345, 0.0) == 12345


def test_local_to_real_rounding():
    # 1000/1.25 = 800 exactly; 1000/(1-0.2) = 1250
    assert local_to_real(1000, 0.25) == 800
    assert local_to_real(1000, -0.2) == 1250
    # round-half-up on the .5 boundary: 3/2 = 1.5 -> 2
    assert local_to_real(3, 1.0) == 2


def test_local_to_real_rejects_negative():
    with pytest.raises(ParameterError):
        local_to_real(-1, 0.0)


def _params(d=1000, rho=0.0):
    return derive_params(topology_stats(build_ring(8)), d, rho)


def test_derive_params_zero_drift_values():
    stats = topology_stats(build_ring(8))  # longest path 7
    p = derive_params(stats, 1000, 0.0)
    assert p.tau0 == 9 * 1000
    assert p.tau2 == 3 * (p.tau0 + 1000)
    assert p.tau1 == p.tau2


def test_derive_params_rounds_up():
    stats = topology_stats(build_ring(8))
    rho = 1e-4
    p = derive_params(stats, 1000, rho)
    r = Fraction(rho)
    assert p.tau0 == math.ceil((1 + r) * 9 * 1000)
    assert p.tau2 == math.ceil(3 * (1 + r) * (Fraction(p.tau0) / (1 - r) + 1000))
    assert p.tau1 == math.ceil(Fraction(p.tau2) / (1 + r))


@given(st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9]),
       st.integers(min_value=1, max_value=10**6))
def test_derived_params_always_satisfy_strict_chain(rho, d):
    stats = topology_stats(build_ring(8))
    p = derive_params(stats, d, rho, mode="strict-constraint")
    check_strict_constraint(p.tau0, p.tau1, stats, d, rho)  # must not raise


def test_strict_constraint_rejects_bad_tau0():
    stats = topology_stats(build_ring(8))
    with pytest.raises(ParameterError):
        check_strict_constraint(8000, 100000, stats, 1000, 0.0)  # tau0 too small
    with pytest.raises(ParameterError):
        check_strict_constraint(10000, 30000, stats, 1000, 0.0)  # tau1 too small


def test_simparams_validation():
    with pytest.raises(ParameterError):
        SimParams(d_min=5, d_max=1, rho=0.0, tau0=10, tau1=100, tau2=100)
    with pytest.raises(ParameterError):
        SimParams(d_min=0, d_max=1, rho=1.5, tau0=10, tau1=100, tau2=100)
    with pytest.raises(ParameterError):
        SimParams(d_min=0, d_max=1, rho=0.0, tau0=200, tau1=100, tau2=100)
    with pytest.raises(ParameterError):
        # tau2 far from tau1*(1+rho)
        SimParams(d_min=0, d_max=1, rho=0.0, tau0=10, tau1=100, tau2=150)
    with pytest.raises(ParameterError):
        SimParams(d_min=0, d_max=1, rho=0.0, tau0=10, tau1=100, tau2=100,
                  omission_p=1.5)


def test_simparams_dict_roundtrip():
    p = _params()
    assert SimParams.from_dict(p.as_dict()) == p


def test_liveness_real_max():
    p = _params(rho=0.0)
    assert p.liveness_real_max == p.tau2
    q = _params(rho=1e-4)
    assert q.liveness_real_max == math.ceil(Fraction(q.tau2) / (1 - Fraction(1e-4)))


def test_uniform_delay_bounds():
    model = DelayModel(kind="uniform", d_min=10, d_max=20)
    s = model.sampler(stream(0, "delays"))
    values = {sample_delay(s, 0, 1) for _ in range(500)}
    assert min(values) >= 10 and max(values) <= 20
    assert len(values) > 5


def test_fixed_delay_requires_degenerate_interval():
    with pytest.raises(ParameterError):
        DelayModel(kind="fixed", d_min=1, d_max=2)
    s = DelayModel(kind="fixed", d_min=7, d_max=7).sampler(stream(0, "delays"))
    assert s.sample(0, 1) == 7


def test_adversarial_max_delay():
    s = DelayModel(kind="adversarial-max", d_min=0, d_max=9).sampler(
        stream(0, "delays"))
    assert all(s.sample(0, 1) == 9 for _ in range(10))


def test_schedule_delays_and_underrun():
    model = DelayModel(kind="adversarial-schedule", d_min=0, d_max=10,
                       schedule={(0, 1): [3, 4]})
    s = model.sampler(stream(0, "delays"))
    assert s.sample(0, 1) == 3 and s.sample(0, 1) == 4
    with pytest.raises(ScheduleUnderrunError):
        s.sample(0, 1)
    with pytest.raises(ScheduleUnderrunError):
        s.sample(1, 0)  # no entry for this direction


def test_schedule_cycling():
    model = DelayModel(kind="adversarial-schedule", d_min=0, d_max=10,
                       schedule={(0, 1): [3, 4]}, cycle=True)
    s = model.sampler(stream(0, "delays"))
    assert [s.sample(0, 1) for _ in range(5)] == [3, 4, 3, 4, 3]


def test_schedule_rejects_out_of_bounds():
    with pytest.raises(ParameterError):
        DelayModel(kind="adversarial-schedule", d_min=0, d_max=10,
                   schedule={(0, 1): [11]})


def test_schedule_file_parsing(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("# comment\n0 1 5\n0 1 6\n1 0 7\n")
    sched = read_schedule_file(path)
    assert sched == {(0, 1): [5, 6], (1, 0): [7]}


def test_drift_assignments():
    rng = stream(0, "drifts")
    assert DriftAssignment().assign(4, rng) == [0.0] * 4
    ext = DriftAssignment(mode="extremal", rho=0.1).assign(4, rng)
    assert ext == [0.1, -0.1, 0.1, -0.1]
    uni = DriftAssignment(mode="uniform", rho=0.1).assign(100, rng)
    assert all(-0.1 <= v <= 0.1 for v in uni)
    exp = DriftAssignment(mode="explicit", rho=0.1, values=(0.05, -0.1))
    assert exp.assign(2, rng) == [0.05, -0.1]
    with pytest.raises(ParameterError):
        DriftAssignment(mode="explicit", rho=0.01, values=(0.05,)).assign(1, rng)


def test_streams_are_independent_and_reproducible():
    a1 = [stream(42, "delays").random() for _ in range(3)]
    a2 = [stream(42, "delays").random() for _ in range(3)]
    b = [stream(42, "omissions").random() for _ in range(3)]
    assert a1 == a2 and a1 != b
