import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mepsim.analysis import segmentation_params
from mepsim.engine import InitState
from mepsim.errors import ParameterError, ScheduleUnderrunError
from mepsim.timing import (DelayModel, DriftAssignment, SimParams,
                           check_strict_constraint, derive_params,
                           local_to_real, read_schedule_file, stream)
from mepsim.topology import (TopologyStats, build_grid, build_ring,
                             topology_stats)


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


@st.composite
def _stats(draw):
    """Topology stats with 1 <= diameter <= L_G <= 10^4."""
    lg = draw(st.integers(min_value=1, max_value=10**4))
    return TopologyStats(diameter=draw(st.integers(min_value=1, max_value=lg)),
                         longest_simple_path=lg, lg_is_exact=True)


@given(st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9]),
       st.integers(min_value=1, max_value=10**6), _stats())
def test_derived_params_always_satisfy_strict_chain(rho, d, stats):
    """Derived timing meets the paper's constraint and leaves a
    separation window, so resolve_config checks neither for it:
    tau1 >= 3 * (tau0 + d) >= 3 * (L_G + 3) * d puts tau1 // 2 above
    L_G * d >= diameter * d."""
    p = derive_params(stats, d, rho)
    check_strict_constraint(p.tau0, p.tau1, stats, d, rho)  # must not raise
    segmentation_params(p, stats)  # must not raise


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
    # compensation restores tau0 - d_min local ticks after an internal trigger
    short = dict(d_min=50, d_max=100, rho=0.0, tau0=40, tau1=1000, tau2=1000)
    SimParams(**short)
    SimParams(**dict(short, tau0=50), dmin_compensation=True)
    with pytest.raises(ParameterError, match="dmin_compensation needs tau0 >= "
                                             "d_min, got tau0=40 < d_min=50"):
        SimParams(**short, dmin_compensation=True)
    # with drift, a one-tick gap between tau0 and tau2 can round to 0 ns,
    # so a cell would reach its liveness deadline while still excited
    with pytest.raises(ParameterError, match="need tau2 - tau0 >= 2 when "
                                             "rho > 0, got tau0=1, tau2=2"):
        SimParams(d_min=0, d_max=1, rho=0.5, tau0=1, tau1=2, tau2=2)
    SimParams(d_min=0, d_max=1, rho=0.5, tau0=1, tau1=2, tau2=3)
    SimParams(d_min=0, d_max=1, rho=0.0, tau0=1, tau1=2, tau2=2)
    # a trace's #meta params reach SimParams unchecked by the config types
    valid = dict(d_min=0, d_max=100, rho=0.0, tau0=500, tau1=2000, tau2=2000)
    SimParams(**valid)
    SimParams(**dict(valid, rho=0, omission_p=1))  # an int is a number
    for field, value in [("d_max", 1e400), ("d_max", 100.5), ("d_max", True),
                         ("d_min", 0.0), ("tau0", 501.5), ("tau1", "2000"),
                         ("tau2", None), ("rho", True), ("rho", "0"),
                         ("omission_p", False), ("dmin_compensation", 7),
                         ("dmin_compensation", 0)]:
        with pytest.raises(ParameterError, match=f"{field} must be"):
            SimParams(**dict(valid, **{field: value}))
    # an integer beyond 2**53 would overflow the float checks; the error
    # names the field without echoing all of its digits
    for field, value in [("d_max", 10**400), ("tau1", 10**400),
                         ("tau1", -10**400), ("tau2", 2**53 + 1)]:
        with pytest.raises(ParameterError, match=f"^{field} is outside") as exc:
            SimParams(**dict(valid, **{field: value}))
        assert len(str(exc.value)) < 80
    SimParams(**dict(valid, d_max=2**53))


@pytest.mark.parametrize("cls, valid, field, bad, message", [
    (SimParams, dict(d_min=0, d_max=100, rho=0.0, tau0=500, tau1=2000,
                     tau2=2000), "d_min", 200, "need 0 <= d_min <= d_max"),
    (SimParams, dict(d_min=0, d_max=100, rho=0.0, tau0=500, tau1=2000,
                     tau2=2000), "tau1", "2000", "tau1 must be int"),
    (DelayModel, dict(kind="uniform"), "kind", "normal",
     "unknown delay model kind"),
    (InitState, dict(mode="adversarial-explicit", elapsed=(0, 5)), "elapsed",
     (0, -1), "negative elapsed reading"),
    (DriftAssignment, dict(mode="extremal"), "mode", "bogus",
     "unknown drift mode"),
], ids=["simparams-bounds", "simparams-type", "delay-kind", "init-elapsed",
        "drift-mode"])
def test_records_validate_on_every_construction_path(cls, valid, field, bad,
                                                     message):
    good = cls(**valid)
    assert cls.__bases__ == (tuple,) and not hasattr(good, "__dict__")
    back = pickle.loads(pickle.dumps(good))
    assert back == good and type(back) is cls
    assert type(good._replace()) is cls
    values = [bad if name == field else v for name, v in zip(cls._fields, good)]
    forged = tuple.__new__(cls, values)  # bypasses the checks: a bad pickle
    for build in (lambda: cls(**dict(zip(cls._fields, values))),
                  lambda: cls(*values),
                  lambda: good._replace(**{field: bad}),
                  lambda: cls._make(values),
                  lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(ParameterError, match=message):
            build()


def test_simparams_dict_roundtrip():
    p = _params()
    assert SimParams.from_dict(p._asdict()) == p


def test_liveness_real_max():
    p = _params(rho=0.0)
    assert p.liveness_real_max == p.tau2
    q = _params(rho=1e-4)
    assert q.liveness_real_max == math.ceil(Fraction(q.tau2) / (1 - Fraction(1e-4)))


def test_uniform_delay_bounds():
    model = DelayModel(kind="uniform")
    s = model.sampler(stream(0, "delays"), 10, 20)
    values = {s(0, 1) for _ in range(500)}
    assert min(values) >= 10 and max(values) <= 20
    assert len(values) > 5


def test_fixed_delay_requires_degenerate_interval():
    """A fixed delay is adversarial-max on a degenerate interval; "fixed"
    is no kind of its own."""
    with pytest.raises(ParameterError,
                       match="unknown delay model kind 'fixed'"):
        DelayModel(kind="fixed")
    s = DelayModel(kind="adversarial-max").sampler(stream(0, "delays"), 7, 7)
    assert s(0, 1) == 7


def test_adversarial_max_delay():
    s = DelayModel(kind="adversarial-max").sampler(stream(0, "delays"), 0, 9)
    assert all(s(0, 1) == 9 for _ in range(10))


def test_schedule_delays_and_underrun():
    model = DelayModel(kind="adversarial-schedule", schedule={(0, 1): [3, 4]})
    s = model.sampler(stream(0, "delays"), 0, 10)
    assert s(0, 1) == 3 and s(0, 1) == 4
    with pytest.raises(ScheduleUnderrunError):
        s(0, 1)
    with pytest.raises(ScheduleUnderrunError):
        s(1, 0)  # no entry for this direction


def test_schedule_cycling():
    model = DelayModel(kind="adversarial-schedule",
                       schedule={(0, 1): [3, 4]}, cycle=True)
    s = model.sampler(stream(0, "delays"), 0, 10)
    assert [s(0, 1) for _ in range(5)] == [3, 4, 3, 4, 3]


def test_schedule_rejects_out_of_bounds():
    with pytest.raises(ParameterError):
        DelayModel(kind="adversarial-schedule",
                   schedule={(0, 1): [11]}).sampler(stream(0, "delays"), 0, 10)


def test_schedule_file_parsing(tmp_path):
    path = tmp_path / "sched.txt"
    path.write_text("# comment\n0 1 5\n0 1 6\n1 0 7\n")
    sched = read_schedule_file(path)
    assert sched == {(0, 1): [5, 6], (1, 0): [7]}


def test_drift_assignments():
    rng = stream(0, "drifts")
    assert DriftAssignment().assign(4, rng, 0.1) == [0.0] * 4
    ext = DriftAssignment(mode="extremal").assign(4, rng, 0.1)
    assert ext == [0.1, -0.1, 0.1, -0.1]
    uni = DriftAssignment(mode="uniform").assign(100, rng, 0.1)
    assert all(-0.1 <= v <= 0.1 for v in uni)
    exp = DriftAssignment(mode="explicit", values=(0.05, -0.1))
    assert exp.assign(2, rng, 0.1) == [0.05, -0.1]
    with pytest.raises(ParameterError):
        DriftAssignment(mode="explicit", values=(0.05,)).assign(1, rng, 0.01)
    with pytest.raises(ParameterError):
        DriftAssignment(mode="explicit",
                        values=(float("nan"),)).assign(1, rng, 0.01)


def test_streams_are_independent_and_reproducible():
    a1 = [stream(42, "delays").random() for _ in range(3)]
    a2 = [stream(42, "delays").random() for _ in range(3)]
    b = [stream(42, "omissions").random() for _ in range(3)]
    assert a1 == a2 and a1 != b
