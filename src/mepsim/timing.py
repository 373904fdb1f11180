"""Clocks, delays, faults, and protocol time parameters.

All durations are integer nanoseconds.  A local clock with drift rate
delta measures a local duration L over the real duration L/(1+delta);
conversions use round-half-up so every deadline is a single well-defined
integer instant.  Random choices come from named rng streams derived
from one root seed, so toggling one model never perturbs another.
SimParams holds the model's one set of bounds (delays in [d_min, d_max],
drift within +-rho); the delay and drift models are passed them per run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError, ScheduleUnderrunError
from .topology import TopologyStats

# the largest integer a float holds exactly; SimParams does float math on
# its integer fields, so none, and no horizon, may exceed it
MAX_NS = 2**53


def stream(seed, name: str) -> random.Random:
    """Named rng stream derived from the root seed."""
    return random.Random(f"{seed}/{name}")


def local_to_real(duration_local: int, drift: float) -> int:
    """Real nanoseconds spanned by a local-tick duration, round-half-up."""
    if duration_local < 0:
        raise ParameterError(f"negative duration {duration_local}")
    if drift == 0.0:
        return duration_local
    return math.floor(duration_local / (1.0 + drift) + 0.5)


def checked(cls):
    """Make a NamedTuple run `_check` on a call, `_replace` and unpickling."""
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        self._check()
        return self
    cls.__new__ = __new__
    cls._make = classmethod(lambda k, values: k(*values))  # _replace's path
    return cls


# SimParams's field types, in order; a bool is no count, an int a valid float
_PARAM_TYPES = ("int", "int", "float", "int", "int", "int", "float", "bool")
_ADMITS = {"int": (int,), "float": (int, float), "bool": (bool,)}


@checked
class SimParams(NamedTuple):
    """Protocol time parameters and fault/compensation toggles."""

    d_min: int
    d_max: int
    rho: float
    tau0: int  # local restoration threshold (ticks)
    tau1: int  # external-trigger real-time parameter (ns)
    tau2: int  # local liveness threshold (ticks)
    # receiver-side omission: each internal-trigger opportunity is lost with
    # this probability; external triggers and restorations never are
    omission_p: float = 0.0
    dmin_compensation: bool = False


    def _check(self):
        for name, v, kind in zip(self._fields, self, _PARAM_TYPES):
            if type(v) not in _ADMITS[kind]:
                raise ParameterError(f"{name} must be {kind}, got {v!r}")
            if kind == "int" and abs(v) > MAX_NS:  # not echoed: v may be huge
                raise ParameterError(f"{name} is outside [-2**53, 2**53] ns")
        if not 0 <= self.d_min <= self.d_max:
            raise ParameterError(f"need 0 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"need 0 <= rho < 1, got {self.rho}")
        if not 0.0 <= self.omission_p <= 1.0:
            raise ParameterError(f"omission_p must be in [0,1], got {self.omission_p}")
        if not 0 < self.tau0 < self.tau2:
            raise ParameterError(f"need 0 < tau0 < tau2, got {self.tau0}, {self.tau2}")
        # tau2 - tau0 >= 2 ticks keeps the drifted real gap above 1 ns, so
        # rounding never puts a restoration on its cell's liveness deadline
        if self.rho > 0 and self.tau2 - self.tau0 < 2:
            raise ParameterError(f"need tau2 - tau0 >= 2 when rho > 0, got "
                                 f"tau0={self.tau0}, tau2={self.tau2}")
        if self.dmin_compensation and self.tau0 < self.d_min:  # tau0 - d_min ticks
            raise ParameterError(
                f"dmin_compensation needs tau0 >= d_min, got tau0={self.tau0} "
                f"< d_min={self.d_min}")
        # tau2 = tau1*(1+rho) up to integer rounding
        if abs(self.tau2 - self.tau1 * (1.0 + self.rho)) > 2.0 + self.rho:
            raise ParameterError(
                f"tau2={self.tau2} inconsistent with tau1={self.tau1} at rho={self.rho}")

    @property
    def liveness_real_max(self) -> int:
        """Worst-case real gap forced by the liveness timer, ceil(tau2/(1-rho))."""
        return int(math.ceil(Fraction(self.tau2) / (1 - Fraction(self.rho))))

    @classmethod
    def from_dict(cls, d: dict) -> "SimParams":
        return cls(**{name: d[name] for name in cls._fields})


def check_strict_constraint(tau0: int, tau1: int, stats: TopologyStats,
                            d_max: int, rho: float) -> None:
    """Verify (1-rho)*tau1/3 > tau0 > (1+rho)*(L_G+1)*d_max exactly."""
    r = Fraction(rho)
    lhs = (1 - r) * tau1 / 3
    rhs = (1 + r) * (stats.longest_simple_path + 1) * d_max
    if not lhs > tau0:
        raise ParameterError(
            f"constraint violated: (1-rho)*tau1/3 = {float(lhs):.1f} must exceed tau0 = {tau0}")
    if not tau0 > rhs:
        raise ParameterError(
            f"constraint violated: tau0 = {tau0} must exceed "
            f"(1+rho)*(L_G+1)*d_max = {float(rhs):.1f}")


def derive_params(stats: TopologyStats, d: int, rho: float, *, d_min: int = 0,
                  omission_p: float = 0.0,
                  dmin_compensation: bool = False) -> SimParams:
    """Derive tau0/tau1/tau2 from the topology stats and the delay bound.

    tau0 = (1+rho)*(L_G+2)*d, tau2 = 3*(1+rho)*(tau0/(1-rho)+d), and
    tau1 = tau2/(1+rho), each rounded up to integer nanoseconds.  The
    rounded values always satisfy check_strict_constraint's chain.
    """
    if d <= 0:
        raise ParameterError(f"need d > 0, got {d}")
    if not 0.0 <= rho < 1.0:
        raise ParameterError(f"need 0 <= rho < 1, got {rho}")
    r = Fraction(rho)
    lg = stats.longest_simple_path
    tau0 = int(math.ceil((1 + r) * (lg + 2) * d))
    tau2 = int(math.ceil(3 * (1 + r) * (Fraction(tau0) / (1 - r) + d)))
    tau1 = int(math.ceil(Fraction(tau2) / (1 + r)))
    return SimParams(d_min=d_min, d_max=d, rho=rho, tau0=tau0, tau1=tau1,
                     tau2=tau2, omission_p=omission_p,
                     dmin_compensation=dmin_compensation)


DELAY_UNIFORM = "uniform"
DELAY_ADVERSARIAL_MAX = "adversarial-max"
DELAY_ADVERSARIAL_SCHEDULE = "adversarial-schedule"


@checked
class DelayModel(NamedTuple):
    """Per-signal delay source; every sample lies in SimParams's [d_min, d_max].

    uniform: integer-uniform inclusive on [d_min, d_max].
    adversarial-max: always d_max.
    adversarial-schedule: per-directed-edge lists consumed in emission
    order; cycle=True repeats each list, else exhaustion is an error.
    """

    kind: str
    schedule: dict | None = None  # {(src, dst): [delay_ns, ...]}
    cycle: bool = False

    def _check(self):
        if self.kind not in (DELAY_UNIFORM, DELAY_ADVERSARIAL_MAX,
                             DELAY_ADVERSARIAL_SCHEDULE):
            raise ParameterError(f"unknown delay model kind {self.kind!r}")
        if self.kind == DELAY_ADVERSARIAL_SCHEDULE and not self.schedule:
            raise ParameterError("adversarial-schedule model requires a schedule")

    def sampler(self, rng: random.Random, d_min: int, d_max: int):
        """This run's `sample(src, dst)` function over [d_min, d_max]; a
        uniform draw reads `rng.random`, a schedule keeps one cursor per
        directed edge.  Raises if the model does not fit the bounds."""
        if self.kind == DELAY_UNIFORM:
            rnd, width = rng.random, d_max - d_min + 1
            return lambda src, dst: d_min + int(rnd() * width)
        if self.kind != DELAY_ADVERSARIAL_SCHEDULE:
            return lambda src, dst: d_max
        schedule, cycle, cursors = self.schedule, self.cycle, {}
        for (src, dst), values in schedule.items():
            for v in values:
                if not d_min <= v <= d_max:
                    raise ParameterError(
                        f"schedule delay {v} for edge ({src},{dst}) outside "
                        f"[{d_min}, {d_max}]")

        def sample(src, dst):
            key = (src, dst)
            values = schedule.get(key)
            if values is None:
                raise ScheduleUnderrunError(f"no schedule for directed edge ({src},{dst})")
            pos = cursors.get(key, 0)
            if pos >= len(values):
                if not cycle:
                    raise ScheduleUnderrunError(
                        f"schedule exhausted for directed edge ({src},{dst})")
                pos = 0
            cursors[key] = pos + 1
            return values[pos]
        return sample


def read_schedule_file(path) -> dict:
    """Parse lines 'src dst delay_ns' into per-directed-edge lists."""
    schedule = {}
    with open(path) as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'src dst delay_ns'")
                src, dst, delay = int(parts[0]), int(parts[1]), int(parts[2])
                schedule.setdefault((src, dst), []).append(delay)
        except ValueError as exc:  # a non-integer field or bad encoding
            raise ParameterError(f"{path}: {exc}") from exc
    return schedule


DRIFT_ZERO = "zero"
DRIFT_UNIFORM = "uniform"
DRIFT_EXTREMAL = "extremal"
DRIFT_EXPLICIT = "explicit"


@checked
class DriftAssignment(NamedTuple):
    """Per-cell constant drift rates, each within SimParams's [-rho, +rho]."""

    mode: str = DRIFT_ZERO
    values: tuple | None = None

    def _check(self):
        if self.mode not in (DRIFT_ZERO, DRIFT_UNIFORM, DRIFT_EXTREMAL,
                             DRIFT_EXPLICIT):
            raise ParameterError(f"unknown drift mode {self.mode!r}")

    def assign(self, n: int, rng: random.Random, rho: float) -> list:
        if self.mode == DRIFT_ZERO:
            return [0.0] * n
        if self.mode == DRIFT_UNIFORM:
            return [rng.uniform(-rho, rho) for _ in range(n)]
        if self.mode == DRIFT_EXTREMAL:
            return [rho if i % 2 == 0 else -rho for i in range(n)]
        if self.values is None or len(self.values) != n:  # explicit
            raise ParameterError("explicit drift assignment needs one value per cell")
        for v in self.values:
            if not abs(v) <= rho:  # NaN fails this test too
                raise ParameterError(f"drift {v} exceeds bound {rho}")
        return list(self.values)
