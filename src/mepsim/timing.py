"""Clocks, delays, faults, and protocol time parameters.

All durations are integer nanoseconds.  A local clock with drift rate
delta measures a local duration L over the real duration L/(1+delta);
conversions use round-half-up so every deadline is a single well-defined
integer instant.  Random choices come from named rng streams derived
from one root seed, so toggling one model never perturbs another.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, ScheduleUnderrunError
from .topology import TopologyStats

PARAM_MODE_PAPER_SIM = "paper-sim"
PARAM_MODE_STRICT = "strict-constraint"


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


@dataclass(frozen=True)
class SimParams:
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

    def __post_init__(self):
        if not 0 <= self.d_min <= self.d_max:
            raise ParameterError(f"need 0 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if not 0.0 <= self.rho < 1.0:
            raise ParameterError(f"need 0 <= rho < 1, got {self.rho}")
        if not 0.0 <= self.omission_p <= 1.0:
            raise ParameterError(f"omission_p must be in [0,1], got {self.omission_p}")
        if not 0 < self.tau0 < self.tau2:
            raise ParameterError(f"need 0 < tau0 < tau2, got {self.tau0}, {self.tau2}")
        # tau2 = tau1*(1+rho) up to integer rounding
        if abs(self.tau2 - self.tau1 * (1.0 + self.rho)) > 2.0 + self.rho:
            raise ParameterError(
                f"tau2={self.tau2} inconsistent with tau1={self.tau1} at rho={self.rho}")

    @property
    def liveness_real_max(self) -> int:
        """Worst-case real gap forced by the liveness timer, ceil(tau2/(1-rho))."""
        return int(math.ceil(Fraction(self.tau2) / (1 - Fraction(self.rho))))

    def as_dict(self) -> dict:
        return {
            "d_min": self.d_min,
            "d_max": self.d_max,
            "rho": self.rho,
            "tau0": self.tau0,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "omission_p": self.omission_p,
            "dmin_compensation": self.dmin_compensation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimParams":
        return cls(**{k: d[k] for k in (
            "d_min", "d_max", "rho", "tau0", "tau1", "tau2",
            "omission_p", "dmin_compensation")})


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


def derive_params(stats: TopologyStats, d: int, rho: float,
                  mode: str = PARAM_MODE_PAPER_SIM, *, d_min: int = 0,
                  omission_p: float = 0.0,
                  dmin_compensation: bool = False) -> SimParams:
    """Derive tau0/tau1/tau2 from the topology stats and the delay bound.

    tau0 = (1+rho)*(L_G+2)*d, tau2 = 3*(1+rho)*(tau0/(1-rho)+d), and
    tau1 = tau2/(1+rho), each rounded up to integer nanoseconds.  Strict
    mode additionally verifies the constraint chain on the rounded values.
    """
    if d <= 0:
        raise ParameterError(f"need d > 0, got {d}")
    if not 0.0 <= rho < 1.0:
        raise ParameterError(f"need 0 <= rho < 1, got {rho}")
    if mode not in (PARAM_MODE_PAPER_SIM, PARAM_MODE_STRICT):
        raise ParameterError(f"unknown parameter mode {mode!r}")
    r = Fraction(rho)
    lg = stats.longest_simple_path
    tau0 = int(math.ceil((1 + r) * (lg + 2) * d))
    tau2 = int(math.ceil(3 * (1 + r) * (Fraction(tau0) / (1 - r) + d)))
    tau1 = int(math.ceil(Fraction(tau2) / (1 + r)))
    if mode == PARAM_MODE_STRICT:
        check_strict_constraint(tau0, tau1, stats, d, rho)
    return SimParams(d_min=d_min, d_max=d, rho=rho, tau0=tau0, tau1=tau1,
                     tau2=tau2, omission_p=omission_p,
                     dmin_compensation=dmin_compensation)


DELAY_UNIFORM = "uniform"
DELAY_FIXED = "fixed"
DELAY_ADVERSARIAL_MAX = "adversarial-max"
DELAY_ADVERSARIAL_SCHEDULE = "adversarial-schedule"


@dataclass
class DelayModel:
    """Per-signal delay source; every sample lies in [d_min, d_max].

    uniform: integer-uniform inclusive on [d_min, d_max].
    fixed: degenerate interval, always d_max (requires d_min == d_max).
    adversarial-max: always d_max.
    adversarial-schedule: per-directed-edge lists consumed in emission
    order; cycle=True repeats each list, else exhaustion is an error.
    """

    kind: str
    d_min: int
    d_max: int
    schedule: dict | None = None  # {(src, dst): [delay_ns, ...]}
    cycle: bool = False

    def __post_init__(self):
        if self.kind not in (DELAY_UNIFORM, DELAY_FIXED,
                             DELAY_ADVERSARIAL_MAX, DELAY_ADVERSARIAL_SCHEDULE):
            raise ParameterError(f"unknown delay model kind {self.kind!r}")
        if not 0 <= self.d_min <= self.d_max:
            raise ParameterError(f"need 0 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.kind == DELAY_FIXED and self.d_min != self.d_max:
            raise ParameterError("fixed delay model requires d_min == d_max")
        if self.kind == DELAY_ADVERSARIAL_SCHEDULE:
            if not self.schedule:
                raise ParameterError("adversarial-schedule model requires a schedule")
            for (src, dst), values in self.schedule.items():
                for v in values:
                    if not self.d_min <= v <= self.d_max:
                        raise ParameterError(
                            f"schedule delay {v} for edge ({src},{dst}) outside "
                            f"[{self.d_min}, {self.d_max}]")

    def sampler(self, rng: random.Random) -> "DelaySampler":
        return DelaySampler(self, rng)


class DelaySampler:
    """Stateful per-run delay source bound to one rng stream."""

    def __init__(self, model: DelayModel, rng: random.Random):
        self.model = model
        self._cursors = {}
        kind = model.kind
        if kind == DELAY_UNIFORM:
            lo, width = model.d_min, model.d_max - model.d_min + 1
            rnd = rng.random
            self.sample = lambda src, dst: lo + int(rnd() * width)
        elif kind in (DELAY_FIXED, DELAY_ADVERSARIAL_MAX):
            value = model.d_max
            self.sample = lambda src, dst: value
        else:
            self.sample = self._sample_schedule

    def _sample_schedule(self, src, dst):
        model = self.model
        key = (src, dst)
        values = model.schedule.get(key)
        if values is None:
            raise ScheduleUnderrunError(f"no schedule for directed edge ({src},{dst})")
        pos = self._cursors.get(key, 0)
        if pos >= len(values):
            if not model.cycle:
                raise ScheduleUnderrunError(
                    f"schedule exhausted for directed edge ({src},{dst})")
            pos = 0
        self._cursors[key] = pos + 1
        return values[pos]


def sample_delay(sampler: DelaySampler, src: int = 0, dst: int = 0) -> int:
    """Draw one delay; asserts the bound invariant."""
    value = sampler.sample(src, dst)
    assert sampler.model.d_min <= value <= sampler.model.d_max
    return value


def read_schedule_file(path) -> dict:
    """Parse lines 'src dst delay_ns' into per-directed-edge lists."""
    schedule = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParameterError(f"{path}:{lineno}: expected 'src dst delay_ns'")
            src, dst, delay = int(parts[0]), int(parts[1]), int(parts[2])
            schedule.setdefault((src, dst), []).append(delay)
    return schedule


DRIFT_ZERO = "zero"
DRIFT_UNIFORM = "uniform"
DRIFT_EXTREMAL = "extremal"
DRIFT_EXPLICIT = "explicit"


@dataclass(frozen=True)
class DriftAssignment:
    """Per-cell constant drift rates, each within [-rho, +rho]."""

    mode: str = DRIFT_ZERO
    rho: float = 0.0
    values: tuple | None = None

    def assign(self, n: int, rng: random.Random) -> list:
        if self.mode == DRIFT_ZERO:
            return [0.0] * n
        if self.mode == DRIFT_UNIFORM:
            return [rng.uniform(-self.rho, self.rho) for _ in range(n)]
        if self.mode == DRIFT_EXTREMAL:
            return [self.rho if i % 2 == 0 else -self.rho for i in range(n)]
        if self.mode == DRIFT_EXPLICIT:
            if self.values is None or len(self.values) != n:
                raise ParameterError("explicit drift assignment needs one value per cell")
            for v in self.values:
                if abs(v) > self.rho:
                    raise ParameterError(f"drift {v} exceeds bound {self.rho}")
            return list(self.values)
        raise ParameterError(f"unknown drift mode {self.mode!r}")
