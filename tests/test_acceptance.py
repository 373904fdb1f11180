"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line and asserts the
criterion, including the pinned runtime budgets where the criterion
carries one.  Workload sizes (delay bounds, horizons) were fixed by
pilot runs before the thresholds were frozen; thresholds themselves are
never adapted to the outcome.
"""

import itertools
import random
import statistics
import time

import pytest

from mepsim import DelayModel, DriftAssignment, derive_params, simulate
from mepsim.analysis import (Propagation, association_classes,
                             check_pattern_properties, classify_patterns,
                             detect_stabilization, convergence_bound,
                             required_horizon, validate_paths, ROLE_FLAT,
                             ROLE_FLOW, ROLE_RIDGE, ROLE_SINK)
from mepsim.cli import main as cli_main
from mepsim.engine import InitState
from mepsim.oracle import brute_force_simulate
from mepsim.timing import SimParams
from mepsim.topology import (build_grid, build_hypercube, build_ring,
                             from_edge_list, topology_stats)
from mepsim.trace import OUTCOME_REJECTED, ArrivalRecord, Trace


VERDICT_LINES = []


def _verdict(n, ok, detail=""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    VERDICT_LINES.append(line)
    print(line)
    assert ok, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    d = 120
    graphs = [from_edge_list(2, [(0, 1)]),
              from_edge_list(3, [(0, 1), (1, 2)]),
              from_edge_list(3, [(0, 1), (1, 2), (0, 2)])]
    total = mismatches = 0
    for g in graphs:
        stats = topology_stats(g)
        edges = sorted(g.edges)
        for rho in (0.0, 1e-4):
            params = derive_params(stats, d, rho)
            horizon = 5 * params.liveness_real_max
            delay_grid = list(itertools.product([0, d // 2, d],
                                                repeat=len(edges)))
            init_grid = list(itertools.product(
                [0, params.tau0, params.tau2], repeat=g.node_count))
            combos = list(itertools.product(delay_grid, init_grid))
            step = max(1, len(combos) // 85)
            for idx in range(0, len(combos), step):
                dvals, ivals = combos[idx]
                sched = {}
                for (a, b), dv in zip(edges, dvals):
                    sched[(a, b)] = [dv]
                    sched[(b, a)] = [dv]
                dm = DelayModel(kind="adversarial-schedule", schedule=sched, cycle=True)
                init = InitState(mode="adversarial-explicit",
                                 elapsed=tuple(ivals))
                drift = DriftAssignment(mode="extremal")
                kw = dict(delay_model=dm, horizon=horizon, seed=idx,
                          init=init, drift=drift)
                a = simulate(g, params, **kw)
                b = brute_force_simulate(g, params, **kw)
                total += 1
                if a.triggers != b.triggers or a.arrivals != b.arrivals:
                    mismatches += 1
    elapsed = time.time() - t0
    ok = total >= 200 and mismatches == 0 and elapsed < 60
    _verdict(1, ok, f"({total} configs, {mismatches} mismatches, "
                    f"{elapsed:.1f}s)")


# ------------------------------------------------------- criteria 2 and 3


def _adversarial_reports():
    d = 1000
    out = []
    for g in (build_ring(8), build_grid(4, 4)):
        stats = topology_stats(g)
        params = derive_params(stats, d, 1e-4)
        horizon = required_horizon(params, stats) + 3 * params.liveness_real_max
        dm = DelayModel(kind="adversarial-max")
        edges = sorted(g.edges)
        for trial in range(100):
            rng = random.Random(f"adv/{g.name}/{trial}")
            elapsed = tuple(rng.choice(
                [0, params.tau0 - 1, params.tau0, params.tau2 // 2,
                 params.tau2 - 1, params.tau2,
                 rng.randint(0, params.tau2)]) for _ in range(g.node_count))
            signals = []
            for _ in range(rng.randint(0, 4)):
                a, b = rng.choice(edges)
                if rng.random() < 0.5:
                    a, b = b, a
                signals.append((a, b, rng.randint(0, d)))
            init = InitState(mode="adversarial-explicit", elapsed=elapsed,
                             signals=tuple(signals))
            trace = simulate(g, params, delay_model=dm, horizon=horizon,
                             seed=trial, init=init,
                             drift=DriftAssignment(mode="extremal"))
            report = detect_stabilization(trace, stats)
            out.append((g, stats, params, report))
    return out


@pytest.fixture(scope="module")
def adversarial_reports():
    return _adversarial_reports()


def test_criterion_02_stabilization_bound(adversarial_reports):
    t0 = time.time()
    bad = 0
    for g, stats, params, report in adversarial_reports:
        bound = convergence_bound(params) + params.tau2
        if not (report.stabilized and report.t_stab <= bound):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60
    _verdict(2, ok, f"({len(adversarial_reports)} adversarial runs, "
                    f"{bad} bound violations, {elapsed:.1f}s)")


def test_criterion_03_precision_bound(adversarial_reports):
    d = 1000
    bad = 0
    checked = 0
    for g, stats, params, report in adversarial_reports:
        if report.stabilized:
            checked += 1
            if report.tau_pi_measured > stats.diameter * d \
                    or report.tau_nabla_measured > params.liveness_real_max:
                bad += 1
    for g in (build_ring(8), build_grid(4, 4)):
        stats = topology_stats(g)
        params = derive_params(stats, d, 1e-4)
        horizon = required_horizon(params, stats) + 3 * params.liveness_real_max
        dm = DelayModel(kind="uniform")
        for seed in range(50):
            trace = simulate(g, params, delay_model=dm, horizon=horizon,
                             seed=seed,
                             drift=DriftAssignment(mode="uniform"))
            report = detect_stabilization(trace, stats)
            if report.stabilized:
                checked += 1
                if report.tau_pi_measured > stats.diameter * d \
                        or report.tau_nabla_measured > params.liveness_real_max:
                    bad += 1
    _verdict(3, bad == 0 and checked >= 250,
             f"({checked} stabilized suffixes, {bad} violations)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_error_monotonicity():
    d = 1000
    violations = 0
    runs = 0
    for g in (build_ring(16), build_grid(4, 4)):
        stats = topology_stats(g)
        params = derive_params(stats, d, 0.0)
        horizon = required_horizon(params, stats) + 40 * params.tau2
        dm = DelayModel(kind="uniform")
        for seed in range(50):
            trace = simulate(g, params, delay_model=dm, horizon=horizon,
                             seed=seed, drift=DriftAssignment(mode="zero"),
                             record_arrivals=False)
            report = detect_stabilization(trace, stats)
            assert report.stabilized
            runs += 1
            k0 = next(k for k, r in enumerate(report.rounds)
                      if r.segment.t1 >= report.t_stab)
            e1 = [r.e1 for r in report.rounds]
            for k in range(max(k0, 1), len(e1) - 1):
                if e1[k + 1] > e1[k]:
                    violations += 1
                    break
    _verdict(4, violations == 0, f"({runs} runs, {violations} "
                                 "non-monotone series)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_final_offsets_small():
    t0 = time.time()
    d = 1000
    ok = True
    details = []
    for g in (build_ring(16), build_grid(4, 4)):
        stats = topology_stats(g)
        params = derive_params(stats, d, 0.0)
        horizon = required_horizon(params, stats) + 510 * params.tau2
        dm = DelayModel(kind="uniform")
        offsets = []
        for seed in range(20):
            trace = simulate(g, params, delay_model=dm, horizon=horizon,
                             seed=seed, drift=DriftAssignment(mode="zero"),
                             record_arrivals=False)
            report = detect_stabilization(trace, stats)
            assert report.stabilized and len(report.rounds) > 500
            last = report.rounds[-1]
            offsets.extend(t - last.segment.t1 for t in last.propagation.times
                           if t is not None)
        med = statistics.median(offsets)
        details.append(f"{g.name} median={med:.1f}")
        ok = ok and med < 0.2 * d
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _verdict(5, ok, f"({'; '.join(details)}; threshold {0.2 * d:.0f}ns, "
                    f"{elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_source_fraction_growth():
    d = 100
    g = build_grid(16, 16)
    stats = topology_stats(g)
    params = derive_params(stats, d, 0.0)
    horizon = required_horizon(params, stats) + 1650 * params.tau2
    dm = DelayModel(kind="uniform")
    improved = ideal = 0
    for seed in range(10):
        trace = simulate(g, params, delay_model=dm, horizon=horizon,
                         seed=seed, drift=DriftAssignment(mode="zero"),
                         record_arrivals=False)
        report = detect_stabilization(trace, stats)
        fr = [r.source_fraction for r in report.rounds]
        assert len(fr) > 1600
        if fr[1600] > fr[5]:
            improved += 1
        if any(f == 1.0 for f in fr):
            ideal += 1
    _verdict(6, improved >= 9 and ideal >= 1,
             f"({improved}/10 improved, {ideal} reached the full-source "
             "pattern)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_hypercube_converges_faster():
    d = 1000
    n = 64
    threshold = int(n * 0.5 * d)
    means = {}
    for g in (build_grid(8, 8), build_hypercube(6)):
        stats = topology_stats(g)
        params = derive_params(stats, d, 1e-4)
        horizon = required_horizon(params, stats) + 120 * params.tau2
        dm = DelayModel(kind="uniform")
        hits = []
        for seed in range(20):
            trace = simulate(g, params, delay_model=dm, horizon=horizon,
                             seed=seed,
                             drift=DriftAssignment(mode="uniform"),
                             record_arrivals=False)
            report = detect_stabilization(trace, stats)
            hit = next((k for k, r in enumerate(report.rounds)
                        if r.valid and r.e1 < threshold),
                       len(report.rounds))
            hits.append(hit)
        means[g.name] = sum(hits) / len(hits)
    ok = means["hypercube:6"] < means["grid:8x8"]
    _verdict(7, ok, f"(mean rounds to e1<{threshold}: "
                    f"hypercube={means['hypercube:6']:.1f}, "
                    f"grid={means['grid:8x8']:.1f})")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_omission_tolerance():
    d = 100
    g = build_grid(16, 16)
    stats = topology_stats(g)
    results = {}
    for p_om in (0.01, 0.1, 0.2):
        params = derive_params(stats, d, 1e-4, omission_p=p_om)
        horizon = required_horizon(params, stats) + 10 * params.liveness_real_max
        dm = DelayModel(kind="uniform")
        good = 0
        for seed in range(20):
            trace = simulate(g, params, delay_model=dm, horizon=horizon,
                             seed=seed,
                             drift=DriftAssignment(mode="uniform"),
                             record_arrivals=False)
            if detect_stabilization(trace, stats).stabilized:
                good += 1
        results[p_om] = good
    # heaviest loss rate: runs must complete with a recorded verdict
    params = derive_params(stats, d, 1e-4, omission_p=0.3)
    horizon = required_horizon(params, stats) + 10 * params.liveness_real_max
    dm = DelayModel(kind="uniform")
    verdicts = []
    for seed in range(5):
        trace = simulate(g, params, delay_model=dm, horizon=horizon,
                         seed=seed,
                         drift=DriftAssignment(mode="uniform"),
                         record_arrivals=False)
        verdicts.append(detect_stabilization(trace, stats).stabilized)
    ok = all(v >= 18 for v in results.values()) and len(verdicts) == 5
    _verdict(8, ok, f"(stabilized {results}, p=0.3 verdicts {verdicts})")


# ---------------------------------------------------------------- criterion 9


def _fixture_suite():
    P3 = from_edge_list(3, [(0, 1), (1, 2)])
    K2 = from_edge_list(2, [(0, 1)])
    diamond = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    chain_paths = {0: (0,), 1: (0, 1), 2: (0, 1, 2)}
    chain = Propagation.from_paths(chain_paths)
    results = []

    def check(name, got, want=True):
        results.append((name, got == want))

    rep = validate_paths(chain_paths, P3, {0})
    check("chain-all-ok", rep.all_ok)
    check("valid-neg", validate_paths(chain_paths, P3, {1}).valid, False)
    check("simple-neg", validate_paths(
        {0: (0,), 1: (0, 1, 0, 1)}, K2, {0}).simple, False)
    check("complete-neg", validate_paths(
        {0: (0,), 1: (0, 1)}, P3, {0}).complete, False)
    check("exclusive-neg", validate_paths(
        {0: (0,), 1: (0, 1), 2: (1, 2)}, P3, {0, 1}).exclusive, False)
    check("propagative-neg", validate_paths(
        {0: (0,), 1: (0, 1), 2: (0, 1, 2), 3: (0, 2, 3)},
        diamond, {0}).propagative, False)

    pattern = classify_patterns(chain, P3)
    names = {c.name: c.passed for c in
             check_pattern_properties(pattern, chain, P3)}
    for name, passed in names.items():
        check(f"{name}-pos", passed)
    broken = classify_patterns(chain, P3)
    broken.flow_role[0] = ROLE_SINK
    names = {c.name: c.passed for c in
             check_pattern_properties(broken, chain, P3)}
    check("non-sink-source-neg", names["non-sink-region-has-non-sink-source"],
          False)
    broken = classify_patterns(chain, P3)
    broken.border_role[1] = ROLE_FLAT
    broken.flow_role[1] = ROLE_SINK
    names = {c.name: c.passed for c in
             check_pattern_properties(broken, chain, P3)}
    check("flat-sink-neg", names["flat-degree2-not-sink"], False)
    broken = classify_patterns(chain, P3)
    broken.flow_role[1] = ROLE_FLOW
    broken.flow_role[2] = ROLE_FLOW  # a source remains but no sink is left
    names = {c.name: c.passed for c in
             check_pattern_properties(broken, chain, P3)}
    check("sink-per-region-neg", names["sink-per-region"], False)
    check("sinks-ge-sources-neg", names["sinks-at-least-sources"], False)
    broken = classify_patterns(chain, P3)
    broken.border_role[1] = ROLE_RIDGE
    names = {c.name: c.passed for c in
             check_pattern_properties(broken, chain, P3)}
    check("tree-ridge-neg", names["tree-has-no-ridge"], False)
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    sprop = Propagation.from_paths(
        {0: (0,), 1: (0, 1), 2: (0, 2), 3: (0, 3)})
    broken = classify_patterns(sprop, star)
    broken.flow_role[2] = ROLE_FLOW
    broken.flow_role[3] = ROLE_FLOW
    names = {c.name: c.passed for c in
             check_pattern_properties(broken, sprop, star)}
    check("children-sinks-neg", names["source-children-bounded-by-sinks"],
          False)
    broken = classify_patterns(chain, P3)
    broken.border_role[1] = ROLE_FLAT
    broken.flow_role[2] = ROLE_FLOW
    names = {c.name: c.passed for c in
             check_pattern_properties(broken, chain, P3)}
    check("flat-forces-sinks-neg", names["flat-cells-force-sinks"], False)

    params = SimParams(d_min=0, d_max=100, rho=0.0, tau0=1000, tau1=4000,
                       tau2=4000)
    good = Trace(
        graph=K2, params=params,
        triggers=[(1000, 0, 0), (1080, 1, 0)],
        arrivals=[ArrivalRecord(frm=0, to=1, time=1080, outcome="accepted")],
        horizon=10**6, seed=0)
    ac = association_classes(good, (0, 10**6), topology_stats(K2))
    check("association-pair-pos",
          ac.classes == ((0, 1),) and ac.spans[0] <= 100
          and ac.partitions_coincide and ac.spans_ok)
    bad = Trace(
        graph=K2, params=params,
        triggers=[(0, 1, 1), (150, 0, 0)],
        arrivals=[ArrivalRecord(frm=0, to=1, time=200,
                                outcome=OUTCOME_REJECTED, rejecting_seq=0)],
        horizon=10**6, seed=0)
    ac = association_classes(bad, (0, 10**6), topology_stats(K2))
    check("association-partition-neg", ac.partitions_coincide, False)
    check("association-span-neg", ac.spans_ok, False)
    return results


def test_criterion_09_checker_fixture_suite():
    t0 = time.time()
    results = _fixture_suite()
    elapsed = time.time() - t0
    failed = [name for name, ok in results if not ok]
    ok = not failed and elapsed < 5
    _verdict(9, ok, f"({len(results)} fixtures, failed={failed}, "
                    f"{elapsed:.2f}s)")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    base = ["--override", "topology=ring:8", "--override", "d_max=1000",
            "--override", "rho=0.0001", "--seed", "42"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--out", str(a)] + base) == 0
    assert cli_main(["run", "--out", str(b)] + base) == 0
    same_trace = (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    same_metrics = (a / "metrics.json").read_bytes() == \
        (b / "metrics.json").read_bytes()
    an = tmp_path / "an"
    assert cli_main(["analyze", str(a / "trace.csv"), "--out", str(an)]) == 0
    roundtrip = (a / "metrics.json").read_bytes() == \
        (an / "metrics.json").read_bytes()
    # library-level repeatability, independent of the CLI path
    g = build_ring(8)
    stats = topology_stats(g)
    params = derive_params(stats, 1000, 1e-4)
    dm = DelayModel(kind="uniform")
    t1 = simulate(g, params, delay_model=dm, horizon=10**6, seed="rt")
    t2 = simulate(g, params, delay_model=dm, horizon=10**6, seed="rt")
    same_lib = t1 == t2
    ok = same_trace and same_metrics and roundtrip and same_lib
    _verdict(10, ok, f"(trace={same_trace} metrics={same_metrics} "
                     f"roundtrip={roundtrip} library={same_lib})")
