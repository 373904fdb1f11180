"""Post-hoc trace analysis.

Everything here is a pure function of (Trace, Graph, parameters): round
clustering by inter-trigger gaps, propagation extraction into a pointer
forest, the five one-shot validity checks on that forest (and by their
pairwise definition on hand-built paths), association classes over
arrival outcomes, cell/neighbor pattern taxonomy with its structural
invariants, error metrics, and stabilization detection against the
analytic convergence bound.  `detect_stabilization` is the one pass over
the rounds; the plot series are a view of its report.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import attrgetter, eq, itemgetter, sub
from typing import NamedTuple

from .errors import InsufficientHorizonError, ParameterError
from .topology import Graph, TopologyStats
from .trace import OUTCOME_ACCEPTED, OUTCOME_REJECTED, Trace

# ---------------------------------------------------------------- rounds


class Segment(NamedTuple):
    """One maximal trigger cluster: interval [t1, t2] and member seqs;
    t1 is the round's earliest trigger time, its t_min."""

    t1: int
    t2: int
    trigger_seqs: range

    @property
    def span(self) -> int:
        return self.t2 - self.t1


def cluster_triggers(triggers, tau_delta: int) -> list:
    """Greedy clustering: a gap > tau_delta starts a new cluster.

    Imposes no intra-cluster span constraint, so it is usable on
    unstabilized prefixes.  The triggers are a trace's, time-sorted with
    seq equal to list index, so each cluster's seqs are one range.
    """
    if not triggers:
        return []
    segments, start = [], 0
    first = prev = triggers[0][0]
    for k, (t, _, _) in enumerate(triggers):
        if t - prev > tau_delta:
            segments.append(Segment(first, prev, range(start, k)))
            start, first = k, t
        prev = t
    segments.append(Segment(first, prev, range(start, len(triggers))))
    return segments


# ---------------------------------------------------------------- propagation


class Propagation(NamedTuple):
    """One extracted propagation: the pioneer-pointer forest of a round.

    Each list is indexed by cell.  `times[i]` is i's first trigger time
    within the segment, None if i did not fire; `pioneer[i]` is i itself
    for an external trigger or a cell that did not fire.  `source[i]` is
    the cell reached by following pioneer pointers from i; None marks a
    cell that did not fire or a broken chain (pointer loop or a pioneer
    with no trigger in the segment).  Cell i's path is the pointer chain
    source -> ... -> i, which `validate_omep` never spells out.  Only
    an external first trigger makes a cell its own source.
    """

    times: list
    pioneer: list
    source: list
    multi_triggered: tuple  # cells triggered more than once in the segment
    loops: tuple  # cells on a pioneer-pointer cycle

    @classmethod
    def from_paths(cls, paths: dict) -> "Propagation":
        """The pointer form of explicit per-cell paths (fixtures); every
        cell given a path fired at time 0."""
        n = max(paths, default=-1) + 1
        at, pioneer, source = [None] * n, list(range(n)), [None] * n
        for i, p in paths.items():
            at[i] = 0
            pioneer[i] = p[-2] if len(p) > 1 else i
            source[i] = p[0] if p else None
        return cls(times=at, pioneer=pioneer, source=source,
                   multi_triggered=(), loops=())


def extract_propagation(trace: Trace, seg: Segment) -> Propagation:
    """The segment's propagation, in one forward pass over its triggers.

    In time order a pioneer's trigger normally precedes its child's, so
    `source[cell] = source[pioneer]` settles the cell.  A cell stays
    pending (source None) when its pioneer has not fired yet (a
    zero-delay signal from a later seq, or a pioneer outside the
    segment) or is pending itself.  Only pending cells take the chain
    walk, in time order, which finds the same loops as walking every
    cell: a chain through a settled cell ends there.
    """
    n = trace.graph.node_count
    times, pioneer, source = [None] * n, list(range(n)), [None] * n
    pending, multi = [], []
    seqs = seg.trigger_seqs
    for t, cell, h in trace.triggers[seqs.start:seqs.stop]:
        if times[cell] is not None:
            multi.append(cell)
            continue  # keep the first trigger of the cell
        times[cell] = t
        if h == cell:  # an external trigger
            source[cell] = cell
        else:
            pioneer[cell] = h
            if source[h] is None:
                pending.append(cell)
            else:
                source[cell] = source[h]

    unsettled, loops = set(pending), []
    for start in pending:  # a start settled by an earlier chain walks none
        chain, cur = [], start
        while cur in unsettled:
            unsettled.remove(cur)
            chain.append(cur)
            cur = pioneer[cur]
        s = source[cur]  # settled, outside the segment, or on this chain
        if s is None and cur in chain:
            loops.extend(chain)
        for c in chain:
            source[c] = s
    return Propagation(times=times, pioneer=pioneer, source=source,
                       multi_triggered=tuple(sorted(set(multi))),
                       loops=tuple(sorted(loops)))


# ---------------------------------------------------------------- validation


class OmepReport(NamedTuple):
    valid: bool
    simple: bool
    complete: bool
    exclusive: bool
    propagative: bool
    witnesses: dict

    @property
    def all_ok(self) -> bool:
        return (self.valid and self.simple and self.complete
                and self.exclusive and self.propagative)


def validate_omep(p: Propagation) -> OmepReport:
    """Check the five one-shot properties of an extracted propagation,
    whose allowed sources are the cells that are their own source.

    The pointer forest makes every path simple and any two paths either
    disjoint or prefix-sharing, so only sources, loops and coverage need
    checking; `validate_paths` is the pairwise definition.
    """
    n_s, witnesses = {i for i, s in enumerate(p.source) if s == i}, {}
    bad_source = [i for i, s in enumerate(p.source)
                  if s not in n_s and p.times[i] is not None]
    valid = not bad_source
    if bad_source:
        witnesses["valid"] = bad_source[:4]
    simple = not p.loops
    if p.loops:
        witnesses["simple"] = list(p.loops[:4])
    missing = [i for i, t in enumerate(p.times) if t is None]
    complete = not missing and not p.multi_triggered
    if not complete:
        witnesses["complete"] = {"missing": missing[:4],
                                 "repeated": list(p.multi_triggered[:4])}
    return OmepReport(valid, simple, complete, True, True, witnesses)


def _common_prefix_len(a, b) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def validate_paths(paths: dict, g: Graph, n_s) -> OmepReport:
    """The five one-shot properties by their pairwise definition, for a
    hand-built set of paths {cell: (source, ..., cell)} and the
    source-candidate set n_s."""
    n_s = frozenset(n_s)
    witnesses = {}
    valid = True
    for i, path in sorted(paths.items()):
        if not path or path[0] not in n_s:
            valid = False
            witnesses["valid"] = i
            break
    simple = True
    for i, path in sorted(paths.items()):
        if len(set(path)) != len(path):
            simple = False
            witnesses["simple"] = i
            break
    covered = set()
    for path in paths.values():
        covered.update(path)
    missing = sorted(set(range(g.node_count)) - covered)
    complete = not missing
    if missing:
        witnesses["complete"] = {"missing": missing[:4], "repeated": []}
    exclusive = propagative = True
    items = sorted(paths.items())
    for ai in range(len(items)):
        for bi in range(ai + 1, len(items)):
            a, b = items[ai][1], items[bi][1]
            shared = set(a) & set(b)
            if not shared:
                continue
            if a and b and a[0] != b[0]:
                exclusive = False
                witnesses.setdefault("exclusive", (items[ai][0], items[bi][0]))
            k = _common_prefix_len(a, b)
            if set(a[k:]) & set(b[k:]):
                propagative = False
                witnesses.setdefault("propagative", (items[ai][0], items[bi][0]))
    return OmepReport(valid, simple, complete, exclusive, propagative, witnesses)


# ---------------------------------------------------------------- patterns

ROLE_SOURCE = "source"
ROLE_SINK = "sink"
ROLE_FLOW = "flow"
ROLE_UNITED = "united"

ROLE_BANK = "bank"
ROLE_RIDGE = "ridge"
ROLE_FLAT = "flat"


class PatternReport(NamedTuple):
    flow_role: list  # per cell: source|sink|flow|united
    border_role: list  # per cell: bank|ridge|flat
    counts: dict  # role -> count, all seven roles


def classify_patterns(p: Propagation, g: Graph) -> PatternReport:
    """Give every cell a flow and a border role from its neighbours.

    Each neighbour j of i takes the first label that fits: i's parent if
    it is i's pioneer, a child if i is its pioneer, alien if their path
    sources differ, family otherwise.  Cells missing from the
    propagation count as alien to everything (their source is
    undefined).  Parents and children set the flow role, aliens and
    family the border role.  One pass over the pioneer pointers finds
    the children (j is h = pioneer[j]'s child when h is a neighbour
    whose pioneer is not j), and i's first alien makes it a bank.
    """
    pioneer, source, adjacency = p.pioneer, p.source, g.adjacency
    child = [False] * len(pioneer)
    for j, h in enumerate(pioneer):
        if pioneer[h] != j and h in adjacency[j]:
            child[h] = True
    flow_role, border_role = [], []
    for i, adjacent in enumerate(adjacency):
        h, s, border = pioneer[i], source[i], ROLE_FLAT
        for j in adjacent:
            if j == h or pioneer[j] == i:
                continue
            if s is None or s != source[j]:
                border = ROLE_BANK
                break
            border = ROLE_RIDGE
        if h in adjacent:
            flow = ROLE_FLOW if child[i] else ROLE_SINK
        else:
            flow = ROLE_SOURCE if child[i] else ROLE_UNITED
        flow_role.append(flow)
        border_role.append(border)
    counts = {role: flow_role.count(role)
              for role in (ROLE_SOURCE, ROLE_SINK, ROLE_FLOW, ROLE_UNITED)}
    counts.update((role, border_role.count(role))
                  for role in (ROLE_BANK, ROLE_RIDGE, ROLE_FLAT))
    return PatternReport(flow_role=flow_role, border_role=border_role,
                         counts=counts)


def _regions(p: Propagation) -> dict:
    """source cell -> set of cells whose path starts there."""
    regions = {}
    for i, s in enumerate(p.source):
        if s is not None:
            regions.setdefault(s, set()).add(i)
    return regions


class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def check_pattern_properties(report: PatternReport, p: Propagation,
                             g: Graph) -> list:
    """Structural invariants every valid one-shot propagation must obey."""
    flow, border = report.flow_role, report.border_role
    regions = _regions(p)
    sinks = {s: sum(1 for i in cells if flow[i] in (ROLE_SINK, ROLE_UNITED))
             for s, cells in regions.items()}
    is_tree = g.edge_count == g.node_count - 1
    results = []

    def add(name, passed, detail=""):
        results.append(PropertyCheck(name, passed, detail))

    bad = [s for s in regions if not sinks[s]]
    add("sink-per-region", not bad, f"regions without sinks: {bad[:4]}")

    n_sink = sum(1 for r in flow if r in (ROLE_SINK, ROLE_UNITED))
    n_source = sum(1 for r in flow if r in (ROLE_SOURCE, ROLE_UNITED))
    add("sinks-at-least-sources", n_sink >= n_source,
        f"sinks={n_sink} sources={n_source}")

    # a region holds its source cell s exactly when s's own path starts at s
    bad = [s for s, cells in regions.items() if sinks[s] < len(cells)
           and not (p.source[s] == s and flow[s] in (ROLE_SOURCE, ROLE_FLOW))]
    add("non-sink-region-has-non-sink-source", not bad,
        f"regions: {bad[:4]}")

    ridges = [i for i, r in enumerate(border) if r == ROLE_RIDGE]
    add("tree-has-no-ridge", not (is_tree and ridges),
        f"ridge cells on a tree: {ridges[:4]}" if is_tree else "not a tree")

    bad = [i for i in range(g.node_count)
           if border[i] == ROLE_FLAT and g.degree(i) >= 2
           and flow[i] in (ROLE_SINK, ROLE_UNITED)]
    add("flat-degree2-not-sink", not bad, f"cells: {bad[:4]}")

    bad = []
    for s in regions:
        children = sum(1 for j in g.adjacency[s] if p.pioneer[j] == s)
        if sinks[s] < children:
            bad.append((s, children, sinks[s]))
    add("source-children-bounded-by-sinks", not bad, f"regions: {bad[:4]}")

    bad = []
    for s, cells in regions.items():
        flats = [i for i in cells if border[i] == ROLE_FLAT and g.degree(i) >= 2]
        if not flats:
            continue
        required = sum(g.degree(i) - 2 for i in flats) + 1
        if sinks[s] < required:
            bad.append((s, required, sinks[s]))
    add("flat-cells-force-sinks", not bad, f"regions: {bad[:4]}")
    return results


# ---------------------------------------------------------------- metrics


def propagation_error(p: Propagation) -> int:
    """Sum of per-cell trigger offsets from the earliest trigger."""
    times = [t for t in p.times if t is not None]
    return sum(times) - len(times) * min(times)


# ---------------------------------------------------------------- stabilization


class Round(NamedTuple):
    """One complete round and the facts drawn from it.  Both flags mean
    "one-shot valid and complete"; `valid` also requires span <= tau_pi,
    while `oneshot` (metrics.json `per_k.valid`) has no span bound."""

    segment: Segment
    propagation: Propagation
    oneshot: bool
    valid: bool
    e1: int  # propagation_error
    source_fraction: float  # share of cells that are their own source


class StabilizationReport(NamedTuple):
    """Stabilization verdict plus the rounds it was drawn from; rounds[k]
    is the k-th complete round."""

    stabilized: bool
    t_stab: int | None
    convergence_bound: int  # analytic instant by which stabilization must start
    bound_slack: int  # allowed extra span after the bound (one period)
    tau_pi_used: int
    tau_delta_used: int
    tau_nabla: int
    tau_pi_measured: int | None
    tau_nabla_measured: int | None
    rounds: list
    first_violation: dict | None = None

    @property
    def within_bound(self) -> bool:
        return (self.stabilized
                and self.t_stab <= self.convergence_bound + self.bound_slack)

    @property
    def segments(self) -> list:
        # perfbench/tracing.py counts rounds by len(report.segments)
        return [r.segment for r in self.rounds]


def segmentation_params(params, stats: TopologyStats) -> tuple:
    """(tau_pi, tau_delta) used to cut a trace into rounds.

    tau_pi is the analytic span bound diameter * d_max; tau_delta is
    tau1 // 2.  Clustering cuts only at a gap above tau_delta, and every
    gap inside a round is at most the round's span, so tau_delta > tau_pi
    keeps any round that meets the span bound in one cluster.  tau_delta
    also lies below the least gap between stabilized rounds: a round
    starts with an external trigger, at least tau2 / (1 + rho) = tau1
    after that cell's trigger in the round before, which ended within
    tau_pi of its start.  The gap is thus at least tau1 - tau_pi, and the
    paper's constraint (1 - rho) * tau1 / 3 > tau0 > (L_G + 1) * d_max
    puts tau_pi <= L_G * d_max below tau1 / 3, so the gap exceeds
    2 * tau1 / 3.  Timing that leaves no window (tau_delta <= tau_pi)
    breaks that constraint and is rejected.
    """
    tau_pi = stats.diameter * params.d_max
    tau_delta = params.tau1 // 2
    if tau_delta <= tau_pi:
        raise ParameterError(
            f"no separation window: tau1 // 2 = {tau_delta} <= "
            f"diameter * d_max = {tau_pi}")
    return tau_pi, tau_delta


def required_horizon(params, stats: TopologyStats) -> int:
    """Minimum horizon for a meaningful stabilization verdict."""
    # stats is unread but kept: perfbench/child.py calls this with two arguments
    return convergence_bound(params) + params.tau2 + 2 * params.liveness_real_max


def convergence_bound(params) -> int:
    r = Fraction(params.rho)
    t2 = (Fraction(params.tau2 + params.tau0) / (1 - r)
          + params.d_max + params.tau1)
    return int(math.ceil(t2))


def detect_stabilization(trace: Trace,
                         stats: TopologyStats) -> StabilizationReport:
    """Find the earliest suffix of all-valid rounds with bounded gaps.

    This is the one pass over the rounds: it clusters the trace once and
    extracts and validates each complete round once, keeping the results
    in the report for every later consumer.  The final cluster is always
    discarded: the horizon may truncate it mid-round.  Requires the
    horizon to cover the analytic bound plus a couple of liveness
    periods, else the verdict would be vacuous.
    """
    n, params = trace.graph.node_count, trace.params
    bound = convergence_bound(params)
    need = required_horizon(params, stats)
    if trace.horizon < need:
        raise InsufficientHorizonError(
            f"horizon {trace.horizon} < required {need} for a stabilization verdict")
    tau_pi, tau_delta = segmentation_params(params, stats)
    tau_nabla = params.liveness_real_max

    rounds = []
    # the last cluster may be horizon-truncated
    for seg in cluster_triggers(trace.triggers, tau_delta)[:-1]:
        p = extract_propagation(trace, seg)
        ok = validate_omep(p).all_ok
        rounds.append(Round(seg, p, ok, ok and seg.span <= tau_pi,
                            propagation_error(p),
                            sum(map(eq, p.source, range(n))) / n))

    k0 = len(rounds)  # the earliest round with every later one valid
    while k0 and rounds[k0 - 1].valid:
        k0 -= 1

    stabilized = k0 < len(rounds)
    t_stab = rounds[k0].segment.t1 if stabilized else None
    tau_pi_meas = tau_nab_meas = None
    violation = None
    if stabilized:
        suffix = rounds[k0:]
        tau_pi_meas = max(r.segment.span for r in suffix)
        # valid rounds are complete: every cell has a time in each
        tau_nab_meas = max((max(map(sub, b.propagation.times,
                                    a.propagation.times))
                            for a, b in zip(suffix, suffix[1:])), default=0)
        if tau_nab_meas > tau_nabla:
            stabilized = False
            t_stab = None
            violation = {"kind": "inter-trigger-gap",
                         "gap": tau_nab_meas, "bound": tau_nabla}
    elif rounds:
        bad = next(k for k, r in enumerate(rounds) if not r.valid)
        violation = {"kind": "invalid-final-cluster", "k": bad} \
            if bad == len(rounds) - 1 else \
            {"kind": "invalid-cluster", "k": bad, "t1": rounds[bad].segment.t1}
        if rounds[bad].oneshot:  # one-shot valid, so only the span bound failed
            violation.update(span=rounds[bad].segment.span, bound=tau_pi)
    else:
        violation = {"kind": "no-complete-clusters"}

    return StabilizationReport(
        stabilized=stabilized, t_stab=t_stab, convergence_bound=bound,
        bound_slack=params.tau2, tau_pi_used=tau_pi,
        tau_delta_used=tau_delta, tau_nabla=tau_nabla,
        tau_pi_measured=tau_pi_meas, tau_nabla_measured=tau_nab_meas,
        rounds=rounds, first_violation=violation)


# ---------------------------------------------------------------- association


class AssociationClasses(NamedTuple):
    classes: tuple  # tuple of tuples of trigger seqs (the loose partition)
    strong_classes: tuple  # same, closure restricted to adjacent near pairs
    spans: tuple  # per loose class, max time - min time
    partitions_coincide: bool
    partition_witness: tuple | None
    span_bound: int  # longest-simple-path * d_max
    spans_ok: bool
    span_witness: tuple | None


def _union(parent, pairs) -> list:
    """Join each pair's sets; the larger root goes under the smaller."""
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return parent


def _read_groups(parent, s0) -> tuple:
    """Point each x at its root, its set's least member as parent[x] <= x,
    in one ascending pass; groups of seqs x + s0 come out in x order."""
    groups = {}
    for x, p in enumerate(parent):
        parent[x] = r = parent[p]
        groups.setdefault(r, []).append(x + s0)
    return tuple(map(tuple, groups.values()))


def association_classes(trace: Trace, window,
                        stats: TopologyStats) -> AssociationClasses:
    """Partition the window's triggers by signal-exchange connectivity.

    Two triggers are linked when one's signal produced (acceptance) or
    was rejected against the other.  The emitting trigger of an arrival
    is recovered as the sender's latest trigger at most d_max earlier —
    unique, because a cell cannot trigger twice within d_max.  The
    strong variant only links pairs at most d_max apart; the two
    closures should coincide and every class should span at most
    d_max * stats.longest_simple_path.

    Triggers and arrivals are time-sorted (reader and engine ensure it),
    so the window's triggers are one seq range [s0, s1), indexed by x =
    seq - s0, and one forward merge finds each arrival's triggers:
    `last[cell]` is the x of the cell's latest trigger at or before the
    arrival, its sender's emitter and, at the arrival's time, an accepted
    arrival's receiver.  Every strong pair is a loose pair, so the loose
    closure is the strong closure plus the weak pairs (|dt| > d_max).  The
    loose classes are read again only when a weak pair joins two strong
    classes; otherwise they are the strong ones.  Finds halve paths
    (Tarjan, JACM 1975).
    """
    lo, hi = window
    d_max, trigger_time = trace.params.d_max, itemgetter(0)
    triggers, arrivals = trace.triggers, trace.arrivals
    s0 = bisect_left(triggers, lo, key=trigger_time)
    s1 = max(s0, bisect_right(triggers, hi, key=trigger_time))
    times = [*map(trigger_time, triggers[s0:s1]), hi + 1]  # a sentinel
    cells = list(map(itemgetter(1), triggers[s0:s1]))
    last, x = [-1] * trace.graph.node_count, 0

    parent, weak = list(range(s1 - s0)), []
    for a in arrivals[bisect_left(arrivals, lo, key=attrgetter("time")):
                      bisect_right(arrivals, hi, key=attrgetter("time"))]:
        t = a.time
        while times[x] <= t:
            last[cells[x]] = x
            x += 1
        e = last[a.frm]
        if e < 0 or times[e] < t - d_max:
            continue
        if a.outcome == OUTCOME_REJECTED:  # most arrivals
            o = a.rejecting_seq
            if o is None or not s0 <= o < s1:
                continue
            o -= s0
        elif a.outcome == OUTCOME_ACCEPTED:  # the receiver's trigger at t
            o = last[a.to]
            if o < 0 or times[o] != t:
                continue
        else:
            continue
        if abs(times[e] - times[o]) > d_max:
            weak.append((e, o))
            continue
        # _union, inlined: collecting the pairs for it measured 30 % slower
        while parent[e] != e:
            parent[e] = e = parent[parent[e]]
        while parent[o] != o:
            parent[o] = o = parent[parent[o]]
        if e < o:
            parent[o] = e
        elif o < e:
            parent[e] = o

    strong_groups = classes = _read_groups(parent, s0)
    # parent[x] is now x's strong root
    weak = [(e, o) for e, o in weak if parent[e] != parent[o]]
    p_witness = None
    if weak:
        strong_root = parent[:]
        classes = _read_groups(_union(parent, weak), s0)
        # g's first seq outside g[0]'s strong group leads the next one
        p_witness = next(((g[0], s) for g in classes for s in g
                          if strong_root[s - s0] != g[0] - s0), None)
    bound = d_max * stats.longest_simple_path
    # seqs ascend in time, so a class spans its last time minus its first
    spans = tuple(triggers[g[-1]][0] - triggers[g[0]][0] for g in classes)
    s_witness = next(((g[0], g[-1], span) for g, span in zip(classes, spans)
                      if span > bound), None)
    return AssociationClasses(
        classes=classes, strong_classes=strong_groups, spans=spans,
        partitions_coincide=not weak,
        partition_witness=p_witness, span_bound=bound,
        spans_ok=s_witness is None, span_witness=s_witness)


# ---------------------------------------------------------------- series


def series_metrics(report: StabilizationReport, pattern_counts: list) -> list:
    """Per-round rows for metrics.json `per_k`: offsets, sources, patterns.

    A view of `report.rounds` and of `pattern_counts`, the
    PatternReport.counts of each round.  `valid` is the round's
    `oneshot` flag, which has no tau_pi span bound, unlike its `valid`.
    """
    per_k = []
    for k, (r, counts) in enumerate(zip(report.rounds, pattern_counts)):
        per_k.append({
            "k": k,
            "t_min_ns": r.segment.t1,
            "e1_ns": r.e1,
            "source_fraction": r.source_fraction,
            "ideal": r.source_fraction == 1.0,
            "valid": r.oneshot,
            "pattern_counts": dict(counts),
        })
    return per_k
