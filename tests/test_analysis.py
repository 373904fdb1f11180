import pytest
from hypothesis import event, example, given, settings, strategies as st

from mepsim import DelayModel, DriftAssignment, derive_params, simulate
from mepsim.analysis import (Propagation, Segment, association_classes,
                             check_pattern_properties, classify_patterns,
                             cluster_triggers, detect_stabilization,
                             extract_propagation, convergence_bound,
                             propagation_error, required_horizon,
                             series_metrics, validate_omep,
                             validate_paths, ROLE_BANK,
                             ROLE_FLAT, ROLE_FLOW, ROLE_RIDGE, ROLE_SINK,
                             ROLE_SOURCE, ROLE_UNITED)
from mepsim.engine import InitState
from mepsim.errors import InsufficientHorizonError
from mepsim.timing import SimParams
from mepsim.topology import build_ring, from_edge_list, topology_stats
from mepsim.trace import (OUTCOME_ACCEPTED, OUTCOME_REJECTED, ArrivalRecord,
                          Trace)

K2 = from_edge_list(2, [(0, 1)])
P3 = from_edge_list(3, [(0, 1), (1, 2)])
D = 100

PARAMS = SimParams(d_min=0, d_max=D, rho=0.0, tau0=1000, tau1=4000, tau2=4000)


def _trace(times, cells=None, pioneers=None, graph=K2,
           arrivals=(), horizon=10**6):
    cells = cells or [0] * len(times)
    pioneers = pioneers if pioneers is not None else list(cells)
    trig = list(zip(times, cells, pioneers))
    return Trace(graph=graph, params=PARAMS, triggers=trig,
                 arrivals=list(arrivals), horizon=horizon, seed=0)


@st.composite
def _connected_graphs(draw, max_n):
    """A random tree on 2..max_n cells, plus random extra edges."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return from_edge_list(n, sorted(edges))


# ------------------------------------------------------------- rounds


def test_cluster_triggers_is_lenient():
    tr = _trace([0, 2 * D, 10 * D])
    segs = cluster_triggers(tr.triggers, 4 * D)
    assert [(s.t1, s.t2) for s in segs] == [(0, 2 * D), (10 * D, 10 * D)]


# ------------------------------------------------------------- extraction


def _path(p, i):
    """Cell i's path source -> ... -> i, walked along p.pioneer; None if
    i has no source (it did not fire, or its chain is broken)."""
    if p.source[i] is None:
        return None
    chain = [i]
    while p.pioneer[chain[-1]] != chain[-1]:
        chain.append(p.pioneer[chain[-1]])
    return tuple(reversed(chain))


def _own_sources(p):
    """The cells that are their own source: those whose first trigger in
    the segment is external."""
    return {i for i, s in enumerate(p.source) if s == i}


def _cross_segment(p):
    """The cells that fired with a pioneer that has no trigger in the
    segment."""
    return tuple(i for i, t in enumerate(p.times)
                 if t is not None and p.times[p.pioneer[i]] is None)


def test_extract_all_external():
    tr = _trace([0, 5], cells=[0, 1])
    seg = cluster_triggers(tr.triggers, 1000)[0]
    p = extract_propagation(tr, seg)
    assert p.source == [0, 1]
    assert _path(p, 0) == (0,) and _path(p, 1) == (1,)
    assert _own_sources(p) == {0, 1}


def test_extract_chain():
    tr = _trace([0, 80], cells=[0, 1], pioneers=[0, 0])
    seg = cluster_triggers(tr.triggers, 1000)[0]
    p = extract_propagation(tr, seg)
    assert _path(p, 1) == (0, 1) and p.source[1] == 0


def test_extract_flags_cross_segment_pioneer():
    tr = _trace([0], cells=[1], pioneers=[0])
    seg = cluster_triggers(tr.triggers, 1000)[0]
    p = extract_propagation(tr, seg)
    assert _cross_segment(p) == (1,) and p.source[1] is None
    rep = validate_omep(p)
    assert not rep.valid


def test_extract_flags_repeats():
    tr = _trace([0, 10, 20], cells=[0, 1, 0])
    seg = cluster_triggers(tr.triggers, 1000)[0]
    p = extract_propagation(tr, seg)
    assert p.multi_triggered == (0,)
    assert not validate_omep(p).complete


def _walk_reference(trace, seg):
    """The chain walk extraction used before its forward pass: dicts over
    the fired cells, every cell walked in first-trigger order."""
    times, pioneer, multi, externals = {}, {}, [], set()
    for t, cell, h in trace.triggers[seg.trigger_seqs.start:
                                     seg.trigger_seqs.stop]:
        if cell in times:
            multi.append(cell)
            continue
        times[cell], pioneer[cell] = t, h
        if h == cell:
            externals.add(cell)
    cross_refs = tuple(sorted(
        i for i, h in pioneer.items() if h != i and h not in times))
    source, loops = {}, set()
    for start in times:
        if start in source:
            continue
        chain, on_path = [], set()
        cur = start
        while True:
            if cur in source:
                s = source[cur]
                break
            if cur in on_path:
                s = None
                loops.update(chain)
                break
            on_path.add(cur)
            chain.append(cur)
            nxt = pioneer[cur]
            if nxt == cur:
                s = cur
                break
            if nxt not in times:
                s = None  # chain leaves the segment
                break
            cur = nxt
        for c in chain:
            source[c] = s
    return (times, pioneer, source, tuple(sorted(loops)), cross_refs,
            tuple(sorted(set(multi))), frozenset(externals))


@st.composite
def _pointer_trace(draw):
    """A hand-built trace on n cells whose pioneers follow a random
    pointer map (cycles, tails into them, self-pointing sources), with
    few distinct times so that ties are common, and a random segment."""
    n = draw(st.integers(2, 7))
    ptr = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    trig = []
    for _ in range(draw(st.integers(1, 3 * n))):
        cell = draw(st.integers(0, n - 1))
        h = ptr[cell] if draw(st.booleans()) else draw(st.integers(0, n - 1))
        trig.append((draw(st.integers(0, 3)), cell, h))
    trig.sort(key=lambda r: r[:2])  # the (time, cell) order of a trace
    start = draw(st.integers(0, len(trig) - 1))
    stop = draw(st.integers(start + 1, len(trig)))
    graph = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    trace = Trace(graph=graph, params=PARAMS, triggers=trig, arrivals=[],
                  horizon=10**6, seed=0)
    return trace, Segment(trig[start][0], trig[stop - 1][0],
                          range(start, stop))


@settings(max_examples=400, deadline=None)
@given(_pointer_trace())
def test_forward_pass_matches_chain_walk(case):
    trace, seg = case
    times, pioneer, source, *rest = _walk_reference(trace, seg)
    p = extract_propagation(trace, seg)
    n = trace.graph.node_count
    assert p.times == [times.get(i) for i in range(n)]
    assert p.pioneer == [pioneer.get(i, i) for i in range(n)]
    assert p.source == [source.get(i) for i in range(n)]
    assert (p.loops, _cross_segment(p), p.multi_triggered,
            _own_sources(p)) == tuple(rest)
    for i, t in times.items():  # name the cases drawn
        h = pioneer[i]
        if h > i and times.get(h) == t:
            event("zero-delay signal from a higher id")
        seen = [i]
        while pioneer.get(seen[-1], seen[-1]) not in (seen[-1], *seen):
            seen.append(pioneer[seen[-1]])
        if pioneer.get(seen[-1]) in seen[:-1]:
            k = seen.index(pioneer[seen[-1]])
            event(f"{len(seen) - k}-cycle" + (" with a tail" if k else ""))
    if _cross_segment(p):
        event("pioneer outside the segment")
    if p.multi_triggered:
        event("repeated trigger")


# ------------------------------------------------------------- five properties


def test_all_external_validates():
    tr = _trace([0, 5], cells=[0, 1])
    p = extract_propagation(tr, cluster_triggers(tr.triggers, 1000)[0])
    assert validate_omep(p).all_ok


def test_valid_negative_bad_source():
    rep = validate_paths({0: (0,), 1: (0, 1)}, K2, n_s={1})  # 0 is not in n_s
    assert not rep.valid and rep.simple


def test_simple_negative_repeating_path():
    rep = validate_paths({0: (0,), 1: (0, 1, 0, 1)}, K2, n_s={0})
    assert not rep.simple


def test_simple_negative_pointer_loop():
    tr = _trace([0, 10], cells=[0, 1], pioneers=[1, 0])
    p = extract_propagation(tr, cluster_triggers(tr.triggers, 1000)[0])
    assert p.loops
    assert not validate_omep(p).simple


def test_complete_negative_missing_cell():
    rep = validate_paths({0: (0,), 1: (0, 1)}, P3, n_s={0})  # 2 never appears
    assert not rep.complete and rep.valid and rep.simple


def test_exclusive_negative_shared_cell():
    rep = validate_paths({0: (0,), 1: (0, 1), 2: (1, 2)}, P3, n_s={0, 1})
    assert not rep.exclusive
    assert rep.witnesses["exclusive"]


def test_propagative_negative_reconverging_paths():
    g = from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    rep = validate_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2), 3: (0, 2, 3)},
                         g, n_s={0})
    assert not rep.propagative
    assert rep.exclusive  # single source, so exclusivity is untouched


def test_explicit_positive_chain():
    assert validate_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)}, P3,
                          n_s={0}).all_ok


# ------------------------------------------------------------- patterns


def test_chain_pattern_roles():
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    assert rep.flow_role == [ROLE_SOURCE, ROLE_FLOW, ROLE_SINK]
    assert ROLE_RIDGE not in rep.border_role  # tree
    checks = check_pattern_properties(rep, p, P3)
    assert all(c.passed for c in checks)


def test_all_external_distinct_sources_all_bank():
    p = Propagation.from_paths({0: (0,), 1: (1,), 2: (2,)})
    rep = classify_patterns(p, P3)
    assert set(rep.flow_role) == {ROLE_UNITED}
    assert set(rep.border_role) == {ROLE_BANK}
    checks = check_pattern_properties(rep, p, P3)
    assert all(c.passed for c in checks)


def test_single_source_region_has_sink():
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    by_name = {c.name: c for c in check_pattern_properties(rep, p, P3)}
    assert by_name["sink-per-region"].passed
    assert by_name["sinks-at-least-sources"].passed


def test_flat_degree2_sink_is_flagged():
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    rep.border_role[1] = ROLE_FLAT
    rep.flow_role[1] = ROLE_SINK
    by_name = {c.name: c for c in check_pattern_properties(rep, p, P3)}
    assert not by_name["flat-degree2-not-sink"].passed


def test_region_without_sink_is_flagged():
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    rep = rep._replace(flow_role=[ROLE_FLOW] * 3)
    by_name = {c.name: c for c in check_pattern_properties(rep, p, P3)}
    assert not by_name["sink-per-region"].passed


def test_sinking_source_is_flagged():
    # non-sink cells exist but the region's source is itself a sink
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    rep.flow_role[0] = ROLE_SINK
    by_name = {c.name: c for c in check_pattern_properties(rep, p, P3)}
    assert not by_name["non-sink-region-has-non-sink-source"].passed


def test_ridge_on_tree_is_flagged():
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    rep.border_role[1] = ROLE_RIDGE
    by_name = {c.name: c for c in check_pattern_properties(rep, p, P3)}
    assert not by_name["tree-has-no-ridge"].passed


def test_source_children_bound():
    # star source with 3 children but sinks forced below the bound
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 2), 3: (0, 3)})
    rep = classify_patterns(p, g)
    by_name = {c.name: c for c in check_pattern_properties(rep, p, g)}
    assert by_name["source-children-bounded-by-sinks"].passed
    rep.flow_role[2] = ROLE_FLOW
    rep.flow_role[3] = ROLE_FLOW
    by_name = {c.name: c for c in check_pattern_properties(rep, p, g)}
    assert not by_name["source-children-bounded-by-sinks"].passed


def test_flat_cells_force_sinks_bound():
    p = Propagation.from_paths({0: (0,), 1: (0, 1), 2: (0, 1, 2)})
    rep = classify_patterns(p, P3)
    assert {c.name: c.passed for c in check_pattern_properties(rep, p, P3)}[
        "flat-cells-force-sinks"]
    rep.border_role[1] = ROLE_FLAT  # degree-2 flat flow cell, single sink ok
    rep.flow_role[2] = ROLE_FLOW  # now zero sinks < required 1
    by_name = {c.name: c for c in check_pattern_properties(rep, p, P3)}
    assert not by_name["flat-cells-force-sinks"].passed


@st.composite
def _pattern_case(draw):
    """A random connected graph and a propagation extracted from a random
    segment of hand-built triggers: cells that stay silent, pioneers
    that are mostly neighbours, pointer loops, and pioneers that fire
    only outside the segment."""
    graph = draw(_connected_graphs(7))
    n = graph.node_count
    trig = []
    every = list(range(n)) if draw(st.booleans()) else []  # a full round
    for cell in every + draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=2 * n)):
        h = draw(st.sampled_from((cell, *graph.adjacency[cell]))
                 if draw(st.integers(0, 4)) else st.integers(0, n - 1))
        trig.append((draw(st.integers(0, 3)), cell, h))
    trig.sort(key=lambda r: r[:2])
    start, stop = 0, len(trig)
    if draw(st.booleans()):
        start = draw(st.integers(0, len(trig) - 1))
        stop = draw(st.integers(start + 1, len(trig)))
    trace = Trace(graph=graph, params=PARAMS, triggers=trig, arrivals=[],
                  horizon=10**6, seed=0)
    seg = Segment(trig[start][0], trig[stop - 1][0], range(start, stop))
    return graph, extract_propagation(trace, seg)


def _reference_roles(p, g, i):
    """(flow, border) role of cell i from its neighbours' labels: the
    parent is i's pioneer, children point at i, and of the rest aliens
    have another source (or i has none) and family the same one."""
    adjacent = set(g.adjacency[i])
    parents = {p.pioneer[i]} & adjacent
    children = {j for j in adjacent if p.pioneer[j] == i} - parents
    rest = adjacent - parents - children
    aliens = {j for j in rest if p.source[i] is None
              or p.source[j] != p.source[i]}
    flow = {(False, False): ROLE_UNITED, (False, True): ROLE_SOURCE,
            (True, False): ROLE_SINK, (True, True): ROLE_FLOW}[
        bool(parents), bool(children)]
    border = (ROLE_BANK if aliens else ROLE_RIDGE if rest - aliens
              else ROLE_FLAT)
    return flow, border


@settings(max_examples=300, deadline=None)
@given(_pattern_case())
# 0 and 1 are each other's pioneer: each is the other's parent, not child
@example((P3, Propagation(times=[0, 0, 0], pioneer=[1, 0, 2],
                          source=[None, None, 2], multi_triggered=(),
                          loops=(0, 1))))
# 2's pioneer 0 is no neighbour: 2 has no parent, and 0 gains no child
@example((P3, Propagation.from_paths({0: (0,), 1: (1,), 2: (0, 2)})))
# silent 1 and 2 have source None, and neither is the other's parent or
# child: both are banks
@example((P3, Propagation(times=[0, None, None], pioneer=[0, 1, 2],
                          source=[0, None, None], multi_triggered=(),
                          loops=())))
def test_pattern_roles_match_reference(case):
    graph, p = case
    rep = classify_patterns(p, graph)
    n = graph.node_count
    want = [_reference_roles(p, graph, i) for i in range(n)]
    assert rep.flow_role == [f for f, _ in want]
    assert rep.border_role == [b for _, b in want]
    roles = (ROLE_SOURCE, ROLE_SINK, ROLE_FLOW, ROLE_UNITED,
             ROLE_BANK, ROLE_RIDGE, ROLE_FLAT)
    assert rep.counts == {r: (rep.flow_role + rep.border_role).count(r)
                          for r in roles}
    assert sum(rep.counts.values()) == 2 * n
    if any(t is None for t in p.times):
        event("silent cell")
    if p.loops:
        event("pointer loop")
    if _cross_segment(p):
        event("pioneer outside the segment")
    if ROLE_RIDGE in rep.border_role:
        event("ridge")


# ------------------------------------------------------------- metrics


def test_propagation_error_sums_offsets():
    tr = _trace([100, 140, 180], cells=[0, 1, 2], graph=P3)
    p = extract_propagation(tr, cluster_triggers(tr.triggers, 1000)[0])
    assert propagation_error(p) == 40 + 80


# ------------------------------------------------------------- association


def test_k2_exchange_single_class():
    t0 = (1000, 0, 0)
    t1 = (1080, 1, 0)
    arr = ArrivalRecord(frm=0, to=1, time=1080, outcome="accepted")
    tr = Trace(graph=K2, params=PARAMS, triggers=[t0, t1], arrivals=[arr],
               horizon=10**6, seed=0)
    ac = association_classes(tr, (0, 10**6), topology_stats(K2))
    assert ac.classes == ((0, 1),)
    assert ac.spans == (80,) and ac.spans[0] <= D
    assert ac.partitions_coincide and ac.spans_ok


def test_distant_rejection_breaks_both_checks():
    # rejection referencing a trigger older than the delay bound
    t0 = (0, 1, 1)
    t1 = (150, 0, 0)
    arr = ArrivalRecord(frm=0, to=1, time=200, outcome=OUTCOME_REJECTED,
                        rejecting_seq=0)
    tr = Trace(graph=K2, params=PARAMS, triggers=[t0, t1], arrivals=[arr],
               horizon=10**6, seed=0)
    ac = association_classes(tr, (0, 10**6), topology_stats(K2))
    assert ac.classes == ((0, 1),) and ac.strong_classes == ((0,), (1,))
    assert not ac.partitions_coincide and ac.partition_witness == (0, 1)
    assert not ac.spans_ok and ac.span_witness == (0, 1, 150)


def test_weak_pair_inside_a_strong_class_changes_nothing():
    """A rejection 180 ns from its emitter is a weak pair, but the strong
    exchanges already join its two ends: the closures coincide."""
    triggers = [(0, 0, 0), (60, 1, 0), (120, 0, 1), (180, 1, 0)]
    arrivals = [ArrivalRecord(0, 1, 60, OUTCOME_ACCEPTED),
                ArrivalRecord(1, 0, 120, OUTCOME_ACCEPTED),
                ArrivalRecord(0, 1, 180, OUTCOME_ACCEPTED),
                ArrivalRecord(1, 0, 190, OUTCOME_REJECTED, rejecting_seq=0)]
    tr = Trace(graph=K2, params=PARAMS, triggers=triggers, arrivals=arrivals,
               horizon=10**6, seed=0)
    ac = association_classes(tr, (0, 10**6), topology_stats(K2))
    assert ac.classes == ac.strong_classes == ((0, 1, 2, 3),)
    assert ac.partitions_coincide and ac.partition_witness is None
    assert ac.spans == (180,)


def test_weak_pair_joins_a_later_strong_class_under_an_earlier_one():
    """On the path 0-1-2-3, cell 2's rejection by cell 3's trigger 110 ns
    earlier is a weak pair from the strong class {0, 2, 3} to {1}: the
    join puts root 1 under root 0, the class with the smaller least seq."""
    path4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    triggers = [(0, 0, 0), (70, 3, 3), (90, 1, 0), (180, 2, 1)]
    arrivals = [ArrivalRecord(0, 1, 90, OUTCOME_ACCEPTED),
                ArrivalRecord(1, 2, 180, OUTCOME_ACCEPTED),
                ArrivalRecord(2, 3, 200, OUTCOME_REJECTED, rejecting_seq=1)]
    tr = Trace(graph=path4, params=PARAMS, triggers=triggers,
               arrivals=arrivals, horizon=10**6, seed=0)
    ac = association_classes(tr, (0, 10**6), topology_stats(path4))
    assert ac.classes == ((0, 1, 2, 3),)
    assert ac.strong_classes == ((0, 2, 3), (1,))
    assert not ac.partitions_coincide and ac.partition_witness == (0, 1)
    assert ac.spans == (180,) and ac.span_bound == 300 and ac.spans_ok


@pytest.mark.parametrize("t_arrive, t_receive, linked", [
    (1000 + D, 1000 + D, True),
    (1001 + D, 1001 + D, False),
    (1080, 1050, False),
], ids=["emitter-d_max-before", "emitter-past-d_max", "no-trigger-at-arrival"])
def test_association_arrival_ends(t_arrive, t_receive, linked):
    """An accepted arrival links its sender's latest trigger at most d_max
    earlier to its receiver's trigger at the arrival's own time."""
    triggers = [(1000, 0, 0), (t_receive, 1, 0)]
    arr = ArrivalRecord(frm=0, to=1, time=t_arrive, outcome=OUTCOME_ACCEPTED)
    tr = Trace(graph=K2, params=PARAMS, triggers=triggers, arrivals=[arr],
               horizon=10**6, seed=0)
    ac = association_classes(tr, (0, 10**6), topology_stats(K2))
    assert ac.classes == (((0, 1),) if linked else ((0,), (1,)))


def test_association_on_stabilized_run():
    g = build_ring(4)
    stats = topology_stats(g)
    params = derive_params(stats, D, 0.0)
    dm = DelayModel(kind="uniform")
    tr = simulate(g, params, delay_model=dm, horizon=60000, seed=3,
                  drift=DriftAssignment(mode="zero"))
    rep = detect_stabilization(tr, stats)
    assert rep.stabilized
    ac = association_classes(tr, (rep.t_stab, tr.horizon), stats=stats)
    assert ac.partitions_coincide and ac.spans_ok
    assert len(ac.classes) >= 2


@st.composite
def _association_run(draw):
    """A random connected 2-6-cell run with arrivals recorded.  Small
    d_max and maximal delays make arrivals exactly d_max after their
    emitter common."""
    graph = draw(_connected_graphs(6))
    d_max = draw(st.integers(1, 30))
    drift_mode = draw(st.sampled_from(["zero", "uniform"]))
    rho = 0.0 if drift_mode == "zero" else 1e-3
    params = derive_params(topology_stats(graph), d_max, rho,
                           omission_p=draw(st.sampled_from([0.0, 0.2])))
    dm = DelayModel(kind=draw(st.sampled_from(["uniform", "adversarial-max"])))
    horizon = draw(st.integers(2, 4)) * params.liveness_real_max
    return simulate(graph, params, delay_model=dm, horizon=horizon,
                    seed=draw(st.integers(0, 2**16)),
                    drift=DriftAssignment(mode=drift_mode))


def _reference_association(tr, lo, hi, stats):
    """(association_classes fields by definition, weak pair count): naive
    pair enumeration, BFS components, witnesses read off the partitions."""
    d_max = tr.params.d_max
    weak = 0
    window = [(seq, t, cell) for seq, (t, cell, _) in enumerate(tr.triggers)
              if lo <= t <= hi]
    strong_adj = {seq: set() for seq, _, _ in window}
    loose_adj = {seq: set() for seq, _, _ in window}
    for a in tr.arrivals:
        if not lo <= a.time <= hi:
            continue
        sent = [(seq, t) for seq, t, cell in window
                if cell == a.frm and t <= a.time]
        if not sent or sent[-1][1] < a.time - d_max:
            continue
        emit_seq, emit_time = sent[-1]
        if a.outcome == OUTCOME_ACCEPTED:
            other = next(((seq, t) for seq, t, cell in window
                          if cell == a.to and t == a.time), None)
        elif a.outcome == OUTCOME_REJECTED and a.rejecting_seq is not None:
            other = next(((seq, t) for seq, t, _ in window
                          if seq == a.rejecting_seq), None)
        else:
            other = None
        if other is None:
            continue
        other_seq, other_time = other
        near = abs(emit_time - other_time) <= d_max
        weak += not near
        for adj in (loose_adj, strong_adj)[:1 + near]:
            adj[emit_seq].add(other_seq)
            adj[other_seq].add(emit_seq)

    def components(adj):
        seen, out = set(), []
        for s in adj:
            if s in seen:
                continue
            comp, queue = [], [s]
            seen.add(s)
            while queue:
                x = queue.pop()
                comp.append(x)
                for y in adj[x] - seen:
                    seen.add(y)
                    queue.append(y)
            out.append(tuple(sorted(comp)))
        return tuple(sorted(out))

    classes, strong = components(loose_adj), components(strong_adj)
    least = {s: grp[0] for grp in strong for s in grp}
    p_witness = next((tuple(sorted({least[s] for s in grp}))[:2]
                      for grp in classes if len({least[s] for s in grp}) > 1),
                     None)
    time = {seq: t for seq, t, _ in window}
    spans = tuple(max(time[s] for s in g) - min(time[s] for s in g)
                  for g in classes)
    bound = d_max * stats.longest_simple_path
    s_witness = next(((g[0], g[-1], sp) for g, sp in zip(classes, spans)
                      if sp > bound), None)
    return dict(classes=classes, strong_classes=strong, spans=spans,
                partitions_coincide=classes == strong,
                partition_witness=p_witness, span_bound=bound,
                spans_ok=s_witness is None, span_witness=s_witness), weak


@settings(max_examples=150, deadline=None)
@given(tr=_association_run(), data=st.data())
def test_association_matches_reference(tr, data):
    """Random windows (bounds often on trigger times, so emitters before
    lo drop out), and some rejections re-pointed at an earlier trigger of
    their receiver: still inside the trace contract, but a weak pair."""
    rejections = [k for k, a in enumerate(tr.arrivals)
                  if a.rejecting_seq is not None]
    doctored = st.lists(st.sampled_from(rejections), min_size=1, max_size=4) \
        if rejections else st.just([])
    for k in data.draw(doctored):
        a = tr.arrivals[k]
        earlier = [seq for seq, (_, cell, _)
                   in enumerate(tr.triggers[:a.rejecting_seq]) if cell == a.to]
        if earlier:
            rej = data.draw(st.sampled_from(earlier[-2:]))
            tr.arrivals[k] = ArrivalRecord(a.frm, a.to, a.time, a.outcome, rej)
    edge = st.one_of(st.sampled_from([t for t, _, _ in tr.triggers]),
                     st.integers(0, tr.horizon))
    lo, hi = sorted((data.draw(edge),
                     data.draw(st.one_of(st.just(tr.horizon), edge))))
    stats = topology_stats(tr.graph)
    want, weak = _reference_association(tr, lo, hi, stats)
    event(f"weak pairs: {'yes' if weak else 'none'}; partitions "
          f"{'coincide' if want['partitions_coincide'] else 'differ'}")
    assert association_classes(tr, (lo, hi), stats=stats)._asdict() == want


# ------------------------------------------------------------- stabilization


def test_insufficient_horizon_raises():
    g = build_ring(4)
    stats = topology_stats(g)
    params = derive_params(stats, D, 0.0)
    dm = DelayModel(kind="uniform")
    tr = simulate(g, params, delay_model=dm, horizon=2 * params.tau2, seed=0)
    with pytest.raises(InsufficientHorizonError):
        detect_stabilization(tr, stats)


def test_ring4_stabilizes_within_bound():
    g = build_ring(4)
    stats = topology_stats(g)
    params = derive_params(stats, D, 0.0)
    dm = DelayModel(kind="uniform")
    for seed in range(5):
        tr = simulate(g, params, delay_model=dm, horizon=10**5, seed=seed,
                      drift=DriftAssignment(mode="zero"))
        rep = detect_stabilization(tr, stats)
        assert rep.stabilized
        assert rep.t_stab <= convergence_bound(params) + params.tau2
        assert rep.tau_pi_measured <= stats.diameter * D
        assert rep.tau_nabla_measured <= params.liveness_real_max
        # validity flags hold on the whole suffix
        k0 = next(k for k, r in enumerate(rep.rounds)
                  if r.segment.t1 >= rep.t_stab)
        assert all(r.valid for r in rep.rounds[k0:])


@st.composite
def _model_run(draw, large_drift=False):
    """A run inside the paper's model, without omissions: a random
    connected graph of 2-9 cells, derived timing, any delay family, drift
    and adversarial start, simulated up to the required horizon.  With
    large_drift, rho lies in [0.05, 0.5] and the drift is uniform or
    extremal."""
    graph = draw(_connected_graphs(9))
    n = graph.node_count
    stats = topology_stats(graph)
    d_max = draw(st.sampled_from([100, 1000]))
    d_min = draw(st.sampled_from([0, d_max // 2, d_max]))
    if large_drift:
        rho, drift_modes = draw(st.floats(0.05, 0.5)), ["uniform", "extremal"]
    else:
        rho = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
        drift_modes = ["zero", "uniform", "extremal"]
    params = derive_params(stats, d_max, rho, d_min=d_min,
                           dmin_compensation=draw(st.booleans()))
    kind = draw(st.sampled_from(["uniform", "adversarial-max",
                                 "adversarial-schedule"]))
    schedule = None
    if kind == "adversarial-schedule":
        schedule = {(a, b): draw(st.lists(st.integers(d_min, d_max),
                                          min_size=1, max_size=4))
                    for a in range(n) for b in graph.adjacency[a]}
    init = None
    if draw(st.booleans()):
        signal = st.sampled_from(sorted(graph.edges)).flatmap(
            lambda e: st.tuples(st.permutations(e), st.integers(0, d_max)))
        init = InitState(
            mode="adversarial-explicit",
            elapsed=tuple(draw(st.lists(st.integers(0, 2 * params.tau2),
                                        min_size=n, max_size=n))),
            signals=tuple((a, b, t) for (a, b), t in
                          draw(st.lists(signal, max_size=4))))
    trace = simulate(
        graph, params, delay_model=DelayModel(
            kind=kind, schedule=schedule, cycle=True),
        horizon=required_horizon(params, stats),
        seed=draw(st.integers(0, 2**16)), init=init,
        drift=DriftAssignment(mode=draw(st.sampled_from(drift_modes))))
    return stats, trace


def _assert_theorems(stats, trace):
    """The paper's claims on a run inside its model: stabilization within
    the convergence bound plus one period, rounds within the diameter *
    d_max span bound, and inter-trigger gaps within the liveness bound."""
    params = trace.params
    rep = detect_stabilization(trace, stats)
    assert rep.stabilized, rep.first_violation
    assert rep.t_stab <= convergence_bound(params) + params.tau2
    assert rep.tau_pi_measured <= stats.diameter * params.d_max
    assert rep.tau_nabla_measured <= params.liveness_real_max


@settings(max_examples=300, deadline=None)
@given(_model_run())
def test_theorems_hold_on_random_model_runs(case):
    _assert_theorems(*case)


@settings(max_examples=200, deadline=None)
@given(_model_run(large_drift=True))
def test_theorems_hold_at_large_drift(case):
    """Clocks drifting by up to half their rate, drawn from params.rho."""
    _assert_theorems(*case)


def test_series_metrics_shapes():
    g = build_ring(4)
    stats = topology_stats(g)
    params = derive_params(stats, D, 0.0)
    dm = DelayModel(kind="uniform")
    tr = simulate(g, params, delay_model=dm, horizon=10**5, seed=1,
                  drift=DriftAssignment(mode="zero"))
    rep = detect_stabilization(tr, stats)
    props = [r.propagation for r in rep.rounds]
    per_k = series_metrics(rep, [classify_patterns(p, g).counts
                                 for p in props])
    assert per_k
    assert [r["k"] for r in per_k] == list(range(len(props)))
    assert [r["valid"] for r in per_k] == [r.oneshot for r in rep.rounds]
    for row, p in zip(per_k, props):
        assert 0.0 <= row["source_fraction"] <= 1.0
        assert row["e1_ns"] >= 0
        assert row["ideal"] == all(p.source[i] == i for i in range(4))
        counts = row["pattern_counts"]
        assert sum(counts[r] for r in (ROLE_SOURCE, ROLE_SINK, ROLE_FLOW,
                                       ROLE_UNITED)) == 4
        assert sum(counts[r] for r in (ROLE_BANK, ROLE_RIDGE, ROLE_FLAT)) == 4


@st.composite
def _small_run(draw):
    graph = draw(_connected_graphs(6))
    n = graph.node_count
    d_max = draw(st.integers(1, 100))
    params = derive_params(topology_stats(graph), d_max, 0.0,
                           omission_p=draw(st.sampled_from([0.0, 0.2, 0.5])))
    init = None
    if draw(st.booleans()):
        readings = st.integers(0, 2 * params.tau2)
        init = InitState(mode="adversarial-explicit", elapsed=tuple(
            draw(st.lists(readings, min_size=n, max_size=n))))
    trace = simulate(graph, params,
                     delay_model=DelayModel(kind="uniform"),
                     horizon=draw(st.integers(params.tau2, 6 * params.tau2)),
                     seed=draw(st.integers(0, 2**16)),
                     drift=DriftAssignment(mode="zero"), init=init)
    return graph, trace


@settings(max_examples=150, deadline=None)
@given(_small_run())
def test_fast_path_matches_definition_on_random_runs(case):
    """validate_omep's pointer-forest fast path gives the verdicts of the
    pairwise definition on every extracted round with no repeated
    trigger whose pioneer chains all reach a source."""
    graph, trace = case
    tau_delta = trace.params.tau1 // 2
    for seg in cluster_triggers(trace.triggers, tau_delta):
        p = extract_propagation(trace, seg)
        fired = {i: t for i, t in enumerate(p.times) if t is not None}
        if p.multi_triggered or any(p.source[i] is None for i in fired):
            continue
        fast = validate_omep(p)
        full = validate_paths({i: _path(p, i) for i in fired}, graph,
                              _own_sources(p))
        assert (fast.valid, fast.simple, fast.complete) == \
            (full.valid, full.simple, full.complete)
        assert full.exclusive and full.propagative


@settings(max_examples=400, deadline=None)
@given(_pointer_trace())
def test_forest_check_matches_definition_on_pointer_traces(case):
    """On hand-built segments, validate_omep gives the flags and the
    witnesses of the pairwise definition wherever each fired cell has one
    path to compare: no repeated trigger, and every fired cell's chain
    reaches a source.  Any other segment fails, and where a fired cell
    has no source, the valid witness names the first four such cells."""
    trace, seg = case
    p = extract_propagation(trace, seg)
    rep = validate_omep(p)
    fired = [i for i, t in enumerate(p.times) if t is not None]
    unsourced = [i for i in fired if p.source[i] is None]
    if not p.multi_triggered and not unsourced:
        event("every chain settles")
        assert rep == validate_paths({i: _path(p, i) for i in fired},
                                     trace.graph, _own_sources(p))
    else:
        assert not rep.all_ok
        if p.multi_triggered:
            event("repeated trigger")
        if unsourced:
            event("fired cell without a source")
            assert rep.witnesses["valid"] == unsourced[:4]
    if p.loops:
        event("pointer loop")
    if _cross_segment(p):
        event("pioneer outside the segment")
    if any(p.pioneer[i] > i and p.times[p.pioneer[i]] == p.times[i]
           for i in fired):
        event("zero-delay signal from a higher id")


@settings(max_examples=150, deadline=None)
@given(_small_run(), st.integers(0, 100))
def test_cross_ref_cells_fired_without_a_source(case, small_tau_delta):
    """A cross-segment cell fired, but its pioneer has no trigger in the
    segment, so its chain ends without a source: validate_omep's source
    check already flags it, at the separation window's cut and at a cut
    small enough to split rounds."""
    graph, trace = case
    for tau_delta in (trace.params.tau1 // 2, small_tau_delta):
        for seg in cluster_triggers(trace.triggers, tau_delta):
            p = extract_propagation(trace, seg)
            cross = _cross_segment(p)
            for i in cross:
                assert p.times[i] is not None and p.source[i] is None
            if cross:
                event("cross-ref cells")
                assert not validate_omep(p).valid
