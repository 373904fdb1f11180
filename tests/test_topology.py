import logging
import random
import time
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from mepsim import topology
from mepsim.errors import ConnectivityError, ParameterError, TopologyError
from mepsim.topology import (Graph, TopologyStats, build_grid, build_hypercube,
                             build_ring, diameter, from_edge_list,
                             longest_simple_path_exact, parse_topology,
                             read_edge_list, topology_stats)


def write_edge_list(g, path) -> None:
    """The edge-list file read_edge_list reads: "n m", then one edge a line."""
    edges = sorted(g.edges)
    with open(path, "w") as fh:
        fh.write(f"{g.node_count} {len(edges)}\n")
        for i, j in edges:
            fh.write(f"{i} {j}\n")


def test_ring_basic():
    g = build_ring(8)
    assert g.node_count == 8
    assert g.edge_count == 8
    assert all(g.degree(i) == 2 for i in range(8))
    assert g.adjacency[0] == (1, 7)


def _random_connected_pairs(n, seed):
    """A random spanning tree of n cells plus random extra pairs, with
    every pair also given reversed and some given twice."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    return pairs + [(j, i) for i, j in pairs] + rng.sample(pairs, n // 2)


@pytest.mark.parametrize("graph, pairs", [
    (build_ring(5), [(i, (i + 1) % 5) for i in range(5)]),
    (build_grid(3, 4), [(i, i + 1) for i in range(12) if i % 4 != 3]
     + [(i, i + 4) for i in range(8)]),
    (build_hypercube(3), [(i, i ^ (1 << b)) for i in range(8)
                          for b in range(3)]),
    (from_edge_list(12, _random_connected_pairs(12, 7)),
     _random_connected_pairs(12, 7)),
], ids=["ring:5", "grid:3x4", "hypercube:3", "random"])
def test_graph_is_its_adjacency(graph, pairs):
    """A Graph holds its node count, sorted adjacency and name alone;
    edges is the ascending list of its normalized pairs, read off the
    adjacency, and edge_count its length."""
    assert Graph._fields == ("node_count", "adjacency", "name")
    assert graph.edges == sorted({(min(p), max(p)) for p in pairs})
    assert graph.edge_count == len(graph.edges)
    assert all(list(a) == sorted(set(a)) for a in graph.adjacency)


def test_grid_100x100_holds_its_adjacency_alone():
    """A 10^4-cell grid holds no edge set beside its adjacency: 1.8 MB,
    where an extra frozenset of its 19,800 pairs took it to 4.0 MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = parse_topology("grid:100x100")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.edge_count == 19_800
    assert held <= 2.5e6, held


def test_ring_too_small():
    with pytest.raises(TopologyError):
        build_ring(2)


def test_grid_structure():
    g = build_grid(3, 4)
    assert g.node_count == 12
    # corner, edge, interior degrees
    assert g.degree(0) == 2
    assert g.degree(1) == 3
    assert g.degree(5) == 4
    assert (0, 4) in g.edges and (0, 1) in g.edges


def test_hypercube_structure():
    g = build_hypercube(3)
    assert g.node_count == 8
    assert all(g.degree(i) == 3 for i in range(8))
    assert (0, 4) in g.edges


def test_from_edge_list_rejects_disconnected():
    with pytest.raises(ConnectivityError):
        from_edge_list(4, [(0, 1), (2, 3)])
    # too few edges to connect n nodes: rejected before n sizes any table
    with pytest.raises(ConnectivityError, match="cannot connect"):
        from_edge_list(10**5, [(0, 1)])


def test_from_edge_list_rejects_self_loop_and_range():
    with pytest.raises(TopologyError):
        from_edge_list(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(TopologyError):
        from_edge_list(3, [(0, 5)])


def complete_bipartite(a, b):
    """K(a,b): cells 0..a-1 on one side, a..a+b-1 on the other."""
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


def bfs_diameter(g):
    """Reference: the largest BFS eccentricity over all cells."""
    worst = 0
    for src in range(g.node_count):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(dist) == g.node_count
        worst = max(worst, max(dist.values()))
    return worst


@st.composite
def connected_graphs(draw):
    """Trees, paths, stars and dense graphs of 2-70 cells, ids shuffled."""
    n = draw(st.integers(min_value=2, max_value=70))
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["tree", "path", "star", "dense"]))
    if kind == "path":
        pairs = list(zip(order, order[1:]))
    elif kind == "star":
        pairs = [(order[0], v) for v in order[1:]]
    else:
        pairs = [(order[i], order[draw(st.integers(0, i - 1))])
                 for i in range(1, n)]
    if kind == "dense":
        rnd = draw(st.randoms(use_true_random=False))
        density = draw(st.floats(min_value=0.2, max_value=1.0))
        pairs += [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rnd.random() < density]
    return from_edge_list(n, pairs)


def test_diameter_known_values():
    assert diameter(build_ring(64)) == 32
    assert diameter(build_grid(4, 4)) == 6
    assert diameter(build_hypercube(6)) == 6
    assert diameter(build_grid(32, 32)) == 62
    assert diameter(from_edge_list(1000, [(i, i + 1) for i in range(999)])) == 999


@pytest.mark.parametrize("block_bits", [topology.DIAMETER_BLOCK_BITS, 8])
@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_diameter_matches_bfs_reference(block_bits, g):
    # 8-bit blocks split every graph of more than 8 cells across blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "DIAMETER_BLOCK_BITS", block_bits)
        assert diameter(g) == bfs_diameter(g)


@pytest.mark.parametrize("block_bits", [topology.DIAMETER_BLOCK_BITS, 2])
def test_diameter_rejects_hand_built_disconnected_graph(monkeypatch, block_bits):
    monkeypatch.setattr(topology, "DIAMETER_BLOCK_BITS", block_bits)
    two_pairs = Graph(node_count=4, adjacency=((1,), (0,), (3,), (2,)))
    with pytest.raises(ConnectivityError):
        diameter(two_pairs)
    isolated = Graph(node_count=3, adjacency=((1,), (0,), ()))
    with pytest.raises(ConnectivityError):
        diameter(isolated)


def test_longest_path_small_graphs():
    assert longest_simple_path_exact(from_edge_list(2, [(0, 1)])) == 1
    assert longest_simple_path_exact(from_edge_list(3, [(0, 1), (1, 2)])) == 2
    # star: center 0; best path uses two leaves
    assert longest_simple_path_exact(
        from_edge_list(4, [(0, 1), (0, 2), (0, 3)])) == 2


def test_longest_path_exact_below_budget():
    assert topology_stats(complete_bipartite(4, 5)) == TopologyStats(
        diameter=2, longest_simple_path=8, lg_is_exact=True)
    assert topology_stats(petersen()) == TopologyStats(
        diameter=2, longest_simple_path=9, lg_is_exact=True)


def _logged_stats(caplog, g, lg_override=None):
    """topology_stats(g, lg_override) and the WARNINGs it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mepsim"):
        stats = topology_stats(g, lg_override=lg_override)
    return stats, [r.getMessage() for r in caplog.records
                   if r.levelno == logging.WARNING]


def test_longest_path_search_gives_up_within_budget(caplog):
    # K(7,9)'s longest simple path is 14 edges; proving that no 15-edge path
    # exists takes far more than the budget's expansions
    g = complete_bipartite(7, 9)
    budget = "the exact search ran out of its budget of 1000000 expansions"
    start = time.perf_counter()
    stats, logged = _logged_stats(caplog, g)
    assert time.perf_counter() - start < 5.0
    assert stats == TopologyStats(diameter=2, longest_simple_path=15,
                                  lg_is_exact=False)
    assert logged == [
        f"longest_simple_path=15 is the bound n-1, not exact: {budget}"]
    assert longest_simple_path_exact(g) is None
    over, logged = _logged_stats(caplog, g, lg_override=14)
    assert over.longest_simple_path == 14 and not over.lg_is_exact
    assert logged == [
        f"longest_simple_path=14 is lg_override, not exact: {budget}"]


def test_stats_closed_forms(caplog):
    st_, logged = _logged_stats(caplog, build_ring(64))
    assert st_.longest_simple_path == 63 and st_.lg_is_exact and not logged
    # 128 nodes, above the search cap
    st_, logged = _logged_stats(caplog, build_hypercube(7))
    assert st_.longest_simple_path == 127 and st_.lg_is_exact and not logged
    st_, logged = _logged_stats(caplog, build_grid(9, 9))  # also above it
    assert st_.longest_simple_path == 80 and st_.lg_is_exact and not logged


def test_stats_override_and_fallback(caplog):
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    custom, logged = _logged_stats(caplog, g)
    assert custom.longest_simple_path == 3 and custom.lg_is_exact
    assert logged == []
    # a 65-cell star: above the exhaustive-search cap, diameter 2
    star = from_edge_list(65, [(0, i) for i in range(1, 65)])
    cap = "65 cells are above the exact-search cap of 64"
    big, logged = _logged_stats(caplog, star)
    assert big.longest_simple_path == 64 and not big.lg_is_exact
    assert logged == [f"longest_simple_path=64 is the bound n-1, not exact: {cap}"]
    small, logged = _logged_stats(caplog, star, lg_override=2)
    assert small.longest_simple_path == 2 and not small.lg_is_exact
    assert logged == [f"longest_simple_path=2 is lg_override, not exact: {cap}"]
    with pytest.raises(ParameterError):
        topology_stats(star, lg_override=1)  # below the diameter


def test_parse_topology():
    assert parse_topology("ring:16").name == "ring:16"
    assert parse_topology("grid:4x4").node_count == 16
    assert parse_topology("hypercube:6").node_count == 64
    with pytest.raises(TopologyError):
        parse_topology("torus:4")
    with pytest.raises(TopologyError):
        parse_topology("grid:4")


def test_edge_list_roundtrip(tmp_path):
    g = build_grid(3, 3)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    with open(path, "a") as fh:
        fh.write("\n  \n")  # blank lines after the edges are allowed
    h = read_edge_list(path)
    assert h.edges == g.edges and h.node_count == g.node_count


@given(st.integers(min_value=3, max_value=40))
def test_ring_diameter_is_half(n):
    assert diameter(build_ring(n)) == n // 2


def test_closed_form_diameters_match_the_sweep():
    """topology_stats takes a constructor graph's diameter from its closed
    form; on every ring of 3-119 cells, every grid from 2x2 to 12x12 and
    every hypercube of dimension 2-8 it equals the sweep."""
    specs = ([f"ring:{n}" for n in range(3, 120)]
             + [f"grid:{r}x{c}" for r in range(2, 13) for c in range(2, 13)]
             + [f"hypercube:{d}" for d in range(2, 9)])
    for spec in specs:
        g = parse_topology(spec)
        closed_d, _ = topology._closed_forms(g)
        assert closed_d == topology_stats(g).diameter == diameter(g), spec


def test_closed_form_diameter_skips_the_sweep(monkeypatch):
    def no_sweep(g):
        raise AssertionError("swept a constructor graph")

    monkeypatch.setattr(topology, "diameter", no_sweep)
    assert topology_stats(build_ring(20000)).diameter == 10000
    assert topology_stats(build_grid(3, 70)).diameter == 71
    assert topology_stats(build_hypercube(10)).diameter == 10
    path = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])  # no closed form
    with pytest.raises(AssertionError, match="swept"):
        topology_stats(path)
