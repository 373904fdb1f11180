import pytest
from hypothesis import given, strategies as st

from mepsim.errors import ConnectivityError, ParameterError, TopologyError
from mepsim.topology import (build_grid, build_hypercube, build_ring, diameter,
                             from_edge_list, longest_simple_path_exact,
                             parse_topology, read_edge_list, topology_stats)


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


def test_diameter_known_values():
    assert diameter(build_ring(64)) == 32
    assert diameter(build_grid(4, 4)) == 6
    assert diameter(build_hypercube(6)) == 6


def test_longest_path_small_graphs():
    assert longest_simple_path_exact(from_edge_list(2, [(0, 1)])) == 1
    assert longest_simple_path_exact(from_edge_list(3, [(0, 1), (1, 2)])) == 2
    # star: center 0; best path uses two leaves
    assert longest_simple_path_exact(
        from_edge_list(4, [(0, 1), (0, 2), (0, 3)])) == 2


def test_stats_closed_forms():
    st_ = topology_stats(build_ring(64))
    assert st_.longest_simple_path == 63 and st_.lg_is_exact
    st_ = topology_stats(build_hypercube(7))  # 128 nodes, above the search cap
    assert st_.longest_simple_path == 127 and st_.lg_is_exact


def test_stats_override_and_fallback():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    custom = topology_stats(g)
    assert custom.longest_simple_path == 3 and custom.lg_is_exact
    # a 65-cell star: above the exhaustive-search cap, diameter 2
    star = from_edge_list(65, [(0, i) for i in range(1, 65)])
    big = topology_stats(star)
    assert big.longest_simple_path == 64 and not big.lg_is_exact
    assert topology_stats(star, lg_override=2).longest_simple_path == 2
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
    h = read_edge_list(path)
    assert h.edges == g.edges and h.node_count == g.node_count


@given(st.integers(min_value=3, max_value=40))
def test_ring_diameter_is_half(n):
    assert diameter(build_ring(n)) == n // 2
