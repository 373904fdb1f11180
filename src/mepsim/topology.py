"""Undirected propagation networks and their path statistics.

Graphs are immutable after construction: dense integer node ids 0..n-1,
sorted adjacency tuples, connectivity enforced.  The two statistics that
drive timer parameterization are the diameter and the longest-simple-path
length.  The diameter is always exact: a closed form for the constructor
topologies, otherwise one breadth-first sweep from every cell at once,
carrying one bit per source.  The longest simple path is exact by closed
form for the constructor topologies, or by an exhaustive search on
graphs of up to DEFAULT_EXACT_SEARCH_CAP cells that settles it within
EXACT_SEARCH_BUDGET expansions; otherwise it is lg_override when given,
else the conservative upper bound n-1, and a WARNING on the mepsim logger
says which value stands in and why.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import NamedTuple

from .errors import ConnectivityError, ParameterError, TopologyError

DEFAULT_EXACT_SEARCH_CAP = 64
# DFS expansions the exact longest-path search may make before it gives up;
# a count, not a clock, so the outcome is a pure function of the graph.
EXACT_SEARCH_BUDGET = 1_000_000
# Sources per diameter sweep: masks of 4096 bits keep memory at n * 512 B.
DIAMETER_BLOCK_BITS = 4096


class Graph(NamedTuple):
    """Connected undirected graph held as its sorted adjacency alone."""

    node_count: int
    adjacency: tuple  # tuple of tuples, sorted ascending per node
    name: str | None = None  # constructor tag like "ring:16", None for custom

    @property
    def edges(self) -> list:
        """The (i, j) pairs with i < j, in ascending order."""
        return [(i, j) for i, nbrs in enumerate(self.adjacency)
                for j in nbrs if i < j]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


class TopologyStats(NamedTuple):
    """Diameter and longest-simple-path length, both in edge counts."""

    diameter: int
    longest_simple_path: int
    lg_is_exact: bool


def _make_graph(n: int, edge_pairs, name=None) -> Graph:
    adj = [set() for _ in range(n)]
    for i, j in edge_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise TopologyError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise TopologyError(f"self-loop at node {i}")
        adj[i].add(j)
        adj[j].add(i)
    missing = [i for i, d in enumerate(_distances(adj, 0)) if d < 0]
    if missing:
        raise ConnectivityError(f"graph is disconnected; unreachable nodes {missing[:8]}")
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), name)


def build_ring(n: int) -> Graph:
    """Cycle graph on n >= 3 nodes; every node has degree 2."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got {n}")
    return _make_graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"ring:{n}")


def build_grid(rows: int, cols: int) -> Graph:
    """4-neighbor lattice without wraparound, nodes in row-major order."""
    if rows < 2 or cols < 2:
        raise TopologyError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return _make_graph(rows * cols, edges, name=f"grid:{rows}x{cols}")


def build_hypercube(dim: int) -> Graph:
    """2^dim nodes; i and j adjacent iff their ids differ in exactly one bit."""
    if dim < 2:
        raise TopologyError(f"hypercube needs dim >= 2, got {dim}")
    n = 1 << dim
    edges = []
    for i in range(n):
        for b in range(dim):
            j = i ^ (1 << b)
            if i < j:
                edges.append((i, j))
    return _make_graph(n, edges, name=f"hypercube:{dim}")


def from_edge_list(n: int, edges) -> Graph:
    """Normalized graph from a raw pair list: dedup, symmetric, connected."""
    if n < 2:
        raise TopologyError(f"need n >= 2, got {n}")
    edges = list(edges)
    if not edges:
        raise TopologyError("empty edge list")
    if n > len(edges) + 1:  # checked before n sizes any per-node table
        raise ConnectivityError(f"{len(edges)} edges cannot connect {n} nodes")
    return _make_graph(n, edges)


def _distances(adjacency, src: int) -> list:
    """BFS hop counts from src; -1 marks a node src cannot reach."""
    dist = [-1] * len(adjacency)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(g: Graph) -> int:
    """Exact diameter: a BFS from every cell at once, one bit per source.

    After sweep k, reach[v] holds the bit of every source within k hops of
    v.  Sweep 1 is each source's closed neighbourhood; from sweep 2 on,
    reach[v] is just the union of its neighbours' masks, because a source
    k hops from v is k-1 hops from the next cell on a shortest path.  The
    diameter is the number of sweeps until every mask is full; a cell
    whose mask is full leaves the active list.  Sources go in blocks of
    DIAMETER_BLOCK_BITS, so the masks take O(n * 512 B) for any n.
    """
    n = g.node_count
    adjacency = g.adjacency
    lonely = [v for v in range(n) if not adjacency[v]]
    if lonely:
        raise ConnectivityError(f"graph is disconnected; isolated nodes {lonely[:8]}")
    best = 0
    for lo in range(0, n, DIAMETER_BLOCK_BITS):
        hi = min(lo + DIAMETER_BLOCK_BITS, n)
        full = (1 << (hi - lo)) - 1
        reach = [0] * n
        for src in range(lo, hi):
            bit = 1 << (src - lo)
            reach[src] |= bit
            for v in adjacency[src]:
                reach[v] |= bit
        sweeps = 1
        # (cell, first neighbour, other neighbours): the OR starts from the
        # first neighbour's mask instead of from 0
        active = [(v, adjacency[v][0], adjacency[v][1:])
                  for v in range(n) if reach[v] != full]
        while active:
            nxt = reach[:]
            for v, first, rest in active:
                mask = reach[first]
                for u in rest:
                    mask |= reach[u]
                nxt[v] = mask
            if nxt == reach:  # no mask grew: some source never reaches a cell
                raise ConnectivityError("graph is disconnected")
            reach = nxt
            active = [cell for cell in active if reach[cell[0]] != full]
            sweeps += 1
        best = max(best, sweeps)
    return best


def longest_simple_path_exact(g: Graph) -> int | None:
    """Exhaustive DFS over simple paths, or None once EXACT_SEARCH_BUDGET
    expansions have not settled it; exponential, small graphs only."""
    n = g.node_count
    adj_bits = [0] * n
    for i in range(n):
        for j in g.adjacency[i]:
            adj_bits[i] |= 1 << j
    best = 0
    target = n - 1
    budget = EXACT_SEARCH_BUDGET

    def dfs(node, visited, length):
        # True ends the whole search: a Hamiltonian path, or budget spent
        nonlocal best, budget
        budget -= 1
        if budget < 0:
            return True
        if length > best:
            best = length
            if best == target:
                return True
        cand = adj_bits[node] & ~visited
        while cand:
            low = cand & -cand
            cand ^= low
            if dfs(low.bit_length() - 1, visited | low, length + 1):
                return True
        return False

    for start in range(n):
        if dfs(start, 1 << start, 0):
            break
    return None if budget < 0 else best


def grid_shape(g: Graph) -> tuple:
    """(rows, cols) of a constructor-built grid, else (1, n): one row."""
    kind, _, arg = (g.name or "").partition(":")
    if kind != "grid":
        return 1, g.node_count
    rows, cols = arg.split("x")
    return int(rows), int(cols)


def _closed_forms(g: Graph) -> tuple | None:
    """(diameter, longest simple path) of a constructor-built ring, grid or
    hypercube, else None.  All three admit a Hamiltonian path.  A ring's
    farthest cell is halfway round, a grid's the opposite corner, and a
    hypercube's the one whose id differs in every bit."""
    kind, _, arg = (g.name or "").partition(":")
    if kind == "ring":
        d = g.node_count // 2
    elif kind == "grid":
        d = sum(grid_shape(g)) - 2
    elif kind == "hypercube":
        d = int(arg)
    else:
        return None
    return d, g.node_count - 1


def topology_stats(g: Graph, lg_override: int | None = None) -> TopologyStats:
    """Diameter (always exact) and longest simple path (exact when feasible).

    Closed forms give both statistics of constructor-built
    rings/grids/hypercubes.  Any other graph's diameter comes from one
    bit-parallel sweep (see diameter), and its longest simple path, up to
    DEFAULT_EXACT_SEARCH_CAP cells, from the exhaustive search, which
    gives up after EXACT_SEARCH_BUDGET expansions.  Above the cap, or
    when the search gives up, the override is used if given, else the
    bound n-1, both with lg_is_exact=False and one WARNING on the mepsim
    logger.
    """
    d, lg = _closed_forms(g) or (diameter(g), None)
    n = g.node_count
    if lg_override is not None and lg_override < d:
        raise ParameterError(
            f"lg_override={lg_override} is below the diameter {d}")
    if lg is None and n <= DEFAULT_EXACT_SEARCH_CAP:
        lg = longest_simple_path_exact(g)
    if lg is not None:
        return TopologyStats(diameter=d, longest_simple_path=lg, lg_is_exact=True)
    if n > DEFAULT_EXACT_SEARCH_CAP:
        reason = (f"{n} cells are above the exact-search cap of "
                  f"{DEFAULT_EXACT_SEARCH_CAP}")
    else:
        reason = (f"the exact search ran out of its budget of "
                  f"{EXACT_SEARCH_BUDGET} expansions")
    lg, used = ((n - 1, "the bound n-1") if lg_override is None
                else (lg_override, "lg_override"))
    logging.getLogger("mepsim").warning(
        "longest_simple_path=%d is %s, not exact: %s", lg, used, reason)
    return TopologyStats(diameter=d, longest_simple_path=lg, lg_is_exact=False)


def parse_topology(spec: str) -> Graph:
    """Build a graph from a name like ring:16, grid:4x4, or hypercube:6."""
    try:
        kind, _, arg = spec.partition(":")
        if kind == "ring":
            return build_ring(int(arg))
        if kind == "grid":
            rows, cols = arg.lower().split("x")
            return build_grid(int(rows), int(cols))
        if kind == "hypercube":
            return build_hypercube(int(arg))
    except (ValueError, TypeError) as exc:
        raise TopologyError(f"cannot parse topology spec {spec!r}: {exc}") from exc
    raise TopologyError(f"unknown topology kind in spec {spec!r}")


def names_graph(name: str, graph: Graph) -> bool:
    """Whether the constructor spec `name` builds exactly `graph`.  Only
    specs sized for its node count are built, so a name cannot make a
    caller build a huge graph."""
    n = graph.node_count
    specs = {f"ring:{n}", f"hypercube:{n.bit_length() - 1}"}
    specs.update(f"grid:{r}x{n // r}" for r in range(1, n + 1) if n % r == 0)
    try:
        return (name in specs
                and parse_topology(name).adjacency == graph.adjacency)
    except TopologyError:
        return False


def read_edge_list(path) -> Graph:
    """Read the text format: line 'n m', m lines 'i j', then blanks only."""
    with open(path) as fh:
        try:
            header = fh.readline().split()
            if len(header) != 2:
                raise TopologyError(f"{path}: expected header 'n m'")
            n, m = int(header[0]), int(header[1])
            edges = []
            for _ in range(m):
                parts = fh.readline().split()
                if len(parts) != 2:
                    raise TopologyError(f"{path}: truncated edge list")
                edges.append((int(parts[0]), int(parts[1])))
            if any(line.strip() for line in fh):
                raise TopologyError(f"{path}: more than {m} edge lines")
        except ValueError as exc:  # a non-integer field or bad encoding
            raise TopologyError(f"{path}: {exc}") from exc
    return from_edge_list(n, edges)
