"""Shared graph builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from cyclestab.graph import Graph, bits, build_graph


# -- named graphs ---------------------------------------------------------

def complete(n: int) -> Graph:
    return build_graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return build_graph(10, edges)


def two_cliques_shared(k: int, extra=()) -> Graph:
    """Two complete graphs on k vertices sharing vertex 0."""
    edges = list(combinations(range(k), 2))
    second = [0] + list(range(k, 2 * k - 1))
    edges += list(combinations(second, 2))
    edges += list(extra)
    return build_graph(2 * k - 1, edges)


def shared_cliques(a: int, b: int) -> Graph:
    """Complete graphs on a and b vertices sharing vertex 0."""
    edges = list(combinations(range(a), 2))
    second = [0] + list(range(a, a + b - 1))
    edges += list(combinations(second, 2))
    return build_graph(a + b - 1, edges)


def two_disjoint_cliques(k: int, bridge: bool = False) -> Graph:
    edges = list(combinations(range(k), 2))
    edges += list(combinations(range(k, 2 * k), 2))
    if bridge:
        edges.append((0, k))
    return build_graph(2 * k, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return build_graph(n, edges)


def small_graphs(seed: int, count: int):
    """Random, bipartite and block-joined graphs on at most 12 vertices."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 12)
        if i % 3 == 0:
            yield random_graph(rng, n, rng.random())
        elif i % 3 == 1:
            a = rng.randint(0, n)
            yield build_graph(n, [(u, v) for u in range(a) for v in range(a, n)
                                  if rng.random() < 0.6])
        else:
            # dense runs of consecutive vertices, so blocks meet at cut vertices
            yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + 4))
                                  if rng.random() < 0.7])


# -- independent oracles ---------------------------------------------------

def assert_graph_invariant(g: Graph) -> None:
    """What the trusted ``Graph`` constructor takes on faith: at most 64
    vertices, one row per vertex inside n, no loop, symmetric rows."""
    assert 0 <= g.n <= 64
    assert len(g.adj) == g.n
    for v, row in enumerate(g.adj):
        assert 0 <= row < 1 << g.n, f"row {v} leaves the vertex set"
        assert not (row >> v) & 1, f"loop at {v}"
        for u in range(g.n):
            assert (row >> u) & 1 == (g.adj[u] >> v) & 1, f"asymmetric at {u}, {v}"


def naive_cycle_lengths(g: Graph) -> set[int]:
    """Lengths of all simple cycles by plain DFS enumeration (no pruning)."""
    lengths: set[int] = set()
    adj = g.adj

    def dfs(anchor: int, u: int, visited: int, depth: int) -> None:
        for v in bits(adj[u]):
            if v < anchor:
                continue
            if v == anchor:
                if depth >= 3:
                    lengths.add(depth)
            elif not (visited >> v) & 1:
                dfs(anchor, v, visited | (1 << v), depth + 1)

    for a in range(g.n):
        dfs(a, a, 1 << a, 1)
    return lengths


def naive_longest_cycle(g: Graph) -> int:
    return max(naive_cycle_lengths(g), default=0)


def naive_has_path(g: Graph, x: int, y: int, order: int) -> bool:
    """Exhaustive check for an x-y path on exactly ``order`` vertices."""

    def dfs(u: int, visited: int, depth: int) -> bool:
        if depth == order:
            return u == y
        for v in bits(g.adj[u]):
            if v == y and depth + 1 < order:
                continue
            if not (visited >> v) & 1:
                if dfs(v, visited | (1 << v), depth + 1):
                    return True
        return False

    return dfs(x, 1 << x, 1)


@pytest.fixture(scope="session")
def atlas_connected():
    """All connected graphs on at most 7 vertices, up to isomorphism."""
    import networkx as nx

    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > 7:
            continue
        if not nx.is_connected(G):
            continue
        mapping = {v: i for i, v in enumerate(sorted(G.nodes()))}
        out.append(build_graph(n, [(mapping[u], mapping[v]) for u, v in G.edges()]))
    return out
