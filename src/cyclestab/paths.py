"""Constructive path machinery: spanning paths under minimum-degree
hypotheses and the inductive bipartite path extension.

Spanning-path search tries greedy extension with far-end rotation first and
falls back to an exact DFS, so results are guaranteed whenever a path
exists.  The bipartite constructor follows the splice induction directly:
grow an x-y path two vertices at a time through a fresh neighbor pair,
with ties broken by smallest index, then smallest vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._kernel import _check_deadline, _reach_holds
from .errors import (
    HypothesisViolatedError,
    InternalContradictionError,
    NoSuchPathError,
    ParameterError,
)
from .graph import Graph, bipartition, bits, induced, lowest_bit


@dataclass(frozen=True)
class PathWitness:
    """A vertex-simple path; order is the vertex count, length the edge count."""

    vertices: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def validate(self, g: Graph) -> bool:
        vs = self.vertices
        if not vs or len(set(vs)) != len(vs):
            return False
        if any(not (0 <= v < g.n) for v in vs):
            return False
        return all(g.has_edge(u, v) for u, v in zip(vs, vs[1:]))

    def to_payload(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "order": self.order,
            "length": self.length,
        }


@dataclass(frozen=True)
class SpanningPathResult:
    path: PathWitness
    hypothesis_ok: bool
    method: str  # "rotation" or "exact"

    def to_payload(self) -> dict:
        return {
            "path": self.path.to_payload(),
            "hypothesis_ok": self.hypothesis_ok,
            "method": self.method,
        }


@dataclass(frozen=True)
class NearSpanningPaths:
    spanning: PathWitness       # order n
    almost_spanning: PathWitness  # order n - 1
    removed: int

    def to_payload(self) -> dict:
        return {
            "spanning": self.spanning.to_payload(),
            "almost_spanning": self.almost_spanning.to_payload(),
            "removed": self.removed,
        }


def _posa_spanning_path(adj, n: int, x: int, y: int) -> Optional[list[int]]:
    """Greedy extension from x with far-end rotation; y is kept for last.

    Deterministic and bounded; returns None on stall (the exact search is
    the fallback, so a miss here costs time, not correctness).
    """
    ybit = 1 << y
    want = ((1 << n) - 1) & ~ybit
    path = [x]
    inmask = 1 << x
    seen = set()
    budget = 8 * n * n + 16
    while budget > 0:
        budget -= 1
        u = path[-1]
        if inmask == want:
            if adj[u] & ybit:
                path.append(y)
                return path
        cand = adj[u] & ~inmask & ~ybit
        if cand and inmask != want:
            v = lowest_bit(cand)
            path.append(v)
            inmask |= 1 << v
            continue
        state = (u, inmask)
        if state in seen:
            return None
        seen.add(state)
        rotated = False
        for i in range(len(path) - 2):
            if (adj[u] >> path[i]) & 1:
                candidate_end = path[i + 1]
                if (candidate_end, inmask) not in seen:
                    path[i + 1:] = path[i + 1:][::-1]
                    rotated = True
                    break
        if not rotated:
            return None
    return None


def _exact_spanning_path(adj, n: int, x: int, y: int, deadline=None) -> Optional[list[int]]:
    """DFS over simple paths from x covering all vertices and ending at y."""
    full = (1 << n) - 1
    ybit = 1 << y
    transit_all = full & ~ybit
    path = [x]
    nodes = 0

    def dfs(u: int, visited: int) -> bool:
        nonlocal nodes
        nodes += 1
        _check_deadline(nodes, deadline, "spanning-path search")
        free = full & ~visited
        if free == ybit:
            if adj[u] & ybit:
                path.append(y)
                return True
            return False
        cand = adj[u] & free & ~ybit
        if not cand:
            return False
        # y must have a neighbor among u and the remaining vertices, and
        # every remaining vertex must stay reachable without crossing y
        # (cand lies in the reach, so only the count is asked of it)
        transit = free & transit_all
        if not (adj[y] & (transit | (1 << u))):
            return False
        if not _reach_holds(adj, cand, transit, transit.bit_count(), cand):
            return False
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            path.append(v)
            if dfs(v, visited | (1 << v)):
                return True
            path.pop()
        return False

    return path if dfs(x, 1 << x) else None


def hamiltonian_path_between(g: Graph, x: int, y: int, deadline=None) -> SpanningPathResult:
    """A spanning x-y path.  Guaranteed when 2*min_degree > n; when that
    hypothesis fails the exact search still runs and the result is flagged."""
    if x == y:
        raise ParameterError("endpoints must differ")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ParameterError("endpoint out of range")
    hypothesis_ok = 2 * g.min_degree() > g.n
    found = _posa_spanning_path(g.adj, g.n, x, y)
    method = "rotation"
    if found is None:
        found = _exact_spanning_path(g.adj, g.n, x, y, deadline)
        method = "exact"
    if found is None:
        raise NoSuchPathError(
            f"no spanning path between {x} and {y}", hypothesis_ok=hypothesis_ok)
    return SpanningPathResult(PathWitness(tuple(found)), hypothesis_ok, method)


def near_spanning_paths(g: Graph, x: int, y: int, deadline=None) -> NearSpanningPaths:
    """Spanning and order-(n-1) x-y paths under 2*min_degree >= n + 2.

    The shorter path removes the smallest vertex w outside {x, y} and joins
    x to y inside the remaining graph, so it never contains w.
    """
    if x == y:
        raise ParameterError("endpoints must differ")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ParameterError("endpoint out of range")
    if 2 * g.min_degree() < g.n + 2:
        raise HypothesisViolatedError(
            f"min degree {g.min_degree()} below n/2 + 1 for n={g.n}")
    spanning = hamiltonian_path_between(g, x, y, deadline).path
    w = next(v for v in range(g.n) if v not in (x, y))
    keep = g.full_mask() & ~(1 << w)
    sub = induced(g, keep)
    verts = list(bits(keep))
    pos = {v: i for i, v in enumerate(verts)}
    short = hamiltonian_path_between(sub, pos[x], pos[y], deadline).path
    mapped = PathWitness(tuple(verts[i] for i in short.vertices))
    return NearSpanningPaths(spanning, mapped, w)


def _bipartite_context(g: Graph):
    bip = bipartition(g)
    if bip is None:
        raise HypothesisViolatedError("graph is not bipartite")
    a, b = bip
    size_a, size_b = a.bit_count(), b.bit_count()
    delta = g.min_degree()
    if 2 * delta < size_b + 2:
        raise HypothesisViolatedError(
            f"min degree {delta} below |B|/2 + 1 with |B|={size_b}")
    top = 2 * (2 * delta - size_a - 1)
    return a, b, delta, top


def bipartite_path(g: Graph, x: int, y: int, t: int) -> PathWitness:
    """An x-y path of length t in a bipartite graph with classes A, B
    (|A| <= |B|) and min degree at least |B|/2 + 1.

    Admissible lengths: even t in [2, 2(2*delta - |A| - 1)] when x and y sit
    in the same class, odd t in [3, same bound] otherwise.  Built by the
    two-vertex splice induction; every step extends the path by exactly 2.
    """
    if x == y:
        raise ParameterError("endpoints must differ")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ParameterError("endpoint out of range")
    a, b, delta, top = _bipartite_context(g)
    same_class = bool(((a >> x) & 1) == ((a >> y) & 1))
    base = 2 if same_class else 3
    if t % 2 != base % 2:
        raise ParameterError(
            f"parity mismatch: length {t} with {'same-class' if same_class else 'cross-class'} endpoints")
    if t < base or t > top:
        raise ParameterError(f"length {t} outside admissible interval [{base}, {top}]")

    full = g.full_mask()
    if same_class:
        common = g.adj[x] & g.adj[y] & ~(1 << x) & ~(1 << y)
        if not common:
            raise InternalContradictionError("no common neighbor for a same-class pair")
        path = [x, lowest_bit(common), y]
    else:
        u1_pool = g.adj[x] & ~(1 << y)
        path = None
        for u1 in bits(u1_pool):
            pool2 = g.adj[u1] & g.adj[y] & ~(1 << x)
            if pool2:
                path = [x, u1, lowest_bit(pool2), y]
                break
        if path is None:
            raise InternalContradictionError("no length-3 base path for a cross pair")

    while len(path) - 1 < t:
        onpath = 0
        for v in path:
            onpath |= 1 << v
        spliced = False
        for i in range(len(path) - 1):
            ui, uj = path[i], path[i + 1]
            if not ((a >> ui) & 1 and (b >> uj) & 1):
                continue
            for v in bits(g.adj[ui] & full & ~onpath):
                pool_w = g.adj[uj] & g.adj[v] & ~onpath & ~(1 << v)
                if pool_w:
                    w = lowest_bit(pool_w)
                    path[i + 1:i + 1] = [v, w]
                    spliced = True
                    break
            if spliced:
                break
        if not spliced:
            raise InternalContradictionError(
                "splice step found no extension although the degree hypothesis holds")
    return PathWitness(tuple(path))


def bipartite_even_cycle(g: Graph, t: int) -> tuple[int, ...]:
    """A cycle of even length t in [4, 2(2*delta - |A| - 1)]: close an odd
    x-y path of length t - 1 over an edge x~y."""
    a, b, delta, top = _bipartite_context(g)
    if t % 2 != 0:
        raise ParameterError(f"cycle length {t} must be even")
    if t < 4 or t > top:
        raise ParameterError(f"length {t} outside admissible interval [4, {top}]")
    x = lowest_bit(a)
    nbrs = g.adj[x]
    if not nbrs:
        raise InternalContradictionError("isolated vertex despite degree hypothesis")
    y = lowest_bit(nbrs)
    path = bipartite_path(g, x, y, t - 1)
    return path.vertices
