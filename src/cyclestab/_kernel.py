"""Exact search kernels: the hot loops every cycle search runs.

Witnesses depend on search order (anchors ascending, neighbors ascending),
so reports are reproducible byte for byte.

Both cycle searches are one DFS, ``_cycle_search(adj, n, floor, limit,
cap, deadline)``, over simple paths anchored at the minimum vertex of the
cycle being sought.  It returns the first longest cycle with more than
``floor`` and at most ``limit`` vertices, and stops once it holds one of
``cap`` or more.  ``find_longest_cycle`` asks for any cycle (floor 0,
limit n) up to its cap; ``find_cycle_of_length`` asks for exactly ``t``
vertices (floor t - 1, limit and cap t).  Two prunes cut a branch: a
bitset reachability bound on the achievable cycle length against the
best so far, and an anchor with no neighbor left to close on.  Both read
one reach, which ``_reach_holds`` grows only until it proves the branch
live, so the prune decisions, node counts and witnesses are those of the
full reach.  ``_reach_from`` (the full reach, for ``graph.components``),
its bounded sibling ``_reach_holds`` (for both DFS prunes, this one and the
spanning-path search's) and ``_check_deadline`` are the package's
reachability loops and its one deadline check.

Sweeps split edge 2-colorings by whether one color holds a cycle of a given
length.  ``sweep_filter`` scans sampled draws one by one, against every
cycle mask; ``sweep_filter_range`` enumerates an exhaustive counter range
edge by edge and prunes a branch at its first monochromatic cycle.
"""

from __future__ import annotations

from itertools import islice
from time import monotonic

from .errors import SearchTimeout

backend_name = "pure"  # the ``meta.backend`` of every report

_DEADLINE_STRIDE = 2048


def _check_deadline(nodes: int, deadline, search: str = "exact cycle search") -> None:
    """Called on every DFS node; looks at the clock on a search's first node
    and on every ``_DEADLINE_STRIDE``-th after it, so an expired deadline
    always stops a search."""
    if deadline is not None and nodes % _DEADLINE_STRIDE == 1 and monotonic() > deadline:
        raise SearchTimeout(f"{search} exceeded its deadline")


def _reach_from(adj, cand: int, free: int) -> int:
    """``cand`` (a subset of ``free``) and the vertices of ``free`` reachable
    from it inside ``free``."""
    reach = 0
    frontier = cand
    while frontier:
        reach |= frontier
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= adj[v]
        frontier = nxt & free & ~reach
    return reach


def _reach_holds(adj, cand: int, free: int, need: int, meet: int) -> bool:
    """Whether ``_reach_from(adj, cand, free)`` holds at least ``need``
    vertices and meets ``meet``.  The reach stops growing as soon as it
    passes that test, or once it fills ``free`` without passing it."""
    reach = 0
    frontier = cand
    while frontier:
        reach |= frontier
        if reach & meet and reach.bit_count() >= need:
            return True
        if reach == free:
            return False
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= adj[v]
        frontier = nxt & free & ~reach
    return False


def _cycle_search(adj, n: int, floor: int, limit: int, cap: int, deadline):
    """The first longest cycle, in search order, with more than ``floor``
    and at most ``limit`` vertices, as a vertex list, or None.  The search
    stops once it holds one of ``cap`` (at most ``limit``) or more."""
    best = floor if floor > 2 else 2  # a cycle has at least 3 vertices
    if limit <= best:
        return None
    best_path = None
    allowed = (1 << n) - 1
    path = []
    nodes = 0

    def dfs(u: int, visited: int, a: int) -> bool:
        """True once ``path`` closes a cycle of ``cap`` or more vertices."""
        nonlocal best, best_path, nodes
        nodes += 1
        _check_deadline(nodes, deadline)
        depth = len(path)
        if depth > best:
            if (adj[u] >> a) & 1:
                if depth >= cap:
                    return True
                best = depth
                best_path = path.copy()
            elif depth >= limit:
                return False
        free = allowed & ~visited
        cand = adj[u] & free
        if not cand:
            return False
        # a live branch reaches more than best - depth vertices, one of
        # them a neighbor of the anchor to close the cycle on; the reach
        # stops growing once it has shown both
        if not _reach_holds(adj, cand, free, best - depth + 1, adj[a]):
            return False
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            path.append(v)
            if dfs(v, visited | (1 << v), a):
                return True
            path.pop()
        return False

    for a in range(n):
        if allowed.bit_count() <= best:
            break
        path.clear()
        path.append(a)
        if dfs(a, 1 << a, a):
            return path
        allowed &= ~(1 << a)
    return best_path


def find_longest_cycle(adj, n: int, deadline=None, cap=None):
    """Exact longest cycle length and one witness path, or (0, None).

    With ``cap`` the search stops once it holds a cycle of ``cap`` or more
    vertices, so ``min(length, cap) == min(c, cap)``; when c <= cap the
    result is the uncapped one, witness included.
    """
    if cap is None or cap > n:
        cap = n
    path = _cycle_search(adj, n, 0, n, cap, deadline)
    return (len(path), path) if path else (0, None)


def find_cycle_of_length(adj, n: int, t: int, deadline=None):
    """First cycle with exactly ``t`` vertices in search order, or None."""
    return _cycle_search(adj, n, t - 1, t, t, deadline)


def sweep_filter(cycle_masks, m: int, reds, deadline=None):
    """Split edge 2-colorings of a fixed host, given as red edge masks, by
    whether one color holds a cycle.

    A coloring is monochromatic when one of ``cycle_masks`` (cycle edge
    sets) is a subset of either color.  Returns (mono count, red masks with
    no monochromatic cycle, in input order).  The denser color is scanned
    first; the verdict does not depend on scan order.  The clock is read
    before every block of ``_DEADLINE_STRIDE`` colorings, the first
    included, so the per-coloring loop carries no deadline check.
    """
    full = (1 << m) - 1
    mono = 0
    monofree = []
    reds = iter(reds)
    while True:
        done = mono + len(monofree)
        _check_deadline(done + 1, deadline, "sweep")
        for red in islice(reds, _DEADLINE_STRIDE):
            blue = red ^ full
            if 2 * red.bit_count() >= m:
                first, second = red, blue
            else:
                first, second = blue, red
            found = False
            for mask in cycle_masks:
                if not (mask & ~first):
                    found = True
                    break
            if not found:
                for mask in cycle_masks:
                    if not (mask & ~second):
                        found = True
                        break
            if found:
                mono += 1
            else:
                monofree.append(red)
        if mono + len(monofree) - done < _DEADLINE_STRIDE:
            return mono, monofree


def sweep_filter_range(cycle_masks, m: int, start: int, stop: int, deadline=None):
    """``sweep_filter`` over a counter range, by a pruned enumeration.

    Counter ``c`` maps to the red edge mask ``(c << 1) | 1``: the first edge
    is pinned red (symmetry halving).  The range splits into aligned blocks
    [a * 2^k, (a + 1) * 2^k), each of which fixes edges k+1 .. m-1 and
    leaves edges 1 .. k free.  A cycle mask is decided once its lowest edge
    is, so the masks are bucketed by lowest edge.  Edges are decided from
    the top down, blue before red, and a monochromatic mask cuts the whole
    subtree; the leaves that survive are the mono-free red masks, in counter
    order.  The result equals ``sweep_filter`` on the same red masks.  Every
    block and every decided edge is a node; the clock is read on the first
    node and on every ``_DEADLINE_STRIDE``-th after it.
    """
    if stop <= start:
        return 0, []
    buckets = [[] for _ in range(m)]
    for mask in cycle_masks:
        buckets[(mask & -mask).bit_length() - 1].append(mask)
    monofree = []
    nodes = 0
    lo = start
    while lo < stop:
        k = min((lo & -lo).bit_length() - 1 if lo else m - 1, m - 1)
        while lo + (1 << k) > stop:
            k -= 1
        block = lo << 1  # edges 0 .. k clear, the rest fixed by the block
        lo += 1 << k
        nodes += 1
        _check_deadline(nodes, deadline, "sweep")
        if any((x & block) in (0, x) for j in range(k + 1, m) for x in buckets[j]):
            continue
        # (j, red): edge j was just decided, the edges above it are fixed;
        # edge 0 is only ever red
        stack = [(k, block | (1 << k))]
        if k:
            stack.append((k, block))
        while stack:
            j, red = stack.pop()
            nodes += 1
            _check_deadline(nodes, deadline, "sweep")
            color = red if red >> j & 1 else ~red  # the edges colored like edge j
            for x in buckets[j]:
                if x & color == x:
                    break
            else:
                if not j:
                    monofree.append(red)
                else:
                    j -= 1
                    stack.append((j, red | (1 << j)))
                    if j:
                        stack.append((j, red))
    return stop - start - len(monofree), monofree
