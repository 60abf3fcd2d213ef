"""Exact longest-cycle and cycle-spectrum computation, plus classical
edge-count bound checkers evaluated in exact integer arithmetic.

Witnesses are vertex sequences in local graph indices.  A witness starts at
the smallest vertex of its cycle and runs in the direction that makes the
second vertex smaller than the last, so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Optional

from . import _kernel
from .errors import ParameterError
from .graph import Graph, blocks, is_two_connected
from .reporting import Comparison


def _canonical_cycle(seq) -> tuple[int, ...]:
    seq = list(seq)
    if len(seq) >= 3 and seq[-1] < seq[1]:
        seq = [seq[0]] + seq[1:][::-1]
    return tuple(seq)


def validate_cycle(g: Graph, seq, t: Optional[int] = None) -> bool:
    """Independent witness check: distinct vertices, consecutive adjacency,
    closing edge, and (optionally) exact length."""
    seq = tuple(seq)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    if t is not None and len(seq) != t:
        return False
    if any(not (0 <= v < g.n) for v in seq):
        return False
    for u, v in zip(seq, seq[1:]):
        if not g.has_edge(u, v):
            return False
    return g.has_edge(seq[-1], seq[0])


class CycleBounds(NamedTuple):
    """Cycle lengths that a graph's blocks rule out.

    Every cycle lies inside one biconnected block, no cycle is longer than
    its block, and a bipartite block has only even cycles, none longer
    than twice its smaller side.  These facts only rule lengths out; every
    witness still comes from the whole-graph search.
    """

    longest: int      # max over blocks of |B|, or twice the smaller side if bipartite
    longest_odd: int  # the largest non-bipartite block, 0 if none

    def rules_out(self, t: int) -> bool:
        return t > self.longest or (t % 2 == 1 and t > self.longest_odd)


def _block_bounds(g: Graph) -> CycleBounds:
    longest = longest_odd = 0
    for block in blocks(g):
        size = block.vertices.bit_count()
        if block.side is None:
            longest = max(longest, size)
            longest_odd = max(longest_odd, size)
        else:
            half = block.side.bit_count()
            longest = max(longest, 2 * min(half, size - half))
    return CycleBounds(longest, longest_odd)


def _ear_grown_triangle(g: Graph) -> int:
    """The first triangle in search order (lowest a, then b > a, then c),
    grown by every vertex with two neighbours in the set; 0 when ``g`` has
    no triangle.

    A joining vertex adds an ear of length two, so the set stays
    2-connected (Whitney, Trans. AMS 34, 1932), and the triangle is an odd
    cycle in it.  So the set lies inside one non-bipartite block, and
    ``longest >= longest_odd >= |set|`` without the block DFS.
    """
    adj = g.adj
    for a in range(g.n):
        above = adj[a] >> a + 1 << a + 1
        m = above
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[b] & above:
                # the closure of the edge ab: c, their lowest common
                # neighbour, joins first
                grown = 1 << a | 1 << b
                one = adj[a] | adj[b]  # >= 1 neighbour in the set
                two = adj[a] & adj[b]  # >= 2 neighbours in the set
                joining = two & ~grown
                while joining:
                    v = (joining & -joining).bit_length() - 1
                    grown |= 1 << v
                    two |= one & adj[v]
                    one |= adj[v]
                    joining = two & ~grown
                return grown
    return 0


def cycle_bounds(g: Graph) -> CycleBounds:
    """The block bounds of ``g``, computed once per graph."""
    return g.memo("cycle_bounds", lambda: _block_bounds(g))


def _longest_cycle(g: Graph, deadline) -> tuple[int, Optional[tuple[int, ...]]]:
    # c never exceeds the block bound, and the search keeps only strictly
    # longer cycles, so stopping at the bound keeps the uncapped witness
    length, path = _kernel.find_longest_cycle(g.adj, g.n, deadline, cycle_bounds(g).longest)
    if length == 0:
        return 0, None
    return length, _canonical_cycle(path)


def longest_cycle(g: Graph, deadline=None) -> tuple[int, Optional[tuple[int, ...]]]:
    """Exact longest cycle length with a witness; (0, None) when acyclic.
    Computed once per graph."""
    return g.memo("longest_cycle", lambda: _longest_cycle(g, deadline))


def cycle_of_length(g: Graph, t: int, deadline=None) -> Optional[tuple[int, ...]]:
    """A cycle on exactly ``t`` vertices, or None if no such cycle exists."""
    if t < 3 or t > g.n:
        raise ParameterError(f"cycle length {t} outside [3, {g.n}]")
    if cycle_bounds(g).rules_out(t):
        return None
    path = _kernel.find_cycle_of_length(g.adj, g.n, t, deadline)
    if path is None:
        return None
    return _canonical_cycle(path)


def is_hamiltonian(g: Graph, deadline=None) -> bool:
    return g.n >= 3 and cycle_of_length(g, g.n, deadline) is not None


def spectrum_up_to(g: Graph, top: int, deadline=None) -> dict[int, tuple[int, ...]]:
    """Witnesses for every achievable cycle length in [3, min(top, n)], in
    increasing length, from one search over the lengths the blocks leave
    open; each is ``cycle_of_length``'s.

    When the ear-grown triangle has at least min(top, n) vertices, the
    blocks rule out none of these lengths (its block is non-bipartite and
    no smaller), so every one is wanted without the block DFS.  That is
    the mask the blocks give, so the search, its witnesses and its nodes
    are the same either way."""
    top = min(top, g.n)
    if _ear_grown_triangle(g).bit_count() >= top:
        wanted = (2 << max(top, 2)) - 8  # bits 3..top
    else:
        bounds = cycle_bounds(g)
        wanted = 0
        for t in range(3, min(top, bounds.longest) + 1):
            if not bounds.rules_out(t):
                wanted |= 1 << t
    found = _kernel.find_cycles(g.adj, g.n, wanted, deadline)
    return {t: _canonical_cycle(found[t]) for t in sorted(found)}


@dataclass(frozen=True)
class SpectrumReport:
    """Presence flags and witnesses for every cycle length of a graph."""

    n: int
    c: int
    flags: tuple[bool, ...]  # index i covers length i + 3
    witnesses: dict[int, tuple[int, ...]]

    def present(self) -> list[int]:
        return [t + 3 for t, f in enumerate(self.flags) if f]

    def has(self, t: int) -> bool:
        return 0 <= t - 3 < len(self.flags) and self.flags[t - 3]

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "lengths": self.present(),
            "witnesses": {str(t): list(w) for t, w in sorted(self.witnesses.items())},
        }


def cycle_spectrum(g: Graph, deadline=None) -> SpectrumReport:
    """Exact spectrum over [3, n]: ``spectrum_up_to(g, n)``, whose longest
    length is c, the longest cycle.  A search past its deadline raises
    ``SearchTimeout``; there is no partial spectrum."""
    witnesses = spectrum_up_to(g, g.n, deadline)
    flags = [False] * max(0, g.n - 2)
    for t in witnesses:
        flags[t - 3] = True
    return SpectrumReport(g.n, max(witnesses, default=0), tuple(flags), witnesses)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one classical bound on one graph."""

    name: str
    applicable: bool
    passed: Optional[bool]
    comparisons: tuple[Comparison, ...]
    inputs: dict

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "comparisons": [c.to_payload() for c in self.comparisons],
            "inputs": dict(self.inputs),
        }


def check_erdos_gallai(g: Graph, deadline=None) -> BoundReport:
    """Edge-count lower bound on the longest cycle: if e >= n then c*n > 2e."""
    n, e = g.n, g.edge_count()
    gate = Comparison.make("applicable-edges-at-least-order", e, ">=", max(n, 1))
    if n == 0 or not gate.holds:
        return BoundReport("erdos-gallai", False, None, (gate,), {"n": n, "e": e})
    c, _ = longest_cycle(g, deadline)
    main = Comparison.make("longest-cycle-exceeds-average-degree", c * n, ">", 2 * e)
    return BoundReport("erdos-gallai", True, main.holds, (gate, main),
                       {"n": n, "e": e, "c": c})


def check_fan_lv_weng(g: Graph, deadline=None) -> BoundReport:
    """Two-connected edge bound plus its long-cycle corollary.

    Sub-check (a): e <= C(c+1-floor(c/2), 2) + floor(c/2) * (n-c-1+floor(c/2)).
    Sub-check (b): either the graph is Hamiltonian or
    c > 2n(1 - sqrt(1 - 2e/n^2)), verified by squaring: (2n-c)^2 < 4(n^2-2e).
    """
    n, e = g.n, g.edge_count()
    if not is_two_connected(g):
        return BoundReport("fan-lv-weng", False, None, (), {"n": n, "e": e})
    c, _ = longest_cycle(g, deadline)
    ham = c == n
    half = c // 2
    rhs_a = comb(c + 1 - half, 2) + half * (n - c - 1 + half)
    cmp_a = Comparison.make(
        "edge-count-upper", e, "<=", rhs_a,
        note="waived in the verdict: the bound concerns graphs with a cycle "
             "length deficit, and this graph is hamiltonian" if ham else "")
    if ham:
        cmp_b = Comparison("long-cycle-lower-squared", (2 * n - c) ** 2, "<",
                           4 * (n * n - 2 * e), True,
                           note="hamiltonian, holds vacuously")
    else:
        cmp_b = Comparison.make("long-cycle-lower-squared", (2 * n - c) ** 2, "<",
                                4 * (n * n - 2 * e),
                                note="squared form of c > 2n(1-sqrt(1-2e/n^2)); "
                                     "both sides nonnegative since c <= n")
    return BoundReport("fan-lv-weng", True, (cmp_a.holds or ham) and cmp_b.holds,
                       (cmp_a, cmp_b), {"n": n, "e": e, "c": c})


def check_bollobas_pancyclicity(g: Graph, deadline=None) -> BoundReport:
    """Density above n^2/4 forces every cycle length up to the longest."""
    n, e = g.n, g.edge_count()
    gate = Comparison.make("applicable-density", 4 * e, ">", n * n)
    if not gate.holds:
        return BoundReport("bollobas-pancyclicity", False, None, (gate,),
                           {"n": n, "e": e})
    # c is the longest-cycle search the other bounds share; the spectrum
    # search then wants only the lengths up to it
    c, _ = longest_cycle(g, deadline)
    found = spectrum_up_to(g, c, deadline)
    missing = [t for t in range(3, c + 1) if t not in found]
    cmp_cover = Comparison.make(
        "spectrum-covers-range", len(missing), "==", 0,
        note=f"missing lengths: {missing}" if missing else "all lengths in [3, c] present")
    return BoundReport("bollobas-pancyclicity", True, cmp_cover.holds,
                       (gate, cmp_cover), {"n": n, "e": e, "c": c})
