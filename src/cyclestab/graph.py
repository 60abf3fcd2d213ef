"""Dense bitset graphs on at most 64 vertices.

A graph stores one adjacency bitmask per vertex; a vertex set is a plain
Python int used as a bitmask.  All operations are pure and every output is
deterministic (components and bipartition sides are ordered by minimum
label), so downstream reports are reproducible byte for byte.

Induced subgraphs carry ``labels`` mapping local indices back to the
original host vertices, so certificates can always name host vertices.

Outside data is validated where it enters (``build_graph``, ``formats``,
``coloring.parse_coloring``); ``Graph(n, adj)`` trusts its rows.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from ._kernel import _reach_from
from .errors import ParameterError

MAX_VERTICES = 64

T = TypeVar("T")


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class Graph:
    """Immutable undirected simple graph on ``n`` <= 64 vertices.  The rows
    are trusted (inside ``n``, loop-free, symmetric); outside data goes
    through ``build_graph``, ``parse_graph`` or ``parse_coloring``."""

    __slots__ = ("n", "adj", "labels", "_memo")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence[int]] = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # rebuilt through __init__ (the memo is not carried), since
        # unpickling slots directly would go through __setattr__
        return Graph, (self.n, self.adj, self.labels)

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, run once per graph and key and kept on the graph,
        for data derived from the edges alone.  A call that raises (a
        search past its deadline, say) keeps nothing."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"

    # -- basic queries -------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def degree_within(self, v: int, within: int) -> int:
        return (self.adj[v] & within).bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def label_of(self, v: int) -> int:
        return v if self.labels is None else self.labels[v]

    def host_ids(self, vertices) -> tuple[int, ...]:
        """Map local vertex indices to host labels."""
        return tuple(self.label_of(v) for v in vertices)


def build_graph(n: int, edges) -> Graph:
    """Build a graph from an edge list, validated; duplicate edges collapse."""
    if n < 0 or n > MAX_VERTICES:
        raise ParameterError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ParameterError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    adj = [(~g.adj[v]) & full & ~(1 << v) for v in range(g.n)]
    return Graph(g.n, adj, g.labels)


def induced(g: Graph, s: int) -> Graph:
    """Induced subgraph on vertex-set mask ``s``; labels chain to the host."""
    if s & ~g.full_mask():
        raise ParameterError("vertex set not a subset of the graph")
    verts = list(bits(s))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in bits(g.adj[v] & s):
            adj[i] |= 1 << index[u]
    labels = tuple(g.label_of(v) for v in verts)
    return Graph(len(verts), adj, labels)


def components(g: Graph, within: Optional[int] = None) -> list[int]:
    """Connected components as vertex-set masks, sorted by minimum label.

    ``within`` restricts the graph to a vertex subset without relabeling.
    """
    remaining = g.full_mask() if within is None else within
    out = []
    while remaining:
        comp = _reach_from(g.adj, remaining & -remaining, remaining)
        out.append(comp)
        remaining &= ~comp
    return out


class Block(NamedTuple):
    """A biconnected block: its vertex mask, and the mask of one side of
    its bipartition, or None when the block holds an odd cycle."""

    vertices: int
    side: Optional[int]


def blocks(g: Graph, within: Optional[int] = None) -> tuple[Block, ...]:
    """Biconnected blocks that hold an edge.

    One iterative Hopcroft-Tarjan DFS (CACM 16(6), 1973).  A stack holds
    the vertices whose block is still open; when a child's low point does
    not climb above its parent, the parent plus the stacked vertices down
    to the child close one block.  Every cycle lies inside one block.

    Tree edges join depths of opposite parity, and a back edge lies in the
    block of the tree edge above its lower end.  So a block is bipartite,
    with depth parity as its sides, unless one of its back edges joins two
    depths of the same parity.
    ``within`` restricts the graph to a vertex subset without relabeling.
    The blocks are computed once per graph and scope; no ``within`` and the
    full mask are one scope.
    """
    scope = g.full_mask() if within is None else within
    return g.memo(("blocks", scope), lambda: _blocks(g, scope))


def _blocks(g: Graph, within: int) -> tuple[Block, ...]:
    adj = g.adj
    disc = [0] * g.n
    low = [0] * g.n
    counter = 0
    visited = 0
    even = 0  # vertices at even depth
    odd = 0   # vertices with a back edge to an ancestor at the same parity
    out = []
    for root in bits(within):
        if (visited >> root) & 1:
            continue
        visited |= 1 << root
        even |= 1 << root
        disc[root] = low[root] = counter
        counter += 1
        stack = [root]
        open_vertices = [root]
        while stack:
            v = stack[-1]
            cand = adj[v] & within & ~visited
            if cand:
                u = (cand & -cand).bit_length() - 1
                bit = 1 << u
                visited |= bit
                if len(stack) % 2 == 0:
                    even |= bit
                disc[u] = low[u] = counter
                counter += 1
                # u's visited neighbours are its ancestors, the parent among
                # them; the parent lowers low[u] at most to disc[v], which
                # the block test below still accepts
                back = adj[u] & visited
                if back & (even if even & bit else ~even):
                    odd |= bit
                for w in bits(back):
                    if disc[w] < low[u]:
                        low[u] = disc[w]
                stack.append(u)
                open_vertices.append(u)
                continue
            stack.pop()
            if stack:
                parent = stack[-1]
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    closed = 0
                    while True:
                        w = open_vertices.pop()
                        closed |= 1 << w
                        if w == v:
                            break
                    block = closed | 1 << parent
                    out.append(Block(block, None if closed & odd else block & even))
    return tuple(out)


def cut_vertices(g: Graph, within: Optional[int] = None) -> int:
    """Articulation vertices (union over components) as a bitmask: the
    vertices that lie in more than one block."""
    seen = arts = 0
    for block in blocks(g, within):
        arts |= seen & block.vertices
        seen |= block.vertices
    return arts


def bipartition(g: Graph, within: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Two-coloring classes if bipartite, else None.

    The sides come from ``blocks``: the graph is bipartite when every block
    is, and then a vertex's class is its depth parity in the block DFS, so
    in each component the side containing its minimum vertex (the DFS root)
    goes to class one.  The returned pair is ordered smaller class first
    (ties keep the class-one side first).
    """
    scope = g.full_mask() if within is None else within
    odd = 0
    for block in blocks(g, within):
        if block.side is None:
            return None
        odd |= block.vertices & ~block.side
    even = scope & ~odd
    return (odd, even) if odd.bit_count() < even.bit_count() else (even, odd)


def is_clique(g: Graph, s: int) -> bool:
    for v in bits(s):
        if (g.adj[v] & s) != s & ~(1 << v):
            return False
    return True


def is_independent(g: Graph, s: int) -> bool:
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


def is_complete_bipartite_between(g: Graph, a: int, b: int) -> bool:
    if a & b:
        raise ParameterError("vertex sets overlap")
    for v in bits(a):
        if (g.adj[v] & b) != b:
            return False
    return True


def edges_between(g: Graph, a: int, b: int) -> list[tuple[int, int]]:
    """All (u, v) edges with u in a, v in b; sorted."""
    out = []
    for u in bits(a):
        for v in bits(g.adj[u] & b):
            out.append((u, v))
    return out


def is_two_connected(g: Graph) -> bool:
    """At least 3 vertices, and one block covering them all."""
    if g.n < 3:
        return False
    found = blocks(g)
    return len(found) == 1 and found[0].vertices == g.full_mask()
