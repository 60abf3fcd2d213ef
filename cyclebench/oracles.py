"""Graph facts computed without the program under test.

Everything here reads the benchmark's own input files with its own
parsers (or networkx) and recomputes what a report claims from first
principles: cycle witnesses, cycle-length sets, colour classes and the
structural family of mono-C5-free colourings of K8.  Nothing imports
``cyclestab``.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx


# -- reading the benchmark's input files ------------------------------------

def read_graph(path: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of a graph6 or edge-list file."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("ascii")
    if text.lstrip()[:1].isdigit():
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise ValueError(f"{path}: header says {m} edges, found {len(rows) - 1}")
        edges = [(int(u), int(v)) for u, v in rows[1:]]
    else:
        g = nx.from_graph6_bytes(text.strip().encode("ascii"))
        n = g.number_of_nodes()
        edges = list(g.edges())
    return n, adjacency(n, edges)


def read_coloring(path: str) -> tuple[int, list[int], list[int]]:
    """(p, red adjacency, blue adjacency) of a coloring file."""
    with open(path, encoding="ascii") as fh:
        rows = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    p = int(rows[0][0])
    red, blue = [0] * p, [0] * p
    for u, v, c in rows[1:]:
        side = red if c == "R" else blue
        u, v = int(u), int(v)
        side[u] |= 1 << v
        side[v] |= 1 << u
    return p, red, blue


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edge_count(adj) -> int:
    return sum(row.bit_count() for row in adj) // 2


def write_graph6(path: str, n: int, edges) -> None:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    with open(path, "wb") as fh:
        fh.write(nx.to_graph6_bytes(g, header=False))


def write_edge_list(path: str, n: int, edges) -> None:
    rows = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


def write_coloring(path: str, p: int, red_edges) -> None:
    red = {tuple(sorted(e)) for e in red_edges}
    rows = [str(p)] + [f"{u} {v} {'R' if (u, v) in red else 'B'}"
                       for u, v in combinations(range(p), 2)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


# -- cycles ---------------------------------------------------------------

def is_cycle(adj, seq, length: int) -> bool:
    """``seq`` is a cycle on exactly ``length`` distinct vertices of ``adj``."""
    n = len(adj)
    if not isinstance(seq, list) or len(seq) != length or length < 3 \
            or len(set(seq)) != length:
        return False
    if not all(isinstance(v, int) and 0 <= v < n for v in seq):
        return False
    return all((adj[a] >> b) & 1 for a, b in zip(seq, seq[1:] + [seq[0]]))


def enumerated_lengths(adj, bound=None) -> set[int]:
    """Every cycle length of the graph, by networkx's cycle enumeration
    (only lengths up to ``bound`` when given)."""
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
                     if (adj[u] >> v) & 1)
    return {len(c) for c in nx.simple_cycles(g, length_bound=bound)}


def lengths_up_to(adj, top: int) -> set[int]:
    """Exact set of cycle lengths in [3, top], by extending simple paths
    from each anchor over larger vertices; stops once all are found."""
    n = len(adj)
    want = set(range(3, top + 1))
    found: set[int] = set()
    for a in range(n):
        above = ~((1 << (a + 1)) - 1)
        abit = adj[a]
        stack = [(a, 1 << a, 1)]
        while stack:
            u, seen, depth = stack.pop()
            if depth >= 3 and (abit >> u) & 1:
                found.add(depth)
                if found >= want:
                    return found
            if depth == top:
                continue
            cand = adj[u] & above & ~seen
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                stack.append((v, seen | low, depth + 1))
    return found & want


# -- closed forms ---------------------------------------------------------

def grid_edges(rows: int, cols: int) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def grid_lengths(rows: int, cols: int) -> set[int]:
    """Rectangular grids with both sides >= 2 hold every even length from 4
    up to the largest even number of vertices."""
    n = rows * cols
    return set(range(4, n - n % 2 + 1, 2))


def complete_bipartite_lengths(a: int, b: int) -> set[int]:
    return set(range(4, 2 * min(a, b) + 1, 2))


def hypercube_lengths(d: int) -> set[int]:
    """Q_d (d >= 2) is bipancyclic: every even length in [4, 2^d]."""
    return set(range(4, 2 ** d + 1, 2))


# -- the mono-C5-free colourings of K8 ----------------------------------------

K8_EDGES = list(combinations(range(8), 2))
K8_INDEX = {e: i for i, e in enumerate(K8_EDGES)}


def _k8_mask(edges) -> int:
    return sum(1 << K8_INDEX[tuple(sorted(e))] for e in edges)


def _k8_splits():
    """(inside mask, cross mask) for every split of V(K8) into two 4-sets."""
    out = []
    for side in combinations(range(1, 8), 3):
        s = (0,) + side
        rest = tuple(v for v in range(8) if v not in s)
        inside = _k8_mask(list(combinations(s, 2)) + list(combinations(rest, 2)))
        cross = _k8_mask([(a, b) for a in s for b in rest])
        out.append((inside, cross))
    return out


K8_SPLITS = _k8_splits()
K8_FULL = (1 << 28) - 1


def in_k8_family(red_mask: int) -> bool:
    """Whether a colouring of K8 (red edges as a mask over the sorted edge
    list) lies in the family without a monochromatic C5: one colour is two
    disjoint K4s plus at most one edge between them.  Faudree & Schelp give
    R(C5, C5) = 9; the family has 35 * 2 * 17 = 1190 members."""
    for colour in (red_mask, red_mask ^ K8_FULL):
        if colour.bit_count() not in (12, 13):
            continue
        for inside, cross in K8_SPLITS:
            if colour & inside == inside and (colour & cross).bit_count() <= 1:
                return True
    return False


def k8_family() -> list[int]:
    """All 1190 red masks of the family, sorted."""
    masks = set()
    for inside, cross in K8_SPLITS:
        extras = [0] + [1 << i for i in range(28) if (cross >> i) & 1]
        for extra in extras:
            colour = inside | extra
            masks.add(colour)
            masks.add(colour ^ K8_FULL)
    return sorted(masks)


def sample_red_mask(seed: int, idx: int, m: int) -> int:
    """The documented sample map of sampled sweeps and verdict sweeps."""
    return random.Random(f"{seed}:{idx}").getrandbits(m)


def colour_classes(p: int, red_mask: int) -> tuple[list[int], list[int]]:
    red, blue = [0] * p, [0] * p
    for i, (u, v) in enumerate(combinations(range(p), 2)):
        side = red if (red_mask >> i) & 1 else blue
        side[u] |= 1 << v
        side[v] |= 1 << u
    return red, blue
