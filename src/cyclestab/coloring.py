"""Edge 2-colorings of a host graph and their text format.

File format: first line is the host order p, then one line per edge
"u v c" with c in {R, B}; the host is the union of the listed edges.
``parse_coloring`` validates a file and requires a complete host unless the
caller opts out; colorings from a red mask reuse a cached K_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import GraphFormatError, ParameterError
from .graph import MAX_VERTICES, Graph, build_graph


@dataclass(frozen=True)
class TwoColoring:
    """A host graph with its edges split into red and blue classes."""

    host: Graph
    red: Graph
    blue: Graph

    def __post_init__(self):
        if not (self.host.n == self.red.n == self.blue.n):
            raise ParameterError("host and color classes must share one vertex set")
        for v in range(self.host.n):
            if self.red.adj[v] & self.blue.adj[v]:
                raise ParameterError(f"edge colored twice at vertex {v}")
            if (self.red.adj[v] | self.blue.adj[v]) != self.host.adj[v]:
                raise ParameterError(f"colors do not partition host edges at vertex {v}")

    @property
    def n(self) -> int:
        return self.host.n

    def swap(self) -> "TwoColoring":
        return TwoColoring(self.host, self.blue, self.red)

    def color_of(self, name: str) -> Graph:
        if name == "red":
            return self.red
        if name == "blue":
            return self.blue
        raise ParameterError(f"unknown color {name!r}")


@cache
def complete_host(p: int) -> Graph:
    return build_graph(p, combinations(range(p), 2))


def coloring_from_red_mask(p: int, red_mask: int) -> TwoColoring:
    """Coloring of the complete host K_p from a red edge bitmask over the
    lexicographically sorted edge list; bits past the last edge are ignored."""
    host = complete_host(p)
    red = [0] * p
    for i, (u, v) in enumerate(host.memo("edges", host.edges)):
        if red_mask >> i & 1:
            red[u] |= 1 << v
            red[v] |= 1 << u
    return TwoColoring(host, Graph(p, red), Graph(p, [h & ~r for h, r in zip(host.adj, red)]))


def coloring_from_edges(p: int, red_edges, blue_edges) -> TwoColoring:
    red, blue = build_graph(p, red_edges), build_graph(p, blue_edges)
    return TwoColoring(Graph(p, [r | b for r, b in zip(red.adj, blue.adj)]), red, blue)


def parse_coloring(text: str, require_complete: bool = True) -> TwoColoring:
    rows = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    if not rows:
        raise GraphFormatError("empty coloring input")
    try:
        p = int(rows[0])
    except ValueError as exc:
        raise GraphFormatError(f"malformed order line {rows[0]!r}") from exc
    if p < 1 or p > MAX_VERTICES:
        raise GraphFormatError(f"order {p} outside [1, {MAX_VERTICES}]")
    red_edges = []
    blue_edges = []
    seen = set()
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in ("R", "B"):
            raise GraphFormatError(f"malformed coloring line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"malformed coloring line {ln!r}") from exc
        if not (0 <= u < p and 0 <= v < p) or u == v:
            raise GraphFormatError(f"edge ({u}, {v}) invalid for order {p}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"edge ({u}, {v}) listed twice")
        seen.add(key)
        (red_edges if parts[2] == "R" else blue_edges).append(key)
    if require_complete and len(seen) != p * (p - 1) // 2:
        raise GraphFormatError(
            f"host not complete: {len(seen)} of {p * (p - 1) // 2} edges colored")
    return coloring_from_edges(p, red_edges, blue_edges)


def serialize_coloring(col: TwoColoring) -> str:
    lines = [str(col.n)]
    for u, v in col.host.edges():
        lines.append(f"{u} {v} {'R' if col.red.has_edge(u, v) else 'B'}")
    return "\n".join(lines) + "\n"
