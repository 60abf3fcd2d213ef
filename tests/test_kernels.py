"""The exact-search kernels: deadlines, and the sweep filter against an
independent per-coloring check."""

from itertools import combinations
from time import monotonic

import pytest

from cyclestab import _kernel
from cyclestab.errors import SearchTimeout
from cyclestab.graph import build_graph
from cyclestab.paths import _exact_spanning_path
from cyclestab.ramsey import _mono_free, cycle_edge_masks

from conftest import cycle_graph


def _grid(side: int):
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return build_graph(side * side, edges)


def test_backend_name():
    assert _kernel.backend_name == "pure"


def test_deadline_stops_longest_cycle():
    # 7x7 grid: the longest-cycle search needs far more nodes than one
    # deadline-check stride
    g = _grid(7)
    with pytest.raises(SearchTimeout, match="exact cycle search"):
        _kernel.find_longest_cycle(g.adj, g.n, monotonic() - 1.0)


def test_deadline_stops_fixed_length_on_first_node():
    # the clock is read on a search's first node, so even a search that
    # would finish within one stride stops
    g = _grid(7)
    with pytest.raises(SearchTimeout, match="exact cycle search"):
        _kernel.find_cycle_of_length(g.adj, g.n, 4, monotonic() - 1.0)


def test_deadline_stops_spanning_path_on_first_node():
    g = cycle_graph(5)
    assert _exact_spanning_path(g.adj, g.n, 0, 1) == [0, 4, 3, 2, 1]
    with pytest.raises(SearchTimeout, match="spanning-path search exceeded its deadline"):
        _exact_spanning_path(g.adj, g.n, 0, 1, monotonic() - 1.0)


def test_sweep_filter_k6_c4():
    # R(C4, C4) = 6: every coloring of K6 has a monochromatic C4
    masks = cycle_edge_masks(6, 4)
    assert _kernel.sweep_filter_range(masks, 15, 0, 1 << 14) == (1 << 14, [])


def test_sweep_filter_matches_mono_free_k8_c5():
    # a counter slice of K8/C5 around the red mask of two red K4s joined
    # by a blue K_{4,4}, which has no monochromatic C5
    masks = cycle_edge_masks(8, 5)
    index = {e: i for i, e in enumerate(combinations(range(8), 2))}
    red = 0
    for side in ((0, 1, 2, 3), (4, 5, 6, 7)):
        for e in combinations(side, 2):
            red |= 1 << index[e]
    lo = (red >> 1) - 3000
    hi = lo + 6000
    mono, monofree = _kernel.sweep_filter_range(masks, 28, lo, hi)
    expected = [r for r in ((c << 1) | 1 for c in range(lo, hi)) if _mono_free(masks, 28, r)]
    assert red in expected
    assert monofree == expected
    assert mono == hi - lo - len(expected)
