"""The exact-search kernels: deadlines, and the sweep filter against an
independent per-coloring check."""

from itertools import combinations
from time import monotonic

import pytest

from cyclestab import _kernel
from cyclestab.errors import SearchTimeout
from cyclestab.graph import build_graph
from cyclestab.paths import _exact_spanning_path
from cyclestab.ramsey import cycle_edge_masks

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


def _has_mono_cycle(masks, m: int, red: int) -> bool:
    """Some cycle edge set lies inside the red or inside the blue edges."""
    blue = red ^ ((1 << m) - 1)
    return any(mask & red == mask or mask & blue == mask for mask in masks)


def _two_red_k4s() -> int:
    """The red mask of two red K4s joined by a blue K_{4,4}, a coloring of
    K8 with no monochromatic C5."""
    index = {e: i for i, e in enumerate(combinations(range(8), 2))}
    red = 0
    for side in ((0, 1, 2, 3), (4, 5, 6, 7)):
        for e in combinations(side, 2):
            red |= 1 << index[e]
    return red


def test_sweep_filter_matches_plain_predicate_k8_c5():
    # a counter slice of K8/C5 around a coloring with no monochromatic C5
    masks = cycle_edge_masks(8, 5)
    red = _two_red_k4s()
    lo = (red >> 1) - 3000
    hi = lo + 6000
    mono, monofree = _kernel.sweep_filter_range(masks, 28, lo, hi)
    expected = [r for r in ((c << 1) | 1 for c in range(lo, hi))
                if not _has_mono_cycle(masks, 28, r)]
    assert red in expected
    assert monofree == expected
    assert mono == hi - lo - len(expected)


def test_sweep_filter_keeps_input_order():
    # any iterable of red masks, with the first edge blue too: mono-free
    # masks come back in input order, across deadline blocks
    masks = cycle_edge_masks(8, 5)
    red = _two_red_k4s()
    blue = red ^ ((1 << 28) - 1)
    assert red > blue
    reds = list(range(1 << 20, (1 << 20) + 5000))
    reds[4500:4500] = [blue]
    reds[100:100] = [red]
    mono, monofree = _kernel.sweep_filter(masks, 28, iter(reds))
    assert monofree == [red, blue]
    assert monofree == [r for r in reds if not _has_mono_cycle(masks, 28, r)]
    assert mono == len(reds) - 2
    assert _kernel.sweep_filter(masks, 28, iter(())) == (0, [])


def test_deadline_stops_sweep_filter_on_first_block():
    # the clock is read before the first block too, so a range shorter than
    # one block stops
    masks = cycle_edge_masks(6, 4)
    with pytest.raises(SearchTimeout, match="sweep exceeded its deadline"):
        _kernel.sweep_filter_range(masks, 15, 0, 10, monotonic() - 1.0)
    assert _kernel.sweep_filter_range(masks, 15, 0, 10, monotonic() + 60.0) == (10, [])
