"""Backend parity: the compiled extension must mirror the pure kernels
exactly, witnesses included."""

import random
from time import monotonic

import pytest

from cyclestab import _kernel, _pure
from cyclestab.errors import SearchTimeout
from cyclestab.ramsey import cycle_edge_masks

from conftest import random_graph

compiled = pytest.importorskip("cyclestab._core")


def test_backend_selected():
    assert _kernel.backend_name in ("compiled", "pure")


def test_cycle_search_parity():
    rng = random.Random(21)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 11), rng.random())
        assert _pure.find_longest_cycle(g.adj, g.n) == \
            compiled.find_longest_cycle(g.adj, g.n)
        for cap in range(g.n + 2):
            assert _pure.find_longest_cycle(g.adj, g.n, None, cap) == \
                compiled.find_longest_cycle(g.adj, g.n, None, cap)
        for t in range(3, g.n + 1):
            assert _pure.find_cycle_of_length(g.adj, g.n, t) == \
                compiled.find_cycle_of_length(g.adj, g.n, t)


def test_sweep_parity_k6():
    masks = cycle_edge_masks(6, 4)
    pure = _pure.sweep_filter_range(masks, 15, 0, 1 << 14, True)
    fast = compiled.sweep_filter_range(masks, 15, 0, 1 << 14, True)
    assert pure == fast


def test_sweep_parity_k8_slice():
    masks = cycle_edge_masks(8, 5)
    lo, hi = 41_000_000, 41_200_000
    pure = _pure.sweep_filter_range(masks, 28, lo, hi, True)
    fast = compiled.sweep_filter_range(masks, 28, lo, hi, True)
    assert pure == fast


def test_deadline_raises():
    # 7x7 grid: the longest-cycle search needs far more nodes than one
    # deadline-check stride, so an expired deadline must surface
    from cyclestab.graph import build_graph

    side = 7
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    g = build_graph(side * side, edges)
    deadline = monotonic() - 1.0
    with pytest.raises(SearchTimeout):
        _pure.find_longest_cycle(g.adj, g.n, deadline)
    with pytest.raises(SearchTimeout):
        compiled.find_longest_cycle(g.adj, g.n, deadline)
    # the clock is read on a search's first node, so even a search that
    # would finish within one stride stops
    for backend in (_pure, compiled):
        with pytest.raises(SearchTimeout):
            backend.find_cycle_of_length(g.adj, g.n, 4, deadline)
