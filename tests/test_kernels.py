"""The exact-search kernels: deadlines, frozen cycle-search outputs, and the
sweep filters against an independent per-coloring check, each other, and
cycle Ramsey numbers."""

import hashlib
import random
from itertools import combinations, count
from time import monotonic

import pytest

from cyclestab import _kernel, paths
from cyclestab.errors import SearchTimeout
from cyclestab.graph import bipartition, build_graph, induced, is_two_connected
from cyclestab.paths import _exact_spanning_path
from cyclestab.ramsey import cycle_edge_masks

from conftest import (
    complete_bipartite,
    cycle_graph,
    random_graph,
    two_cliques_shared,
    two_disjoint_cliques,
)


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


def _frozen_corpus(seed: int, count: int):
    """Random, bipartite and block-joined graphs on at most 12 vertices,
    each with two random vertex masks."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 12)
        if i % 3 == 0:
            g = random_graph(rng, n, rng.random())
        elif i % 3 == 1:
            a = rng.randint(0, n)
            g = build_graph(n, [(u, v) for u in range(a) for v in range(a, n)
                                if rng.random() < 0.6])
        else:
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + 4))
                                if rng.random() < 0.7])
        yield g, [rng.getrandbits(n), rng.getrandbits(n)]


def _frozen_outputs(g, caps, lengths, masks):
    """Every cycle-search, bipartition and 2-connectivity output on ``g``."""
    yield from (_kernel.find_longest_cycle(g.adj, g.n, cap=cap) for cap in caps)
    yield from (_kernel.find_cycle_of_length(g.adj, g.n, t) for t in lengths)
    for within in [None] + masks:
        yield bipartition(g, within)
        yield is_two_connected(g if within is None else induced(g, within))


# sha256 of the outputs below, computed before the cycle searches shared one
# DFS; a change to any witness, length, side or verdict moves it
_FROZEN_DIGEST = "c1b509d3e0a2286deb41848c1a1a2b7776683bd7d236587f4b34c387f400c931"


def test_frozen_search_outputs():
    digest = hashlib.sha256()
    for g, masks in _frozen_corpus(seed=12, count=2000):
        caps = [None] + list(range(g.n + 2))
        for out in _frozen_outputs(g, caps, range(g.n + 2), masks):
            digest.update(repr(out).encode())
    # the 62-64-vertex families of test_blocks, capped at c and asked only
    # about lengths whose search is quick
    rng = random.Random(64)
    for g, c, lengths in [
        (complete_bipartite(32, 32), 64, range(2, 66, 2)),
        (complete_bipartite(31, 33), 62, range(2, 64, 2)),
        (two_cliques_shared(32), 32, range(0, 33)),
        (two_disjoint_cliques(32), 32, range(0, 66)),
        (two_disjoint_cliques(32, bridge=True), 32, range(0, 66)),
    ]:
        masks = [rng.getrandbits(g.n), rng.getrandbits(g.n)]
        for out in _frozen_outputs(g, [0, 3, 5, c], lengths, masks):
            digest.update(repr(out).encode())
    assert digest.hexdigest() == _FROZEN_DIGEST


# DFS nodes of the searches below, counted before the reachability prunes
# stopped early; a change to any prune decision moves them
_FROZEN_NODES = 108797
_FROZEN_SPANNING = (2173, 248989)  # (paths found, nodes)


def _node_counter(monkeypatch, module):
    """Counts the calls to ``module._check_deadline``, which a DFS makes
    exactly once per node; ``next`` on the result gives the count so far."""
    calls = count()
    monkeypatch.setattr(module, "_check_deadline", lambda *args: next(calls))
    return calls


def test_cycle_search_nodes_frozen(monkeypatch):
    nodes = _node_counter(monkeypatch, _kernel)
    for g, _ in _frozen_corpus(seed=18, count=600):
        _kernel.find_longest_cycle(g.adj, g.n)
        for t in range(g.n + 2):
            _kernel.find_cycle_of_length(g.adj, g.n, t)
    for g, c, lengths in [
        (complete_bipartite(32, 32), 64, range(2, 66, 2)),
        (complete_bipartite(31, 33), 62, range(2, 64, 2)),
        (two_cliques_shared(32), 32, range(0, 33)),
        (two_disjoint_cliques(32), 32, range(0, 66)),
        (two_disjoint_cliques(32, bridge=True), 32, range(0, 66)),
    ]:
        _kernel.find_longest_cycle(g.adj, g.n, cap=c)
        for t in lengths:
            _kernel.find_cycle_of_length(g.adj, g.n, t)
    assert next(nodes) == _FROZEN_NODES


def test_spanning_path_nodes_frozen(monkeypatch):
    nodes = _node_counter(monkeypatch, paths)
    found = 0
    for g, _ in _frozen_corpus(seed=19, count=300):
        for x, y in combinations(range(g.n), 2):
            found += _exact_spanning_path(g.adj, g.n, x, y) is not None
    assert (found, next(nodes)) == _FROZEN_SPANNING


def test_bounded_reach_matches_full_reach():
    rng = random.Random(7)
    for i in range(3000):
        n = 64 if i % 4 == 0 else rng.randint(0, 64)
        g = random_graph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.3]))
        free = rng.getrandbits(n) | (1 << 63 if n == 64 and i % 8 == 0 else 0)
        cand = free & rng.getrandbits(n) & rng.getrandbits(n) if i % 5 else 0
        meet = 0 if i % 7 == 0 else rng.getrandbits(n) & rng.getrandbits(n)
        need = rng.randint(-1, free.bit_count() + 2)
        full = _kernel._reach_from(g.adj, cand, free)
        assert _kernel._reach_holds(g.adj, cand, free, need, meet) == (
            full.bit_count() >= need and full & meet != 0), (i, n)


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
    # the clock is read on the first node, the range's first block, so a
    # range whose every branch is cut within one stride stops
    masks = cycle_edge_masks(6, 4)
    with pytest.raises(SearchTimeout, match="sweep exceeded its deadline"):
        _kernel.sweep_filter_range(masks, 15, 0, 10, monotonic() - 1.0)
    assert _kernel.sweep_filter_range(masks, 15, 0, 10, monotonic() + 60.0) == (10, [])


def _scanned(masks, m: int, start: int, stop: int):
    """The scan filter on the red masks of a counter range."""
    return _kernel.sweep_filter(masks, m, range(2 * start + 1, 2 * stop, 2))


@pytest.mark.parametrize("n", [4, 5])
def test_pruned_range_equals_scan_k7(n):
    masks = cycle_edge_masks(7, n)
    space = 1 << 20
    assert _kernel.sweep_filter_range(masks, 21, 0, space) == _scanned(masks, 21, 0, space)


def test_pruned_range_equals_scan_on_unaligned_k8_c5_ranges():
    masks = cycle_edge_masks(8, 5)
    space = 1 << 27
    rng = random.Random(20)
    red = _two_red_k4s()
    ranges = [(0, 0), (5, 5), (space - 1, space), (space, space), (red >> 1, (red >> 1) + 1),
              ((red >> 1) - 777, (red >> 1) + 1234)]
    for length in [0, 1, 2, 3] + [rng.randrange(1, 5000) for _ in range(12)]:
        lo = rng.randrange(space - length + 1)
        ranges.append((lo, lo + length))
    for lo, hi in ranges:
        assert _kernel.sweep_filter_range(masks, 28, lo, hi) == _scanned(masks, 28, lo, hi)


def test_pruned_range_k8_c5_monofree_family():
    # the colorings of K8 with no monochromatic C5: two red K4s with at most
    # one red edge between them, or the color swap, taken with edge 0 red
    index = {e: i for i, e in enumerate(combinations(range(8), 2))}
    full = (1 << 28) - 1
    family = set()
    for side in combinations(range(8), 4):
        other = [v for v in range(8) if v not in side]
        base = 0
        for e in list(combinations(side, 2)) + list(combinations(other, 2)):
            base |= 1 << index[e]
        for extra in [0] + [1 << index[(min(u, w), max(u, w))] for u in side for w in other]:
            red = base | extra
            family.add(red if red & 1 else red ^ full)
    assert len(family) == 595
    mono, monofree = _kernel.sweep_filter_range(cycle_edge_masks(8, 5), 28, 0, 1 << 27)
    assert monofree == sorted(family)
    assert mono == (1 << 27) - 595


@pytest.mark.parametrize("p,n", [(8, 6), (9, 5)])
def test_pruned_range_at_cycle_ramsey_number(p, n):
    # R(C6, C6) = 8 and R(C5, C5) = 9 (Rosta; Faudree and Schelp): every
    # coloring of K_p has a monochromatic C_n
    m = p * (p - 1) // 2
    space = 1 << (m - 1)
    assert _kernel.sweep_filter_range(cycle_edge_masks(p, n), m, 0, space) == (space, [])

