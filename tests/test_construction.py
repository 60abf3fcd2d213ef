"""Graph construction: the trusted ``Graph`` constructor receives only
valid rows.  Outside data is validated where it enters (``build_graph``,
``formats``, ``parse_coloring``), and every internal construction is
checked here against the invariant the constructor takes on faith."""

import json
import random
from itertools import combinations

from cyclestab.cli import main
from cyclestab.coloring import (
    coloring_from_edges,
    coloring_from_red_mask,
    parse_coloring,
    serialize_coloring,
)
from cyclestab.formats import from_edge_list, from_graph6, to_edge_list, to_graph6
from cyclestab.graph import build_graph, complement, induced

from conftest import assert_graph_invariant, complete, petersen, random_graph


def _random_graphs():
    rng = random.Random(5)
    out = [complete(0), complete(1), complete(64), petersen()]
    for n in (2, 7, 13, 40, 63, 64):
        for p in (0.1, 0.5, 0.9):
            out.append(random_graph(rng, n, p))
    return out


GRAPHS = _random_graphs()


def test_build_graph_output():
    for g in GRAPHS:
        assert_graph_invariant(g)


def test_format_round_trips():
    for g in GRAPHS:
        for back in (from_graph6(to_graph6(g)), from_edge_list(to_edge_list(g))):
            assert_graph_invariant(back)
            assert back == g


def test_complement_and_induced():
    rng = random.Random(6)
    for g in GRAPHS:
        comp = complement(g)
        assert_graph_invariant(comp)
        assert complement(comp) == g
        for _ in range(5):
            s = rng.getrandbits(g.n)
            sub = induced(g, s)
            assert_graph_invariant(sub)
            assert_graph_invariant(induced(comp, s))


def _coloring_by_edge_lists(p: int, red_mask: int):
    """The red-mask coloring built the long way: listed edges, all validated."""
    edges = list(combinations(range(p), 2))
    red = [e for i, e in enumerate(edges) if (red_mask >> i) & 1]
    blue = [e for i, e in enumerate(edges) if not (red_mask >> i) & 1]
    return build_graph(p, edges), build_graph(p, red), build_graph(p, blue)


def _red_masks():
    for p in range(1, 6):
        for red in range(1 << p * (p - 1) // 2):
            yield p, red
    rng = random.Random(7)
    for p in list(range(6, 13)) + [64]:
        m = p * (p - 1) // 2
        for _ in range(20):
            yield p, rng.getrandbits(m)
        yield p, 0
        yield p, (1 << m) - 1
        # bits at or above the edge count are ignored
        yield p, rng.getrandbits(m) | rng.getrandbits(8) << m


def test_coloring_from_red_mask_matches_edge_lists():
    for p, red in _red_masks():
        col = coloring_from_red_mask(p, red)
        for g in (col.host, col.red, col.blue):
            assert_graph_invariant(g)
        assert (col.host, col.red, col.blue) == _coloring_by_edge_lists(p, red)


def test_coloring_from_edges_and_parse_coloring():
    rng = random.Random(8)
    for p in (1, 2, 5, 9, 17, 64):
        edges = list(combinations(range(p), 2))
        red = {e for e in edges if rng.random() < 0.5}
        blue = [e for e in edges if e not in red]
        col = coloring_from_edges(p, red, blue)
        parsed = parse_coloring(serialize_coloring(col))
        for c in (col, parsed):
            for g in (c.host, c.red, c.blue):
                assert_graph_invariant(g)
        assert parsed == col
        assert col.host == complete(p)


def test_arrth_order_above_cap(capsys):
    # order 2n - 1 = 65: the cached complete host still goes through
    # build_graph, which refuses it
    code = main(["arrth", "--n", "33", "--samples", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error_kind"] == "ParameterError"
    assert report["error"] == "vertex count 65 outside [0, 64]"

