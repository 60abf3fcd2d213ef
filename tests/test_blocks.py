"""The block-and-parity layer: blocks against networkx, and every search
that uses the layer against the raw pure kernel, witnesses included."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from cyclestab import _kernel, graph
from cyclestab.cli import main
from cyclestab.coloring import coloring_from_edges, coloring_from_red_mask, serialize_coloring
from cyclestab.cycles import (
    _canonical_cycle,
    _ear_grown_triangle,
    cycle_bounds,
    cycle_of_length,
    cycle_spectrum,
    is_hamiltonian,
    longest_cycle,
    spectrum_up_to,
)
from cyclestab.graph import bits, blocks, build_graph, cut_vertices, mask_of
from cyclestab.ramsey import _sample_red, pancyclic_color_verdict, verdict_sample_sweep
from cyclestab.reporting import canonical_json

from conftest import (
    complete,
    complete_bipartite,
    random_graph,
    small_graphs,
    two_cliques_shared,
    two_disjoint_cliques,
)


def _nx(g, within=None):
    scope = g.full_mask() if within is None else within
    G = nx.Graph()
    G.add_nodes_from(bits(scope))
    G.add_edges_from((u, v) for u in bits(scope) for v in bits(g.adj[u] & scope) if u < v)
    return G


def test_blocks_match_networkx():
    rng = random.Random(11)
    for _ in range(400):
        g = random_graph(rng, rng.randint(0, 14), 0.6 * rng.random())
        within = rng.getrandbits(g.n) if rng.random() < 0.5 else None
        G = _nx(g, within)
        want = sorted(mask_of(b) for b in nx.biconnected_components(G) if len(b) >= 3)
        found = blocks(g, within)
        assert sorted(b.vertices for b in found if b.vertices.bit_count() >= 3) == want
        assert cut_vertices(g, within) == mask_of(nx.articulation_points(G))
        for block in found:
            B = G.subgraph(bits(block.vertices))
            if block.side is None:
                assert not nx.is_bipartite(B)
            else:
                side = set(bits(block.side))
                assert side and side < set(B)
                assert all((u in side) != (v in side) for u, v in B.edges)


def test_cycle_bounds_examples():
    assert cycle_bounds(complete_bipartite(3, 5)) == (6, 0)
    assert cycle_bounds(two_cliques_shared(5)) == (5, 5)
    assert cycle_bounds(build_graph(4, [(0, 1), (1, 2), (2, 3)])) == (2, 0)
    g = two_disjoint_cliques(4)
    assert cycle_bounds(g) is cycle_bounds(g)  # computed once per graph
    assert longest_cycle(g) is longest_cycle(g)


def _exact_bounds_wanted(g, top):
    """The lengths the exact block bounds leave open in [3, min(top, n)]:
    the reference for the spectrum search's wanted mask."""
    bounds = cycle_bounds(g)
    wanted = 0
    for t in range(3, min(top, g.n, bounds.longest) + 1):
        if not bounds.rules_out(t):
            wanted |= 1 << t
    return wanted


def _assert_ear_shortcut_sound(g, tops, asked, search):
    core = _ear_grown_triangle(g)
    size = core.bit_count()
    first = next((abc for abc in combinations(range(g.n), 3)
                  if all(g.has_edge(u, v) for u, v in combinations(abc, 2))), ())
    assert (core == 0) == (first == ()) and mask_of(first) & ~core == 0
    if core:
        S = _nx(g).subgraph(bits(core))
        assert nx.is_biconnected(S) and not nx.is_bipartite(S)
    # grown to the end: no vertex left with two neighbours in the set
    assert all((g.adj[v] & core).bit_count() < 2 for v in bits(g.full_mask() & ~core))
    assert size <= cycle_bounds(g).longest_odd
    for top in tops:
        if size >= min(top, g.n):
            wanted = _exact_bounds_wanted(g, top)
            found = search(g.adj, g.n, wanted)
            asked.clear()
            assert spectrum_up_to(g, top) == {t: _canonical_cycle(found[t]) for t in sorted(found)}
            assert asked == [wanted], (g.n, g.adj, top)


def test_ear_grown_triangle_sound(monkeypatch):
    # where the shortcut fires, the spectrum search wants the lengths the
    # exact block bounds leave open, and finds the same witnesses
    asked = []
    search = _kernel.find_cycles
    monkeypatch.setattr(_kernel, "find_cycles",
                        lambda adj, n, lengths, deadline=None:
                        asked.append(lengths) or search(adj, n, lengths, deadline))
    for g in small_graphs(seed=21, count=1500):
        _assert_ear_shortcut_sound(g, range(g.n + 2), asked, search)
    rng = random.Random(22)
    for _ in range(150):
        p = rng.choice([0.05, 0.1, 0.2, 0.5, 0.8])
        g = random_graph(rng, rng.randint(13, 64), p)
        # long cycles of a sparse graph cost an exponential search
        tops = rng.sample(range(15), 4) + ([g.n, rng.randint(13, g.n)] if p >= 0.5 else [])
        _assert_ear_shortcut_sound(g, tops, asked, search)
    for g, size in [(complete(64), 64), (two_disjoint_cliques(32, bridge=True), 32),
                    (two_cliques_shared(32), 32), (complete_bipartite(32, 32), 0),
                    (complete_bipartite(31, 33), 0)]:
        assert _ear_grown_triangle(g).bit_count() == size
        _assert_ear_shortcut_sound(g, range(0, 66, 3), asked, search)


# graph._blocks runs and the sha256 of the report and of every verdict of a
# seeded K9 verdict sweep.  The digest was computed when every spectrum
# search ran the block DFS, once per colour graph: 1000 runs.
_SWEEP_BLOCK_RUNS = 87
_SWEEP_DIGEST = "5d580458eb5dd491769c04f1657df22e1d9f0ac6953006c9af93da9e7a99d3fb"


def test_verdict_sweep_block_runs(monkeypatch):
    runs = []
    search = graph._blocks
    monkeypatch.setattr(graph, "_blocks", lambda *args: runs.append(args) or search(*args))
    report = verdict_sample_sweep(9, 500, seed=23, shards=1, parallel=False)
    assert len(runs) == _SWEEP_BLOCK_RUNS
    verdicts = [pancyclic_color_verdict(coloring_from_red_mask(9, _sample_red(23, i, 36)))
                for i in range(500)]
    rows = [report.to_payload(), [v.to_payload() for v in verdicts]]
    assert hashlib.sha256(canonical_json(rows).encode()).hexdigest() == _SWEEP_DIGEST
    runs.clear()
    assert len(spectrum_up_to(complete(64), 64)) == 62
    assert runs == []


def _raw_of_length(g, t):
    path = _kernel.find_cycle_of_length(g.adj, g.n, t)
    return None if path is None else _canonical_cycle(path)


def _assert_matches_raw(g, lengths=None):
    """Every searched length equals the raw kernel; ``lengths`` (when given)
    are the lengths present, and the raw kernel is asked only about them."""
    if lengths is None:
        c, path = _kernel.find_longest_cycle(g.adj, g.n)
        assert longest_cycle(g) == (c, None if path is None else _canonical_cycle(path))
        lengths = [t for t in range(3, g.n + 1) if _raw_of_length(g, t) is not None]
    else:
        c = max(lengths)
        assert longest_cycle(g)[0] == c
    raw = {t: _raw_of_length(g, t) for t in lengths}
    report = cycle_spectrum(g)
    assert (report.c, report.witnesses) == (c, raw)
    for t in range(3, g.n + 1):
        assert cycle_of_length(g, t) == raw.get(t)
    assert is_hamiltonian(g) == (g.n in raw)
    for top in range(g.n + 2):
        assert spectrum_up_to(g, top) == {t: w for t, w in raw.items() if t <= top}


def test_layer_matches_raw_kernel_small():
    for g in small_graphs(seed=5, count=1500):
        _assert_matches_raw(g)


@pytest.mark.parametrize("g, lengths", [
    (complete_bipartite(32, 32), range(4, 65, 2)),
    (two_cliques_shared(32), range(3, 33)),
    (two_disjoint_cliques(32), range(3, 33)),
    (two_disjoint_cliques(32, bridge=True), range(3, 33)),
], ids=["K32,32", "two-K32-shared", "two-K32", "two-K32-bridge"])
def test_layer_matches_raw_kernel_64(g, lengths):
    _assert_matches_raw(g, list(lengths))


def test_longest_cycle_cap():
    for g in small_graphs(seed=9, count=300):
        c, witness = _kernel.find_longest_cycle(g.adj, g.n)
        for cap in range(g.n + 2):
            length, path = _kernel.find_longest_cycle(g.adj, g.n, cap=cap)
            assert min(length, cap) == min(c, cap)
            if c <= cap:
                assert (length, path) == (c, witness)


def _extremal_coloring(rng: random.Random, n: int):
    """A colouring of K_p, p = (3n + 1) / 2, without a monochromatic C_n.

    Red cliques on classes X and Y, blue between them.  The vertex u is red
    to all of Y and to part of X, and blue to the rest of X.  So blue is
    bipartite, and every red block has at most n - 1 vertices.  Returns
    the colouring, u and the two classes, all relabelled at random.
    """
    p = (3 * n + 1) // 2
    size_x = rng.randint((n + 3) // 2, n - 2)
    perm = list(range(p))
    rng.shuffle(perm)
    u, xs, ys = perm[0], perm[1:1 + size_x], perm[1 + size_x:]
    blue_x = set(rng.sample(xs, rng.randint(1, size_x - 1)))
    red = (list(combinations(xs, 2)) + list(combinations(ys, 2))
           + [(u, y) for y in ys] + [(u, x) for x in xs if x not in blue_x])
    blue = [(x, y) for x in xs for y in ys] + [(u, x) for x in blue_x]
    col = coloring_from_edges(p, [tuple(sorted(e)) for e in red],
                              [tuple(sorted(e)) for e in blue])
    return col, u, {frozenset(xs), frozenset(ys)}


@pytest.mark.parametrize("n, p", [(11, 17), (21, 32), (31, 47), (41, 62)])
def test_ramsey_cert_extremal_colorings(n, p, tmp_path, capsys):
    rng = random.Random(f"extremal:{n}")
    beta = Fraction((n - 1) // 2, n)
    for rep in range(3):
        col, u, classes = _extremal_coloring(rng, n)
        assert col.n == p == int((2 - beta) * n)
        # the short proof of C_n-freeness, checked without cyclestab
        assert nx.is_bipartite(_nx(col.blue))
        assert max(map(len, nx.biconnected_components(_nx(col.red)))) < n

        coloring = tmp_path / f"c{rep}.col"
        coloring.write_text(serialize_coloring(col))
        code = main(["ramsey-cert", "--coloring", str(coloring),
                     "--n", str(n), "--beta", f"{beta.numerator}/{beta.denominator}"])
        out = capsys.readouterr().out
        assert code == 0
        result = json.loads(out)["result"]
        assert result["u"] == u
        assert {frozenset(result["u1"]), frozenset(result["u2"])} == classes
        cert = tmp_path / f"c{rep}.json"
        cert.write_text(out)
        assert main(["verify", "--coloring", str(coloring), "--certificate", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["passed"] is True
