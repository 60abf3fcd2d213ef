"""The four workloads: input files written from the seed, and the fixed
batch of CLI operations (one round) that each worker process runs.

Every operation is a dict with the ``argv`` passed to ``cyclestab.cli.main``
and a ``check`` record that tells ``checks.py`` what the report must say.
Every operation is expected to exit 0.  No operation passes ``--timeout`` or
``--checkpoint``; sweeps and verdict sweeps pass ``--shards 1``.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import networkx as nx

from oracles import (
    adjacency,
    complete_bipartite_lengths,
    enumerated_lengths,
    grid_edges,
    grid_lengths,
    hypercube_lengths,
    is_cycle,
    k8_family,
    write_coloring,
    write_edge_list,
    write_graph6,
)

NAMES = ("spectrum", "arrth", "sweep", "ramsey_cert")

# arrth: (n, samples) per operation; host order is 2n - 1.
ARRTH_BATCH = ((5, 900), (5, 900), (5, 900), (6, 550), (6, 550))
# sampled sweep on K8 / C5: samples per operation, one seed each.
SWEEP_SAMPLES = (25_000, 25_000)
# ramsey_cert: seeded extremal colourings of K11 besides the 1190 K8 ones.
CERT_K11 = 16

# How strongly each workload's time follows the speed probe (speed.py): the
# slope of log(time) on log(probe time) as the shared host sped up and slowed
# down.  Measured with slices of 0.1 s against probes averaged five at a
# time: 0.84 for the sweep filter, 0.96 for verdict sampling.  The sweep's
# tight bitmask loops slow down less than the probe when the host is busy.
SENSITIVITY = {"spectrum": 1.0, "arrth": 1.0, "sweep": 0.85, "ramsey_cert": 1.0}


def make(name: str, seed: int, inputs: Path) -> list[dict]:
    inputs.mkdir(parents=True, exist_ok=True)
    return {"spectrum": _spectrum, "arrth": _arrth, "sweep": _sweep,
            "ramsey_cert": _ramsey_cert}[name](seed, inputs)


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"cyclebench:{tag}:{seed}")


# -- spectrum ---------------------------------------------------------------

def _nx_edges(g: nx.Graph) -> tuple[int, list[tuple[int, int]]]:
    label = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return len(label), sorted(tuple(sorted((label[u], label[v]))) for u, v in g.edges())


def _cliques(*blocks, extra=()) -> list[tuple[int, int]]:
    edges = set()
    for block in blocks:
        edges.update(combinations(sorted(block), 2))
    edges.update(tuple(sorted(e)) for e in extra)
    return sorted(edges)


def _ring_cycles(n: int, chords):
    """Cycles of the ring 0..n-1 plus ``chords`` that use at most two
    chords, as vertex lists in ring labels."""
    def arc(a, b):  # ring vertices from a forward to b, inclusive
        return [(a + i) % n for i in range((b - a) % n + 1)]

    yield list(range(n))
    for a, b in chords:
        yield arc(a, b)
        yield arc(b, a)
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1:]:
            for x, y in ((a, b), (b, a)):
                for z, w in ((c, d), (d, c)):
                    # x -chord- y -ring- z -chord- w -ring- x
                    path = arc(y, z)
                    back = arc(w, x)
                    if not set(path) & set(back):
                        yield path + back


def _cubic_near_pancyclic(rng: random.Random, n: int):
    """A Hamiltonian cycle plus a random perfect matching, relabelled.
    Kept only when every length from 7 to n has a witness among the cycles
    through at most two chords (each checked); lengths up to 6 are
    enumerated exactly."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        chords = [tuple(sorted((order[i], order[i + 1]))) for i in range(0, n, 2)]
        ring = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        if any(c in ring for c in chords):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in ring | set(chords))
        adj = adjacency(n, edges)
        found = {len(c) for c in _ring_cycles(n, chords)
                 if is_cycle(adj, [perm[v] for v in c], len(c))}
        if found >= set(range(7, n + 1)):
            return edges, enumerated_lengths(adj, bound=6) | set(range(7, n + 1))


def _spectrum(seed: int, inputs: Path) -> list[dict]:
    corpus = []  # (name, n, edges, lengths, run_spectrum)

    def add(name, n, edges, lengths, spectrum=True):
        corpus.append((name, n, list(edges), set(lengths), spectrum))

    # bipartite: every odd length must be proved absent
    for rows, cols in ((2, 12), (3, 4), (4, 4), (3, 6), (4, 5), (5, 5)):
        n, edges = grid_edges(rows, cols)
        add(f"grid{rows}x{cols}", n, edges, grid_lengths(rows, cols))
    for a, b in ((4, 6), (5, 5), (5, 6), (6, 6)):
        add(f"k{a}_{b}", a + b, [(i, a + j) for i in range(a) for j in range(b)],
            complete_bipartite_lengths(a, b))
    n, edges = _nx_edges(nx.hypercube_graph(4))
    add("q4", n, edges, hypercube_lengths(4))
    # non-bipartite graphs with known gaps
    for name, g in (("petersen", nx.petersen_graph()), ("heawood", nx.heawood_graph()),
                    ("dodecahedral", nx.dodecahedral_graph()),
                    ("gp7_2", nx.generalized_petersen_graph(7, 2))):
        n, edges = _nx_edges(g)
        add(name, n, edges, enumerated_lengths(adjacency(n, edges)))
    # near-pancyclic random cubic graphs, drawn once from a constant: one
    # graph's spectrum and bounds cost 0.1-6 s, so seeded graphs would make
    # the workload's time a function of the seed
    rng = random.Random("cyclebench:cubic")
    for i in range(2):
        n = rng.choice(range(40, 51, 2))
        edges, lengths = _cubic_near_pancyclic(rng, n)
        add(f"cubic{i}_{n}", n, edges, lengths)
    # 64-vertex extremes and the golden decomposition families at 63-64 vertices
    add("c64", 64, [tuple(sorted((i, (i + 1) % 64))) for i in range(64)], {64})
    add("k64", 64, _cliques(range(64)), range(3, 65))
    add("shared32", 63, _cliques(range(32), [0, *range(32, 63)]), range(3, 33))
    add("bridged_shared32", 63, _cliques(range(32), [0, *range(32, 63)], extra=[(1, 32)]),
        range(3, 64))
    add("shared33_32", 64, _cliques(range(33), [0, *range(33, 64)]), range(3, 34))
    add("disjoint32", 64, _cliques(range(32), range(32, 64)), range(3, 33))
    add("bridged_disjoint32", 64, _cliques(range(32), range(32, 64), extra=[(0, 32)]),
        range(3, 33))
    add("k32_32", 64, [(i, 32 + j) for i in range(32) for j in range(32)],
        complete_bipartite_lengths(32, 32), spectrum=False)

    ops = []
    files = {}
    for name, n, edges, lengths, spectrum in corpus:
        g6, el = inputs / f"{name}.g6", inputs / f"{name}.edges"
        write_graph6(str(g6), n, edges)
        write_edge_list(str(el), n, edges)
        files[name] = (str(g6), str(el))
        check = {"lengths": sorted(lengths)}
        if spectrum:
            ops.append(_op(["spectrum", "--graph", str(g6)], "spectrum", graph=str(g6), **check))
        ops.append(_op(["bounds", "--graph", str(el)], "bounds", graph=str(el), **check))
    for command, name, fmt, params in (
            ("decompose-thdc", "shared32", 0, ["--alpha", "2/100"]),
            ("decompose-thdc", "disjoint32", 1, ["--alpha", "2/100", "--beta", "1/100"]),
            ("decompose-thdc", "disjoint32", 0, ["--alpha", "2/100", "--beta", "5/100"]),
            ("decompose-cycth", "bridged_shared32", 1, ["--gamma", "3/10"]),
            ("decompose-cycth", "shared33_32", 0, ["--gamma", "1/25"]),
            ("decompose-th3par", "k32_32", 1, ["--alpha", "4/100", "--beta", "1/100"]),
            ("decompose-th3par", "k64", 0, ["--alpha", "4/100"]),
            ("decompose-th3par", "bridged_disjoint32", 1,
             ["--alpha", "4/100", "--beta", "5/100"])):
        path = files[name][fmt]
        ops.append(_op([command, "--graph", path, *params], "decompose", graph=path))
    _rng(seed, "spectrum").shuffle(ops)  # the seed orders the batch
    return ops


# -- arrth ------------------------------------------------------------------

def _arrth(seed: int, inputs: Path) -> list[dict]:
    rng = _rng(seed, "arrth")
    ops = []
    for n, samples in ARRTH_BATCH:
        s = rng.randrange(1 << 31)
        ops.append(_op(["arrth", "--n", str(n), "--samples", str(samples), "--seed", str(s),
                        "--shards", "1"], "arrth", n=n, samples=samples, seed=s))
    return ops


# -- sweep --------------------------------------------------------------------

def _sweep(seed: int, inputs: Path) -> list[dict]:
    rng = _rng(seed, "sweep")
    ops = [
        # R(C4, C4) = 6: every colouring of K6 and K7 has a monochromatic C4
        _op(["ramsey-sweep", "--n", "4", "--beta", "1/2", "--mode", "exhaustive",
             "--shards", "1"], "sweep", p=6, n=4, mode="exhaustive"),
        _op(["ramsey-sweep", "--n", "4", "--beta", "1/4", "--mode", "exhaustive",
             "--shards", "1"], "sweep", p=7, n=4, mode="exhaustive"),
    ]
    for samples in SWEEP_SAMPLES:
        s = rng.randrange(1 << 31)
        ops.append(_op(["ramsey-sweep", "--n", "5", "--beta", "2/5", "--mode", "sampled",
                        "--samples", str(samples), "--seed", str(s), "--shards", "1"],
                       "sweep", p=8, n=5, mode="sampled", samples=samples, seed=s))
    return ops


# -- ramsey_cert ----------------------------------------------------------------

def _extremal(order: list[int], a: int, linked: int, x_red: bool):
    """Red edges of a colouring of K_p without a monochromatic C_n (n odd):
    vertex u = order[0], class A = the next ``a`` vertices, class B = the
    rest.  One colour X is the clique on A + u, the clique on B and
    ``linked`` edges from u into B; the other colour Y is the rest, a
    bipartite graph with sides A + u and B, so it has no odd cycle.  X has
    no C_n when a <= n - 2 and either |B| <= n - 2 or linked <= 1, since u
    separates the two cliques in X."""
    p = len(order)
    u, side_a, side_b = order[0], order[1:a + 1], order[a + 1:]
    x = _cliques([u, *side_a], side_b, extra=[(u, b) for b in side_b[:linked]])
    return x if x_red else sorted(set(combinations(range(p), 2)) - set(x))


def _ramsey_cert(seed: int, inputs: Path) -> list[dict]:
    rng = _rng(seed, "cert")
    ops = []

    def add(p, n, beta, name, red_edges):
        path = str(inputs / f"{name}.col")
        write_coloring(path, p, red_edges)
        ops.append(_op(["ramsey-cert", "--coloring", path, "--n", str(n), "--beta", beta],
                       "ramsey_cert", coloring=path, n=n, beta=beta))

    family = k8_family()
    if len(family) != 1190:
        raise RuntimeError(f"K8 family has {len(family)} members, expected 1190")
    rng.shuffle(family)
    edges = list(combinations(range(8), 2))
    for i, red_mask in enumerate(family):
        add(8, 5, "2/5", f"k8_{i:04d}", [e for j, e in enumerate(edges) if (red_mask >> j) & 1])
    # K11, n = 7: |A| = 4 with at most one link, or |A| = 5 with any links.
    for i in range(CERT_K11):
        a, most = ((4, 1), (5, 5))[i % 2]
        order = list(range(11))
        rng.shuffle(order)
        add(11, 7, "3/7", f"k11_{i:02d}",
            _extremal(order, a, rng.randint(0, most), rng.random() < 0.5))
    # K14, n = 9: one layout per shape, the same for every seed.  Proving the
    # near-bipartite colour free of C9 costs 0.9-1.7 s on the pure backend
    # depending on the labelling alone, so seeded labels would make the
    # workload's time a function of the seed.
    for i, (a, linked, x_red) in enumerate(((5, 1, True), (6, 3, False))):
        order = list(range(14))
        random.Random(f"cyclebench:k14:{i}").shuffle(order)
        add(14, 9, "4/9", f"k14_{i}", _extremal(order, a, linked, x_red))
    return ops


def _op(argv, kind, **check) -> dict:
    return {"argv": argv, "kind": kind, "check": check}
