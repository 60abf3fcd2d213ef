"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from cyclestab.cli import main as cli_main
from cyclestab.coloring import coloring_from_edges, coloring_from_red_mask, serialize_coloring
from cyclestab.cycles import (
    check_bollobas_pancyclicity,
    check_erdos_gallai,
    check_fan_lv_weng,
    cycle_spectrum,
    longest_cycle,
)
from cyclestab.formats import to_edge_list, to_graph6
from cyclestab.graph import bipartition, bits, build_graph, is_two_connected, mask_of
from cyclestab.paths import bipartite_path, near_spanning_paths
from cyclestab.ramsey import (
    extract_biclique_partition,
    pancyclic_color_verdict,
    ramsey_certificate,
    ramsey_sweep,
    verdict_sample_sweep,
    verify_ramsey_certificate,
)
from cyclestab.reporting import canonical_json
from cyclestab.stability import (
    DecompositionParams,
    decompose_three_parts,
    decompose_two_parts,
    decompose_vertex_split,
    verify_stability_certificate,
)

from conftest import (
    complete,
    complete_bipartite,
    naive_cycle_lengths,
    petersen,
    random_graph,
    shared_cliques,
    two_cliques_shared,
    two_disjoint_cliques,
)

GOLDEN = Path(__file__).parent / "golden"

# frozen after the first verified full run of the order-8 sweep
K8_SWEEP_GOLDEN = {
    "total": 268435456,
    "mono_found": 268434266,
    "certificate_found": 1190,
    "failures": 0,
}

ARRTH_SAMPLES = 100_000
ARRTH_SEED = 20260809


@pytest.fixture(scope="module")
def corpus(atlas_connected):
    rng = random.Random(1009)
    graphs = list(atlas_connected)
    for _ in range(500):
        graphs.append(random_graph(rng, rng.randint(8, 9), rng.random()))
    return graphs


@pytest.fixture(scope="module")
def k8_sweep():
    """The order-8 exhaustive sweep on 8 shards and its wall time; criteria
    5 and 9 both read it."""
    started = time.monotonic()
    report = ramsey_sweep(5, Fraction(2, 5), "exhaustive", shards=8)
    return report, time.monotonic() - started


@pytest.fixture(scope="module")
def verdict_sweep():
    """The sampled order-9 verdict sweep on 2 shards; criteria 8 and 9 both
    read it."""
    return verdict_sample_sweep(9, ARRTH_SAMPLES, seed=ARRTH_SEED, shards=2)


def test_criterion_1_oracle_equivalence(corpus):
    started = time.monotonic()
    atlas_count = sum(1 for g in corpus if g.n <= 7)
    assert atlas_count == 996  # connected graphs on 1..7 vertices up to isomorphism
    disagreements = 0
    for g in corpus:
        expected = naive_cycle_lengths(g)
        report = cycle_spectrum(g)
        c, witness = longest_cycle(g)
        if set(report.present()) != expected:
            disagreements += 1
        if c != max(expected, default=0) or report.c != c:
            disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert elapsed < 300
    print(f"\nACCEPTANCE 1: PASS - oracle equivalence on {len(corpus)} graphs, "
          f"0 disagreements, {elapsed:.1f}s")


def test_criterion_2_petersen_golden():
    started = time.monotonic()
    g = petersen()
    report = cycle_spectrum(g)
    assert report.present() == [5, 6, 8, 9]
    assert report.c == 9
    assert not report.has(10)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - spectrum {{5,6,8,9}}, c=9, "
          f"non-hamiltonian, {elapsed:.3f}s")


def test_criterion_3_theorem_as_test(corpus):
    # classical bounds over the corpus
    eg = flw = bol = 0
    for g in corpus:
        if g.n and g.edge_count() >= g.n:
            r = check_erdos_gallai(g)
            assert r.passed, f"edge-count bound failed on {to_graph6(g)}"
            eg += 1
        if is_two_connected(g):
            r = check_fan_lv_weng(g)
            assert r.comparisons[0].holds or r.inputs["c"] == g.n, \
                f"two-connected edge bound failed on {to_graph6(g)}"
            flw += 1
        if 4 * g.edge_count() > g.n * g.n:
            r = check_bollobas_pancyclicity(g)
            assert r.passed, f"density pancyclicity failed on {to_graph6(g)}"
            bol += 1

    # bipartite path constructor: every admissible (x, y, t) on 200 instances
    rng = random.Random(77)
    instances = 0
    constructions = 0
    while instances < 200:
        na = rng.randint(2, 6)
        nb = rng.randint(na, min(8, 14 - na))
        p = 0.7 + 0.3 * rng.random()
        edges = [(i, na + j) for i in range(na) for j in range(nb)
                 if rng.random() < p]
        g = build_graph(na + nb, edges)
        bip = bipartition(g)
        if bip is None or g.edge_count() == 0:
            continue
        a, b = bip
        if 2 * g.min_degree() < b.bit_count() + 2:
            continue
        instances += 1
        top = 2 * (2 * g.min_degree() - a.bit_count() - 1)
        for x in range(g.n):
            for y in range(g.n):
                if x == y:
                    continue
                same = bool((a >> x) & 1) == bool((a >> y) & 1)
                base = 2 if same else 3
                for t in range(base, top + 1, 2):
                    w = bipartite_path(g, x, y, t)
                    assert w.validate(g) and w.length == t
                    constructions += 1

    # near-spanning pair constructor on 100 instances
    pairs = 0
    done = 0
    while done < 100:
        n = rng.randint(5, 11)
        g = random_graph(rng, n, 0.72 + 0.28 * rng.random())
        if 2 * g.min_degree() < n + 2:
            continue
        done += 1
        for x in range(n):
            for y in range(x + 1, n):
                r = near_spanning_paths(g, x, y)
                assert r.spanning.order == n and r.almost_spanning.order == n - 1
                assert r.spanning.validate(g) and r.almost_spanning.validate(g)
                pairs += 1
    print(f"\nACCEPTANCE 3: PASS - bounds on corpus (eg={eg}, 2conn={flw}, "
          f"dense={bol}); {constructions} bipartite paths on 200 instances; "
          f"{pairs} near-spanning pairs on 100 instances; 0 failures")


def test_criterion_4_k6_sweep():
    started = time.monotonic()
    report = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=2, parallel=False)
    elapsed = time.monotonic() - started
    assert report.total == 32768
    assert report.mono_found == 32768
    assert report.certificate_found == 0
    assert report.failures == 0
    assert elapsed < 10
    print(f"\nACCEPTANCE 4: PASS - 2^15 colorings, mono-found=32768, "
          f"failures=0, {elapsed:.2f}s")


def test_criterion_5_k8_sweep(k8_sweep):
    report, elapsed = k8_sweep
    counts = report.to_payload()["counts"]
    assert counts == K8_SWEEP_GOLDEN
    assert report.failures == 0
    assert report.counts_sum_ok()
    assert elapsed < 1800
    print(f"\nACCEPTANCE 5: PASS - 2^28 colorings, counts frozen "
          f"{counts}, verified certificates for every cycle-free coloring, "
          f"{elapsed:.1f}s on 8 shards")


def test_criterion_6_biclique_extraction():
    started = time.monotonic()
    from cyclestab.graph import is_complete_bipartite_between, is_independent

    for g in (complete_bipartite(4, 4),
              build_graph(8, [(i, 4 + j) for i in range(4) for j in range(4)
                              if not (i == 0 and j in (0, 1))])):
        ext = extract_biclique_partition(g)
        m1, m2 = mask_of(ext.u1), mask_of(ext.u2)
        assert is_independent(g, m1) and is_independent(g, m2)
        ubit = 1 << ext.u
        assert is_complete_bipartite_between(g, m1 & ~ubit, m2 & ~ubit)
        assert (m1 | m2) == g.full_mask() and not (m1 & m2)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 6: PASS - extraction re-validates structurally, "
          f"{elapsed:.3f}s")


GOLDEN_TRACES = [
    ("thdc_shared_k13", decompose_two_parts, lambda: two_cliques_shared(13),
     DecompositionParams(alpha=Fraction(2, 100))),
    ("thdc_disjoint_k13_beta1", decompose_two_parts,
     lambda: two_disjoint_cliques(13),
     DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(1, 100))),
    ("thdc_disjoint_k13_beta5", decompose_two_parts,
     lambda: two_disjoint_cliques(13),
     DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(5, 100))),
    ("cycth_bridge_k7", None, lambda: two_cliques_shared(7, extra=[(1, 7)]),
     Fraction(3, 10)),
    ("cycth_shared_k27_k25", None, lambda: shared_cliques(27, 25), Fraction(1, 25)),
    ("th3par_k13_13", decompose_three_parts, lambda: complete_bipartite(13, 13),
     DecompositionParams(alpha=Fraction(4, 100), beta=Fraction(1, 100))),
    ("th3par_k26", decompose_three_parts, lambda: complete(26),
     DecompositionParams(alpha=Fraction(4, 100))),
    ("th3par_bridge_k13", decompose_three_parts,
     lambda: two_disjoint_cliques(13, bridge=True),
     DecompositionParams(alpha=Fraction(4, 100), beta=Fraction(5, 100))),
]


def test_criterion_7_golden_traces():
    for name, proc, make, params in GOLDEN_TRACES:
        g = make()
        if proc is None:
            cert = decompose_vertex_split(g, params)
        else:
            cert = proc(g, params)
        frozen = (GOLDEN / f"{name}.json").read_text()
        assert canonical_json(cert.to_payload()) == frozen, f"{name} drifted"
        if cert.branch.kind != "stuck":
            report = verify_stability_certificate(g, cert)
            assert report.passed, (name, report.failing())
    print(f"\nACCEPTANCE 7: PASS - {len(GOLDEN_TRACES)} golden traces "
          f"byte-identical, all verified")


def _independent_color_missing(g) -> set[int]:
    """Presence of C3, C4, C5 by direct combinatorial checks, no search."""
    missing = set()
    # C3: an edge with a common neighbor
    if not any((g.adj[u] & g.adj[v])
               for u in range(g.n) for v in bits(g.adj[u] >> (u + 1) << (u + 1))):
        missing.add(3)
    # C4: two vertices with two common neighbors
    found4 = False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (g.adj[u] & g.adj[v]).bit_count() >= 2:
                found4 = True
                break
        if found4:
            break
    if not found4:
        missing.add(4)
    # C5 through an edge (u, v): u-a-b-c-v with all five distinct
    found5 = False
    for u in range(g.n):
        if found5:
            break
        for v in bits(g.adj[u] >> (u + 1) << (u + 1)):
            if found5:
                break
            uv = (1 << u) | (1 << v)
            for a in bits(g.adj[u] & ~uv):
                if found5:
                    break
                for c in bits(g.adj[v] & ~uv & ~(1 << a)):
                    if g.adj[a] & g.adj[c] & ~uv & ~(1 << a) & ~(1 << c):
                        found5 = True
                        break
    if not found5:
        missing.add(5)
    return missing


def test_criterion_8_verdict_sampling(verdict_sweep):
    started = time.monotonic()
    m = 36  # edges of the order-9 complete host
    mismatches = 0
    neither = 0
    for idx in range(ARRTH_SAMPLES):
        red = random.Random(f"{ARRTH_SEED}:{idx}").getrandbits(m)
        col = coloring_from_red_mask(9, red)
        verdict = pancyclic_color_verdict(col)
        red_missing = _independent_color_missing(col.red)
        blue_missing = _independent_color_missing(col.blue)
        if set(verdict.red_missing) != red_missing or \
                set(verdict.blue_missing) != blue_missing:
            mismatches += 1
        if verdict.verdict == "neither":
            neither += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    report = verdict_sweep
    assert report.counts["neither"] == neither
    assert len(report.neither_exemplars) == neither
    assert sum(report.counts.values()) == ARRTH_SAMPLES
    print(f"\nACCEPTANCE 8: PASS - {ARRTH_SAMPLES} sampled colorings, "
          f"0 verdict mismatches, neither={neither} (observation), "
          f"{elapsed:.1f}s")


def test_criterion_9_shard_determinism(k8_sweep, verdict_sweep):
    a = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=1, parallel=False)
    b = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=3, parallel=False)
    assert canonical_json(a.to_payload()) == canonical_json(b.to_payload())
    c = k8_sweep[0]
    d = ramsey_sweep(5, Fraction(2, 5), "exhaustive", shards=3)
    assert canonical_json(c.to_payload()) == canonical_json(d.to_payload())
    e = verdict_sweep
    f = verdict_sample_sweep(9, ARRTH_SAMPLES, seed=ARRTH_SEED, shards=5)
    assert canonical_json(e.to_payload()) == canonical_json(f.to_payload())
    print("\nACCEPTANCE 9: PASS - byte-identical reports across shard counts "
          "for the order-6 sweep, the order-8 sweep, and the sampled verdicts")


def test_criterion_10_negative_certificates(tmp_path, capsys):
    g = two_disjoint_cliques(13)
    graph_file = tmp_path / "two13.edges"
    graph_file.write_text(to_edge_list(g))
    code = cli_main(["decompose-thdc", "--graph", str(graph_file),
                     "--alpha", "2/100", "--beta", "5/100"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)

    # corruption 1: move one vertex across the split
    bad = json.loads(out)
    bad["result"]["branch"]["part2"].append(bad["result"]["branch"]["part1"].pop())
    bad_file = tmp_path / "moved.json"
    bad_file.write_text(json.dumps(bad))
    code = cli_main(["verify", "--graph", str(graph_file),
                     "--certificate", str(bad_file)])
    out = capsys.readouterr().out
    assert code == 1
    failing = [c["name"] for c in json.loads(out)["result"]["checks"]
               if not c["holds"]]
    assert "structure-split" in failing

    # corruption 2: break one witness edge in a cycle certificate
    k25 = tmp_path / "k25.edges"
    k25.write_text(to_edge_list(complete(25)))
    code = cli_main(["decompose-thdc", "--graph", str(k25), "--alpha", "2/100"])
    out = capsys.readouterr().out
    assert code == 0
    bad = json.loads(out)
    witness = bad["result"]["branch"]["witnesses"]["25"]
    witness[2] = witness[0]  # duplicated vertex: the edge sequence breaks
    bad_file2 = tmp_path / "broken_witness.json"
    bad_file2.write_text(json.dumps(bad))
    code = cli_main(["verify", "--graph", str(k25),
                     "--certificate", str(bad_file2)])
    out = capsys.readouterr().out
    assert code == 1
    failing = [c["name"] for c in json.loads(out)["result"]["checks"]
               if not c["holds"]]
    assert "witness-valid" in failing

    # corruption 3: recolor one edge under a ramsey certificate
    u1, u2 = [1, 2, 3], [4, 5, 6, 7]
    red = list(combinations(u1, 2)) + list(combinations(u2, 2)) + [(0, v) for v in u1]
    blue = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    col = coloring_from_edges(8, red, blue)
    col_file = tmp_path / "golden5.col"
    col_file.write_text(serialize_coloring(col))
    code = cli_main(["ramsey-cert", "--coloring", str(col_file),
                     "--n", "5", "--beta", "2/5"])
    out = capsys.readouterr().out
    assert code == 0
    cert_file = tmp_path / "rcert.json"
    cert_file.write_text(out)
    recolored = coloring_from_edges(8, red + [(1, 4)],
                                    [e for e in blue if e != (1, 4)])
    recolored_file = tmp_path / "recolored.col"
    recolored_file.write_text(serialize_coloring(recolored))
    wrapper = json.loads(out)
    wrapper["input_digest"] = None  # the input legitimately changed
    cert_file.write_text(json.dumps(wrapper))
    code = cli_main(["verify", "--coloring", str(recolored_file),
                     "--certificate", str(cert_file)])
    out = capsys.readouterr().out
    assert code == 1
    failing = [c["name"] for c in json.loads(out)["result"]["checks"]
               if not c["holds"]]
    assert "cross-complete" in failing
    print("\nACCEPTANCE 10: PASS - moved vertex, broken witness, and "
          "recolored edge all rejected with the correct named check, exit 1")
