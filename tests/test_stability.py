"""Stability procedures: peels, golden traces, verification, negatives."""

import dataclasses
import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from cyclestab.errors import (
    HypothesisViolatedError,
    MalformedCertificateError,
    ParameterError,
)
from cyclestab.graph import build_graph, induced, mask_of
from cyclestab.reporting import Comparison, canonical_json
from cyclestab.stability import (
    CycleBranch,
    DecompositionParams,
    PartitionBranch,
    StabilityCertificate,
    decompose_three_parts,
    decompose_two_parts,
    decompose_vertex_split,
    low_degree_mask,
    vertex_disjoint_cross_paths,
    verify_stability_certificate,
)

from conftest import (
    complete,
    complete_bipartite,
    cycle_graph,
    shared_cliques,
    two_cliques_shared,
    two_disjoint_cliques,
)

GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text()


# -- peel ------------------------------------------------------------------

def test_peel_k10_nothing():
    g = complete(10)
    mask = low_degree_mask(g, 9, 40)
    assert mask == 0 and induced(g, g.full_mask() & ~mask).n == 10


def test_peel_star_leaves():
    star = build_graph(10, [(0, v) for v in range(1, 10)])
    mask = low_degree_mask(star, 9, 40)
    assert mask == mask_of(range(1, 10))
    rest = induced(star, star.full_mask() & ~mask)
    assert rest.n == 1 and rest.labels == (0,)


def test_peel_shared_cliques_nothing():
    g = two_cliques_shared(12)  # order 23, internal degree 11, center 22
    assert low_degree_mask(g, 9, 20) == 0


def test_peel_threshold_uses_original_order():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert low_degree_mask(g, 9, 20, within=mask_of([0, 1]), order_n=4) == mask_of([0, 1])


# -- golden traces ----------------------------------------------------------

GOLDEN_CASES = [
    ("thdc_shared_k13", decompose_two_parts, lambda: two_cliques_shared(13),
     DecompositionParams(alpha=Fraction(2, 100))),
    ("thdc_disjoint_k13_beta1", decompose_two_parts,
     lambda: two_disjoint_cliques(13),
     DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(1, 100))),
    ("thdc_disjoint_k13_beta5", decompose_two_parts,
     lambda: two_disjoint_cliques(13),
     DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(5, 100))),
    ("th3par_k13_13", decompose_three_parts, lambda: complete_bipartite(13, 13),
     DecompositionParams(alpha=Fraction(4, 100), beta=Fraction(1, 100))),
    ("th3par_k26", decompose_three_parts, lambda: complete(26),
     DecompositionParams(alpha=Fraction(4, 100))),
    ("th3par_bridge_k13", decompose_three_parts,
     lambda: two_disjoint_cliques(13, bridge=True),
     DecompositionParams(alpha=Fraction(4, 100), beta=Fraction(5, 100))),
]


@pytest.mark.parametrize("name,proc,make,params",
                         GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_byte_for_byte(name, proc, make, params):
    g = make()
    cert = proc(g, params)
    assert canonical_json(cert.to_payload()) == _golden(name)
    report = verify_stability_certificate(g, cert)
    assert report.passed, report.failing()


def test_golden_vertex_split_bridge_k7():
    g = two_cliques_shared(7, extra=[(1, 7)])
    cert = decompose_vertex_split(g, Fraction(3, 10))
    assert canonical_json(cert.to_payload()) == _golden("cycth_bridge_k7")
    assert isinstance(cert.branch, CycleBranch)
    assert cert.branch.required_lengths == tuple(range(3, 12))
    assert verify_stability_certificate(g, cert).passed


def test_golden_vertex_split_shared_k27_k25():
    g = shared_cliques(27, 25)
    cert = decompose_vertex_split(g, Fraction(1, 25))
    assert canonical_json(cert.to_payload()) == _golden("cycth_shared_k27_k25")
    assert isinstance(cert.branch, PartitionBranch)
    assert cert.branch.removed == (0,)
    assert (len(cert.branch.part1), len(cert.branch.part2)) == (24, 26)
    assert all(c.holds for c in cert.branch.checks)
    assert verify_stability_certificate(g, cert).passed


def test_reproducible_byte_for_byte():
    g = two_disjoint_cliques(13)
    params = DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(5, 100))
    a = canonical_json(decompose_two_parts(g, params).to_payload())
    b = canonical_json(decompose_two_parts(g, params).to_payload())
    assert a == b


# -- branch behavior ---------------------------------------------------------

def test_two_parts_k25_cycle_branch():
    cert = decompose_two_parts(complete(25), DecompositionParams(alpha=Fraction(2, 100)))
    assert isinstance(cert.branch, CycleBranch)
    assert cert.branch.claim == "long-cycle"
    assert cert.branch.required_lengths == (25,)


def test_two_parts_shared_k13_hypothesis_flag():
    # order 25, 156 edges: just below the density line, flagged but still run
    cert = decompose_two_parts(two_cliques_shared(13),
                               DecompositionParams(alpha=Fraction(2, 100)))
    assert not cert.hypothesis.holds
    assert isinstance(cert.branch, CycleBranch)  # longest cycle 13 >= 13.0


def test_two_parts_enforce_gate():
    with pytest.raises(ParameterError):
        decompose_two_parts(complete(10), DecompositionParams(
            alpha=Fraction(2, 100), enforce_paper_range=True))


def test_two_parts_enforce_needs_large_order():
    # the paper-range gate also pins n >= 1/(2 alpha), unreachable at desk scale
    params = DecompositionParams(alpha=Fraction(1, 200000), beta=Fraction(0),
                                 enforce_paper_range=True)
    with pytest.raises(ParameterError, match="below"):
        decompose_two_parts(complete(10), params)


def test_two_parts_stuck_on_two_connected_remainder():
    # K_{3,10}: longest cycle 6 sits below the 6.63 threshold, every degree
    # survives the peel, and no single cut vertex exists
    g = complete_bipartite(3, 10)
    cert = decompose_two_parts(g, DecompositionParams(alpha=Fraction(1, 100)))
    assert cert.branch.kind == "stuck"
    assert cert.branch.step == "two-connected-remainder"
    assert not cert.hypothesis.holds


def test_vertex_split_k10_cycle_branch():
    cert = decompose_vertex_split(complete(10), Fraction(1, 100))
    assert isinstance(cert.branch, CycleBranch)
    assert cert.branch.required_lengths == (3, 4, 5, 6)
    assert verify_stability_certificate(g=complete(10), cert=cert).passed


def test_vertex_split_boundary_density():
    cert = decompose_vertex_split(complete_bipartite(5, 5), Fraction(1, 100))
    assert not cert.hypothesis.holds  # 4e = 100 is not > 100


def test_three_parts_enforce_gate():
    with pytest.raises(ParameterError):
        decompose_three_parts(complete(10), DecompositionParams(
            alpha=Fraction(4, 100), enforce_paper_range=True))


def test_three_parts_bridge_cut_vertex():
    cert = decompose_three_parts(two_disjoint_cliques(13, bridge=True),
                                 DecompositionParams(alpha=Fraction(4, 100),
                                                     beta=Fraction(5, 100)))
    assert isinstance(cert.branch, PartitionBranch)
    assert cert.branch.structure == "split"
    assert cert.branch.removed == (0,)
    assert (len(cert.branch.part1), len(cert.branch.part2)) == (12, 13)


def test_three_parts_majority_peel_pancyclic():
    # a K20 core with six pendants: the peel removes more vertices than the
    # small-peel gate allows, the remainder stays dense, and the conclusion
    # is verified on the whole graph
    edges = list(__import__("itertools").combinations(range(20), 2))
    edges += [(0, 20 + i) for i in range(6)]
    g = build_graph(26, edges)
    params = DecompositionParams(alpha=Fraction(1, 1000), beta=Fraction(1, 10000))
    cert = decompose_three_parts(g, params)
    assert isinstance(cert.branch, CycleBranch)
    assert cert.branch.required_lengths == tuple(range(3, 15))
    assert verify_stability_certificate(g, cert).passed


def test_three_parts_majority_peel_density_stuck():
    # pendants plus a whole peeled clique side: the selected low-degree
    # subset leaves a remainder below quarter density, a missing object
    g = shared_cliques(27, 25)
    edges = list(g.edges()) + [(1, 51 + i) for i in range(3)]
    g = build_graph(54, edges)
    params = DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(1, 1000))
    cert = decompose_three_parts(g, params)
    assert cert.branch.kind == "stuck"
    assert cert.branch.step == "peel-majority-density"


def test_vertex_split_inner_long_cycle_stuck():
    # sparse ring: the density hypothesis fails (flagged, still run), the
    # required range is incomplete, yet the inner split finds a spanning
    # cycle, which certifies neither conclusion at this order
    cert = decompose_vertex_split(cycle_graph(12), Fraction(1, 100))
    assert not cert.hypothesis.holds
    assert cert.branch.kind == "stuck"
    assert cert.branch.step == "inner-long-cycle"


def test_cross_paths_counts():
    g = two_disjoint_cliques(4, bridge=True)
    a = mask_of(range(4))
    b = mask_of(range(4, 8))
    assert len(vertex_disjoint_cross_paths(g, a, b)) == 1
    g2 = build_graph(8, list(g.edges()) + [(1, 5)])
    paths = vertex_disjoint_cross_paths(g2, a, b)
    assert len(paths) == 2
    flat = [v for p in paths for v in p]
    assert len(flat) == len(set(flat))


# -- verification and negatives ----------------------------------------------

def _partition_golden():
    g = two_disjoint_cliques(13)
    params = DecompositionParams(alpha=Fraction(2, 100), beta=Fraction(5, 100))
    return g, decompose_two_parts(g, params)


def test_verify_rejects_moved_vertex():
    g, cert = _partition_golden()
    branch = cert.branch
    bad = dataclasses.replace(
        branch,
        part1=branch.part1[:-1],
        part2=branch.part2 + (branch.part1[-1],))
    bad_cert = dataclasses.replace(cert, branch=bad)
    report = verify_stability_certificate(g, bad_cert)
    assert not report.passed
    assert "structure-split" in report.failing()


def test_verify_rejects_tampered_verdict():
    g, cert = _partition_golden()
    branch = cert.branch
    flipped = tuple(
        dataclasses.replace(c, holds=not c.holds) if c.name == "removed-size" else c
        for c in branch.checks)
    bad_cert = dataclasses.replace(cert, branch=dataclasses.replace(branch, checks=flipped))
    report = verify_stability_certificate(g, bad_cert)
    assert not report.passed
    assert "check-removed-size" in report.failing()


def _with_op(c, op):
    """``c`` with another operator and the verdict that operator gives."""
    c = dataclasses.replace(c, op=op)
    return dataclasses.replace(c, holds=c.reevaluate())


def _with_checks(cert, checks):
    return dataclasses.replace(cert, branch=dataclasses.replace(cert.branch, checks=checks))


@pytest.mark.parametrize("tamper, failing", [
    pytest.param(lambda cert: _with_checks(cert, ()),
                 "check-removed-size", id="checks-deleted"),
    pytest.param(lambda cert: _with_checks(cert, tuple(
        _with_op(c, ">=") if c.name == "removed-size" else c for c in cert.branch.checks)),
                 "check-removed-size", id="check-op-flipped"),
    pytest.param(lambda cert: _with_checks(cert, cert.branch.checks + (
        Comparison.make("invented", 1, "<", 2),)),
                 "check-invented", id="unknown-check"),
    pytest.param(lambda cert: dataclasses.replace(
        cert, hypothesis=_with_op(cert.hypothesis, "<=")),
                 "hypothesis-consistent", id="hypothesis-op-flipped"),
    pytest.param(lambda cert: dataclasses.replace(cert, procedure="bogus"),
                 "procedure-known", id="unknown-procedure"),
])
def test_verify_rejects_tampered_certificate(tamper, failing):
    g, cert = _partition_golden()
    report = verify_stability_certificate(g, tamper(cert))
    assert not report.passed
    assert failing in report.failing()


def test_verify_rejects_broken_witness():
    g = complete(25)
    cert = decompose_two_parts(g, DecompositionParams(alpha=Fraction(2, 100)))
    branch = cert.branch
    t = branch.required_lengths[0]
    witness = list(branch.witnesses[t])
    witness[0], witness[1] = witness[1], witness[0]
    witness[2] = witness[0]  # duplicate vertex breaks validity
    bad_cert = dataclasses.replace(
        cert, branch=dataclasses.replace(branch, witnesses={t: tuple(witness)}))
    report = verify_stability_certificate(g, bad_cert)
    assert not report.passed
    assert "witness-valid" in report.failing()


def test_verify_rejects_stuck():
    g = complete_bipartite(3, 10)
    cert = decompose_two_parts(g, DecompositionParams(alpha=Fraction(1, 100)))
    assert cert.branch.kind == "stuck"
    with pytest.raises(MalformedCertificateError):
        verify_stability_certificate(g, cert)


def test_payload_round_trip():
    g, cert = _partition_golden()
    again = StabilityCertificate.from_payload(cert.to_payload())
    assert canonical_json(again.to_payload()) == canonical_json(cert.to_payload())
    assert verify_stability_certificate(g, again).passed


def test_certificates_frozen_on_graph_atlas():
    # networkx's atlas holds every graph on 1 to 7 vertices; the three
    # procedures reach all three branch kinds on it.  The digest covers each
    # (certificate, verifier report) pair, null for a stuck outcome, which
    # carries no verifiable certificate.
    runs = [
        lambda g: decompose_two_parts(g, DecompositionParams(
            alpha=Fraction(2, 100), beta=Fraction(5, 100))),
        lambda g: decompose_vertex_split(g, Fraction(3, 10)),
        lambda g: decompose_three_parts(g, DecompositionParams(
            alpha=Fraction(4, 100), beta=Fraction(5, 100))),
    ]
    rows, kinds, steps = [], set(), set()
    for atlas_graph in nx.graph_atlas_g()[1:]:
        g = build_graph(atlas_graph.number_of_nodes(), atlas_graph.edges())
        for run in runs:
            cert = run(g)
            payload = cert.to_payload()
            assert StabilityCertificate.from_payload(payload) == cert
            kinds.add(cert.branch.kind)
            if cert.branch.kind == "stuck":
                steps.add(cert.branch.step)
                rows.append([payload, None])
            else:
                rows.append([payload, verify_stability_certificate(g, cert).to_payload()])
    assert len(rows) == 3 * 1252
    assert kinds == {"cycle", "partition", "stuck"} and len(steps) == 11
    assert hashlib.sha256(canonical_json(rows).encode()).hexdigest() == (
        "910c89a1a77860f94d3719f88f85e6ca345297674c9e47aa28b43d9fae47504a")


# -- every route of the three procedures ---------------------------------------

def _cliques(*ranges, extra=()):
    edges = [e for r in ranges for e in itertools.combinations(r, 2)]
    return edges + list(extra)


def _separator_in_part():
    # vertex 0 sees all of a 16-vertex side built from two matched K8s, and
    # vertex 1 bridges to a K16: the inner split keeps 0 alone as part1,
    # and 0 is also the lowest vertex on the one cross path
    side = [(0, v) for v in range(1, 17)] + [(v, v + 8) for v in range(1, 9)]
    return build_graph(33, _cliques(range(1, 9), range(9, 17), range(17, 33),
                                    extra=side + [(1, 17)]))


def _three_components():
    # vertices 0 and 1 are held above the peel only by the 19 peeled
    # vertices, so the remainder is two single vertices and a K21
    held = [(u, m) for u in (0, 1) for m in range(2, 21)]
    return build_graph(42, _cliques(range(21, 42), extra=held))


def _remainder_by_sign():
    # K_{7,8} on 16..30, not hamiltonian, closed by the path 0..15 between
    # two vertices of its larger side: the 9n/40 peel leaves the K_{7,8},
    # and the longest cycle, 31, is more than twice its order
    path = [23, *range(16), 24]
    return build_graph(31, [(a, b) for a in range(16, 23) for b in range(23, 31)]
                       + list(zip(path, path[1:])))


def _majority_remainder(w, a, b):
    # w isolated vertices, the first the majority peel selects, then K_a and
    # K_b sharing vertex w: the remainder has (a - b)^2 / 4 - 1/4 edges more
    # than a quarter square, yet no cycle longer than a
    return build_graph(w + a + b - 1, _cliques(range(w, w + a),
                                               [w, *range(w + a, w + a + b - 1)]))


def _two_parts(alpha, beta=0):
    return lambda g: decompose_two_parts(g, DecompositionParams(
        alpha=Fraction(alpha), beta=Fraction(beta)))


def _three_parts(alpha, beta=0):
    return lambda g: decompose_three_parts(g, DecompositionParams(
        alpha=Fraction(alpha), beta=Fraction(beta)))


def _vertex_split(gamma):
    return lambda g: decompose_vertex_split(g, Fraction(gamma))


# name -> (graph, procedure run, the route: procedure, branch kind and the
# branch's step, claim or structure)
ROUTE_CASES = {
    "two-parts-long-cycle": (
        lambda: complete(10), _two_parts("1/50"),
        ("two-parts", "cycle", "long-cycle")),
    "two-parts-first-peel": (
        lambda: build_graph(3, []), _two_parts("1/50"),
        ("two-parts", "stuck", "first-peel")),
    "two-parts-two-connected": (
        lambda: complete_bipartite(3, 10), _two_parts("1/100"),
        ("two-parts", "stuck", "two-connected-remainder")),
    "two-parts-remainder-by-sign": (
        _remainder_by_sign, _two_parts(1),
        ("two-parts", "stuck", "two-connected-remainder")),
    "two-parts-small-component": (
        lambda: shared_cliques(5, 3), _two_parts("1/2"),
        ("two-parts", "stuck", "small-component")),
    "two-parts-second-peel": (
        lambda: build_graph(8, [(i, (i + 1) % 4) for i in range(4)]
                            + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]),
        _two_parts("1/100"),
        ("two-parts", "stuck", "second-peel")),
    "two-parts-split": (
        lambda: two_disjoint_cliques(13), _two_parts("1/50", "1/20"),
        ("two-parts", "partition", "split")),
    "vertex-split-pancyclic": (
        lambda: complete(10), _vertex_split("1/100"),
        ("vertex-split", "cycle", "pancyclic-range")),
    "vertex-split-top-above-order": (
        lambda: complete(5), _vertex_split("3/5"),
        ("vertex-split", "stuck", "two-parts:two-connected-remainder")),
    "vertex-split-inner-long-cycle": (
        lambda: cycle_graph(12), _vertex_split("1/100"),
        ("vertex-split", "stuck", "inner-long-cycle")),
    "vertex-split-two-cross-paths": (
        lambda: build_graph(42, _cliques(range(20), range(20, 40), extra=[
            (40, 0), (40, 20), (41, 1), (41, 21)])),
        _vertex_split("3/5"),
        ("vertex-split", "stuck", "single-separator")),
    "vertex-split-separator-in-part": (
        _separator_in_part, _vertex_split("1/10"),
        ("vertex-split", "stuck", "vertex-split-parts")),
    "vertex-split-no-cross-path": (
        lambda: two_disjoint_cliques(20), _vertex_split("3/5"),
        ("vertex-split", "partition", "split")),
    "vertex-split-one-cross-path": (
        lambda: build_graph(31, _cliques(range(15), range(15, 30),
                                         extra=[(30, 0), (30, 15)])),
        _vertex_split("1/100"),
        ("vertex-split", "partition", "split")),
    "three-parts-majority-pancyclic": (
        lambda: build_graph(26, _cliques(range(20),
                                         extra=[(0, 20 + i) for i in range(6)])),
        _three_parts("1/1000", "1/10000"),
        ("three-parts", "cycle", "pancyclic-range")),
    "three-parts-majority-density": (
        lambda: build_graph(54, list(shared_cliques(27, 25).edges())
                            + [(1, 51 + i) for i in range(3)]),
        _three_parts("1/50", "1/1000"),
        ("three-parts", "stuck", "peel-majority-density")),
    "three-parts-majority-extension": (
        lambda: build_graph(14, _cliques(range(2, 8), range(7, 14),
                                         extra=[(0, 2), (1, 3)])),
        _three_parts("1/1000", "3/500"),
        ("three-parts", "stuck", "peel-majority-extension")),
    "three-parts-majority-inner-stuck": (
        lambda: _majority_remainder(4, 12, 10), _three_parts("9/250", "1/199"),
        ("three-parts", "stuck", "two-parts:second-peel")),
    "three-parts-majority-inner-split": (
        lambda: _majority_remainder(3, 27, 25), _three_parts("3/200", "1/500"),
        ("three-parts", "partition", "split")),
    "three-parts-peel": (
        lambda: build_graph(4, []), _three_parts(0, 1),
        ("three-parts", "stuck", "peel")),
    "three-parts-bipartite": (
        lambda: complete_bipartite(13, 13), _three_parts("1/25", "1/100"),
        ("three-parts", "partition", "bipartite")),
    "three-parts-three-components": (
        _three_components, _three_parts("1/40"),
        ("three-parts", "stuck", "low-connectivity-split")),
    "three-parts-large-side": (
        lambda: build_graph(41, _cliques(range(21), range(21, 41))),
        _three_parts(Fraction(1, 10 ** 9)),
        ("three-parts", "cycle", "pancyclic-range")),
    "three-parts-low-connectivity": (
        lambda: two_disjoint_cliques(13, bridge=True), _three_parts("1/25", "1/20"),
        ("three-parts", "partition", "split")),
    "three-parts-dense-remainder": (
        lambda: complete(26), _three_parts("1/25"),
        ("three-parts", "cycle", "pancyclic-range")),
    "three-parts-top-above-order": (
        lambda: complete(5), _three_parts(1),
        ("three-parts", "stuck", "dense-remainder-pancyclicity")),
}


def test_decomposition_routes_frozen():
    # constructed inputs, one per route through the three procedures,
    # including those the graph atlas never reaches (the majority peel's
    # extension and inner two-parts run, the large-side gate, the two
    # vertex-split stucks, a top above the order); the digest covers each
    # (certificate, verifier report) pair, null for a stuck outcome
    rows, routes = [], {}
    for name, (make, run, _) in ROUTE_CASES.items():
        g = make()
        cert = run(g)
        kind = cert.branch.kind
        detail = {"stuck": "step", "cycle": "claim", "partition": "structure"}[kind]
        routes[name] = (cert.procedure, kind, getattr(cert.branch, detail))
        report = None if kind == "stuck" else verify_stability_certificate(g, cert)
        assert report is None or report.passed, (name, report.failing())
        rows.append([name, cert.to_payload(), report and report.to_payload()])
    assert routes == {name: case[2] for name, case in ROUTE_CASES.items()}
    payloads = {row[0]: row[1] for row in rows}
    assert "required top 6 exceeds the order, cycle branch impossible" in \
        payloads["vertex-split-top-above-order"]["trace"]
    assert "large-side gate holds" in payloads["three-parts-large-side"]["trace"]
    assert "parts disconnected in the whole graph, separator defaults to vertex 0" in \
        payloads["vertex-split-no-cross-path"]["trace"]
    corollary = payloads["two-parts-remainder-by-sign"]["branch"]["partial"]
    assert corollary["corollary_check"]["note"].endswith("holds by sign")
    assert hashlib.sha256(canonical_json(rows).encode()).hexdigest() == (
        "4c48eb7353f4df14061eaba393fc035c71979a4fd4db516b050acc739c5a4e1c")


def test_majority_extension_empty_range():
    # the peel removes vertex 3, the small-peel gate fails and the remainder
    # passes the density gate; top = ceil(4/2) = 2, so the required range
    # [3, 2] is empty and holds, as on the other pancyclic-range routes
    g = build_graph(4, [(0, 1), (0, 2), (1, 2)])
    cert = decompose_three_parts(g, DecompositionParams(alpha=Fraction(0),
                                                        beta=Fraction(1, 200)))
    assert isinstance(cert.branch, CycleBranch)
    assert cert.branch.claim == "pancyclic-range"
    assert cert.branch.required_lengths == ()
    assert cert.to_payload()["branch"]["required_lengths"] == []
    assert "remainder pancyclic up to 2, conclusion verified" in cert.trace
    assert verify_stability_certificate(g, cert).passed


def test_three_parts_one_block_search(monkeypatch):
    # on K64 nothing is peeled, so the cycle bounds, the remainder's
    # bipartition and its cut vertices read the blocks of one scope
    from cyclestab import graph

    runs = []
    search = graph._blocks
    monkeypatch.setattr(graph, "_blocks", lambda *args: runs.append(args) or search(*args))
    cert = decompose_three_parts(complete(64), DecompositionParams(alpha=Fraction(1, 25)))
    assert cert.branch.kind == "cycle"
    assert len(runs) == 1
