"""Ramsey machinery: mono cycles, biclique extraction, certificates,
sweeps, and color verdicts."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import monotonic

import pytest

from cyclestab.coloring import (
    TwoColoring,
    coloring_from_edges,
    coloring_from_red_mask,
    parse_coloring,
    serialize_coloring,
)
from cyclestab.cycles import cycle_of_length, validate_cycle
from cyclestab.errors import (
    GraphFormatError,
    HypothesisUnsatisfiableError,
    MonoCycleNotFoundError,
    ParameterError,
    PreconditionError,
    SearchTimeout,
    SweepSpaceError,
)
from cyclestab.graph import build_graph, mask_of
from cyclestab.ramsey import (
    RamseyCertificate,
    cycle_edge_masks,
    extract_biclique_partition,
    mono_even_cycle,
    pancyclic_color_verdict,
    ramsey_certificate,
    ramsey_sweep,
    verdict_sample_sweep,
    verify_ramsey_certificate,
)

from conftest import complete, complete_bipartite


def _all_red(p):
    return coloring_from_edges(p, combinations(range(p), 2), [])


def _golden_n5():
    """u = 0, class1 = {1,2,3}, class2 = {4..7}; red holds the cliques."""
    u1, u2 = [1, 2, 3], [4, 5, 6, 7]
    red = list(combinations(u1, 2)) + list(combinations(u2, 2)) + [(0, v) for v in u1]
    blue = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    return coloring_from_edges(8, red, blue)


# -- mono even cycles --------------------------------------------------------

def test_mono_even_cycle_all_red():
    color, witness = mono_even_cycle(_all_red(5), 2)
    assert color == "red" and len(witness) == 4


def test_mono_even_cycle_red_biclique():
    red = [(i, 2 + j) for i in range(2) for j in range(3)]
    blue = [(0, 1)] + list(combinations([2, 3, 4], 2))
    color, witness = mono_even_cycle(coloring_from_edges(5, red, blue), 2)
    assert color == "red"
    assert len(witness) == 4


def test_mono_even_cycle_k5_can_miss():
    # 5-cycle vs complementary 5-cycle: no monochromatic C4 on 5 vertices
    red = [(i, (i + 1) % 5) for i in range(5)]
    blue = [(i, (i + 2) % 5) for i in range(5)]
    with pytest.raises(MonoCycleNotFoundError):
        mono_even_cycle(coloring_from_edges(5, red, blue), 2)


def test_mono_even_cycle_small_host_rejected():
    with pytest.raises(ParameterError):
        mono_even_cycle(_all_red(4), 2)


# -- biclique extraction -----------------------------------------------------

def test_extraction_k44():
    ext = extract_biclique_partition(complete_bipartite(4, 4))
    assert ext.u1 == (0, 1, 2, 3) and ext.u2 == (4, 5, 6, 7)
    assert ext.u == 0 and ext.star_edges == ()


def test_extraction_k44_minus_star():
    g = build_graph(8, [(i, 4 + j) for i in range(4) for j in range(4)
                        if not (i == 0 and j in (0, 1))])
    ext = extract_biclique_partition(g)
    assert ext.u == 0
    assert ext.star_edges == ((0, 4), (0, 5))


def test_extraction_preconditions():
    with pytest.raises(PreconditionError) as err:
        extract_biclique_partition(complete(8))
    assert err.value.which == "odd-cycle-in-graph"
    with pytest.raises(PreconditionError) as err:
        extract_biclique_partition(build_graph(6, [(i, (i + 1) % 6) for i in range(6)]))
    assert err.value.which == "odd-cycle-in-complement"
    with pytest.raises(PreconditionError) as err:
        extract_biclique_partition(build_graph(4, [(0, 1), (2, 3)]))
    assert err.value.which == "hamiltonian"
    with pytest.raises(PreconditionError) as err:
        extract_biclique_partition(complete(5))
    assert err.value.which == "even-order"


def test_extraction_validates_structurally():
    g = complete_bipartite(4, 4)
    ext = extract_biclique_partition(g)
    from cyclestab.graph import is_complete_bipartite_between, is_independent

    m1, m2 = mask_of(ext.u1), mask_of(ext.u2)
    assert is_independent(g, m1) and is_independent(g, m2)
    ubit = 1 << ext.u
    assert is_complete_bipartite_between(g, m1 & ~ubit, m2 & ~ubit)


# -- certificates ------------------------------------------------------------

def test_certificate_golden_n5():
    col = _golden_n5()
    cert = ramsey_certificate(col, 5, Fraction(2, 5))
    assert cert.u == 0
    assert cert.u1 == (1, 2, 3) and cert.u2 == (4, 5, 6, 7)
    assert cert.clique_color == "red"
    assert all(c.holds for c in cert.checks)
    report = verify_ramsey_certificate(col, cert)
    assert report.passed, report.failing()


def test_certificate_mono_cycle_rejected():
    with pytest.raises(HypothesisUnsatisfiableError) as err:
        ramsey_certificate(_all_red(8), 5, Fraction(2, 5))
    assert err.value.color == "red"
    assert validate_cycle(complete(8), err.value.witness, 5)


def test_certificate_even_n_unsatisfiable():
    with pytest.raises(HypothesisUnsatisfiableError) as err:
        ramsey_certificate(_all_red(6), 4, Fraction(1, 2))
    assert len(err.value.witness) == 4


def test_certificate_rejects_wrong_order():
    with pytest.raises(ParameterError):
        ramsey_certificate(_golden_n5(), 5, Fraction(1, 5))  # expects order 9


def test_certificate_up_to_color_symmetry():
    col = _golden_n5()
    cert = ramsey_certificate(col, 5, Fraction(2, 5))
    swapped = ramsey_certificate(col.swap(), 5, Fraction(2, 5))
    assert swapped.clique_color == "blue"
    assert swapped.u == cert.u
    assert swapped.u1 == cert.u1 and swapped.u2 == cert.u2
    assert verify_ramsey_certificate(col.swap(), swapped).passed


def test_certificate_pipeline_k3():
    # n = 7, host K11: red = K6 (u with class1) + K5, blue = K_{5,5} + u-to-class2
    u1, u2 = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
    red = list(combinations(u1, 2)) + list(combinations(u2, 2)) + [(0, v) for v in u1]
    blue = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    col = coloring_from_edges(11, red, blue)
    cert = ramsey_certificate(col, 7, Fraction(3, 7))
    report = verify_ramsey_certificate(col, cert)
    assert report.passed, report.failing()
    assert {len(cert.u1), len(cert.u2)} == {5}
    swapped = ramsey_certificate(col.swap(), 7, Fraction(3, 7))
    assert swapped.clique_color != cert.clique_color
    assert verify_ramsey_certificate(col.swap(), swapped).passed


def test_certificate_pipeline_k3_star_perturbations():
    # structured order-11 colorings without a monochromatic C7, with up to
    # one extra clique-color cross edge at the special vertex: the pipeline
    # must certify every variant in both orientations
    u1, u2 = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
    red_base = list(combinations(u1, 2)) + list(combinations(u2, 2)) + \
        [(0, v) for v in u1]
    blue_base = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    variants = [(red_base, blue_base)]
    for w in u2:
        variants.append((red_base + [(0, w)],
                         [e for e in blue_base if e != (0, w)]))
    for red, blue in variants:
        col = coloring_from_edges(11, red, blue)
        for oriented in (col, col.swap()):
            cert = ramsey_certificate(oriented, 7, Fraction(3, 7))
            report = verify_ramsey_certificate(oriented, cert)
            assert report.passed, report.failing()


def test_verify_rejects_swapped_vertex():
    col = _golden_n5()
    cert = ramsey_certificate(col, 5, Fraction(2, 5))
    bad = dataclasses.replace(cert, u1=(1, 2, 4), u2=(3, 5, 6, 7))
    report = verify_ramsey_certificate(col, bad)
    assert not report.passed
    assert "class1-clique" in report.failing() or "cross-complete" in report.failing()


def test_verify_rejects_recolored_edge():
    # recolor one cross edge red: a blue 5-cycle appears through the gap? no,
    # the recoloring breaks cross-completeness and may create a red C5
    u1, u2 = [1, 2, 3], [4, 5, 6, 7]
    red = list(combinations(u1, 2)) + list(combinations(u2, 2)) + [(0, v) for v in u1]
    blue = [(a, b) for a in u1 for b in u2] + [(0, v) for v in u2]
    red2 = red + [(1, 4)]
    blue2 = [e for e in blue if e != (1, 4)]
    col2 = coloring_from_edges(8, red2, blue2)
    cert = ramsey_certificate(_golden_n5(), 5, Fraction(2, 5))
    report = verify_ramsey_certificate(col2, cert)
    assert not report.passed
    assert "cross-complete" in report.failing()


def test_certificate_payload_round_trip():
    col = _golden_n5()
    cert = ramsey_certificate(col, 5, Fraction(2, 5))
    again = RamseyCertificate.from_payload(cert.to_payload())
    assert again == cert


# -- sweeps ------------------------------------------------------------------

def test_cycle_edge_masks_counts():
    assert len(cycle_edge_masks(6, 4)) == 45
    assert len(cycle_edge_masks(8, 5)) == 672
    assert all(m.bit_count() == 5 for m in cycle_edge_masks(8, 5))


def test_cycle_edge_masks_are_distinct_cycles():
    edges = list(combinations(range(7), 2))
    for n in range(3, 8):
        masks = cycle_edge_masks(7, n)
        assert len(set(masks)) == len(masks)
        for mask in masks:
            g = build_graph(7, [e for i, e in enumerate(edges) if (mask >> i) & 1])
            assert cycle_of_length(g, n) is not None and g.edge_count() == n


def test_cycle_edge_masks_deadline():
    # the first 12 vertices of K18 alone have 11! orderings to visit, so the
    # clock is read per permutation, not once per vertex combination
    with pytest.raises(SearchTimeout, match="sweep exceeded its deadline"):
        cycle_edge_masks(18, 12, deadline=monotonic())


def test_sweep_mask_listing_honours_timeout():
    # sampled K18/C12 would list about 3.7e11 masks; the deadline stops it
    import cyclestab

    env = {**os.environ, "PYTHONPATH": str(Path(cyclestab.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "cyclestab.cli", "ramsey-sweep", "--n", "12",
         "--beta", "1/2", "--mode", "sampled", "--samples", "1", "--override-space",
         "--timeout", "0"], capture_output=True, text=True, env=env, timeout=20)
    assert run.returncode == 3
    assert json.loads(run.stdout)["message"] == "sweep exceeded its deadline"


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_sweep_host_above_cap_refused_before_listing(monkeypatch, mode):
    from cyclestab import ramsey

    def never(*args, **kwargs):
        raise AssertionError("cycle masks listed for a host above 64 vertices")

    monkeypatch.setattr(ramsey, "cycle_edge_masks", never)
    with pytest.raises(ParameterError, match="host order 75 exceeds the 64-vertex cap"):
        ramsey_sweep(50, Fraction(1, 2), mode, samples=1, space_override=True)


def test_sweep_k6_exhaustive():
    report = ramsey_sweep(4, Fraction(1, 2), "exhaustive", parallel=False)
    assert report.total == 1 << 15
    assert report.mono_found == 32768
    assert report.certificate_found == 0
    assert report.failures == 0
    assert report.counts_sum_ok()


def test_sweep_shard_independence():
    one = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=1, parallel=False)
    three = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=3, parallel=False)
    assert one.to_payload() == three.to_payload()


def test_sweep_space_guard():
    with pytest.raises(SweepSpaceError):
        ramsey_sweep(7, Fraction(3, 7), "exhaustive")


def test_sweep_sampled_deterministic():
    a = ramsey_sweep(5, Fraction(2, 5), "sampled", samples=400, seed=9,
                     shards=1, parallel=False)
    b = ramsey_sweep(5, Fraction(2, 5), "sampled", samples=400, seed=9,
                     shards=4, parallel=False)
    assert a.to_payload() == b.to_payload()
    assert a.total == 400 and a.counts_sum_ok()


@pytest.mark.parametrize("shards, parallel", [(1, False), (2, True)])
def test_sweep_sampled_classification(shards, parallel):
    # the sampled filter against a plain per-coloring check of the same
    # (seed, idx) draws; nearly every random coloring of K8 has a
    # monochromatic C5, so test_kernels checks the mono-free side
    masks = cycle_edge_masks(8, 5)
    seed, samples = 31, 300
    full = (1 << 28) - 1
    mono = 0
    for idx in range(samples):
        red = random.Random(f"{seed}:{idx}").getrandbits(28)
        mono += any(c & red == c or c & (red ^ full) == c for c in masks)
    report = ramsey_sweep(5, Fraction(2, 5), "sampled", samples=samples, seed=seed,
                          shards=shards, parallel=parallel)
    assert report.mono_found == mono
    assert report.counts_sum_ok()


def test_sweep_checkpoint_resume(tmp_path):
    path = tmp_path / "progress.txt"
    first = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=2,
                         checkpoint=str(path), parallel=False)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("cyclestab-sweep v1")
    assert len(lines) == 3
    # rewind the second shard: resume must reproduce identical counts
    path.write_text("\n".join(lines[:2]) + "\n")
    second = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=2,
                          checkpoint=str(path), parallel=False)
    assert first.to_payload() == second.to_payload()


def test_sweep_checkpoint_resume_mid_shard(tmp_path):
    # K8/C5 in 16 shards: counters 0..2^23 - 1 of shard 0 hold two mono-free
    # colorings, 8241656 and 8244743.  A line written by hand stops between
    # them; the resumed sweep must give the uncheckpointed report and the
    # file a fresh checkpointed run writes.
    path = tmp_path / "progress.txt"
    header = "cyclestab-sweep v1 n=5 beta=2/5 p=8 shards=16"
    path.write_text(f"{header}\n0 8243000 8243000 {(8241656 << 1) | 1:x}\n")
    resumed = ramsey_sweep(5, Fraction(2, 5), "exhaustive", shards=16,
                           checkpoint=str(path), parallel=False)
    plain = ramsey_sweep(5, Fraction(2, 5), "exhaustive", shards=16, parallel=False)
    assert resumed.to_payload() == plain.to_payload()
    assert resumed.certificate_found == 1190
    fresh = tmp_path / "fresh.txt"
    ramsey_sweep(5, Fraction(2, 5), "exhaustive", shards=16, checkpoint=str(fresh),
                 parallel=False)
    assert path.read_bytes() == fresh.read_bytes()


def test_sweep_checkpoint_survives_a_failed_write(tmp_path, monkeypatch):
    # a write that dies halfway must leave the previous progress file whole
    from cyclestab import ramsey

    path = tmp_path / "progress.txt"
    first = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=2,
                         checkpoint=str(path), parallel=False)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2]) + "\n")
    saved = path.read_text()

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError("device gone")

    def dying_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return HalfWrite(fh) if "w" in mode else fh

    monkeypatch.setattr(ramsey, "open", dying_open, raising=False)
    with pytest.raises(OSError, match="device gone"):
        ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=2,
                     checkpoint=str(path), parallel=False)
    assert path.read_text() == saved
    monkeypatch.undo()
    again = ramsey_sweep(4, Fraction(1, 2), "exhaustive", shards=2,
                         checkpoint=str(path), parallel=False)
    assert again.to_payload() == first.to_payload()


def test_monofree_set_matches_structural_enumeration():
    # independent oracle for the order-8 sweep filter: colorings of K8
    # without a monochromatic C5 are exactly those with one color forming
    # two 4-cliques joined by at most one cross edge at a shared vertex.
    # enumerate that family directly and compare sets on a counter window.
    edge_index = {e: i for i, e in enumerate(combinations(range(8), 2))}

    def emask(pairs):
        m = 0
        for a, b in pairs:
            m |= 1 << edge_index[(min(a, b), max(a, b))]
        return m

    family = set()
    full = (1 << 28) - 1
    for side in combinations(range(8), 4):
        other = tuple(v for v in range(8) if v not in side)
        base = emask(combinations(side, 2)) | emask(combinations(other, 2))
        variants = {base}
        for u in side:
            for w in other:
                variants.add(base | emask([(u, w)]))
        for red in variants:
            family.add(red)
            family.add(red ^ full)  # color swap

    from cyclestab import _kernel
    masks = cycle_edge_masks(8, 5)
    assert len(family) == 1190
    window = 1 << 20
    _, monofree = _kernel.sweep_filter_range(masks, 28, 0, window)
    expected = sorted(m for m in family if m & 1 and (m >> 1) < window)
    assert sorted(monofree) == expected


def test_sweep_k8_slice_certificates():
    # a small counter window of the order-8 space that contains both
    # monochromatic and certificate colorings
    masks = cycle_edge_masks(8, 5)
    from cyclestab import _kernel

    lo, hi = 0, 1 << 16
    mono, monofree = _kernel.sweep_filter_range(masks, 28, lo, hi)
    assert mono + len(monofree) == hi - lo
    for red in monofree[:5]:
        col = coloring_from_red_mask(8, red)
        cert = ramsey_certificate(col, 5, Fraction(2, 5))
        assert verify_ramsey_certificate(col, cert).passed


# -- color verdicts ----------------------------------------------------------

def test_verdict_all_red():
    v = pancyclic_color_verdict(_all_red(9))
    assert v.verdict == "red"
    assert v.red_missing == () and set(v.red_witnesses) == {3, 4, 5}


def test_verdict_structural_blue():
    red = [(i, 4 + j) for i in range(4) for j in range(5)]
    blue = list(combinations(range(4), 2)) + list(combinations(range(4, 9), 2))
    v = pancyclic_color_verdict(coloring_from_edges(9, red, blue))
    assert v.verdict == "blue"
    assert 3 in v.red_missing and 5 in v.red_missing


def test_verdict_rejects_even_order():
    with pytest.raises(ParameterError):
        pancyclic_color_verdict(_all_red(8))


def test_verdict_sample_sweep_deterministic():
    a = verdict_sample_sweep(7, 60, seed=3, shards=1, parallel=False)
    b = verdict_sample_sweep(7, 60, seed=3, shards=3, parallel=False)
    assert a.to_payload() == b.to_payload()
    assert sum(a.counts.values()) == 60


# -- coloring io -------------------------------------------------------------

def test_coloring_round_trip():
    col = _golden_n5()
    text = serialize_coloring(col)
    again = parse_coloring(text)
    assert again.red == col.red and again.blue == col.blue


def test_coloring_rejects_incomplete():
    with pytest.raises(GraphFormatError):
        parse_coloring("3\n0 1 R\n1 2 B")
    parse_coloring("3\n0 1 R\n1 2 B", require_complete=False)


def test_coloring_rejects_duplicates_and_bad_lines():
    with pytest.raises(GraphFormatError):
        parse_coloring("3\n0 1 R\n1 0 B\n1 2 B")
    with pytest.raises(GraphFormatError):
        parse_coloring("3\n0 1 X\n0 2 R\n1 2 B")
    with pytest.raises(GraphFormatError):
        parse_coloring("")
    for bad in ("3\n0 1 R\n1 2 B\n0 3 R", "3\n0 1 R\n1 1 B\n0 2 R", "65\n0 1 R"):
        with pytest.raises(GraphFormatError):  # out of range, loop, order above 64
            parse_coloring(bad)


def test_coloring_partition_invariant():
    with pytest.raises(ParameterError):
        TwoColoring(complete(3), complete(3), complete(3))
