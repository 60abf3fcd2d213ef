"""Cycle engine: exact searches, spectrum, and bound checkers."""

import random
from fractions import Fraction

import pytest

from cyclestab.cycles import (
    check_bollobas_pancyclicity,
    check_erdos_gallai,
    check_fan_lv_weng,
    cycle_of_length,
    cycle_spectrum,
    is_hamiltonian,
    longest_cycle,
    validate_cycle,
)
from cyclestab.errors import ParameterError, SearchTimeout
from cyclestab.graph import build_graph, is_two_connected

from conftest import (
    complete,
    complete_bipartite,
    cycle_graph,
    naive_cycle_lengths,
    naive_longest_cycle,
    path_graph,
    petersen,
    random_graph,
)


def test_longest_k4():
    assert longest_cycle(complete(4))[0] == 4


def test_longest_petersen():
    c, w = longest_cycle(petersen())
    assert c == 9
    assert validate_cycle(petersen(), w, 9)


def test_longest_tree():
    assert longest_cycle(path_graph(7)) == (0, None)


def test_cycle_of_length_examples():
    assert cycle_of_length(complete(5), 5) is not None
    assert cycle_of_length(petersen(), 7) is None
    assert cycle_of_length(complete_bipartite(3, 3), 5) is None


def test_cycle_of_length_range_check():
    with pytest.raises(ParameterError):
        cycle_of_length(complete(4), 2)
    with pytest.raises(ParameterError):
        cycle_of_length(complete(4), 5)


def test_spectrum_examples():
    assert cycle_spectrum(complete(4)).present() == [3, 4]
    assert cycle_spectrum(petersen()).present() == [5, 6, 8, 9]
    assert cycle_spectrum(cycle_graph(6)).present() == [6]


def test_spectrum_witnesses_validate():
    g = petersen()
    report = cycle_spectrum(g)
    for t, w in report.witnesses.items():
        assert validate_cycle(g, w, t)


def test_oracle_equivalence_random():
    rng = random.Random(5)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        lengths = naive_cycle_lengths(g)
        report = cycle_spectrum(g)
        assert set(report.present()) == lengths
        assert report.c == max(lengths, default=0)
        assert longest_cycle(g)[0] == naive_longest_cycle(g)


def test_monotone_consistency():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        c, _ = longest_cycle(g)
        for t in range(3, g.n + 1):
            if cycle_of_length(g, t) is not None:
                assert t <= c


def test_witness_determinism():
    g = petersen()
    assert longest_cycle(g) == longest_cycle(g)
    assert cycle_spectrum(g).witnesses == cycle_spectrum(g).witnesses


def test_erdos_gallai_examples():
    r = check_erdos_gallai(complete(4))
    assert r.applicable and r.passed
    r = check_erdos_gallai(cycle_graph(5))
    assert r.applicable and r.passed
    r = check_erdos_gallai(petersen())
    assert r.applicable and r.passed and r.inputs["c"] == 9
    assert not check_erdos_gallai(path_graph(5)).applicable


def test_fan_lv_weng_examples():
    r = check_fan_lv_weng(cycle_graph(5))
    assert r.applicable and r.passed
    r = check_fan_lv_weng(petersen())
    assert r.applicable and r.passed
    # squared encoding agrees with the numeric evaluation on this instance:
    # c = 9 > 2n(1 - sqrt(1 - 2e/n^2)) ~ 3.27
    squared = [c for c in r.comparisons if c.name == "long-cycle-lower-squared"][0]
    assert squared.lhs == (20 - 9) ** 2 and squared.rhs == 4 * (100 - 30)
    assert squared.holds
    r = check_fan_lv_weng(complete(4))
    assert r.applicable and r.passed
    assert not check_fan_lv_weng(path_graph(4)).applicable


def test_fan_lv_weng_edge_bound_c5():
    r = check_fan_lv_weng(cycle_graph(5))
    edge = [c for c in r.comparisons if c.name == "edge-count-upper"][0]
    assert edge.rhs == 8 and edge.lhs == 5


def test_bollobas_examples():
    r = check_bollobas_pancyclicity(complete(5))
    assert r.applicable and r.passed
    assert not check_bollobas_pancyclicity(complete_bipartite(3, 3)).applicable
    # complete graph on 6 minus a perfect matching: dense and Hamiltonian
    g = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                        if not (u % 3 == v % 3)])
    assert g.edge_count() == 12
    r = check_bollobas_pancyclicity(g)
    assert r.applicable and r.passed and r.inputs["c"] == 6


def test_theorem_as_test_on_random_graphs():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 9), 0.3 + 0.7 * rng.random())
        if g.edge_count() >= g.n:
            assert check_erdos_gallai(g).passed
        if is_two_connected(g):
            r = check_fan_lv_weng(g)
            # edge-count upper bound, waived on hamiltonian instances
            assert r.comparisons[0].holds or r.inputs["c"] == g.n
            assert r.passed
        if 4 * g.edge_count() > g.n * g.n:
            assert check_bollobas_pancyclicity(g).passed


def test_expired_deadline_stops_a_short_search():
    # a triangle of K5 is found within a few nodes, far below one stride
    from time import monotonic

    with pytest.raises(SearchTimeout):
        cycle_of_length(complete(5), 3, deadline=monotonic() - 1.0)


def test_hamiltonian_flag():
    assert is_hamiltonian(complete(5))
    assert not is_hamiltonian(petersen())


def test_bipartition_agrees_with_odd_cycle_search():
    from cyclestab.graph import bipartition

    rng = random.Random(8)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        has_odd = any(t % 2 == 1 for t in naive_cycle_lengths(g))
        assert (bipartition(g) is None) == has_odd
