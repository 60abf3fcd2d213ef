"""Graph core: construction, invariants, connectivity, predicates."""

import pickle
import random
from itertools import combinations

import pytest

from cyclestab.coloring import TwoColoring, coloring_from_red_mask
from cyclestab.errors import ParameterError
from cyclestab.graph import (
    bipartition,
    bits,
    build_graph,
    complement,
    components,
    cut_vertices,
    induced,
    is_clique,
    is_complete_bipartite_between,
    is_independent,
    mask_of,
)

from conftest import complete, complete_bipartite, cycle_graph, path_graph, petersen, random_graph


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.edge_count() == 3
    assert g.min_degree() == 2


def test_build_empty():
    g = build_graph(4, [])
    assert g.edge_count() == 0
    assert g.min_degree() == 0


def test_build_petersen_degrees():
    g = petersen()
    assert g.edge_count() == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(1, 1)], [(-1, 0)]])
def test_build_rejects_bad_edges(edges):
    with pytest.raises(ParameterError):
        build_graph(3, edges)


def test_build_rejects_oversize():
    with pytest.raises(ParameterError):
        build_graph(65, [])


def test_complement_k4_edgeless():
    assert complement(complete(4)).edge_count() == 0


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert complement(complement(g)) == g


def test_complement_k44_two_cliques():
    comp = complement(complete_bipartite(4, 4))
    assert comp.edge_count() == 12
    parts = components(comp)
    assert [p.bit_count() for p in parts] == [4, 4]
    assert all(is_clique(comp, p) for p in parts)


def test_induced_k5_triangle():
    assert induced(complete(5), mask_of([0, 1, 2])) == complete(3)


def test_induced_c5_path():
    sub = induced(cycle_graph(5), mask_of([0, 1, 2]))
    assert sub.edge_count() == 2


def test_induced_petersen_outer():
    sub = induced(petersen(), mask_of(range(5)))
    assert sub == cycle_graph(5)


def test_induced_labels_chain():
    g = petersen()
    sub = induced(g, mask_of([2, 4, 7]))
    assert sub.labels == (2, 4, 7)
    subsub = induced(sub, mask_of([0, 2]))
    assert subsub.labels == (2, 7)


def test_pickle_round_trip():
    sub = induced(petersen(), mask_of([0, 1, 2, 5, 7]))
    sub.memo("k", lambda: 1)
    back = pickle.loads(pickle.dumps(sub))
    assert back == sub and back.labels == (0, 1, 2, 5, 7)
    assert back.memo("k", lambda: 2) == 2  # the memo is not carried
    full = coloring_from_red_mask(6, 0b101100110101101)
    keep = mask_of([1, 3, 4, 5])
    col = TwoColoring(*(induced(h, keep) for h in (full.host, full.red, full.blue)))
    col_back = pickle.loads(pickle.dumps(col))
    assert col_back == col
    assert all(h.labels == (1, 3, 4, 5) for h in (col_back.host, col_back.red, col_back.blue))


def test_induced_rejects_out_of_range():
    with pytest.raises(ParameterError):
        induced(complete(3), 1 << 5)


def test_components_two_cliques():
    edges = list(combinations(range(3), 2)) + list(combinations(range(3, 7), 2))
    parts = components(build_graph(7, edges))
    assert [p.bit_count() for p in parts] == [3, 4]


def test_components_edgeless():
    parts = components(build_graph(3, []))
    assert parts == [1, 2, 4]


def test_components_edge_count_identity():
    rng = random.Random(2)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        s = rng.getrandbits(g.n)
        t = g.full_mask() & ~s
        inside = induced(g, s).edge_count() + induced(g, t).edge_count()
        cross = sum((g.adj[v] & t).bit_count() for v in bits(s))
        assert inside + cross == g.edge_count()


def test_cut_vertices_shared_triangles():
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert cut_vertices(g) == 1 << 2


def test_cut_vertices_cycle_none():
    assert cut_vertices(cycle_graph(5)) == 0


def test_cut_vertices_path_internal():
    assert cut_vertices(path_graph(4)) == mask_of([1, 2])


def test_cut_vertex_characterization():
    # removal of v increases the component count iff v is an articulation vertex
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        base = len(components(g))
        arts = cut_vertices(g)
        for v in range(g.n):
            rest = g.full_mask() & ~(1 << v)
            grew = len(components(g, within=rest)) > base
            assert grew == bool((arts >> v) & 1)


def test_bipartition_k34():
    a, b = bipartition(complete_bipartite(3, 4))
    assert (a.bit_count(), b.bit_count()) == (3, 4)
    assert a == mask_of([0, 1, 2])


def test_bipartition_odd_cycle_none():
    assert bipartition(cycle_graph(5)) is None


def test_bipartition_c6():
    a, b = bipartition(cycle_graph(6))
    assert a.bit_count() == b.bit_count() == 3
    assert (a | b) == (1 << 6) - 1 and not (a & b)


def test_bipartition_disconnected_canonical():
    # two paths: each component's side holding its minimum vertex is class one
    g = build_graph(4, [(0, 1), (2, 3)])
    a, b = bipartition(g)
    assert a == mask_of([0, 2])
    assert b == mask_of([1, 3])


def test_predicates():
    k5 = complete(5)
    assert is_clique(k5, mask_of([0, 2, 4]))
    k33 = complete_bipartite(3, 3)
    assert is_independent(k33, mask_of([0, 1, 2]))
    k34 = complete_bipartite(3, 4)
    assert is_complete_bipartite_between(k34, mask_of([0, 1, 2]), mask_of([3, 4, 5, 6]))
    assert not is_complete_bipartite_between(k34, mask_of([0, 1]), mask_of([2, 3]))


def test_bipartite_check_rejects_overlap():
    with pytest.raises(ParameterError):
        is_complete_bipartite_between(complete(4), 3, 6)
