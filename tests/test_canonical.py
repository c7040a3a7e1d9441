import random

from hypothesis import given, strategies as st

from locdom import (
    Graph,
    are_isomorphic,
    automorphism_generators,
    canonical_form,
    canonical_labeling,
    read_graph6,
    relabeled,
    write_graph6,
)
from locdom.enumeration import connected_graphs, tree_classes
from locdom.families import complete_bipartite, cycle, path, star

from conftest import random_connected_graph
import _brute


def test_relabelled_path_is_isomorphic():
    p4 = path(4).graph
    shuffled = relabeled(p4, [2, 0, 3, 1])
    assert shuffled != p4
    assert are_isomorphic(p4, shuffled)


def test_path_vs_star():
    assert not are_isomorphic(path(4).graph, star(4).graph)


def test_same_degree_sequence_not_isomorphic():
    # both 3-regular on 6 vertices; only one contains triangles
    k33 = complete_bipartite(3, 3).graph
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert not _brute.brute_isomorphic(k33, prism)
    assert not are_isomorphic(k33, prism)
    assert are_isomorphic(k33, relabeled(k33, [5, 3, 1, 4, 2, 0]))


def test_cycle_vs_bipartite():
    assert not are_isomorphic(cycle(6).graph, complete_bipartite(3, 3).graph)


def test_agrees_with_brute_force_on_all_pairs_up_to_5():
    classes = [g for n in range(1, 6) for g in connected_graphs(n)]
    for i, g in enumerate(classes):
        for h in classes[i + 1:]:
            if g.n != h.n:
                continue
            assert _brute.brute_isomorphic(g, h) == (canonical_form(g) == canonical_form(h))


@given(st.integers(2, 9), st.integers(0, 2**28 - 1))
def test_canonical_form_is_relabelling_invariant(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(relabeled(g, perm))


def test_canonical_form_round_trips_through_graph6():
    for n in range(1, 6):
        for g in connected_graphs(n):
            form = canonical_form(g)
            again = read_graph6(form)
            assert canonical_form(again) == form


def test_canonical_labeling_realises_the_form():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs.append(random_connected_graph(random.Random(7), 8))
    for g in graphs:
        inverse = [0] * g.n
        for pos, v in enumerate(canonical_labeling(g)):
            inverse[v] = pos
        assert write_graph6(relabeled(g, inverse)) == canonical_form(g)


def _canonical_triple(g):
    # a fresh copy, so nothing cached on a class representative answers
    h = Graph._from_rows(g._rows)
    return canonical_form(h), canonical_labeling(h), automorphism_generators(h)


def test_matches_reference_search_on_connected_classes_to_7():
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert _canonical_triple(g) == _brute.reference_canonical(g), write_graph6(g)


def test_matches_reference_search_on_trees_to_11():
    for n in range(1, 12):
        for t in tree_classes(n):
            assert _canonical_triple(t) == _brute.reference_canonical(t), write_graph6(t)


@given(st.integers(1, 10), st.integers(0, 2**28 - 1))
def test_matches_reference_search_on_random_graphs(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    for h in (g, relabeled(g, perm)):
        assert _canonical_triple(h) == _brute.reference_canonical(h)


def test_automorphism_generators_are_automorphisms():
    for g in (cycle(6).graph, complete_bipartite(2, 3).graph, star(6).graph):
        gens = automorphism_generators(g)
        assert gens, "symmetric graphs should surface automorphisms"
        edges = {frozenset(e) for e in g.edges()}
        for perm in gens:
            assert sorted(perm) == list(range(g.n))
            assert {frozenset((perm[u], perm[v])) for u, v in edges} == edges


def test_highly_symmetric_graphs_are_fast_and_correct():
    from locdom.families import complete

    k8 = complete(8).graph
    assert canonical_form(k8) == canonical_form(relabeled(k8, [3, 1, 4, 0, 5, 2, 7, 6]))
    c9 = cycle(9).graph
    assert are_isomorphic(c9, relabeled(c9, [4, 0, 7, 2, 8, 1, 5, 3, 6]))


def test_disconnected_graphs_are_supported():
    k1_k3 = Graph(4, [(1, 2), (2, 3), (1, 3)])
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert not are_isomorphic(k1_k3, two_k2)
    assert canonical_form(two_k2) == canonical_form(relabeled(two_k2, [3, 1, 0, 2]))
    assert not are_isomorphic(two_k2, path(4).graph)
