import random

import pytest
from hypothesis import given, strategies as st

from locdom import (
    UNREACHABLE,
    DisconnectedGraphError,
    Graph,
    complement,
    disjoint_union,
    join,
    relabeled,
    strong_product,
    tree_profile,
)
from locdom.canonical import _peel
from locdom.enumeration import tree_classes
from locdom.families import complete, cycle, path, spider, star, strong_grid
from locdom.graph import _peel_order

from conftest import random_connected_graph
import _brute


class TestConstruction:
    def test_single_edge(self):
        g = Graph.from_edge_list(2, [(0, 1)])
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_p6_diameter(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert g.diameter() == 5

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_equality_and_hash(self):
        g = Graph(3, [(0, 1), (1, 2)])
        h = Graph(3, [(1, 2), (0, 1)])
        assert g == h and hash(g) == hash(h)
        assert g != Graph(3, [(0, 1)])


class TestDistances:
    def test_cycle_wraps(self):
        assert cycle(7).graph.distance_matrix()[0][4] == 3

    def test_path_ends(self):
        assert path(6).graph.distance_matrix()[0][5] == 5

    def test_disconnected_pair_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dm = g.distance_matrix()
        assert dm[0][2] == UNREACHABLE
        assert not g.is_connected()

    def test_diameter_examples(self):
        assert complete(5).graph.diameter() == 1
        assert path(6).graph.diameter() == 5
        assert cycle(7).graph.diameter() == 3

    def test_diameter_matches_brute_force_max(self):
        for inst in (path(7), cycle(9), star(6)):
            dist = _brute.all_distances(inst.graph)
            assert inst.graph.diameter() == max(max(row) for row in dist)

    def test_diameter_requires_connectivity(self):
        with pytest.raises(DisconnectedGraphError):
            Graph(4, [(0, 1), (2, 3)]).diameter()

    def test_metric_axioms_on_random_graphs(self):
        rng = random.Random(20260808)
        for _ in range(200):
            n = rng.randint(2, 12)
            g = random_connected_graph(rng, n)
            dm = g.distance_matrix()
            for u in range(n):
                assert dm[u][u] == 0
                for v in range(n):
                    assert dm[u][v] == dm[v][u]
                    assert (dm[u][v] == 1) == g.has_edge(u, v)
                    for w in range(n):
                        assert dm[u][w] <= dm[u][v] + dm[v][w]


class TestOperators:
    def test_p2_strong_p2_is_k4(self):
        assert strong_product(path(2).graph, path(2).graph) == complete(4).graph

    def test_king_grid_degrees(self):
        king = strong_product(path(5).graph, path(5).graph)
        assert king.degree(0) == 3
        centre = strong_product(path(3).graph, path(3).graph)
        assert centre.degree(4) == 8

    def test_strong_product_associates_exactly(self):
        a, b, c = path(2).graph, path(3).graph, cycle(3).graph
        left = strong_product(strong_product(a, b), c)
        right = strong_product(a, strong_product(b, c))
        # row-major indexing makes the two labelled graphs identical
        assert left == right

    def test_strong_grid_3d_centre(self):
        g = strong_grid([3, 3, 3])
        assert g.n == 27 and g.degree(13) == 26

    def test_join_star(self):
        built = join(complete(1).graph, complement(complete(4).graph))
        assert built == star(5).graph

    def test_join_edge_count(self):
        g = join(complete(2).graph, complement(complete(2).graph))
        assert g.n == 4 and g.edge_count == 5

    def test_disjoint_union(self):
        g = disjoint_union(path(2).graph, path(3).graph)
        assert g.n == 5 and g.edges() == [(0, 1), (2, 3), (3, 4)]
        assert not g.is_connected()

    @given(st.integers(2, 8), st.integers(0, 2**28 - 1))
    def test_complement_involution(self, n, seed):
        g = random_connected_graph(random.Random(seed), n)
        assert complement(complement(g)) == g

    def test_relabeled_requires_permutation(self):
        with pytest.raises(ValueError):
            relabeled(path(3).graph, [0, 0, 1])

    def test_relabeled_moves_edges(self):
        g = relabeled(path(3).graph, [2, 0, 1])
        assert g.edges() == [(0, 1), (0, 2)]


class TestTreeProfile:
    def test_path(self):
        prof = tree_profile(path(6).graph)
        assert prof.leaf_count == 2
        assert prof.support_count == 2
        assert prof.strong_supports == ()

    def test_star(self):
        prof = tree_profile(star(5).graph)
        assert prof.leaf_count == 4
        assert prof.supports == (0,)
        assert prof.strong_supports == (0,)

    def test_spider_two_legs(self):
        prof = tree_profile(spider([3, 3]))
        assert prof.leaf_count == 2
        assert prof.support_count == 2
        assert prof.strong_supports == ()

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            tree_profile(cycle(4).graph)
        with pytest.raises(ValueError):
            tree_profile(Graph(4, [(0, 1), (2, 3)]))


class TestPeelOrder:
    @pytest.mark.parametrize("peel", [_peel_order, _peel])
    @pytest.mark.parametrize(
        "g",
        [cycle(5).graph, Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])],
        ids=["C5", "triangle-with-a-tail"],
    )
    def test_a_graph_with_a_cycle_is_refused(self, peel, g):
        # the leaves run out above the centres: an error, not an endless loop
        with pytest.raises(ValueError, match="not a tree"):
            peel(g._rows)

    @pytest.mark.parametrize("peel", [_peel_order, _peel])
    @pytest.mark.parametrize(
        "g",
        [Graph(5, [(0, 1), (1, 2), (3, 4)]), Graph(4, [(1, 2), (2, 3), (1, 3)]), Graph(2)],
        ids=["P3+P2", "K1+K3", "2K1"],
    )
    def test_a_disconnected_graph_is_refused(self, peel, g):
        # P3 + P2 used to peel to P3's key, K1 + K3 to fail on a negative
        # shift and 2K1 to peel to the centres [0, 1]
        with pytest.raises(ValueError, match="not a tree"):
            peel(g._rows)

    @pytest.mark.parametrize("n", [1, 2])
    def test_k1_and_p2_are_all_centre(self, n):
        assert _peel_order(path(n).graph._rows) == (list(range(n)), list(range(n)), [-1] * n)

    def test_every_tree_to_12_peels_to_its_centres(self):
        for n in range(1, 13):
            for t in tree_classes(n):
                centres, order, parent = _peel_order(t._rows)
                assert sorted(order) == list(range(n)), t
                assert order[-len(centres):] == centres and len(centres) in (1, 2), t
                if len(centres) == 2:
                    assert t.has_edge(*centres), t
                ecc = [max(row) for row in t.distance_matrix()]
                assert sorted(centres) == [v for v in range(n) if ecc[v] == min(ecc)], t
                at = {v: i for i, v in enumerate(order)}
                for v in order:
                    if v in centres:
                        assert parent[v] == -1, t
                    else:
                        assert t.has_edge(v, parent[v]) and at[parent[v]] > at[v], t
