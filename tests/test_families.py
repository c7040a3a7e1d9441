import hashlib

import pytest

from locdom import are_isomorphic, minimum_code, write_graph6
from locdom.families import (
    ETA_EXTREMAL_KINDS,
    NotRealizableError,
    complete,
    complete_bipartite,
    cycle,
    eta_extremal_instances_of_order,
    eta_n_minus_2_family,
    g_eta_construction,
    path,
    realization_graph,
    realization_tree,
    spider,
    spider_k3,
    spider_k4,
    spider_mixed,
    star,
    strong_grid,
    wheel,
)


def brute_values(g, params):
    return {p: minimum_code(g, p)[0] for p in params}


class TestBasicFamilies:
    def test_path_claims(self):
        inst = path(10)
        assert inst.claimed_values == {"gamma": 4, "beta": 1, "eta": 4, "lambda": 4}

    def test_out_of_range_means_no_claims(self):
        assert path(2).claimed_values == {}
        assert cycle(6).claimed_values == {}
        assert complete(1).claimed_values == {}
        assert star(2).claimed_values == {}
        assert complete_bipartite(1, 4).claimed_values == {}
        assert wheel(7).claimed_values == {}

    def test_wheel_claims(self):
        inst = wheel(10)
        assert inst.claimed_values == {"gamma": 1, "beta": 4, "eta": 4, "lambda": 4}

    @pytest.mark.parametrize(
        "inst",
        [path(7), cycle(9), complete(5), star(6), complete_bipartite(2, 4), wheel(8)],
        ids=lambda i: i.name,
    )
    def test_spot_brute_force_agreement(self, inst):
        assert brute_values(inst.graph, inst.claimed_values) == dict(inst.claimed_values)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            wheel(3)
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)


class TestStrongGrid:
    def test_king_grid(self):
        g = strong_grid([5, 5])
        assert g.n == 25 and g.degree(0) == 3

    def test_two_by_two(self):
        assert strong_grid([2, 2]) == complete(4).graph

    def test_three_dimensional(self):
        g = strong_grid([5, 5, 5])
        assert g.n == 125 and g.degree(62) == 26  # centre (2,2,2)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            strong_grid([])


class TestSpiders:
    def test_raw_spider_shapes(self):
        assert spider([3, 3]).n == 7  # two legs give a path
        assert spider([3, 3]).degree(0) == 2
        g = spider([4, 3, 3])
        assert g.n == 11 and g.degree(0) == 3
        with pytest.raises(ValueError):
            spider([3])
        with pytest.raises(ValueError):
            spider([3, 0])

    def test_spider_k3(self):
        inst = spider_k3(3)
        assert inst.graph.n == 10
        assert inst.claimed_values == {"eta": 4, "lambda": 4}
        assert inst.claims_hold()

    def test_spider_k4(self):
        inst = spider_k4(3)
        assert inst.graph.n == 13
        assert inst.claimed_values == {"eta": 4, "lambda": 6}

    def test_spider_mixed_order(self):
        assert spider_mixed(1, 3).graph.n == 11

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_k3_values_by_brute_force(self, k):
        g = spider_k3(k).graph
        assert minimum_code(g, "eta")[0] == k + 1
        assert minimum_code(g, "lambda")[0] == k + 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_k4_values_by_brute_force(self, k):
        g = spider_k4(k).graph
        assert minimum_code(g, "eta")[0] == k + 1
        assert minimum_code(g, "lambda")[0] == 2 * k


class TestGEtaConstruction:
    @pytest.mark.parametrize("eta,order", [(2, 8), (3, 30), (4, 112)])
    def test_orders(self, eta, order):
        inst = g_eta_construction(eta)
        assert inst.graph.n == order == eta + eta * 3 ** (eta - 1)
        assert len(inst.claimed_codes["eta"]) == eta

    def test_code_is_mld_and_optimal_for_2(self):
        inst = g_eta_construction(2)
        assert inst.claims_hold()
        assert minimum_code(inst.graph, "eta") == (2, tuple(inst.claimed_codes["eta"]))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            g_eta_construction(1)
        with pytest.raises(ValueError):
            g_eta_construction(5)


class TestEtaExtremalFamilies:
    def test_complete_bipartite_kind(self):
        inst = eta_n_minus_2_family("complete_bipartite", 2, 3)
        assert inst.graph.n == 5
        assert inst.claimed_values == {"eta": 3, "lambda": 3}

    def test_double_star(self):
        inst = eta_n_minus_2_family("double_star", 2, 2)
        assert inst.graph.n == 6
        assert inst.claimed_values == {"eta": 4, "lambda": 4}

    def test_star_plus_vertex(self):
        inst = eta_n_minus_2_family("star_plus_vertex", 4, 2)
        assert inst.graph.n == 6
        assert inst.claimed_values == {"eta": 4, "lambda": 4}

    def test_range_enforcement(self):
        with pytest.raises(ValueError):
            eta_n_minus_2_family("complete_bipartite", 1, 3)
        with pytest.raises(ValueError):
            eta_n_minus_2_family("star_plus_vertex", 3, 3)
        with pytest.raises(ValueError):
            eta_n_minus_2_family("no_such_kind", 2, 2)

    def test_all_small_instances_measure_n_minus_2(self):
        seen = 0
        for n in range(4, 8):
            for inst in eta_extremal_instances_of_order(n):
                assert inst.graph.n == n
                eta = minimum_code(inst.graph, "eta")[0]
                lam = minimum_code(inst.graph, "lambda")[0]
                assert eta == lam == n - 2, inst.name
                seen += 1
        assert seen > 20

    def test_p4_is_covered_by_the_list(self):
        p4 = path(4).graph
        assert any(
            are_isomorphic(p4, inst.graph)
            for inst in eta_extremal_instances_of_order(4)
        )

    def test_kind_list_is_stable(self):
        assert len(ETA_EXTREMAL_KINDS) == 7


class TestRealization:
    def test_trivial_cases(self):
        assert realization_graph(1, 1, 1).graph == path(2).graph
        assert realization_graph(1, 1, 2).graph == path(3).graph
        assert realization_graph(2, 1, 2).graph == path(6).graph

    def test_case_two(self):
        assert realization_graph(1, 3, 3).graph == complete(4).graph
        assert realization_graph(1, 3, 4).graph == star(5).graph

    def test_not_realizable(self):
        with pytest.raises(NotRealizableError):
            realization_graph(2, 1, 3)
        with pytest.raises(NotRealizableError):
            realization_graph(5, 1, 6)

    def test_constraint_violations(self):
        with pytest.raises(ValueError):
            realization_graph(2, 2, 5)  # c > a + b
        with pytest.raises(ValueError):
            realization_graph(3, 3, 2)  # c < max(a, b)
        with pytest.raises(ValueError):
            realization_graph(0, 1, 1)

    @pytest.mark.parametrize("triple", [(2, 2, 3), (2, 3, 5), (3, 2, 4), (2, 3, 3)])
    def test_spot_brute_force(self, triple):
        a, b, c = triple
        inst = realization_graph(a, b, c)
        assert inst.claims_hold()
        got = brute_values(inst.graph, ("gamma", "beta", "eta"))
        assert got == {"gamma": a, "beta": b, "eta": c}

    def test_tree_realization(self):
        inst = realization_tree(3, 3)
        assert inst.graph.n == 7 and inst.graph == spider([3, 3])
        inst = realization_tree(3, 4)
        assert inst.graph.n == 8
        with pytest.raises(ValueError):
            realization_tree(3, 5)
        with pytest.raises(ValueError):
            realization_tree(2, 2)

    def test_tree_realization_spot(self):
        inst = realization_tree(4, 6)
        eta = minimum_code(inst.graph, "eta")[0]
        lam = minimum_code(inst.graph, "lambda")[0]
        assert (eta, lam) == (4, 6)


# sha256 of the constructions that test_constructions_are_pinned lists:
# a relabelled vertex, a changed claim or a changed rejection changes it
CONSTRUCTIONS_SHA256 = "5f7ebd10b677921b89ae3875a4cf96a8dc273c8e6be749d4adf6bf0b0880271e"


def _pinned(inst, g6=True):
    # g_eta(4) has 112 vertices, above the orders short graph6 encodes
    g = inst.graph
    shape = write_graph6(g).decode("ascii") if g6 else (g.n, g.edges())
    return (inst.name, shape, sorted(inst.claimed_codes.items()), sorted(inst.claimed_values.items()))


def test_constructions_are_pinned():
    rows = []
    for a in range(1, 11):
        for b in range(1, 11):
            for c in range(max(a, b), a + b + 1):
                try:
                    rows.append(_pinned(realization_graph(a, b, c)))
                except NotRealizableError as exc:
                    rows.append(((a, b, c), str(exc)))
    rows += [_pinned(spider_mixed(r, k)) for k in range(2, 12) for r in range(k + 1)]
    rows += [_pinned(realization_tree(a, b)) for a in range(3, 12) for b in range(a, 2 * a - 1)]
    rows += [_pinned(g_eta_construction(eta), g6=False) for eta in (2, 3, 4)]
    assert len(rows) == 485 + 75 + 54 + 3
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CONSTRUCTIONS_SHA256
