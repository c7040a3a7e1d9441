import random

import pytest

from locdom import (
    DisconnectedGraphError,
    Graph,
    domination_number,
    full_report,
    ld_number,
    metric_dimension,
    minimum_code,
    mld_number,
    parameter_satisfies,
    tree_profile,
)
from locdom import graph as graph_mod
from locdom.enumeration import tree_classes
from locdom.families import complete, complete_bipartite, cycle, path, star, wheel

from conftest import random_connected_graph
import _brute

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


class TestSingleParameters:
    def test_domination_paths(self):
        assert domination_number(path(7).graph)[0] == 3
        for n in range(4, 13):
            assert domination_number(path(n).graph)[0] == -(-n // 3)

    def test_domination_complete_and_wheel(self):
        assert domination_number(complete(5).graph) == (1, (0,))
        assert domination_number(wheel(10).graph) == (1, (0,))

    def test_metric_dimension(self):
        assert metric_dimension(path(7).graph) == (1, (0,))
        assert metric_dimension(complete(5).graph)[0] == 4
        assert metric_dimension(wheel(10).graph)[0] == 4

    def test_mld_number(self):
        assert mld_number(path(6).graph) == (2, (1, 4))
        assert mld_number(star(6).graph)[0] == 5
        assert mld_number(cycle(9).graph)[0] == 3

    def test_ld_number(self):
        assert ld_number(path(6).graph)[0] == 3
        assert ld_number(cycle(9).graph)[0] == 4
        assert ld_number(complete_bipartite(2, 4).graph)[0] == 4

    def test_witnesses_satisfy_predicates_and_are_lex_least(self):
        from locdom import is_dominating, is_ld, is_locating, is_mld

        preds = {
            "gamma": is_dominating,
            "beta": is_locating,
            "eta": is_mld,
            "lambda": is_ld,
        }
        for inst in (path(6), cycle(7), star(5), complete_bipartite(2, 3)):
            g = inst.graph
            for param, pred in preds.items():
                k, witness = minimum_code(g, param)
                assert pred(g, witness) and len(witness) == k
                assert (k, witness) == _brute.brute_minimum(g, param)


class TestFullReport:
    def test_p6(self):
        r = full_report(path(6).graph)
        assert (r.gamma, r.beta, r.eta, r.lambda_) == (2, 1, 2, 3)
        assert (r.n, r.diameter) == (6, 5)

    def test_k4(self):
        r = full_report(complete(4).graph)
        assert (r.gamma, r.beta, r.eta, r.lambda_) == (1, 3, 3, 3)

    def test_petersen_frozen_values(self):
        # frozen after computing with the independent oracle below
        r = full_report(PETERSEN)
        assert (r.gamma, r.beta, r.eta, r.lambda_) == (3, 3, 4, 4)
        assert _brute.brute_parameters(PETERSEN) == {
            "gamma": 3, "beta": 3, "eta": 4, "lambda": 4,
        }

    def test_value_and_witness_accessors(self):
        r = full_report(path(6).graph)
        assert r.value("lambda") == 3
        assert r.witness("gamma") == r.witness_gamma

    def test_determinism(self):
        g = random_connected_graph(random.Random(5), 8)
        a, b = full_report(g), full_report(g)
        assert a == b

    def test_rejects_bad_input(self):
        with pytest.raises(DisconnectedGraphError):
            full_report(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            full_report(Graph(1))
        with pytest.raises(ValueError):
            metric_dimension(Graph(1))

    def test_k1_domination_convention(self):
        assert domination_number(Graph(1)) == (1, (0,))

    @pytest.mark.parametrize("param", ["beta", "eta", "lambda"])
    def test_k1_has_no_location_parameter(self, param):
        # the empty set locates K1, so no least code of size >= 1 is defined
        with pytest.raises(ValueError, match="requires n >= 2"):
            minimum_code(Graph(1), param)
        with pytest.raises(ValueError, match="requires n >= 2"):
            parameter_satisfies(Graph(1), param, "=", 1)
        assert minimum_code(Graph(1), "gamma") == (1, (0,))

    def test_k2(self):
        r = full_report(path(2).graph)
        assert (r.gamma, r.beta, r.eta, r.lambda_) == (1, 1, 1, 1)


class TestSearchCertificates:
    def test_seeded_search_matches_unseeded_oracle(self):
        # spot audit of the optimality certificates on random graphs
        rng = random.Random(0xACCE55)
        for _ in range(50):
            n = rng.randint(2, 9)
            g = random_connected_graph(rng, n)
            r = full_report(g)
            assert {
                "gamma": r.gamma, "beta": r.beta, "eta": r.eta, "lambda": r.lambda_,
            } == _brute.brute_parameters(g)

    def test_bounded_search(self):
        g = star(6).graph  # eta = 5
        assert minimum_code(g, "eta", k_max=4) is None
        assert minimum_code(g, "eta", k_max=5) == mld_number(g)

    def test_parameter_satisfies_matches_exact_values(self):
        # each comparison on a fresh copy, which has no stored minimum to
        # answer it, so every one runs its own bounded search
        for inst in (path(6), cycle(7), star(5)):
            g = inst.graph
            for param in ("gamma", "beta", "eta", "lambda"):
                exact = minimum_code(g, param)[0]
                for value in range(0, g.n + 2):
                    for op, holds in (
                        ("=", exact == value),
                        ("==", exact == value),
                        ("<=", exact <= value),
                        ("<", exact < value),
                        (">=", exact >= value),
                        (">", exact > value),
                        ("!=", exact != value),
                    ):
                        fresh = Graph._from_rows(g._rows)
                        assert parameter_satisfies(fresh, param, op, value) == holds, (
                            inst.name, param, op, value,
                        )

    def test_only_proven_minima_are_stored(self):
        # the slot stays empty until a minimum is found: a census keeps every
        # graph it bounds alive, and most of them fail the bound
        g = Graph._from_rows(star(6).graph._rows)  # eta = 5
        assert minimum_code(g, "eta", k_max=2) is None
        assert g._minima is None

    @pytest.mark.parametrize("graph", [PETERSEN, path(7).graph], ids=["petersen", "P7"])
    def test_a_bounded_eta_query_runs_one_bfs_per_vertex(self, monkeypatch, graph):
        # connectivity is read from the distance matrix, not from a BFS of its own
        calls = []
        bfs_row = graph_mod._bfs_row

        def counted(rows, n, src):
            calls.append(src)
            return bfs_row(rows, n, src)

        monkeypatch.setattr(graph_mod, "_bfs_row", counted)
        g = Graph._from_rows(graph._rows)
        parameter_satisfies(g, "eta", "=", 2)
        assert sorted(calls) == list(range(g.n))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            parameter_satisfies(path(3).graph, "eta", "=<", 2)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            minimum_code(path(3).graph, "alpha")


class TestTreeIdentities:
    def test_eta_formula_and_cited_bound_all_trees_to_12(self):
        for n in range(3, 13):
            for t in tree_classes(n):
                prof = tree_profile(t)
                gamma = minimum_code(t, "gamma")[0]
                eta = minimum_code(t, "eta")[0]
                assert eta == gamma + prof.leaf_count - prof.support_count
                lam = minimum_code(t, "lambda")[0]
                assert lam <= 2 * eta
