import pytest

from locdom import theorems
from locdom import (
    Verdict,
    check_eta2_membership,
    check_eta_bounds,
    check_eta_equals_lambda_conditions,
    check_inequality_chain,
    check_lambda_bounds,
    check_lambda_extremal,
    check_tree_bounds,
    connected_graphs,
    isometric_embedding_check,
    king_grid_subgraph_check,
    metric_coordinate_map,
    minimum_code,
    run_theorem,
    sweep,
    verify_realization,
    verify_tree_realization,
)
from locdom.families import (
    complete,
    complete_bipartite,
    cycle,
    g_eta_construction,
    path,
    spider,
    spider_k3,
    spider_k4,
    strong_grid,
)
from locdom.predicates import is_ld, is_mld

# the one tree in 3 <= n <= 12 that breaks lambda <= 2*eta - 2:
# two legs of 4 edges plus a pendant leaf on the centre
SPIDER_441 = spider([4, 4, 1])


class TestVerdictType:
    def test_fails_requires_counterexamples(self):
        with pytest.raises(ValueError):
            Verdict("t", "s", "fails")
        with pytest.raises(ValueError):
            Verdict("t", "s", "holds", counterexamples=(("g6", "detail"),))

    def test_ok_property(self):
        assert Verdict("t", "s", "holds").ok
        assert Verdict("t", "s", "skipped", reason="r").ok
        assert not Verdict("t", "s", "fails", counterexamples=(("g", "d"),)).ok


class TestInequalityChain:
    def test_p6_and_k4(self):
        assert check_inequality_chain(path(6).graph).status == "holds"
        v = check_inequality_chain(complete(4).graph)
        assert v.status == "holds" and "eta=3" in v.reason


class TestEtaBounds:
    def test_p7_lower_tight(self):
        v = check_eta_bounds(path(7).graph)
        assert v.status == "holds" and "lower bound tight" in v.reason

    def test_g_eta_2_upper_tight(self):
        v = check_eta_bounds(g_eta_construction(2).graph)
        assert v.status == "holds" and "upper bound tight" in v.reason

    def test_small_diameter_skipped(self):
        v = check_eta_bounds(complete(4).graph)
        assert v.status == "skipped" and "diameter" in v.reason


class TestLambdaBounds:
    def test_p5_tight(self):
        v = check_lambda_bounds(path(5).graph)
        assert v.status == "holds"
        assert any("lower bound tight" in p.reason for p in v.parts)

    def test_p6_upper(self):
        v = check_lambda_bounds(path(6).graph)
        assert v.status == "holds"

    def test_low_diameter_checks_upper_only(self):
        v = check_lambda_bounds(complete(4).graph)
        assert v.status == "holds"
        statuses = {p.theorem: p.status for p in v.parts}
        assert statuses["lambda-bounds/lower"] == "skipped"
        assert statuses["lambda-bounds/upper"] == "holds"


class TestTreeBounds:
    def test_spider_attainment(self):
        low = check_tree_bounds(spider_k3(3).graph)
        assert low.status == "holds" and "lower bound attained" in low.reason
        high = check_tree_bounds(spider_k4(3).graph)
        assert high.status == "holds" and "upper bound attained" in high.reason

    def test_p6_is_skipped_with_the_exception_recorded(self):
        v = check_tree_bounds(path(6).graph)
        assert v.status == "skipped"
        assert "violates upper bound" in v.reason

    def test_non_tree_raises(self):
        with pytest.raises(ValueError):
            check_tree_bounds(cycle(5).graph)

    def test_spider_441_counterexample_is_detected_and_sound(self):
        v = check_tree_bounds(SPIDER_441)
        assert v.status == "fails"
        # a failure cites the graph with the detail and leaves the reason empty
        assert (v.scope, v.reason) == ("graph IhE?GC@_? (n=10)", "")
        assert v.counterexamples == (("IhE?GC@_?", "eta=3 lambda=5"),)
        # soundness: reproduce the failure with the plain predicates only
        g = SPIDER_441
        from itertools import combinations

        assert any(is_mld(g, s) for s in combinations(range(g.n), 3))
        assert not any(is_ld(g, s) for s in combinations(range(g.n), 4))
        assert any(is_ld(g, s) for s in combinations(range(g.n), 5))

    def test_all_trees_up_to_9_hold(self):
        assert run_theorem("tree-bounds", n_max=9).status == "holds"

    def test_sweep_to_10_reports_the_counterexample(self):
        v = run_theorem("tree-bounds", n_max=10)
        assert v.status == "fails"
        assert [c[0] for c in v.counterexamples] == ["IsO_OGA?O"]


class TestEtaEqualsLambda:
    def test_diameter_two(self):
        v = check_eta_equals_lambda_conditions(cycle(5).graph)
        assert v.status == "holds"

    def test_large_beta(self):
        assert check_eta_equals_lambda_conditions(complete(4).graph).status == "holds"

    def test_p6_hypothesis_unmet_and_values_differ(self):
        v = check_eta_equals_lambda_conditions(path(6).graph)
        assert v.status == "skipped"
        g = path(6).graph
        assert minimum_code(g, "eta")[0] != minimum_code(g, "lambda")[0]


class TestEta2Membership:
    def test_p6_holds(self):
        v = check_eta2_membership(path(6).graph)
        assert v.status == "holds"
        assert "1 king-grid embeddings" in v.reason

    def test_p4_holds(self):
        assert check_eta2_membership(path(4).graph).status == "holds"

    def test_non_eta2_graphs_are_skipped(self):
        assert check_eta2_membership(complete(4).graph).status == "skipped"
        assert check_eta2_membership(path(2).graph).status == "skipped"


class TestEmbeddingChecks:
    def test_identity_map(self):
        g = cycle(6).graph
        assert isometric_embedding_check(g, g, list(range(g.n)))

    def test_path_along_a_row(self):
        king = strong_grid([5, 5])
        assert isometric_embedding_check(path(3).graph, king, [0, 1, 2])
        assert king_grid_subgraph_check(path(3).graph, [0, 1, 2])

    def test_shrinking_map_fails(self):
        king = strong_grid([5, 5])
        # vertex 3 lands a king move away from vertex 0's image
        assert not isometric_embedding_check(path(4).graph, king, [0, 1, 2, 5])

    def test_p6_coordinate_map_is_a_drawing_but_not_metric(self):
        g = path(6).graph
        king = strong_grid([5, 5])
        mapping = metric_coordinate_map(g, (1, 4))
        assert mapping is not None
        assert king_grid_subgraph_check(g, mapping)
        assert not isometric_embedding_check(g, king, mapping)

    def test_p5_diametral_code_map_preserves_the_metric(self):
        g = path(5).graph
        king = strong_grid([5, 5])
        mapping = metric_coordinate_map(g, (0, 3))
        assert mapping is not None
        assert isometric_embedding_check(g, king, mapping)

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            isometric_embedding_check(path(3).graph, strong_grid([5, 5]), [0, 0, 1])
        with pytest.raises(ValueError):
            king_grid_subgraph_check(path(3).graph, [0, 0, 1])

    def test_map_requires_two_element_code(self):
        with pytest.raises(ValueError):
            metric_coordinate_map(path(4).graph, (0,))


class TestLambdaExtremal:
    def test_k23_all_parts(self):
        v = check_lambda_extremal(complete_bipartite(2, 3).graph)
        assert v.status == "holds"
        statuses = {p.theorem.split("/")[-1]: p.status for p in v.parts}
        assert statuses["diameter"] == "holds"
        assert statuses["equivalence"] == "holds"
        assert statuses["family-membership"] == "holds"

    def test_p6_one_directional_remark(self):
        # lambda(P6) = 3 = n - 3 while eta = 2 = n - 4: the n-3 implication
        # only runs from eta to lambda, so nothing fails here
        v = check_lambda_extremal(path(6).graph)
        assert v.status == "holds"
        statuses = {p.theorem.split("/")[-1]: p.status for p in v.parts}
        assert statuses["diameter"] == "skipped"
        assert statuses["eta-n3"] == "skipped"

    def test_small_order_skipped(self):
        assert check_lambda_extremal(path(2).graph).status == "skipped"


class TestRealizationVerdicts:
    def test_simple_triple(self):
        v = verify_realization(1, 1, 2)
        assert v.status == "holds" and "n=3" in v.reason

    def test_excluded_case_correctly_rejected(self):
        v = verify_realization(2, 1, 3)
        assert v.status == "holds" and "rejected" in v.reason

    def test_out_of_scope_is_skipped(self):
        assert verify_realization(2, 2, 5).status == "skipped"
        assert verify_tree_realization(3, 5).status == "skipped"

    def test_tree_pair(self):
        assert verify_tree_realization(3, 4).status == "holds"


class TestRunners:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_theorem("no-such-theorem")

    def test_prop1_small(self):
        v = run_theorem("prop1", n_max=4)
        assert v.status == "holds" and "checked=9" in v.reason

    def test_supplied_graph_stream(self):
        graphs = [path(6).graph, complete(4).graph]
        v = run_theorem("prop1", graphs=graphs)
        assert v.status == "holds" and "checked=2" in v.reason

    def test_sweep_helper(self):
        v = sweep(check_inequality_chain, connected_graphs(4), "chain", "n=4")
        assert v.status == "holds" and "checked=6" in v.reason

    def test_realization_and_tree_realization(self):
        assert run_theorem("realization").status == "holds"
        assert run_theorem("tree-realization").status == "holds"

    @pytest.mark.parametrize(
        "theorem, n_max, lowest",
        [
            ("prop1", 1, 2),
            ("eta-bounds", 0, 2),
            ("lambda-bounds", -1, 2),
            ("tree-bounds", 2, 3),
            ("eta-lambda-conditions", 1, 2),
            ("eta2-membership", 1, 2),
            ("lambda-extremal", 2, 3),
            ("realization", 0, 1),
            ("tree-realization", 2, 3),
        ],
    )
    def test_empty_order_range_is_an_error(self, theorem, n_max, lowest):
        with pytest.raises(ValueError, match=f"{theorem}: .*lowest order {lowest}"):
            run_theorem(theorem, n_max=n_max)
        # the lowest order itself leaves a graph (or pair) to look at
        assert "checked=0 skipped=0" not in run_theorem(theorem, n_max=lowest).reason

    @pytest.mark.parametrize(
        "theorem, n_max, supported",
        [
            ("prop1", 10, "2..9"),
            ("eta-bounds", 10, "2..9"),
            ("lambda-bounds", 12, "2..9"),
            ("eta-lambda-conditions", 10, "2..9"),
            ("lambda-extremal", 10, "3..9"),
            ("tree-bounds", 19, "3..18"),
        ],
    )
    def test_order_beyond_the_enumerators_fails_before_any_graph(
        self, monkeypatch, theorem, n_max, supported
    ):
        # a lazy sweep would reach the enumerator's own limit only after
        # sweeping every lower order
        def never(n):
            raise AssertionError(f"enumerated order {n}")

        monkeypatch.setattr(theorems, "connected_graphs", never)
        monkeypatch.setattr(theorems, "tree_classes", never)
        message = f"{theorem}: n_max = {n_max} is beyond the supported orders {supported}$"
        with pytest.raises(ValueError, match=message):
            run_theorem(theorem, n_max=n_max)

    def test_cap_does_not_apply_to_a_supplied_stream(self):
        v = run_theorem("prop1", n_max=-1, graphs=[path(3).graph])
        assert v.status == "holds" and "checked=1" in v.reason

    def test_eta2_membership_small(self):
        v = run_theorem("eta2-membership", n_max=5)
        assert v.status == "holds" and "checked=16" in v.reason
