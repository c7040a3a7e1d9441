"""The hitting-set search with its counting floor and packing cut against
the reference search in ``_brute``, which has neither: on the same family
both must return the same (k, witness)."""

import pytest

from locdom import Graph, minimum_code
from locdom.enumeration import connected_graphs, tree_classes
from locdom.families import cycle, g_eta_construction, path, spider, strong_grid
from locdom.predicates import _hitting_family
from locdom.solvers import _counting_floor, _least_hitting_set

import _brute

PARAMS = ("gamma", "beta", "eta", "lambda")

INSTANCES = {
    "P21": lambda: path(21).graph,
    "C30": lambda: cycle(30).graph,
    "king5x5": lambda: strong_grid([5, 5]),
    "spider44441": lambda: spider([4, 4, 4, 4, 1]),
    "g_eta3": lambda: g_eta_construction(3).graph,
}


def fresh(g):
    """A copy of g with no stored minima, so a query on it searches."""
    return Graph._from_rows(g._rows)


def reference(g, param):
    return _brute.reference_minimum(_hitting_family(g, param), g.n)


def test_every_k_matches_reference_search_to_6():
    for n in range(2, 7):
        for g in connected_graphs(n):
            for param in PARAMS:
                sets = _hitting_family(g, param)
                for k in range(1, n + 1):
                    assert _least_hitting_set(sets, n, k) == (
                        _brute.reference_least_hitting_set(sets, n, k)
                    ), (g, param, k)


@pytest.mark.parametrize("param", ("eta", "lambda"))
def test_trees_to_12_match_reference_search(param):
    checked = 0
    for n in range(2, 13):
        for g in tree_classes(n):
            assert minimum_code(fresh(g), param) == reference(g, param), g
            checked += 1
    assert checked == 986


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("param", PARAMS)
def test_structured_instances_match_reference_search(name, param):
    g = INSTANCES[name]()
    assert minimum_code(fresh(g), param) == reference(g, param)


def test_counting_floor_is_a_lower_bound_to_6():
    for n in range(1, 7):
        for g in connected_graphs(n):
            for param in PARAMS:
                least = _brute.brute_minimum(g, param)[0]
                assert _counting_floor(g, param) <= least, (g, param)


def test_bounded_query_below_the_floor_builds_no_family(monkeypatch):
    # n = 8 with diameter 3: eta >= 3, since n - 2 = 6 > 3^2 - 2^2 = 5
    g = path(4).graph
    g = Graph(8, g.edges() + [(1, v) for v in range(4, 8)])
    assert g.diameter() == 3 and _counting_floor(g, "eta") == 3

    def no_family(*args):
        raise AssertionError("the family was built")

    monkeypatch.setattr("locdom.solvers._hitting_family", no_family)
    assert minimum_code(g, "eta", k_max=2) is None
