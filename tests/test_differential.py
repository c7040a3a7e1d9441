"""The hitting-set solver and predicates against the definitions-level
oracle in ``_brute``: values and lexicographically least witnesses must
match exactly."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from locdom import Graph, is_dominating, is_ld, is_locating, is_mld, minimum_code
from locdom.enumeration import connected_graphs

from conftest import random_connected_graph
import _brute

PARAMS = ("gamma", "beta", "eta", "lambda")

PREDICATES = {
    "gamma": is_dominating,
    "beta": is_locating,
    "eta": is_mld,
    "lambda": is_ld,
}


def graphs(lo, hi):
    for n in range(lo, hi + 1):
        yield from connected_graphs(n)


def fresh(g):
    """A copy of g with no stored minima, so a query on it searches.  The
    enumeration's instances keep the minima that earlier tests stored."""
    return Graph._from_rows(g._rows)


@pytest.mark.parametrize("param", PARAMS)
def test_minimum_code_matches_oracle_for_all_graphs_to_7(param):
    checked = 0
    for g in graphs(2, 7):
        assert minimum_code(fresh(g), param) == _brute.brute_minimum(g, param), g
        checked += 1
    assert checked == 995


@pytest.mark.parametrize("param", PARAMS)
def test_bounded_searches_match_oracle_to_6(param):
    for g in graphs(2, 6):
        for k_max in range(g.n + 1):
            assert minimum_code(fresh(g), param, k_max=k_max) == _brute.brute_minimum(
                g, param, k_max=k_max
            ), (g, k_max)


@pytest.mark.parametrize("param", PARAMS)
def test_queries_match_oracle_whatever_minima_are_stored(param):
    # Each order of storing the other three minima, then every k_max query
    # from the highest down and back up, so the answers after the first one
    # that stores the minimum of param are looked up; and every query once
    # on a copy holding just the other three, where it searches from the
    # lower bound they give.  Every answer found stores the minimum.
    others = [p for p in PARAMS if p != param]
    for g in graphs(2, 6):
        least = _brute.brute_minimum(g, param)
        queries = [None, *range(g.n + 1)]
        expected = {k_max: _brute.brute_minimum(g, param, k_max=k_max) for k_max in queries}
        for order in permutations(others):
            filled = fresh(g)
            for p in order:
                assert minimum_code(filled, p) == _brute.brute_minimum(g, p), (g, order)
            others_only = dict(filled._minima)
            for k_max in queries[::-1] + queries:
                got = minimum_code(filled, param, k_max=k_max)
                assert got == expected[k_max], (g, order, k_max)
                if got is not None:
                    assert filled._minima[param] == least, (g, order, k_max)
        for k_max in queries:
            h = fresh(g)
            h._minima = dict(others_only)
            got = minimum_code(h, param, k_max=k_max)
            assert got == expected[k_max], (g, k_max)
            if got is not None:
                assert h._minima[param] == least, (g, k_max)


@pytest.mark.parametrize("param", PARAMS)
def test_predicates_match_oracle_on_every_subset_to_6(param):
    pred = PREDICATES[param]
    for g in graphs(1, 6):
        accept = _brute.brute_accept(g, param)
        for k in range(g.n + 1):
            for s in combinations(range(g.n), k):
                assert pred(g, s) == accept(s), (g, s)


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_random_graphs_to_12_match_oracle(n, seed):
    g = random_connected_graph(random.Random(seed), n)
    for param in PARAMS:
        assert minimum_code(g, param) == _brute.brute_minimum(g, param), (g, param)
