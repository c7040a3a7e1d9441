"""The hitting-set solver and predicates against the definitions-level
oracle in ``_brute``: values and lexicographically least witnesses must
match exactly."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from locdom import is_dominating, is_ld, is_locating, is_mld, minimum_code
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


@pytest.mark.parametrize("param", PARAMS)
def test_minimum_code_matches_oracle_for_all_graphs_to_7(param):
    checked = 0
    for g in graphs(2, 7):
        assert minimum_code(g, param) == _brute.brute_minimum(g, param), g
        checked += 1
    assert checked == 995


@pytest.mark.parametrize("param", PARAMS)
def test_bounded_searches_match_oracle_to_6(param):
    for g in graphs(2, 6):
        k = _brute.brute_minimum(g, param)[0]
        for k_min in range(k, g.n + 1):
            assert minimum_code(g, param, k_min=k_min) == _brute.brute_minimum(
                g, param, k_min=k_min
            ), (g, k_min)
        assert minimum_code(g, param, k_max=2) == _brute.brute_minimum(
            g, param, k_max=2
        ), g


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
