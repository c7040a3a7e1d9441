"""The exact tree programme (``solvers._tree_minima``, rooted at a centre
of the tree's peel) for eta and lambda against searches that never use
it: the lexicographic hitting-set search from the counting floor alone,
and the definitions-level oracle in ``_brute``.  ``minimum_code`` starts
its search at the programme's value on a tree, so its witnesses must stay
those of the search without it."""

import random

import pytest

from locdom import Graph, minimum_code
from locdom.enumeration import tree_classes
from locdom.families import cycle, path, spider
from locdom.graph import relabeled
from locdom.predicates import _hitting_family
from locdom.solvers import _counting_floor, _least_hitting_set, _tree_minima
from locdom.theorems import check_tree_bounds

import _brute

PARAMS = ("eta", "lambda")

# tree classes of orders 3..13
TREES_TO_13 = 2286


def fresh(g):
    """A copy of g with no stored minima or distances."""
    return Graph._from_rows(g._rows)


def searched(g, param):
    """(k, witness) of the search from the counting floor, with no tree value."""
    sets = _hitting_family(g, param)
    k = _counting_floor(g, param)
    while (code := _least_hitting_set(sets, g.n, k)) is None:
        k += 1
    return k, code


@pytest.mark.parametrize("param", PARAMS)
def test_value_and_witness_match_the_search_on_every_tree_to_13(param):
    checked = 0
    for n in range(3, 14):
        for t in tree_classes(n):
            k, code = searched(fresh(t), param)
            assert _tree_minima(t)[PARAMS.index(param)] == k, (t, param)
            assert minimum_code(fresh(t), param) == (k, code), (t, param)
            checked += 1
    assert checked == TREES_TO_13


@pytest.mark.parametrize("param", PARAMS)
def test_value_matches_the_oracle_on_every_tree_to_10(param):
    for n in range(3, 11):
        for t in tree_classes(n):
            value = _tree_minima(t)[PARAMS.index(param)]
            assert value == _brute.brute_minimum(t, param)[0], (t, param)


@pytest.mark.parametrize(
    "graph, values",
    [(path(21).graph, (7, 9)), (spider([4, 4, 4, 4, 1]), (5, 9))],
    ids=["P21", "spider44441"],
)
def test_large_trees_keep_their_witnesses(graph, values):
    rng = random.Random(21)
    copies = [graph]
    for _ in range(3):
        perm = list(range(graph.n))
        rng.shuffle(perm)
        copies.append(relabeled(graph, perm))
    for g in copies:
        assert _tree_minima(g) == values
        for param in PARAMS:
            assert minimum_code(fresh(g), param) == searched(fresh(g), param), (g, param)


def random_relabelled_tree(rng, n):
    """A tree in which vertex v joins a random earlier vertex, with its
    labels then shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    return relabeled(Graph(n, [(rng.randrange(v), v) for v in range(1, n)]), perm)


def test_relabelled_trees_match_the_reference_search():
    # the witness depends on the labels; the sweeps above see only the
    # generator's own labelling
    rng = random.Random(33)
    for _ in range(100):
        t = random_relabelled_tree(rng, rng.randint(3, 14))
        assert t.is_tree()
        for param in PARAMS:
            expected = _brute.reference_minimum(_hitting_family(fresh(t), param), t.n)
            assert _tree_minima(t)[PARAMS.index(param)] == expected[0], (t, param)
            assert minimum_code(fresh(t), param) == expected, (t, param)


def test_orders_below_three_search_as_before():
    p2 = path(2).graph
    for param in PARAMS:
        assert minimum_code(fresh(p2), param) == (1, (0,))
        with pytest.raises(ValueError, match="requires n >= 2"):
            minimum_code(Graph(1), param)
    with pytest.raises(ValueError, match="order >= 3"):
        _tree_minima(p2)
    assert check_tree_bounds(p2).status == "skipped"


@pytest.mark.parametrize("param", PARAMS)
def test_refuses_a_graph_that_is_not_a_tree(param):
    c5 = cycle(5).graph
    with pytest.raises(ValueError, match="of a tree"):
        _tree_minima(c5)
    # minimum_code searches such a graph instead
    assert minimum_code(fresh(c5), param) == _brute.brute_minimum(c5, param)

