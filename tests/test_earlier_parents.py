"""The rule that drops a connected child generated from an earlier parent.

A child G of parent i is dropped, without a canonical search, when some
G - v (v not the new vertex) is connected and isomorphic to a parent
before i.  It only ever drops a child that is not the first of its class,
so the representatives, their order and their canonical data are those of
the enumeration without the rule.  The rule is turned off here by
replacing its factory, as nothing else may turn it off.
"""

import hashlib

import pytest

from locdom import canonical, enumeration
from locdom.canonical import _canonical_data, automorphism_generators
from locdom.enumeration import _connected_classes

# the sha256 of repr((rows, canonical data)) over the connected classes of
# orders 1..8 in generation order, as the enumeration gave them before the
# rule existed
CLASSES_TO_8_SHA256 = "d8b84b6b93518c568309bb3c1e030138cb575a5d2e58fbe7a965b1a38162e3a5"

# canonical searches per order with the rule: one per class to n = 7 (a
# class whose first child is the only one searched), and at n = 8 six
# duplicates that no vertex deletion gives an earlier parent.  Without the
# rule every child is searched (``tests/test_layers.py``)
SEARCHES = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11123}


def _data(graphs):
    return [(g._rows, g._canon) for g in graphs]


def _level(monkeypatch, n, cpus, rule=True):
    """Level n built afresh from the cached level n - 1, on ``cpus`` workers
    forced on every level with more than one parent."""
    with monkeypatch.context() as m:
        if cpus > 1:
            m.setattr(enumeration, "_PARENTS_PER_WORKER", 1)
        m.setattr(enumeration, "_cpus", lambda: cpus)
        if not rule:
            m.setattr(enumeration, "_earlier_parents", lambda parents: None)
        return _data(_connected_classes.__wrapped__(n))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_rule_keeps_the_classes_of_the_search_alone(monkeypatch, cpus):
    for n in range(2, 8):
        without = _level(monkeypatch, n, 1, rule=False)
        assert _level(monkeypatch, n, cpus) == without, n
        assert without == _data(_connected_classes(n)), n


def test_searches_per_order(monkeypatch):
    search = canonical._search
    calls = []

    def counted(g):
        calls.append(g.n)
        return search(g)

    for n in SEARCHES:
        for parent in _connected_classes(n - 1):
            automorphism_generators(parent)  # searched once, outside the count
    monkeypatch.setattr(canonical, "_search", counted)
    for n in SEARCHES:
        _level(monkeypatch, n, 1)
    assert {n: calls.count(n) for n in SEARCHES} == SEARCHES


def test_classes_to_8_are_those_recorded():
    graphs = [g for n in range(1, 9) for g in _connected_classes(n)]
    data = repr(([g._rows for g in graphs], [_canonical_data(g) for g in graphs]))
    assert hashlib.sha256(data.encode()).hexdigest() == CLASSES_TO_8_SHA256

