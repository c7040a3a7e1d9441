"""The keys of connected children: the earlier-parent rule and the invariant.

A child G of parent i is dropped, without a key, when some G - v (v not the
new vertex) is connected and isomorphic to a parent before i.  Every other
child is keyed by an invariant (``enumeration._key``): a key not met before
is a new class, and canonical forms settle a key that two children share.
Neither step may change the representatives, their order or their
canonical data: they must be those of the enumeration keyed by the
canonical form alone, serially and across forked workers, also when every
key is forced to collide.
"""

import hashlib
from collections import Counter

import pytest

from locdom import canonical, enumeration
from locdom.canonical import _canonical_data, automorphism_generators, canonical_form
from locdom.enumeration import _children, _connected_classes, _extension_masks, tree_classes

# the sha256 of repr((rows, canonical data)) over the connected classes of
# orders 1..8 in generation order, as the enumeration gave them before the
# rule existed
CLASSES_TO_8_SHA256 = "d8b84b6b93518c568309bb3c1e030138cb575a5d2e58fbe7a965b1a38162e3a5"

# the sha256 of repr of the rows of the tree classes of orders 1..14 in
# generation order, as the enumeration gave them while it held every level
# as graphs; tree levels fork from order 13 on two CPUs
TREES_TO_14_SHA256 = "7077effb4e832f810b1e66b20c4dfd4866d85ff873925db632acf4bfebaaae4f"

# canonical searches per order, the parents' generator searches not
# counted.  A key met once needs none, and to n = 7 every child the rule
# keeps is a new class with a new key.  At n = 8 the searches settle the
# keys children share: the six duplicates that no vertex deletion gives an
# earlier parent, and classes the invariant does not tell apart.  Without
# the rule every duplicate would meet its class's key and be searched
SEARCHES = {2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 228}

# children built per order (``tests/test_layers.py``)
CHILDREN = {2: 1, 3: 2, 4: 8, 5: 44, 6: 333, 7: 3771}


def _data(graphs):
    return [(g._rows, _canonical_data(g)) for g in graphs]


def _connected_masks(parent):
    return _extension_masks(parent, range(1, 1 << parent.n))


def _level(monkeypatch, n, cpus):
    """Level n built afresh from the cached level n - 1, on ``cpus`` workers
    forced on every level with more than one parent."""
    with monkeypatch.context() as m:
        if cpus > 1:
            m.setattr(enumeration, "_ITEMS_PER_WORKER", 1)
        m.setattr(enumeration, "_cpus", lambda: cpus)
        return _connected_classes.__wrapped__(n)


def _searched_alone(n):
    return _children(_connected_classes(n - 1), _connected_masks, canonical_form)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_rule_keeps_the_classes_of_the_search_alone(monkeypatch, cpus):
    for n in range(2, 8):
        alone = _data(_searched_alone(n))
        assert _data(_level(monkeypatch, n, cpus)) == alone, n
        assert _data(_connected_classes(n)) == alone, n


def _edges(profile, rows, alive):
    return sum((r & alive).bit_count() for r in rows) // 2


@pytest.mark.parametrize(
    "key, rule",
    [(lambda profile, rows, alive: 0, True), (_edges, False)],
    ids=["one-key", "edge-count-no-rule"],
)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_keys_forced_to_collide_keep_the_classes(monkeypatch, cpus, key, rule):
    # coarse keys: each child the rule keeps is settled by its canonical
    # form in the one merge.  One key for every graph makes every class
    # meet every other; with the edge count and no rule, every duplicate
    # meets the first child of its key
    expected = {n: _data(_connected_classes(n)) for n in CHILDREN}
    extend = enumeration._extend
    built = []

    def counted(parent, mask):
        built.append(mask)
        return extend(parent, mask)

    def settled(n):
        # the children a worker sends, those the rule does not drop, that
        # share their key with another: each is built in the merge, and
        # their key's holder, the first of them, is rebuilt once
        parents = enumeration._parents(n - 1, False)
        keys = enumeration._connected_keys(parents)
        sent = Counter(
            keys(i, p)(extend(p, m))
            for i, p in enumerate(parents)
            for m in _connected_masks(p)
        )
        return sum(count for k, count in sent.items() if k is not None and count > 1)

    monkeypatch.setattr(enumeration, "_key", key)
    if not rule:  # no G - v counts as connected, so the rule drops nothing
        monkeypatch.setattr(enumeration, "_components", lambda rows, alive: [0])
    merged = {n: settled(n) for n in CHILDREN}
    monkeypatch.setattr(enumeration, "_extend", counted)
    for n in CHILDREN:
        built.clear()
        level = _level(monkeypatch, n, cpus)
        # forked, this process builds only what the merge settles; serial,
        # it also builds every child to key it
        forked = min(cpus, len(_connected_classes(n - 1))) > 1
        assert len(built) == merged[n] + (0 if forked else CHILDREN[n]), n
        assert _data(level) == expected[n], n


def _searches(monkeypatch, cpus):
    """Canonical searches per order in this process, building each level
    afresh on ``cpus`` workers."""
    search = canonical._search
    calls = []

    def counted(g):
        calls.append(g.n)
        return search(g)

    for n in SEARCHES:
        for parent in enumeration._parents(n - 1, False):
            automorphism_generators(parent)  # searched once, outside the count
    monkeypatch.setattr(canonical, "_search", counted)
    for n in SEARCHES:
        _level(monkeypatch, n, cpus)
    return {n: calls.count(n) for n in SEARCHES}


def test_searches_per_order(monkeypatch):
    assert _searches(monkeypatch, 1) == SEARCHES


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_workers_only_key(monkeypatch, cpus):
    # the merge in this process runs every search the serial level runs
    assert _searches(monkeypatch, cpus) == SEARCHES


def test_classes_to_8_are_those_recorded():
    graphs = [g for n in range(1, 9) for g in _connected_classes(n)]
    data = repr(([g._rows for g in graphs], [_canonical_data(g) for g in graphs]))
    assert hashlib.sha256(data.encode()).hexdigest() == CLASSES_TO_8_SHA256


def test_trees_to_14_are_those_recorded():
    rows = [t._rows for n in range(1, 15) for t in tree_classes(n)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TREES_TO_14_SHA256
