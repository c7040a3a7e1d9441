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
from conftest import built_keys

from locdom import canonical, enumeration
from locdom.canonical import _canonical_data, automorphism_generators, canonical_form
from locdom.enumeration import (
    _children, _connected_classes, _extend, _extension_masks, tree_classes,
)

import _brute

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

# the orders whose levels the tests below build afresh
ORDERS = range(2, 8)


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
    return _children(
        _connected_classes(n - 1), _connected_masks, built_keys(canonical_form), complete=True
    )


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_rule_keeps_the_classes_of_the_search_alone(monkeypatch, cpus):
    for n in range(2, 8):
        alone = _data(_searched_alone(n))
        assert _data(_level(monkeypatch, n, cpus)) == alone, n
        assert _data(_connected_classes(n)) == alone, n


def _edges(profile, sums):
    # half the degree sum of the profile's histogram, 4 bits per degree
    return sum(d * (profile >> 4 * d & 15) for d in range(9)) // 2


@pytest.mark.parametrize(
    "key, rule",
    [(lambda profile, sums: 0, True), (_edges, False)],
    ids=["one-key", "edge-count-no-rule"],
)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_keys_forced_to_collide_keep_the_classes(monkeypatch, cpus, key, rule):
    # coarse keys: each child the rule keeps is settled by its canonical
    # form in the one merge.  One key for every graph makes every class
    # meet every other; with the edge count and no rule, every duplicate
    # meets the first child of its key
    expected = {n: _data(_connected_classes(n)) for n in ORDERS}
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
            keys(i, p)(m) for i, p in enumerate(parents) for m in _connected_masks(p)
        )
        return sum(count for k, count in sent.items() if k is not None and count > 1)

    monkeypatch.setattr(enumeration, "_key", key)
    if not rule:  # no G - v counts as connected, so the rule drops nothing
        monkeypatch.setattr(enumeration, "_components", lambda rows, alive: [0])
    merged = {n: settled(n) for n in ORDERS}
    monkeypatch.setattr(enumeration, "_extend", counted)
    for n in ORDERS:
        built.clear()
        level = _level(monkeypatch, n, cpus)
        # children are keyed from the parent's tables, serial or forked:
        # this process builds only what the merge settles
        assert len(built) == merged[n], n
        assert _data(level) == expected[n], n


def _split_by_parity(masks):
    # a mask and the mask with bit v flipped share mask & alive_v, the
    # memo's key for v, and differ in parity
    return [[m for m in masks if m.bit_count() % 2 == parity] for parity in (0, 1)]


def test_table_keys_are_those_walked_on_the_built_graphs(monkeypatch):
    # every child to n = 8 keyed with the rule off, and every G - v the rule
    # keys with it on: each key read from the parent's tables is the hash
    # of the profile and refinement walked on the built graph
    key, calls = enumeration._key, []

    def recorded(profile, sums):
        calls.append(key(profile, sums))
        return calls[-1]

    monkeypatch.setattr(enumeration, "_key", recorded)
    deletions = 0
    for n in range(2, 9):
        parents = enumeration._parents(n - 1, False)
        with monkeypatch.context() as m:
            m.setattr(enumeration, "_components", lambda rows, alive: [0])
            keys = enumeration._connected_keys(parents)
            for i, p in enumerate(parents):
                child_key = keys(i, p)
                for mask in _connected_masks(p):
                    assert child_key(mask) == _brute.reference_key(_extend(p, mask)), (n, i, mask)
        keys = enumeration._connected_keys(parents)
        for i, p in enumerate(parents):
            child_key = keys(i, p)
            for mask in _connected_masks(p):
                calls.clear()
                if child_key(mask) is not None:
                    calls.pop()  # the child's own key, checked above
                deletions += len(calls)
                unmatched = set(calls)
                child = _extend(p, mask) if calls else None
                for v in range(n - 1):
                    if not unmatched:
                        break
                    unmatched.discard(_brute.reference_key(child, v))
                assert not unmatched, (n, i, mask)
    assert deletions > 0


def test_the_memo_of_g_less_v_changes_no_drop(monkeypatch):
    # one function per parent memoises each G - v verdict per (v, M & alive_v);
    # keyed in two functions, one per parity of the mask, no verdict is ever
    # read back, and every drop is the same
    key, calls = enumeration._key, [0]

    def counted(profile, sums):
        calls[0] += 1
        return key(profile, sums)

    monkeypatch.setattr(enumeration, "_key", counted)
    memoised = fresh = 0
    for n in range(2, 9):
        parents = enumeration._parents(n - 1, False)
        keys = enumeration._connected_keys(parents)
        for i, p in enumerate(parents):
            masks = _connected_masks(p)
            calls[0] = 0
            child_key = keys(i, p)
            shared = {m: child_key(m) is None for m in masks}
            memoised += calls[0]
            calls[0] = 0
            split = {}
            for part in _split_by_parity(masks):
                child_key = keys(i, p)
                split.update((m, child_key(m) is None) for m in part)
            fresh += calls[0]
            assert shared == split, (n, i)
    assert memoised < fresh  # the memo saved some keys


# children of order 9, each as its parent's index and its mask, that some
# G - v would drop if it were connected: the new vertex misses a part of
# the parent less v, and the profile of that disconnected G - v is carried
# only by parents before theirs.  Each is the first child of its class; no
# child to n = 8 depends on the test of connectivity
KEPT_FOR_A_DISCONNECTED_G_LESS_V = [
    (4097, 88), (4097, 89), (4098, 88), (4098, 89), (4141, 89), (4142, 88), (4142, 89),
    (4282, 44), (4283, 44), (4310, 44), (4310, 46), (4312, 44), (4312, 46), (4900, 88),
    (4900, 89), (4946, 89), (4947, 88), (4947, 89), (4989, 105), (6074, 128), (6074, 144),
    (6133, 64), (6133, 80), (7397, 64), (7397, 80), (8796, 89), (10236, 51), (10236, 52),
    (10237, 51), (10237, 52), (10263, 52), (10274, 32), (10274, 36), (10274, 208),
    (10279, 52), (10296, 88),
]


def test_a_disconnected_g_less_v_drops_no_child():
    parents = enumeration._parents(8, False)
    keys = enumeration._connected_keys(parents)
    for i, mask in KEPT_FOR_A_DISCONNECTED_G_LESS_V:
        assert keys(i, parents[i])(mask) is not None, (i, mask)


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
