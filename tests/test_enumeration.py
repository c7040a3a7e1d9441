import io
import os
import random
from functools import lru_cache
from itertools import combinations

import pytest
from conftest import built_keys
from hypothesis import given, strategies as st

from locdom import (
    Graph,
    Graph6Error,
    are_isomorphic,
    canonical_form,
    census,
    connected_graph_count,
    connected_graphs,
    read_graph6,
    read_graph6_stream,
    relabeled,
    tree_classes,
    write_graph6,
)
from locdom import enumeration
from locdom.canonical import _tree_keys
from locdom.enumeration import _extend, _extension_masks
from locdom.families import path

import _brute

KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# OEIS A000055
KNOWN_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551,
    13: 1301, 14: 3159,
}


def _leaf_masks(t):
    # the leaf positions that the tree level keys: those not keyed None
    key = _tree_keys(0, t)
    return [1 << v for v in range(t.n) if key(1 << v) is not None]


def _centres(g):
    ecc = [max(row) for row in _brute.all_distances(g)]
    return {v for v in range(g.n) if ecc[v] == min(ecc)}


TREE_KEY_CASES = [
    "parent-of-order-1", "parent-of-order-2", "centres-kept", "one-centre-becomes-two",
    "two-centres-become-one",
]


@lru_cache(maxsize=None)
def _children_by_case():
    """(key, built child) of every child of every parent tree to order 12,
    by how the child's centres, found by eccentricity, follow the parent's."""
    out = {case: [] for case in TREE_KEY_CASES}
    for n in range(1, 13):
        for t in tree_classes(n):
            key, before = _tree_keys(0, t), _centres(t)
            for mask in _leaf_masks(t):
                child = _extend(t, mask)
                after = _centres(child)
                if n <= 2:
                    case = f"parent-of-order-{n}"
                elif after == before:
                    case = "centres-kept"
                elif len(before) == 1:
                    assert after > before, write_graph6(child)
                    case = "one-centre-becomes-two"
                else:
                    assert after < before, write_graph6(child)
                    case = "two-centres-become-one"
                out[case].append((key(mask), child))
    return out


class TestConnectedEnumeration:
    def test_known_class_counts(self):
        for n, count in KNOWN_CONNECTED_COUNTS.items():
            assert connected_graph_count(n) == count

    def test_single_vertex(self):
        assert list(connected_graphs(1)) == [Graph(1)]

    def test_all_members_connected_and_distinct(self):
        for n in range(1, 7):
            members = list(connected_graphs(n))
            assert all(g.n == n and g.is_connected() for g in members)
            forms = {canonical_form(g) for g in members}
            assert len(forms) == len(members)

    def test_matches_labeled_oracle_to_4(self):
        for n in range(1, 5):
            oracle = _brute.labeled_connected_classes(n)
            mine = list(connected_graphs(n))
            assert len(oracle) == len(mine)
            mine_forms = {canonical_form(g) for g in mine}
            assert {canonical_form(g) for g in oracle} == mine_forms

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            list(connected_graphs(0))
        with pytest.raises(ValueError):
            list(connected_graphs(10))

    def test_generation_is_deterministic(self):
        first = [write_graph6(g) for g in connected_graphs(5)]
        second = [write_graph6(g) for g in connected_graphs(5)]
        assert first == second

    def test_class_set_is_independent_of_augmentation_order(self):
        # re-run the augmentation for order 6 with shuffled parents and
        # shuffled neighbourhood masks; the class set must not change
        import random

        from locdom.enumeration import _extend

        rng = random.Random(99)
        parents = list(connected_graphs(5))
        rng.shuffle(parents)
        seen = set()
        for parent in parents:
            masks = list(range(1, 1 << parent.n))
            rng.shuffle(masks)
            for mask in masks:
                seen.add(canonical_form(_extend(parent, mask)))
        assert seen == {canonical_form(g) for g in connected_graphs(6)}


class TestTrees:
    def test_known_tree_counts(self):
        for n, count in KNOWN_TREE_COUNTS.items():
            assert len(tree_classes(n)) == count

    def test_all_are_trees(self):
        for n in range(1, 10):
            assert all(t.is_tree() for t in tree_classes(n))

    def test_prufer_oracle(self):
        for n in range(3, 7):
            assert _brute.prufer_tree_class_count(n) == len(tree_classes(n))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            tree_classes(0)
        with pytest.raises(ValueError):
            tree_classes(19)

    def test_representatives_match_the_general_search_to_13(self):
        # the tree key keeps the same first child of each class, in order
        for n in range(1, 14):
            mine = [t._rows for t in tree_classes(n)]
            assert mine == [t._rows for t in _brute.reference_tree_classes(n)], n

    def test_leaf_masks_are_the_automorphism_orbit_representatives_to_11(self):
        for n in range(1, 12):
            singles = [1 << v for v in range(n)]
            for t in tree_classes(n):
                fresh = Graph._from_rows(t._rows)  # keep no canonical data on t
                assert _leaf_masks(t) == list(_extension_masks(fresh, singles)), write_graph6(t)

    def test_peeling_matches_the_recursive_codes_to_13(self):
        # the key of every child generated, and the leaf masks of every
        # parent: the least vertex of each class of equal rooted codes
        for n in range(1, 14):
            for t in tree_classes(n):
                codes = [_brute.reference_rooted_code(t, v) for v in range(n)]
                first = {}
                for v, code in enumerate(codes):
                    first.setdefault(code, 1 << v)
                assert _leaf_masks(t) == list(first.values()), write_graph6(t)
                if n < 13:
                    key = _tree_keys(0, t)
                    for mask in _leaf_masks(t):
                        child = _extend(t, mask)
                        assert key(mask) == _brute.reference_tree_key(child), write_graph6(child)

    @pytest.mark.parametrize("case", TREE_KEY_CASES)
    def test_each_way_the_centres_move_keys_as_the_built_child(self, case):
        # a leaf at u changes the codes on the path from u to its centre, and
        # the centres only when u is deepest; every child of every parent to
        # 12 falls in one of these cases, each checked against the oracle
        children = _children_by_case()[case]
        assert children
        for key, child in children:
            assert key == _brute.reference_tree_key(child), write_graph6(child)

    def test_tree_keys_are_distinct_to_14(self):
        # each class keyed as the child of its parent: one key per class
        for n in range(2, 15):
            parents, low = enumeration._parents(n - 1, True), (1 << n - 1) - 1
            keys = {
                _tree_keys(0, parents[c >> n - 1])(c & low)
                for c in enumeration._tree_classes(n).packed
            }
            assert None not in keys and len(keys) == KNOWN_TREE_COUNTS[n]

    @given(st.integers(1, 17), st.integers(0, 2**28 - 1))
    def test_tree_key_is_relabelling_invariant(self, n, seed):
        # the keys of a parent's children, one per orbit of leaf positions
        rng = random.Random(seed)
        t = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        perm = list(range(n))
        rng.shuffle(perm)
        keys = [
            sorted(filter(None, map(_tree_keys(0, g), [1 << v for v in range(n)])))
            for g in (t, relabeled(t, perm))
        ]
        assert keys[0] == keys[1] and len(set(keys[0])) == len(keys[0])


class TestFanOutRecords:
    def test_records_that_end_early_raise_though_the_worker_exits_0(self, monkeypatch):
        # parent i's record is read from worker i mod W; a pipe that ends
        # before the last parent must fail the level, not shorten it
        main = os.getpid()

        def quitting_key(g):
            if os.getpid() != main:
                os._exit(0)
            return canonical_form(g)

        monkeypatch.setattr(enumeration, "_ITEMS_PER_WORKER", 1)
        monkeypatch.setattr(enumeration, "_cpus", lambda: 2)

        def masks(parent):
            return _extension_masks(parent, range(1, 1 << parent.n))

        with pytest.raises(RuntimeError, match="workers failed"):
            enumeration._children(
                enumeration._connected_classes(4), masks, built_keys(quitting_key), complete=True
            )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCensus:
    def test_order_two(self):
        report = census([2], lambda g: True, "all")
        assert report.total == 1 and report.count(2) == 1
        assert report.representatives[0].graph6 == "A_"

    def test_counts_and_representatives_agree(self):
        report = census(range(3, 6), lambda g: g.is_tree(), "trees")
        assert report.total == sum(report.counts.values())
        assert [report.count(n) for n in (3, 4, 5)] == [1, 2, 3]
        for entry in report.representatives:
            g = read_graph6(entry.graph6)
            assert g.is_tree()
            assert canonical_form(g) == entry.canonical
        forms = [e.canonical for e in report.representatives]
        assert len(set(forms)) == len(forms)


class TestGraph6:
    def test_k1(self):
        assert write_graph6(Graph(1)) == b"@"

    def test_p2(self):
        assert write_graph6(path(2).graph) == b"A_"

    def test_roundtrip_is_identity_to_5(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                assert read_graph6(write_graph6(g)) == g

    def test_disconnected_roundtrip(self):
        g = Graph(5, [(0, 3), (1, 2)])
        assert read_graph6(write_graph6(g)) == g

    def test_header_accepted(self):
        g = path(3).graph
        assert read_graph6(b">>graph6<<" + write_graph6(g)) == g

    def test_stream_forms(self):
        graphs = [path(n).graph for n in (2, 3, 5)]
        blob = b"\n".join(write_graph6(g) for g in graphs) + b"\n\n"
        assert list(read_graph6_stream(blob)) == graphs
        assert list(read_graph6_stream(io.BytesIO(blob).read().decode())) == graphs
        lines = [write_graph6(g).decode() for g in graphs]
        assert list(read_graph6_stream(lines)) == graphs

    def test_malformed_inputs(self):
        with pytest.raises(Graph6Error):
            read_graph6(b"")
        with pytest.raises(Graph6Error):
            read_graph6(b"~~~")  # long form
        with pytest.raises(Graph6Error):
            read_graph6(b"E_")  # truncated body
        with pytest.raises(Graph6Error):
            read_graph6(b"A" + bytes([30]))  # byte below printable range
        with pytest.raises(Graph6Error):
            read_graph6(b"A~")  # nonzero padding bits for n=2
        with pytest.raises(Graph6Error):
            read_graph6(b"\x1f")  # order byte out of range
        with pytest.raises(Graph6Error):
            read_graph6("Cé")  # non-ASCII text, not "C?"
        with pytest.raises(Graph6Error):
            list(read_graph6_stream(["A_", "Cé"]))

    def test_stream_error_names_its_line(self):
        # blank and header-only lines count: the error names the line of the blob
        with pytest.raises(Graph6Error, match="^line 4: graph6 body has 0 bytes"):
            list(read_graph6_stream(b">>graph6<<\n\nA_\nE\n"))
        with pytest.raises(Graph6Error, match="^line 2: non-ASCII"):
            list(read_graph6_stream(["A_", "C\u00e9"]))

    @pytest.mark.parametrize("blob", ["A_\vCF\n", "A_\x85CF\n", "A_\u2028CF\n", "A_\x1cCF"])
    def test_str_lines_end_only_at_newlines(self, blob):
        # one line holding a vertical tab or a Unicode line break is one bad value
        with pytest.raises(Graph6Error, match="^line 1: "):
            list(read_graph6_stream(blob))

    @pytest.mark.parametrize("space", ["\v", "\f"])
    def test_str_line_numbers_count_only_newlines(self, space):
        # a line of ASCII whitespace is one blank line
        with pytest.raises(Graph6Error, match="^line 3: "):
            list(read_graph6_stream(f"A_\n{space}\nE\n"))

    def test_str_lines_end_at_each_newline_form(self):
        graphs = [path(n).graph for n in (2, 3, 4)]
        assert list(read_graph6_stream("A_\r\nBg\rCh\n")) == graphs

    def test_write_rejects_large_graphs(self):
        with pytest.raises(Graph6Error):
            write_graph6(Graph(63))

    def test_sixty_two_vertex_boundary(self):
        g = Graph(62, [(0, 61)])
        assert read_graph6(write_graph6(g)) == g


def bucketed_connected_classes(n):
    """The labeled oracle as first written: every connected labeled graph
    in order, kept unless brute-force isomorphic to a kept graph with the
    same degree sequence and distance profile."""
    pair_list = list(combinations(range(n), 2))
    buckets = {}
    reps = []
    for bits in range(1 << len(pair_list)):
        edges = [pair_list[i] for i in range(len(pair_list)) if (bits >> i) & 1]
        g = Graph(n, edges)
        if not _brute.is_connected(g):
            continue
        key = (tuple(_brute._degree_sequence(g)), tuple(_brute._distance_profile(g)))
        bucket = buckets.setdefault(key, [])
        if not any(_brute.brute_isomorphic(g, rep) for rep in bucket):
            bucket.append(g)
            reps.append(g)
    return reps


class TestCrossValidation:
    def test_orbit_marking_oracle_matches_bucketed_oracle_to_5(self):
        # both keep the first labeled graph of each class, in order
        for n in range(1, 6):
            assert _brute.labeled_connected_classes(n) == bucketed_connected_classes(n)

    def test_oracle_reps_are_isomorphic_to_enumerated(self):
        for n in range(2, 5):
            enumerated = list(connected_graphs(n))
            for rep in _brute.labeled_connected_classes(n):
                matches = [g for g in enumerated if are_isomorphic(rep, g)]
                assert len(matches) == 1
