"""Exhaustive generation of small graphs up to isomorphism, plus censuses.

Connected graphs of order n are generated by augmentation: every class on
n-1 vertices is extended by one new vertex attached to each nonempty
neighbourhood subset, candidate subsets are reduced to one representative
per orbit of the parent's automorphisms, and the surviving children are
deduplicated by canonical form.  Every connected graph on n vertices
arises from deleting a vertex of a connected spanning structure, so each
isomorphism class is produced exactly once.  Class counts for n = 1..8
are (1, 1, 2, 6, 21, 112, 853, 11117).

Trees are generated by the same augmentation restricted to one-vertex
neighbourhoods (leaf augmentation), to n = 18, beyond the general
enumeration range, and without the general canonical search.  A tree has
a linear-time complete invariant (Aho, Hopcroft and Ullman 1974): the
code of a rooted tree is "(" + the sorted codes of the root's subtrees +
")", and a child is keyed by the least code rooted at one of its one or
two centres.  Two vertices of a tree lie in one automorphism orbit
exactly when the tree rooted at each has the same code, so a parent's
leaf positions are the least vertex of each vertex-rooted code: the
first candidate met in each orbit, the rule that ``_extension_masks``
applies to the canonical search's generators.  The same children are
therefore built in the same order, and since the key, like the canonical
form, is a complete invariant, each class keeps the same first child: the
representatives are those the general search gives.

The graph6 codec lives in :mod:`locdom.graph6` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .canonical import _rooted_code, _tree_key, automorphism_generators, canonical_form
from .graph import Graph
from .graph6 import Graph6Error, read_graph6, read_graph6_stream, write_graph6

__all__ = [
    "MAX_ENUMERATION_ORDER",
    "connected_graphs",
    "connected_graph_count",
    "tree_classes",
    "trees",
    "CensusEntry",
    "CensusReport",
    "census",
    "Graph6Error",
    "read_graph6",
    "read_graph6_stream",
    "write_graph6",
]

MAX_ENUMERATION_ORDER = 9
_MAX_TREE_ORDER = 18


def _extend(parent: Graph, mask: int) -> Graph:
    """Add one vertex adjacent to exactly the parent vertices in mask."""
    new = parent.n
    bit = 1 << new
    rows = list(parent._rows)
    for v in range(parent.n):
        if (mask >> v) & 1:
            rows[v] |= bit
    rows.append(mask)
    return Graph._from_rows(rows)


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _extension_masks(parent: Graph, candidates: Sequence[int]) -> Sequence[int]:
    """The candidate neighbourhood masks, one per orbit of the parent's
    automorphisms: the first candidate met in each orbit."""
    gens = automorphism_generators(parent)
    if not gens:
        return candidates
    reps = []
    seen = set()
    for m in candidates:
        if m in seen:
            continue
        reps.append(m)
        stack = [m]
        seen.add(m)
        while stack:
            cur = stack.pop()
            for p in gens:
                img = _permute_mask(cur, p)
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


def _leaf_masks(parent: Graph) -> list[int]:
    """Leaf positions on a parent tree, one per orbit of its automorphisms:
    the least vertex of each vertex-rooted code."""
    rows = parent._rows
    first: dict[str, int] = {}
    for v in range(parent.n):
        first.setdefault(_rooted_code(rows, v), 1 << v)
    return list(first.values())


def _children(
    parents: Iterable[Graph],
    masks: Callable[[Graph], Iterable[int]],
    key: Callable[[Graph], Hashable],
) -> tuple[Graph, ...]:
    """One graph per isomorphism class among the parents extended by a
    vertex with each neighbourhood in ``masks(parent)``, each the first one
    generated; ``key`` is a complete isomorphism invariant."""
    out = []
    seen = set()
    for parent in parents:
        for mask in masks(parent):
            child = _extend(parent, mask)
            k = key(child)
            if k not in seen:
                seen.add(k)
                out.append(child)
    return tuple(out)


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    return _children(
        _connected_classes(n - 1),
        lambda p: _extension_masks(p, range(1, 1 << p.n)),
        canonical_form,
    )


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs of order n, one per isomorphism class.

    Generation order is deterministic.  Supported for 1 <= n <= 9.
    """
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"connected_graphs supports 1 <= n <= {MAX_ENUMERATION_ORDER}, got {n}"
        )
    return iter(_connected_classes(n))


def connected_graph_count(n: int) -> int:
    """Number of isomorphism classes of connected graphs of order n."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(
            f"connected_graph_count supports 1 <= n <= {MAX_ENUMERATION_ORDER}, got {n}"
        )
    return len(_connected_classes(n))


@lru_cache(maxsize=None)
def _tree_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    return _children(_tree_classes(n - 1), _leaf_masks, lambda t: _tree_key(t._rows))


def tree_classes(n: int) -> tuple[Graph, ...]:
    """All trees of order n up to isomorphism, in generation order
    (supported to n = 18; every order below n stays cached)."""
    if not 1 <= n <= _MAX_TREE_ORDER:
        raise ValueError(f"tree_classes supports 1 <= n <= {_MAX_TREE_ORDER}, got {n}")
    return _tree_classes(n)


def trees(n: int) -> Iterator[Graph]:
    """Iterator form of :func:`tree_classes`."""
    return iter(tree_classes(n))


# -- censuses -------------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    order: int
    canonical: bytes
    graph6: str


@dataclass(frozen=True)
class CensusReport:
    """Counts of isomorphism classes per order satisfying a filter."""

    description: str
    counts: Mapping[int, int]
    total: int
    representatives: tuple[CensusEntry, ...]

    def count(self, order: int) -> int:
        return self.counts.get(order, 0)


def census(
    orders: Iterable[int],
    predicate: Callable[[Graph], bool],
    description: str = "",
) -> CensusReport:
    """Count the connected graph classes per order that satisfy ``predicate``.

    Representatives are recorded in generation order; they are pairwise
    non-isomorphic by construction.
    """
    counts: dict[int, int] = {}
    reps: list[CensusEntry] = []
    for n in orders:
        hits = 0
        for g in connected_graphs(n):
            if predicate(g):
                hits += 1
                reps.append(
                    CensusEntry(
                        order=n,
                        canonical=canonical_form(g),
                        graph6=write_graph6(g).decode("ascii"),
                    )
                )
        counts[n] = hits
    return CensusReport(
        description=description,
        counts=counts,
        total=sum(counts.values()),
        representatives=tuple(reps),
    )
