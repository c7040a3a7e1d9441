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
neighbourhoods (leaf augmentation), because the theorem sweeps need them
up to n = 12, beyond the general enumeration range.

The graph6 codec lives in :mod:`locdom.graph6` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .canonical import automorphism_generators, canonical_form
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
_MAX_TREE_ORDER = 16


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


def _children(parents: Iterable[Graph], candidates: Sequence[int]) -> tuple[Graph, ...]:
    """One graph per isomorphism class among the parents extended by a
    vertex with a candidate neighbourhood, each the first one generated."""
    out = []
    seen = set()
    for parent in parents:
        for mask in _extension_masks(parent, candidates):
            child = _extend(parent, mask)
            key = canonical_form(child)
            if key not in seen:
                seen.add(key)
                out.append(child)
    return tuple(out)


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    return _children(_connected_classes(n - 1), range(1, 1 << (n - 1)))


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
    return _children(_tree_classes(n - 1), [1 << v for v in range(n - 1)])


def tree_classes(n: int) -> tuple[Graph, ...]:
    """All trees of order n up to isomorphism (supported to n = 16)."""
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
