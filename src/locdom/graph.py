"""Immutable simple graphs on vertices 0..n-1 with bitset adjacency.

Every graph in this package lives on the vertex set {0, ..., n-1} with no
holes, no loops and no multi-edges.  Adjacency is stored as one Python
integer bitmask per vertex, so neighbourhood intersections, domination
checks and subset tests are single word-level operations for the graph
sizes this library targets (n up to a few dozen).

Graphs are immutable and hashable; derived data (all-pairs distances,
canonical form, graph6 bytes, proven parameter minima) is cached on the
instance, which is semantically invisible.  Disconnected graphs are
representable, but operations that need connectivity raise
:class:`DisconnectedGraphError`.

``_peel_order`` roots a tree at its centres for ``canonical`` and ``solvers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "UNREACHABLE",
    "DisconnectedGraphError",
    "Graph",
    "TreeProfile",
    "tree_profile",
    "strong_product",
    "join",
    "disjoint_union",
    "complement",
    "relabeled",
]

#: Distance-matrix entry for a pair with no connecting path.
UNREACHABLE = -1


class DisconnectedGraphError(ValueError):
    """An operation that requires a connected graph received one that is not."""


def _bfs_row(rows: Sequence[int], n: int, src: int) -> tuple[int, ...]:
    dist = [UNREACHABLE] * n
    seen = frontier = 1 << src
    d = 0
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            dist[v] = d
            nxt |= rows[v]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return tuple(dist)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_rows", "_dist", "_canon", "_minima", "_g6")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"graph order must be a positive integer, got {n!r}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)
        self._dist = self._canon = self._minima = self._g6 = None

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an explicit edge list (duplicates collapse)."""
        return cls(n, edges)

    @classmethod
    def _from_rows(cls, rows: Sequence[int]) -> "Graph":
        # Internal fast path: trusts that rows are symmetric and loop-free.
        g = object.__new__(cls)
        g.n = len(rows)
        g._rows = tuple(rows)
        g._dist = g._canon = g._minima = g._g6 = None
        return g

    # -- basic queries -------------------------------------------------

    def neighbors_mask(self, v: int) -> int:
        """Bitmask of the open neighborhood N(v)."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self._rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self._rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    # -- distances -----------------------------------------------------

    def distance_matrix(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances, computed once by per-vertex BFS: row u
        holds the length of a shortest u-v path for each v, or
        :data:`UNREACHABLE` when no path exists."""
        if self._dist is None:
            self._dist = tuple(_bfs_row(self._rows, self.n, s) for s in range(self.n))
        return self._dist

    def is_connected(self) -> bool:
        row = self._dist[0] if self._dist is not None else _bfs_row(self._rows, self.n, 0)
        return UNREACHABLE not in row

    def diameter(self) -> int:
        """Maximum distance over all vertex pairs; requires connectivity."""
        rows = self.distance_matrix()
        if not self.is_connected():
            raise DisconnectedGraphError("diameter is undefined for disconnected graphs")
        return max(map(max, rows))

    def is_tree(self) -> bool:
        return self.edge_count == self.n - 1 and self.is_connected()

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# -- graph operators ----------------------------------------------------


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: pairs adjacent iff each coordinate is equal or adjacent.

    Vertex (i, j) maps to index i*h.n + j (row-major).  The strong product
    of two paths is the king grid.
    """
    hn = h.n
    n = g.n * hn
    rows = [0] * n
    for i in range(g.n):
        gi = g.neighbors_mask(i) | (1 << i)
        for j in range(hn):
            hj = h.neighbors_mask(j) | (1 << j)
            base = i * hn + j
            row = 0
            mi = gi
            while mi:
                low = mi & -mi
                i2 = low.bit_length() - 1
                mi ^= low
                row |= hj << (i2 * hn)
            rows[base] = row & ~(1 << base)
    return Graph._from_rows(rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    shift = g.n
    rows = list(g._rows) + [r << shift for r in h._rows]
    return Graph._from_rows(rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge."""
    shift = g.n
    gfull = (1 << shift) - 1
    hfull = ((1 << h.n) - 1) << shift
    rows = [r | hfull for r in g._rows]
    rows += [(r << shift) | gfull for r in h._rows]
    return Graph._from_rows(rows)


def complement(g: Graph) -> Graph:
    """Flip every non-loop pair."""
    full = (1 << g.n) - 1
    rows = [(~r & full) & ~(1 << v) for v, r in enumerate(g._rows)]
    return Graph._from_rows(rows)


def relabeled(g: Graph, mapping: Sequence[int]) -> Graph:
    """Apply a vertex permutation: ``mapping[old] = new``."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertex set")
    rows = [0] * g.n
    for u in range(g.n):
        ru = g._rows[u]
        nu = mapping[u]
        row = 0
        while ru:
            low = ru & -ru
            row |= 1 << mapping[low.bit_length() - 1]
            ru ^= low
        rows[nu] = row
    return Graph._from_rows(rows)


# -- trees ---------------------------------------------------------------


def _peel_order(rows: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Peel the leaves of the tree ``rows``, layer by layer, down to its one
    or two centres (two centres are adjacent).

    Returns the centres, every vertex once in peel order (the centres last,
    so each vertex comes before its parent) and each vertex's parent: its
    one neighbour left when it is peeled, or -1 for a centre.  A non-tree
    raises ``ValueError``: one without n - 1 edges at once, and one with
    n - 1 edges, disconnected and with a cycle, once its leaves run out above two
    vertices or a peeled leaf has no neighbour left."""
    n = len(rows)
    degree = [r.bit_count() for r in rows]
    if sum(degree) != 2 * n - 2:
        raise ValueError(f"not a tree: {n} vertices and {sum(degree) // 2} edges")
    parent = [-1] * n
    order: list[int] = []
    alive = (1 << n) - 1
    layer = [v for v, d in enumerate(degree) if d <= 1]
    while n - len(order) > 2:
        if not layer:
            raise ValueError(f"not a tree: {n - len(order)} vertices left with no leaf")
        order += layer
        for v in layer:
            alive ^= 1 << v
        peeled = []
        for v in layer:
            u = (rows[v] & alive).bit_length() - 1  # a leaf's one neighbour
            if u < 0:
                raise ValueError(f"not a tree: leaf {v} has no neighbour left")
            parent[v] = u
            degree[u] -= 1
            if degree[u] == 1:
                peeled.append(u)
        layer = peeled
    return layer, order + layer, parent


@dataclass(frozen=True)
class TreeProfile:
    """Leaf/support structure of a tree."""

    leaves: tuple[int, ...]
    supports: tuple[int, ...]
    strong_supports: tuple[int, ...]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def support_count(self) -> int:
        return len(self.supports)


def tree_profile(g: Graph) -> TreeProfile:
    """Leaves, support vertices (adjacent to a leaf) and strong supports
    (adjacent to at least two leaves) of a tree."""
    if not g.is_tree():
        raise ValueError("tree_profile requires a tree (connected, n-1 edges)")
    leaves = tuple(v for v in range(g.n) if g.degree(v) == 1)
    leaf_mask = 0
    for v in leaves:
        leaf_mask |= 1 << v
    supports = []
    strong = []
    for v in range(g.n):
        k = (g.neighbors_mask(v) & leaf_mask).bit_count()
        if k >= 1:
            supports.append(v)
        if k >= 2:
            strong.append(v)
    return TreeProfile(leaves, tuple(supports), tuple(strong))
