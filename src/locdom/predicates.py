"""Code predicates: domination, location, and their combinations.

For a graph G and a vertex subset S (a *code*, an ordered tuple of
distinct vertices), each of the four properties says that S meets every
set of one family of vertex sets, its *hitting family*:

* ``is_dominating`` (gamma): every closed neighbourhood N[v].  Every
  vertex outside S then has a neighbour in S.
* ``is_locating`` (beta): for every pair u < v, the set
  {x : d(x, u) != d(x, v)} of vertices whose distances tell u and v
  apart.  This set contains u and v themselves, so a pair with a member
  in S is always met, and the condition reduces to the reading used
  here: the metric vectors (d(v, x) for x in S) of the vertices outside
  S are pairwise distinct.  That is the standard resolving-set
  definition, and no minimum value changes.
* ``is_mld`` (eta): the union of the two families above, so dominating
  and locating simultaneously.
* ``is_ld`` (lambda): every N[v], and for every pair u < v the set
  {u, v} together with the symmetric difference N(u) ^ N(v).  Every
  vertex outside S then has a nonempty neighbourhood trace N(v) & S, and
  the traces of vertices outside S are pairwise distinct.

The exact solvers in :mod:`locdom.solvers` search for the smallest set
meeting the same families, so a predicate and its solver share one
definition.

Empty codes: the empty set meets no set, so it dominates nothing (False
for any n >= 1) and locates only the one-vertex graph, whose beta family
is empty.

``is_dominating`` and ``is_ld`` are pure neighbourhood conditions and
accept any graph; the metric predicates need finite distances and raise
:class:`~locdom.graph.DisconnectedGraphError` on disconnected input.
"""

from __future__ import annotations

from typing import Iterable

from .graph import DisconnectedGraphError, Graph

__all__ = [
    "Code",
    "metric_vector",
    "is_dominating",
    "is_locating",
    "is_mld",
    "is_ld",
]

#: A code is an ordered tuple of distinct vertex indices.
Code = tuple[int, ...]


def _code_mask(g: Graph, code: Iterable[int]) -> int:
    """Bitmask of a validated code."""
    mask = 0
    for v in code:
        if not (isinstance(v, int) and 0 <= v < g.n):
            raise ValueError(f"code member {v!r} outside 0..{g.n - 1}")
        bit = 1 << v
        if mask & bit:
            raise ValueError(f"duplicate code member {v}")
        mask |= bit
    return mask


def _dist_rows(g: Graph) -> tuple[tuple[int, ...], ...]:
    rows = g.distance_matrix()
    if not g.is_connected():
        raise DisconnectedGraphError("metric predicates require a connected graph")
    return rows


def _hitting_family(g: Graph, param: str) -> list[int]:
    """The sets a ``param`` code must meet, as bitmasks, deduplicated and
    sorted by largest element.

    The metric families (beta, eta) raise
    :class:`~locdom.graph.DisconnectedGraphError` on disconnected input.
    """
    n, rows = g.n, g._rows
    closed = [rows[v] | (1 << v) for v in range(n)]
    if param == "gamma":
        sets = closed
    elif param == "lambda":
        sets = closed + [
            (1 << u) | (1 << v) | (rows[u] ^ rows[v])
            for u in range(n)
            for v in range(u + 1, n)
        ]
    elif param in ("beta", "eta"):
        # levels[u][d] is the mask of vertices at distance d from u; the
        # pair set of u, v is everything outside the per-level overlaps
        levels = []
        for row in _dist_rows(g):
            level = [0] * (max(row) + 1)
            for x, d in enumerate(row):
                level[d] |= 1 << x
            levels.append(level)
        full = (1 << n) - 1
        sets = []
        for u in range(n):
            for v in range(u + 1, n):
                same = 0
                for a, b in zip(levels[u], levels[v]):
                    same |= a & b
                sets.append(full ^ same)
        if param == "eta":
            sets += closed
    else:
        raise ValueError(
            f"unknown parameter {param!r}; expected one of gamma, beta, eta, lambda"
        )
    # an integer's value orders first by its highest bit
    return sorted(set(sets))


def _hits(g: Graph, param: str, code: Iterable[int]) -> bool:
    mask = _code_mask(g, code)
    return all(s & mask for s in _hitting_family(g, param))


def metric_vector(g: Graph, code: Iterable[int], v: int) -> tuple[int, ...]:
    """Distances from v to each code member, in the code's fixed order."""
    code = tuple(code)
    _code_mask(g, code)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    dv = _dist_rows(g)[v]
    return tuple(dv[x] for x in code)


def is_dominating(g: Graph, code: Iterable[int]) -> bool:
    """True iff every vertex outside the code has a neighbour in it."""
    return _hits(g, "gamma", code)


def is_locating(g: Graph, code: Iterable[int]) -> bool:
    """True iff vertices outside the code have pairwise distinct metric vectors."""
    return _hits(g, "beta", code)


def is_mld(g: Graph, code: Iterable[int]) -> bool:
    """Dominating and locating at once."""
    return _hits(g, "eta", code)


def is_ld(g: Graph, code: Iterable[int]) -> bool:
    """True iff neighbourhood traces outside the code are nonempty and
    pairwise distinct."""
    return _hits(g, "lambda", code)
