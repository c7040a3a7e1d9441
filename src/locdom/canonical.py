"""Canonical forms, isomorphism tests and automorphism generators.

The canonical form of a graph is the graph6 encoding of a canonically
relabelled copy, so two graphs are isomorphic exactly when their forms
are byte-equal and the form doubles as a serialization.

Labelling search: refinement produces an ordered partition into cells;
the first non-singleton cell is individualised in all inequivalent ways
and the search recurses.  Each leaf (a partition into singletons) is a
labelling, scored by its packed upper-triangle adjacency bits as one
integer; the least wins.  Those bits are the graph6 body in order, so the
form is encoded straight from the winning integer.  Leaves that tie with
the current best reveal automorphisms, which prune sibling branches (one
representative per orbit of the stabiliser of the fixed prefix).

Refinement counts neighbours in cells with bitsets,
``(row & cell_mask).bit_count()``, and splits cells in rounds.  The first
round from the unit partition orders vertices by degree; each later round
orders the vertices of a cell by their counts against the cells of the
previous round, negated, in cell order.  For vertices of one cell and
equal degree this is the order of their sorted tuples of neighbour
colours (a vertex's colour being its cell's index): two such tuples first
differ at the least colour where the counts differ, and the vertex with
more neighbours of that colour has the smaller tuple.  The partitions are
therefore those of classical colour refinement by (colour, sorted
neighbour colours), so the search explores the same branches and keeps
the same labelling and automorphisms; ``tests/_brute.py`` keeps that
refinement as the reference.  Validated against brute-force permutation
isomorphism on all connected graphs up to n = 5.

Trees have a key of their own that needs no search: the AHU code (Aho,
Hopcroft and Ullman 1974) of the tree rooted at a centre, in
``_rooted_code`` and ``_tree_key``, which the tree generator uses, and
``_rooted_ids``, which tells every vertex-rooted code apart at once.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph
from .graph6 import _bit_weights, _encode

__all__ = [
    "canonical_form",
    "canonical_labeling",
    "automorphism_generators",
    "are_isomorphic",
]


def _mask(cell: Sequence[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(rows: Sequence[int], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """Refine an ordered partition to its coarsest equitable refinement.

    ``cells`` lists each cell's vertices in ascending order.  Every vertex
    of a cell has the same number of neighbours in each cell, except in
    the cells whose masks are ``splitters``.  A round splits each cell by
    its vertices' counts against the splitters, negated, in splitter
    order, and keeps the pieces in ascending order of that key, so cells
    split in place and never move.  The splitters of the next round are
    the pieces of every cell that split, less the last piece of each,
    whose count the others and the whole cell determine.  Since counts
    against any other cell are equal within a cell, the key orders a cell
    exactly as the full vector of counts against the previous round's
    cells, negated, would: the order of sorted neighbour-colour tuples.
    Singleton cells never split, so only the vertices of larger cells get
    keys, and refinement stops once every cell is a singleton.
    """
    base = len(rows)  # a count is below n
    while splitters:
        live = [v for cell in cells if len(cell) > 1 for v in cell]
        if not live:
            break
        # the negated counts as the digits of one integer per live vertex,
        # the first splitter's most significant: integer order is their order
        live_rows = [rows[v] for v in live]
        m = splitters[0]
        keys = [-(r & m).bit_count() for r in live_rows]
        for m in splitters[1:]:
            keys = [k * base - (r & m).bit_count() for k, r in zip(keys, live_rows)]
        out: list[list[int]] = []
        split: list[int] = []
        at = 0  # the first key of the next live cell
        for cell in cells:
            if len(cell) > 1:
                ks = keys[at:at + len(cell)]
                at += len(cell)
                if ks.count(ks[0]) != len(ks):
                    pieces = {k: [] for k in sorted(set(ks))}
                    for v, k in zip(cell, ks):
                        pieces[k].append(v)
                    new = list(pieces.values())
                    out.extend(new)
                    split.extend(_mask(p) for p in new[:-1])
                    continue
            out.append(cell)
        cells, splitters = out, split
    return cells


def _by_degree(rows: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The first round from the unit partition: cells of equal degree in
    ascending degree order, and the splitters for the next round."""
    pieces: dict[int, list[int]] = {}
    for v, r in enumerate(rows):
        pieces.setdefault(r.bit_count(), []).append(v)
    cells = [pieces[d] for d in sorted(pieces)]
    return cells, [_mask(c) for c in cells[:-1]]


def _search(g: Graph) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Return (packed upper triangle of the canonical relabelling, canonical
    labelling position->vertex, automorphism generators)."""
    n = g.n
    rows = g._rows
    edges = g.edges()
    weights = _bit_weights(n)

    best_code = 1 << (n * (n - 1) // 2)  # above every packed triangle
    best_lab: list[int] = []
    gens: list[tuple[int, ...]] = []

    def rec(cells: list[list[int]], fixed: list[int]) -> None:
        nonlocal best_code, best_lab
        if len(cells) == n:
            lab = [cell[0] for cell in cells]
            pos = [0] * n
            for i, v in enumerate(lab):
                pos[v] = i
            code = sum([weights[pos[u]][pos[w]] for u, w in edges])
            if code < best_code:
                best_code = code
                best_lab = lab
            elif code == best_code:
                perm = [0] * n
                for i in range(n):
                    perm[best_lab[i]] = lab[i]
                gens.append(tuple(perm))
            return
        t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        target = cells[t]
        explored: list[int] = []
        for v in target:
            if explored and _in_orbit(v, explored, gens, fixed):
                continue
            branch = cells[:t] + [[v], [u for u in target if u != v]] + cells[t + 1:]
            rec(_refine(rows, branch, [1 << v]), fixed + [v])
            explored.append(v)

    rec(_refine(rows, *_by_degree(rows)), [])
    return best_code, tuple(best_lab), tuple(gens)


def _in_orbit(
    v: int,
    explored: list[int],
    gens: list[tuple[int, ...]],
    fixed: list[int],
) -> bool:
    """Is v reachable from an explored sibling under automorphisms that fix
    the individualised prefix pointwise?"""
    live = [p for p in gens if all(p[f] == f for f in fixed)]
    if not live:
        return False
    orbit = set(explored)
    frontier = list(explored)
    while frontier:
        u = frontier.pop()
        for p in live:
            w = p[u]
            if w == v:
                return True
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return False


def _canonical_data(g: Graph) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """(canonical form, automorphism generators), kept on the graph."""
    if g._canon is None:
        code, _, gens = _search(g)
        g._canon = (_encode(g.n, code), gens)
    return g._canon


def canonical_form(g: Graph) -> bytes:
    """Canonical byte encoding: equal for two graphs iff they are isomorphic."""
    return _canonical_data(g)[0]


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """The labelling (position -> vertex) realising the canonical form.

    Recomputed on every call: the enumeration never reads labellings, so
    the graph keeps only the form and the generators."""
    return _search(g)[1]


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms discovered by the canonical search (generators of a
    subgroup of Aut(g); empty for graphs the refinement fully separates)."""
    return _canonical_data(g)[1]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test via canonical forms, with cheap invariant cutoffs."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


# -- trees --------------------------------------------------------------------


def _rooted_code(rows: Sequence[int], root: int) -> str:
    """The AHU code of the tree ``rows`` rooted at ``root``: "(" + the
    sorted codes of the root's subtrees + ")", built bottom-up.  Two rooted
    trees are isomorphic iff their codes are equal."""

    def code(v: int, free: int) -> str:
        # free lacks v, its ancestors and their children: rows[v] & free
        # are v's children
        kids = rows[v] & free
        free &= ~kids
        parts = []
        while kids:
            low = kids & -kids
            parts.append(code(low.bit_length() - 1, free))
            kids ^= low
        parts.sort()
        return "(" + "".join(parts) + ")"

    return code(root, ~(1 << root))


def _rooted_ids(rows: Sequence[int]) -> list[int]:
    """For each vertex of the tree ``rows``, an id of the tree rooted there:
    two ids are equal iff the vertices' ``_rooted_code``s are.

    One rerooting pass from vertex 0.  An id names the sorted tuple of the
    ids of its root's subtrees, interned per call, so equal ids mean equal
    codes by induction.  Going up, a vertex's down id names the subtree
    below it; going down, the up id of a child names the tree on the far
    side of its edge to its parent, rooted at the parent, which is the
    parent's other subtrees plus the parent's own up id."""
    n = len(rows)
    names: dict[tuple[int, ...], int] = {}

    def intern(parts: list[int]) -> int:
        return names.setdefault(tuple(sorted(parts)), len(names))

    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    order = [0]
    for v in order:  # breadth first: grows as it is read
        kids = rows[v] & ~(1 << parent[v]) if v else rows[v]
        while kids:
            low = kids & -kids
            c = low.bit_length() - 1
            parent[c] = v
            children[v].append(c)
            order.append(c)
            kids ^= low
    down = [0] * n
    for v in reversed(order):
        down[v] = intern([down[c] for c in children[v]])
    up = [0] * n
    ids = [0] * n
    for v in order:
        parts = [down[c] for c in children[v]]
        if v:
            parts.append(up[v])
        ids[v] = intern(parts)
        for i, c in enumerate(children[v]):
            up[c] = intern(parts[:i] + parts[i + 1:])
    return ids


def _tree_key(rows: Sequence[int]) -> str:
    """A complete invariant of the tree ``rows``: the least of its codes
    rooted at its one or two centres, the vertices that peeling every leaf,
    layer by layer, leaves last."""
    degree = [r.bit_count() for r in rows]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    alive = (1 << len(rows)) - 1
    left = len(rows)
    while left > 2:
        left -= len(layer)
        for v in layer:
            alive ^= 1 << v
        peeled = []
        for v in layer:
            u = (rows[v] & alive).bit_length() - 1  # a leaf's one neighbour
            degree[u] -= 1
            if degree[u] == 1:
                peeled.append(u)
        layer = peeled
    return min(_rooted_code(rows, c) for c in layer)
