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

Trees need no search.  One pass, ``_peel``, peels leaves layer by layer
down to the one or two centres and names each vertex's AHU code (Aho,
Hopcroft and Ullman 1974) as it goes.  From it the tree generator takes a
key, ``_tree_key``, the least code rooted at a centre, and the orbits of
the vertices, ``_orbit_labels``, which follow the codes down from the
centres.
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


def _peel(rows: Sequence[int]) -> tuple[list[int], list[int], list[int], list[str]]:
    """Peel the leaves of the tree ``rows``, layer by layer, down to its one
    or two centres, naming each vertex's AHU code (Aho, Hopcroft and Ullman
    1974) as it is peeled: "(" + the sorted codes of its children, the
    neighbours peeled before it, + ")".  Two rooted trees are isomorphic iff
    their codes are equal.

    Returns the centres, every vertex in peel order (the centres last), each
    vertex's parent (its one neighbour left when it is peeled; -1 for a
    centre) and the codes.  A centre's code is that of its own side: with
    two centres, neither counts the other as a child."""
    n = len(rows)
    degree = [r.bit_count() for r in rows]
    parent = [-1] * n
    kids: list[list[str]] = [[] for _ in range(n)]
    codes = [""] * n
    order: list[int] = []
    alive = (1 << n) - 1
    layer = [v for v, d in enumerate(degree) if d <= 1]
    while n - len(order) > 2:
        order += layer
        for v in layer:
            alive ^= 1 << v
        peeled = []
        for v in layer:
            u = (rows[v] & alive).bit_length() - 1  # a leaf's one neighbour
            codes[v] = "(" + "".join(sorted(kids[v])) + ")"
            parent[v] = u
            kids[u].append(codes[v])
            degree[u] -= 1
            if degree[u] == 1:
                peeled.append(u)
        layer = peeled
    for c in layer:
        codes[c] = "(" + "".join(sorted(kids[c])) + ")"
    return layer, order + layer, parent, codes


def _tree_key(rows: Sequence[int]) -> str:
    """A complete invariant of the tree ``rows``: the least of its codes
    rooted at its one or two centres.  Rooted at a centre, each neighbour's
    code is the one ``_peel`` names, the other centre's included."""
    centres, _, _, codes = _peel(rows)
    return min(
        "(" + "".join(sorted(codes[u] for u in range(len(rows)) if rows[c] >> u & 1)) + ")"
        for c in centres
    )


def _orbit_labels(rows: Sequence[int]) -> list[int]:
    """For each vertex of the tree ``rows``, a label that two vertices share
    exactly when an automorphism maps one to the other.

    An automorphism fixes the one centre, or fixes or swaps the two, and it
    can swap two centres exactly when their sides have equal codes; below
    them, it maps a vertex onto a vertex with the same code under an image
    of its parent, and siblings with equal codes can be swapped.  So a
    centre is labelled by its code and every other vertex by (its parent's
    label, its own code), top down, each label interned per call."""
    _, order, parent, codes = _peel(rows)
    names: dict[object, int] = {}
    labels = [0] * len(rows)
    for v in reversed(order):
        p = parent[v]
        labels[v] = names.setdefault(codes[v] if p < 0 else (labels[p], codes[v]), len(names))
    return labels
