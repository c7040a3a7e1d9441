"""Exhaustive generation of small graphs up to isomorphism, plus censuses.

Connected graphs of order n are generated by augmentation: every class on
n-1 vertices is extended by one new vertex attached to each nonempty
neighbourhood subset, candidate subsets are reduced to one representative
per orbit of the parent's automorphisms, and of the surviving children the
first of each class is kept.  Every connected graph on n vertices arises
from deleting a vertex of a connected spanning structure, so each
isomorphism class is produced exactly once.  Class counts for n = 1..8
are (1, 1, 2, 6, 21, 112, 853, 11117).  The representative of a class is
the first child generated in it, parents in order and each parent's masks
in order.

Most children are not the first of their class, and the rule below drops
them unkeyed (the idea of vertex deletion in McKay's canonical
construction path, *J. Algorithms* 26, 1998, without its change of
representatives).  Let G be a child of parent P_i, the i-th class of
order n-1.  If some vertex v of G other than the new one leaves G - v
connected and isomorphic to P_j with j < i, then G is not the first child
of its class.  Proof: G is G - v plus v on a nonempty neighbourhood, and
``_extension_masks`` gives P_j a child on some mask in the orbit of that
neighbourhood, isomorphic to G; every child of P_j comes before every
child of P_i.  So the first child of a class is never dropped.
``_connected_keys`` decides j < i by invariants: G - v qualifies when it
is connected and the parents that share its invariants all come before i
(a connected G - v is isomorphic to exactly one parent, which shares
them).  Up to n = 8 it keeps 11123 of the 67141 children, six more than
the 11117 classes.

Each child the rule keeps is keyed by an invariant, ``_key``: a hash of
the degree histogram with the triangle and 4-cycle counts (``_profile``,
read from the parent's tables) and of one round of colour refinement
(Weisfeiler-Leman).  A key not met before is a class not met before, and
the child is kept with no canonical search.  A key met before is settled
by canonical form: the child's, and once, that of the key's holder, its
earlier entry in the output; the child is kept when its form is new
under that key.  The kept children are exactly the first of each class.
The first child of a class is never dropped by the rule, and every child
kept before it is of another class, so its key is new or its form is.
Any later child of the class is dropped by the rule, or meets the key of
the first child, kept before it, and that child's form.  The
representatives, their order and their canonical data are therefore
those of the canonical form alone.  Up to n = 7 no key is met twice; at
n = 8, 228 searches settle the keys that children share.  Canonical data
is otherwise found on demand (``canonical._canonical_data``): a class is
searched for its automorphism generators when it becomes a parent, in
``_extension_masks``, and a class of the top level only when a caller asks.

Trees are generated by the same augmentation restricted to one-vertex
neighbourhoods (leaf augmentation), to n = 18, beyond the general
enumeration range, and without the general canonical search.  A tree has
a linear-time complete invariant (Aho, Hopcroft and Ullman 1974): the
code of a rooted tree is "(" + the sorted codes of the root's subtrees +
")", and a child is keyed by the least code rooted at one of its one or
two centres.  The pass that peels a tree down to its centres names every
vertex's code below them, and with it the automorphism orbits of the
vertices (``canonical._orbit_labels``).  A parent's leaf positions are
the least vertex of each orbit: the first candidate met in each orbit,
the rule that ``_extension_masks`` applies to the canonical search's
generators.  The same children are therefore built in the same order, and
since the key, like the canonical form, is a complete invariant, each
class keeps the same first child: the representatives are those the
general search gives.

One function, ``_merge``, files the keys and settles those met again, in
generation order; ``_keyed`` builds and keys each parent's children and
files nothing.  With a complete key (a tree's, or the canonical form) it
leaves out a child whose key its own stream met before: that child is
isomorphic to an earlier one in generation order, so the merge would
drop it.  ``_fan_out`` spreads a pass over many items across CPU cores:
it forks W = min(CPUs this process may use, items //
``_ITEMS_PER_WORKER``) workers when W >= 2 and ``os.fork`` exists.
Worker w handles the items i = w (mod W) and writes one ``marshal``
record per item to a pipe, and the main process reads item i's as the
next from worker i mod W.  A level's items are its parents, each record
the children as mask, key and the canonical data the worker found; the
merge builds a child only when it keeps or settles it.  ``_mapped``
applies a function to the classes of an order: each record is its value
on one class, the truth of a census filter or the outcomes of the
theorem sweeps (:mod:`locdom.theorems`).  Workers are forked from a
process that starts no threads, and exit with ``os._exit``; a worker
that fails prints its traceback, its records end early, and the call
raises :class:`WorkerError` once every worker is reaped.
"""

from __future__ import annotations

import marshal
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    BinaryIO, Callable, Hashable, Iterable, Iterator, Mapping, NoReturn, Optional, Sequence,
    TypeVar,
)

from .canonical import _orbit_labels, _tree_key, automorphism_generators, canonical_form
from .graph import Graph, _bits
from .graph6 import write_graph6

__all__ = [
    "MAX_ENUMERATION_ORDER",
    "connected_graphs",
    "connected_graph_count",
    "tree_classes",
    "trees",
    "CensusEntry",
    "CensusReport",
    "census",
]

MAX_ENUMERATION_ORDER = 9
_MAX_TREE_ORDER = 18
# items per forked worker, parents of a level or classes under a census
# filter.  A fork and reap costs about 2 ms, and a two-worker fan-out breaks
# even on tree levels, the cheapest per parent, between 235 and 551 parents
# (measured), so a pass forks from 512 items
_ITEMS_PER_WORKER = 256

# keys(i, parent): the function that keys each child of parents[i], or
# gives None for a child dropped unkeyed (see ``_connected_keys``)
_Keys = Callable[[int, Graph], Callable[[Graph], Optional[Hashable]]]


def _extend(parent: Graph, mask: int) -> Graph:
    """A child of the parent: one vertex more, adjacent to exactly the parent
    vertices in mask.  Children are counted by the calls of this function
    (``tests/test_layers.py``, the benchmark's tracer)."""
    bit = 1 << parent.n
    rows = list(parent._rows)
    for v in range(parent.n):
        if (mask >> v) & 1:
            rows[v] |= bit
    rows.append(mask)
    return Graph._from_rows(rows)


def _extension_masks(parent: Graph, candidates: Sequence[int]) -> Sequence[int]:
    """The candidate neighbourhood masks, one per orbit of the parent's
    automorphisms: the first candidate met in each orbit.  A generator maps
    a mask through one 16-entry table of images per 4 bits of the mask."""
    gens = automorphism_generators(parent)
    if not gens:
        return candidates
    tables = []
    for p in gens:
        nibbles = []
        for low in range(0, parent.n, 4):
            image = [0]
            for v in range(low, min(low + 4, parent.n)):
                bit = 1 << p[v]
                image += [x | bit for x in image]
            nibbles.append((low, image))
        tables.append(nibbles)
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
            for nibbles in tables:
                img = 0
                for low, image in nibbles:
                    img |= image[cur >> low & 15]
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


def _leaf_masks(parent: Graph) -> list[int]:
    """Leaf positions on a parent tree, one per orbit of its automorphisms:
    the least vertex of each orbit."""
    first: dict[int, int] = {}
    for v, code in enumerate(_orbit_labels(parent._rows)):
        first.setdefault(code, 1 << v)
    return list(first.values())


# a record: a parent and its keyed children in mask order, each as
# (mask, key, child), the child as its graph or, read from a worker, as the
# canonical data the worker found (None if it searched none)
_Record = tuple[Graph, list[tuple[int, Hashable, object]]]


def _keyed(
    parents: Sequence[Graph],
    indices: Iterable[int],
    masks: Callable[[Graph], Iterable[int]],
    keys: _Keys,
    complete: bool,
) -> Iterator[_Record]:
    """Yield the record of each parent ``parents[i]`` with i in ``indices``:
    its children that ``keys`` does not drop.  A ``complete`` key met
    before in this stream is a class met before, and its child is left out."""
    met = set()  # stays empty unless complete
    for i in indices:
        parent = parents[i]
        key = keys(i, parent)
        kept = []
        for mask in masks(parent):
            child = _extend(parent, mask)
            k = key(child)
            if k is None or k in met:
                continue
            if complete:
                met.add(k)
            kept.append((mask, k, child))
        yield parent, kept


def _merge(records: Iterable[_Record], confirm: bool) -> tuple[Graph, ...]:
    """The first child of each class among the records' children, in order.
    A key not met before is a new class.  A key met before is a class met
    before, unless ``confirm``, when canonical forms settle it: the key's
    holder, its earlier entry in the output, is searched once, and from
    then on the key files the set of forms met under it.  A child read
    from a worker is built only here, when it is kept or settled."""
    out: list[Graph] = []
    filed: dict = {}
    for parent, kept in records:
        for mask, k, child in kept:
            held = filed.get(k)
            if held is not None and not confirm:
                continue
            if not isinstance(child, Graph):
                canon, child = child, _extend(parent, mask)
                child._canon = canon
            if held is None:
                filed[k] = len(out)
            else:
                if not isinstance(held, set):
                    held = filed[k] = {canonical_form(out[held])}
                form = canonical_form(child)
                if form in held:
                    continue
                held.add(form)
            out.append(child)
    return tuple(out)


class WorkerError(RuntimeError):
    """A forked worker failed, or a function raised in a worker but not in
    the main process."""


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(items: int) -> int:
    """How many forked workers share ``items`` items: 0 or 1 means none."""
    if not hasattr(os, "fork"):
        return 0
    return min(_cpus(), items // _ITEMS_PER_WORKER)


def _children(
    parents: Iterable[Graph],
    masks: Callable[[Graph], Iterable[int]],
    key: Optional[Callable[[Graph], Hashable]] = None,
    keys: Optional[_Keys] = None,
) -> tuple[Graph, ...]:
    """One graph per isomorphism class among the parents extended by a
    vertex with each neighbourhood in ``masks(parent)``, each the first one
    generated.  Either ``key`` is a complete isomorphism invariant, or
    ``keys(i, parent)`` gives each child of parent i an invariant, or None
    for one that is not the first of its class, and the canonical form
    settles each key that two children share."""
    parents = tuple(parents)
    confirm = keys is not None
    if not confirm:
        keys = lambda i, parent: key
    workers = _workers(len(parents))
    if workers < 2:
        return _merge(_keyed(parents, range(len(parents)), masks, keys, not confirm), confirm)

    def work(indices: Iterable[int]) -> Iterator[list]:
        for _, kept in _keyed(parents, indices, masks, keys, not confirm):
            yield [(mask, k, child._canon) for mask, k, child in kept]

    def merge(records: Iterator[list]) -> tuple[Graph, ...]:
        return _merge(zip(parents, records), confirm)

    return _fan_out(len(parents), work, merge, workers)


_T = TypeVar("_T")


def _fan_out(
    items: int,
    work: Callable[[Iterable[int]], Iterator[object]],
    consume: Callable[[Iterator[object]], _T],
    workers: int,
) -> _T:
    """``consume`` of the records of items 0..``items`` - 1, made on
    ``workers`` forked processes: worker w writes ``work(range(w, items,
    workers))``, one ``marshal`` record per item in order, so item i's
    record is the next one on pipe i mod ``workers``, and ``consume``
    reads them in item order.  Every worker is reaped on the way out; one
    that failed, or a pipe that ends early, raises :class:`WorkerError`,
    and an error raised in ``consume`` passes through as it is."""
    import signal  # here, so that a process that never forks never loads it

    pids: list[int] = []
    pipes: list[BinaryIO] = []
    done = ended = False

    def records() -> Iterator[object]:
        nonlocal ended
        for i in range(items):
            try:
                yield marshal.load(pipes[i % workers])
            except EOFError:  # a worker's records ended early: reaped and reported below
                ended = True
                return

    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write, pipes, work(range(w, items, workers)))
            finally:
                os.close(write)  # the worker never returns here
            pids.append(pid)
        out = consume(records())
        done = not ended
    finally:
        # kill before closing: a worker still writing would otherwise meet
        # the closed pipe and print its BrokenPipeError
        if not done:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for f in pipes:
            f.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(statuses) or not done:
        raise WorkerError(f"forked workers failed with exit statuses {statuses}")
    return out


def _work(fd: int, inherited: list[BinaryIO], records: Iterator[object]) -> NoReturn:
    """A forked worker: close the ``inherited`` read ends, write each of
    ``records`` to ``fd``, then exit without returning to the caller's
    frames.  ``os._exit`` leaves the buffers inherited from the parent,
    such as unwritten standard output, unflushed.  On failure ``fd`` stays
    open until ``os._exit``, after the traceback: the records end, and the
    caller may kill its workers, only once the report is out."""
    status = 1
    try:
        for f in inherited:
            f.close()
        out = open(fd, "wb")
        for record in records:
            marshal.dump(record, out)
        out.close()
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


# bit offsets in a ``_profile``: the degree histogram's 4-bit counts of
# degrees 0..8 sit below the triangle count, and that below the 4-cycles
_TRIANGLES = 40
_SQUARES = 48


def _profile(rows: Sequence[int]) -> int:
    """An isomorphism invariant: the degree histogram, a 4-bit count per
    degree, the number of triangles at bit ``_TRIANGLES`` and of 4-cycles
    at bit ``_SQUARES``.  Each part is a sum over vertices or over pairs,
    so adding a vertex on a set S adds a sum over S and its pairs."""
    hist = triangles = squares = 0
    for a, ra in enumerate(rows):
        hist += 1 << 4 * ra.bit_count()
        for c in range(a + 1, len(rows)):
            common = (ra & rows[c]).bit_count()
            squares += common * (common - 1)  # four per 4-cycle
            if ra >> c & 1:
                triangles += common  # three per triangle
    return hist + (triangles // 3 << _TRIANGLES) + (squares // 4 << _SQUARES)


def _key(profile: int, rows: Sequence[int], alive: int) -> int:
    """An isomorphism invariant of the subgraph induced by the vertices in
    ``alive``, whose ``_profile`` is ``profile``: the hash of that profile
    and of one round of colour refinement, each vertex's neighbours' degree
    histogram, sorted.  The hash of a tuple of ints is the same in every
    process; two classes that share a key, by the invariant or by the
    hash, cost a canonical search, never a class."""
    deg = [1 << 4 * (r & alive).bit_count() for r in rows]
    out = []
    for u in _bits(alive):
        r = rows[u] & alive
        s = 0
        while r:
            low = r & -r
            r ^= low
            s += deg[low.bit_length() - 1]
        out.append(s)
    out.sort()
    return hash((profile, *out))


def _components(rows: Sequence[int], alive: int) -> list[int]:
    """The vertex sets of the components of the subgraph induced by ``alive``."""
    out = []
    while alive:
        seen = frontier = alive & -alive
        while frontier:
            reach = 0
            for u in _bits(frontier):
                reach |= rows[u]
            frontier = reach & alive & ~seen
            seen |= frontier
        out.append(seen)
        alive &= ~seen
    return out


def _connected_keys(parents: Sequence[Graph]) -> _Keys:
    """The keys of the children of the connected parents of one level, in
    generation order: ``keys(i, parents[i])`` gives a child G its ``_key``,
    or None when some G - v, v not the new vertex, is connected and carries
    an invariant that only parents before i carry, so that G is generated
    earlier (see the module docstring).  The ``_profile`` of G and of each
    G - v costs a few lookups in tables over the subsets of the parent's
    vertices; when parents before and after i share the profile of G - v,
    its ``_key`` decides."""
    profiles = [_profile(p._rows) for p in parents]
    spans: dict[int, list[int]] = {}  # profile -> [lowest, highest] index
    last: dict[int, int] = {}  # _key -> highest index
    for i, (p, profile) in enumerate(zip(parents, profiles)):
        spans.setdefault(profile, [i, i])[1] = i
        last[_key(profile, p._rows, (1 << p.n) - 1)] = i

    def keys(i: int, parent: Graph) -> Callable[[Graph], Optional[int]]:
        rows = parent._rows
        size = 1 << parent.n
        # add[S]: what a vertex on S adds to the profile of the parent: its
        # degree, a degree more on each vertex of S, a triangle per edge in
        # S, a 4-cycle per common neighbour of a pair in S.  In the parent
        # less v, the vertices of S in N(v) have one degree and, pairwise,
        # one common neighbour fewer, which fix[S & N(v)] takes back.  Both
        # tables grow a vertex c at a time, from each subset T of the
        # vertices below c to T + c
        add, fix = [1], [0]
        grow = [15]  # grow[T]: the new vertex's degree going from |T| to |T| + 1
        pairs = [0]  # pairs[T]: the |T| pairs of T + c that hold c
        for c, rc in enumerate(rows):
            link = [0]  # link[T]: the triangles and 4-cycles c and the new vertex close via T
            for a in range(c):
                w = ((rc >> a & 1) << _TRIANGLES) + ((rows[a] & rc).bit_count() << _SQUARES)
                link += [x + w for x in link]
            up = 15 << 4 * rc.bit_count()
            down = up - (up >> 4)
            add += [x + up + g + k for x, g, k in zip(add, grow, link)]
            fix += [x + down + q for x, q in zip(fix, pairs)]
            grow += [g << 4 for g in grow]
            pairs += [q + (1 << _SQUARES) for q in pairs]
        # the parent is its less v plus a vertex on N(v), which adds
        # add[N(v)] - fix[N(v)] to the profile; parent 0 has no earlier one
        deletions = []
        for v, nbrs in enumerate(rows if i else ()):
            alive = (size - 1) ^ (1 << v)
            base = profiles[i] - add[nbrs] + fix[nbrs]
            deletions.append((v, base, nbrs, alive, _components(rows, alive)))
        everyone = (size << 1) - 1  # the child's vertices

        def key(child: Graph) -> Optional[int]:
            mask = child._rows[-1]
            doubtful = []
            for v, base, nbrs, alive, parts in deletions:
                m = mask & alive
                profile = base + add[m] - fix[m & nbrs]
                span = spans.get(profile)
                # G - v is connected when the new vertex meets every part
                if span is None or span[0] >= i or not all(m & c for c in parts):
                    continue
                if span[1] < i:
                    return None
                doubtful.append((profile, v))
            for profile, v in doubtful:
                if last.get(_key(profile, child._rows, everyone ^ (1 << v)), i) < i:
                    return None
            return _key(profiles[i] + add[mask], child._rows, everyone)

        return key

    return keys


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    parents = _connected_classes(n - 1)
    return _children(
        parents,
        lambda p: _extension_masks(p, range(1, 1 << p.n)),
        keys=_connected_keys(parents),
    )


def _classes(n: int, caller: str) -> tuple[Graph, ...]:
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"{caller} supports 1 <= n <= {MAX_ENUMERATION_ORDER}, got {n}")
    return _connected_classes(n)


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs of order n, one per isomorphism class.

    Generation order is deterministic.  Supported for 1 <= n <= 9.
    """
    return iter(_classes(n, "connected_graphs"))


def connected_graph_count(n: int) -> int:
    """Number of isomorphism classes of connected graphs of order n."""
    return len(_classes(n, "connected_graph_count"))


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


_R = TypeVar("_R")


def _mapped(
    graphs: Sequence[Graph],
    fn: Callable[[Graph], _R],
    consume: Callable[[Iterator[_R]], _T],
) -> _T:
    """``consume`` of ``fn(g)`` for each of the graphs, in order.  Many
    graphs fork as a level does: worker w sends ``fn`` of each graph i = w
    (mod W), a ``marshal``-able value other than None, then drops the
    distances and minima it left on the graph, which would die with the
    worker anyway.  A worker whose ``fn`` raises sends None and stops, and
    the main process runs ``fn`` on that graph again, so the serial pass's
    error is raised."""
    workers = _workers(len(graphs))
    if workers < 2:
        return consume(map(fn, graphs))

    def work(indices: Iterable[int]) -> Iterator[Optional[_R]]:
        for i in indices:
            g = graphs[i]
            try:
                value = fn(g)
            except Exception:
                yield None
                return
            g._dist = g._minima = None
            yield value

    def values(records: Iterator[Optional[_R]]) -> Iterator[_R]:
        for g, value in zip(graphs, records):
            if value is None:
                fn(g)
                raise WorkerError(
                    f"a function raised in a worker but not here, on "
                    f"{write_graph6(g).decode('ascii')}: it must be a pure function"
                )
            yield value

    return _fan_out(len(graphs), work, lambda records: consume(values(records)), workers)


def _filtered(
    orders: Iterable[int], predicate: Optional[Callable[[Graph], object]]
) -> Iterator[tuple[int, Sequence[Graph]]]:
    """Each order with its connected classes that meet ``predicate``, in
    generation order, or all of them when it is None.  The predicate's
    truth is a ``_mapped`` value, so many classes fork."""
    for n in orders:
        graphs = _classes(n, "census")
        if predicate is not None:
            truth = _mapped(graphs, lambda g: bool(predicate(g)), list)
            graphs = [g for g, ok in zip(graphs, truth) if ok]
        yield n, graphs


def census(
    orders: Iterable[int],
    predicate: Optional[Callable[[Graph], object]],
    description: str = "",
) -> CensusReport:
    """Count the connected graph classes per order that satisfy
    ``predicate``, read as a bool, or every class when it is None, which
    runs no predicate.

    Representatives are recorded in generation order; they are pairwise
    non-isomorphic by construction.  The predicate must be a pure
    function of the graph: on an order with many classes it runs in
    forked workers, so its side effects, and the distances and minima it
    leaves on the graphs, do not reach the caller.
    """
    counts: dict[int, int] = {}
    reps: list[CensusEntry] = []
    for n, hits in _filtered(orders, predicate):
        counts[n] = len(hits)
        reps += (
            CensusEntry(n, canonical_form(g), write_graph6(g).decode("ascii")) for g in hits
        )
    return CensusReport(
        description=description,
        counts=counts,
        total=sum(counts.values()),
        representatives=tuple(reps),
    )
