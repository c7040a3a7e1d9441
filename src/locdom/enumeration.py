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
the degree histogram with the triangle and 4-cycle counts (``_profile``)
and of one round of colour refinement (Weisfeiler-Leman).  Both are read
from tables over the subsets of the parent's vertices, for the child and
for each G - v alike, so a connected child is never built to be keyed or
dropped.  A key not met before is a class not met before, and the child
is kept with no canonical search.  A key met before is settled by
canonical form: the child's, and once, that of the key's holder, its
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
``_extension_masks``, and any other class only when a caller asks, on the
graph that caller reads.

Trees are generated by the same augmentation restricted to one-vertex
neighbourhoods (leaf augmentation), to n = 18, beyond the general
enumeration range, and without the general canonical search.  Each child
is keyed by a complete invariant, the least AHU code rooted at one of its
centres, read from one peel of its parent (``canonical._tree_keys``), so
no child is built to be keyed.  The peel also gives the parent's
automorphism orbits, and a child is keyed only on the least vertex of
each, the rule ``_extension_masks`` applies to the search's generators.
Since the key, like the canonical form, is complete, each class keeps the
same first child: the representatives are those the general search gives.

A level is a ``_Level``: one int per class, its parent's index and its
mask packed together, which name the class, and a view that rebuilds
class i, a new graph in a few microseconds, wherever it is read.  Only
an order that serves as parents is also kept as graphs (``_parents``),
so the top level costs 8 bytes a class.  One function, ``_merge``, files
the keys and settles those met again, in generation order.  A key's
holder is filed as its packed int and rebuilt only when a later child
settles the key, and a child is built in the merge only to be settled.

Every pass, over a level's parents or over the classes of an order under
a census filter or the theorem sweeps (:mod:`locdom.theorems`), is one
call of ``_fan_out``, which forks workers for many items and otherwise
maps in the main process; serial or forked, the same ``one(i)`` runs and
fails the same way.  A level's ``one(i)`` keys parent i's children from
its peel or its tables and files nothing: its record is the children as
(mask, key), less those whose complete key its process sent before.  A
filter's or a sweep's ``one(i)`` reads class i through the level's view,
so a forked worker builds the graphs it reads.
"""

from __future__ import annotations

import marshal
import os
import sys
from functools import lru_cache
from itertools import compress
from typing import (
    BinaryIO, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Optional,
    Sequence, TypeVar,
)

from .canonical import _tree_keys, automorphism_generators, canonical_form
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
# items per forked worker: parents of a level, or classes under a census
# filter or the theorem sweeps.  A fork and reap costs about 2 ms.  Tree
# levels, the cheapest per parent as no child is built, break even on two
# workers at about 551 parents (measured); every other pass costs more per
# item, and a pass forks from 512 items
_ITEMS_PER_WORKER = 256

# keys(i, parent): the function that keys the child of parents[i] on each
# mask, or gives None for a child dropped unkeyed (see ``_connected_keys``
# and ``canonical._tree_keys``)
_Keys = Callable[[int, Graph], Callable[[int], Optional[Hashable]]]


def _extend(parent: Graph, mask: int) -> Graph:
    """A child of the parent: one vertex more, adjacent to exactly the parent
    vertices in mask.  Every child built, and every class rebuilt from its
    parent and mask, is a call of this function (``tests/test_layers.py``,
    the benchmark's tracer).  A child is keyed from its parent and built
    only when the merge settles its key."""
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


class _Level(Sequence[Graph]):
    """The classes of one order as a sequence.  Class i is held as one int,
    ``packed[i]``: its parent's index shifted past the parents' order, or'ed
    with its mask.  Each read rebuilds it, a new graph."""

    __slots__ = ("parents", "packed", "_shift")

    def __init__(self, parents: Sequence[Graph]) -> None:
        from array import array  # here, so that a run that enumerates nothing never loads it

        self.parents = parents
        self.packed = array("q")
        self._shift = parents[0].n

    def _build(self, code: int) -> Graph:
        return _extend(self.parents[code >> self._shift], code & ~(-1 << self._shift))

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i: int) -> Graph:
        return self._build(self.packed[i])

    def __iter__(self) -> Iterator[Graph]:
        return map(self._build, self.packed)


# a record: the keyed children of one parent in mask order, each as (mask, key)
_Record = list[tuple[int, Hashable]]


def _merge(parents: Sequence[Graph], records: Iterable[_Record], confirm: bool) -> _Level:
    """The first child of each class among the children of the records, a
    record per parent in order.  A key not met before is a new class.  A
    key met before is a class met before, unless ``confirm``, when
    canonical forms settle it: the key's holder, its earlier entry in the
    level, is rebuilt and searched once, and from then on the key files the
    set of forms met under it.  A child is built here only to be settled."""
    level = _Level(parents)
    shift, keep = level._shift, level.packed.append
    filed: dict = {}
    for i, kept in enumerate(records):
        for mask, k in kept:
            code = i << shift | mask
            held = filed.get(k)
            if held is None:
                filed[k] = code
            elif not confirm:
                continue
            else:
                if not isinstance(held, set):
                    held = filed[k] = {canonical_form(level._build(held))}
                form = canonical_form(_extend(parents[i], mask))
                if form in held:
                    continue
                held.add(form)
            keep(code)
    return level


class WorkerError(RuntimeError):
    """A forked worker failed, or a function raised in a worker but not in
    the main process."""


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _children(
    parents: Iterable[Graph],
    masks: Callable[[Graph], Iterable[int]],
    keys: _Keys,
    complete: bool = False,
) -> _Level:
    """The level of the parents extended by a vertex with each
    neighbourhood in ``masks(parent)``: the first child generated in each
    isomorphism class.  ``keys(i, parent)`` gives the child of parent i on
    each mask an invariant, or None for one that is not the first of its
    class.  The canonical form settles each key that two children share,
    unless the keys are ``complete`` invariants, which settle themselves."""
    parents = tuple(parents)
    met: set = set()  # the complete keys this process sent, whose later children the merge drops

    def one(i: int) -> _Record:
        key = keys(i, parents[i])
        kept = [(m, k) for m in masks(parents[i]) if (k := key(m)) is not None and k not in met]
        if complete:
            met.update(k for _, k in kept)
        return kept

    return _fan_out(len(parents), one, lambda records: _merge(parents, records, not complete))


_T = TypeVar("_T")


def _fan_out(
    items: int, one: Callable[[int], object], consume: Callable[[Iterator[object]], _T]
) -> _T:
    """``consume`` of ``one(i)`` for the items i = 0..``items`` - 1, in
    order: the one pass, serial or forked.  It forks W = min(``_cpus()``,
    items // ``_ITEMS_PER_WORKER``) workers when W >= 2 and ``os.fork``
    exists, from a process that starts no threads, and otherwise maps
    ``one`` here.  Worker w writes ``one(i)``, a ``marshal``-able value
    other than None, as a record for each i = w (mod W), so item i's
    record is the next one on pipe i mod W.  A worker whose ``one`` raises
    writes None and stops, and the main process runs ``one(i)`` itself, so
    the serial pass's error is raised, or else :class:`WorkerError`.
    Every worker is reaped on the way out; a fork that fails, a worker
    that fails or a pipe that ends early raises :class:`WorkerError`, and
    an error in ``consume`` passes through."""
    workers = min(_cpus(), items // _ITEMS_PER_WORKER) if hasattr(os, "fork") else 0
    if workers < 2:
        return consume(map(one, range(items)))
    import signal  # here, so that a process that never forks never loads it

    pids: list[int] = []
    pipes: list[BinaryIO] = []
    done = ended = False

    def written(w: int) -> Iterator[object]:
        for i in range(w, items, workers):
            try:
                yield one(i)
            except Exception:
                yield None
                return

    def records() -> Iterator[object]:
        nonlocal ended
        for i in range(items):
            try:
                record = marshal.load(pipes[i % workers])
            except EOFError:  # a worker's records ended early: reaped and reported below
                ended = True
                return
            if record is None:
                one(i)
                raise WorkerError(
                    f"item {i} raised in a worker but not here: it must be a pure function"
                )
            yield record

    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write, pipes, written(w))
            except OSError as exc:  # EAGAIN or ENOMEM: the workers started are killed below
                raise WorkerError(f"cannot fork a worker: {exc}") from exc
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
    such as unwritten standard output, unflushed.  A record that cannot be
    written prints its traceback and exits 1; ``fd`` stays open until
    ``os._exit``, so the records end, and the caller may kill its workers,
    only once the report is out."""
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


def _key(profile: int, sums: list[int]) -> int:
    """An isomorphism invariant of a graph whose ``_profile`` is ``profile``
    and whose vertices' refinement sums are ``sums``: the hash of that
    profile and of one round of colour refinement (Weisfeiler-Leman), the
    sums sorted in place.  A vertex's refinement sum is its neighbours'
    degree histogram, the sum of 16 ** degree over its neighbours.  The
    hash of a tuple of ints is the same in every process; two classes that
    share a key, by the invariant or by the hash, cost a canonical search,
    never a class.  Every connected key is a call of this function."""
    sums.sort()
    return hash((profile, *sums))


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
    generation order: ``keys(i, parents[i])`` gives the child on a mask its
    ``_key``, or None when some G - v, v not the new vertex, is connected and
    carries an invariant that only parents before i carry, so that G is
    generated earlier (see the module docstring).  No child is built: the
    ``_profile`` and the refinement sums of G and of each G - v are lookups
    in tables over the subsets of the parent's vertices.  When parents
    before and after i share the profile of G - v, its ``_key`` decides, once
    per v and set of neighbours the new vertex keeps in G - v."""
    profiles = [_profile(p._rows) for p in parents]
    spans: dict[int, list[int]] = {}  # profile -> [lowest, highest] index
    last: dict[int, int] = {}  # _key -> highest index
    for i, (p, profile) in enumerate(zip(parents, profiles)):
        spans.setdefault(profile, [i, i])[1] = i
        weights = [1 << 4 * r.bit_count() for r in p._rows]  # 16 ** degree
        last[_key(profile, [sum(weights[w] for w in _bits(r)) for r in p._rows])] = i
    # the tables of the parents' order alone: grow[T], the new vertex's
    # degree going from |T| to |T| + 1; pairs[T], the |T| pairs of T + c
    # that hold a vertex c above T
    grow, pairs = [15], [0]
    for _ in range(parents[0].n):
        grow += [g << 4 for g in grow]
        pairs += [q + (1 << _SQUARES) for q in pairs]

    def keys(i: int, parent: Graph) -> Callable[[int], Optional[int]]:
        rows = parent._rows
        size = 1 << parent.n
        # add[S]: what a vertex on S adds to the profile of the parent: its
        # degree, a degree more on each vertex of S, a triangle per edge in
        # S, a 4-cycle per common neighbour of a pair in S.  In the parent
        # less v, the vertices of S in N(v) have one degree and, pairwise,
        # one common neighbour fewer, which fix[S & N(v)] takes back.
        # weight[S]: the sum of 16 ** degree over S, which the refinement
        # sums read.  The tables grow a vertex c at a time, from each subset
        # T of the vertices below c to T + c
        add, fix, weight = [1], [0], [0]
        for c, rc in enumerate(rows):
            link = [0]  # link[T]: the triangles and 4-cycles c and the new vertex close via T
            for a in range(c):
                w = ((rc >> a & 1) << _TRIANGLES) + ((rows[a] & rc).bit_count() << _SQUARES)
                link += [x + w for x in link]
            wc = 1 << 4 * rc.bit_count()  # 16 ** degree of c
            up = 15 * wc
            down = up - (up >> 4)
            add += [x + up + g + k for x, g, k in zip(add, grow, link)]
            fix += [x + down + q for x, q in zip(fix, pairs)]
            weight += [x + wc for x in weight]
        # the parent is its less v plus a vertex on N(v), which adds
        # add[N(v)] - fix[N(v)] to the profile; parent 0 has no earlier one.
        # G - v is connected when the new vertex meets every part of the
        # parent less v, or, when that is connected, any vertex of it
        deletions = []
        for v, nbrs in enumerate(rows if i else ()):
            alive = (size - 1) ^ (1 << v)
            base = profiles[i] - add[nbrs] + fix[nbrs]
            parts = _components(rows, alive)
            deletions.append((v, base, nbrs, alive, () if parts == [alive] else parts, {}))
        own = [weight[r] for r in rows]  # each parent vertex's refinement sum in the parent

        def earlier(v: int, profile: int, nbrs: int, alive: int, m: int) -> bool:
            # G - v is isomorphic to a parent before i by its _key: in G - v
            # each vertex of N(v) has a degree less, so weight[S] counts its
            # part in N(v) at 16 ** degree / 16
            keep, t = alive & ~nbrs, 4 * m.bit_count()
            sums = [
                weight[r & keep] + (weight[r & nbrs] >> 4)
                + 15 * (weight[r & m & keep] + (weight[r & m & nbrs] >> 4))
                + ((m >> u & 1) << t)
                for u, r in enumerate(rows) if u != v
            ]
            sums.append(weight[m & keep] + (weight[m & nbrs] >> 4) << 4)
            return last.get(_key(profile, sums), i) < i

        def key(mask: int) -> Optional[int]:
            doubtful = []
            for v, base, nbrs, alive, parts, verdicts in deletions:
                m = mask & alive
                if not m:
                    continue
                profile = base + add[m] - fix[m & nbrs]
                span = spans.get(profile)
                if span is None or span[0] >= i or parts and not all(m & c for c in parts):
                    continue
                if span[1] < i:
                    return None
                doubtful.append((v, profile, nbrs, alive, m, verdicts))
            for v, profile, nbrs, alive, m, verdicts in doubtful:
                verdict = verdicts.get(m)
                if verdict is None:
                    verdict = verdicts[m] = earlier(v, profile, nbrs, alive, m)
                if verdict:
                    return None
            # in G each vertex of the mask has a degree more, and the new
            # vertex is a neighbour of degree |mask|
            t = 4 * mask.bit_count()
            sums = [
                s + 15 * weight[r & mask] + ((mask >> u & 1) << t)
                for u, (s, r) in enumerate(zip(own, rows))
            ]
            sums.append(weight[mask] << 4)
            return _key(profiles[i] + add[mask], sums)

        return key

    return keys


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> Sequence[Graph]:
    if n == 1:
        return (Graph(1),)
    parents = _parents(n - 1, False)
    return _children(
        parents, lambda p: _extension_masks(p, range(1, 1 << p.n)), _connected_keys(parents)
    )


@lru_cache(maxsize=None)
def _tree_classes(n: int) -> Sequence[Graph]:
    if n == 1:
        return (Graph(1),)
    return _children(
        _parents(n - 1, True), lambda p: [1 << v for v in range(p.n)], _tree_keys, complete=True
    )


@lru_cache(maxsize=None)
def _parents(n: int, trees: bool) -> tuple[Graph, ...]:
    """The classes of order n as graphs, built once and kept, for they are
    the parents of order n + 1."""
    return tuple(_tree_classes(n) if trees else _connected_classes(n))


def _classes(n: int, caller: str) -> Sequence[Graph]:
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"{caller} supports 1 <= n <= {MAX_ENUMERATION_ORDER}, got {n}")
    return _connected_classes(n)


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs of order n, one per isomorphism class, each
    built as it is read.

    Generation order is deterministic.  Supported for 1 <= n <= 9.
    """
    return iter(_classes(n, "connected_graphs"))


def connected_graph_count(n: int) -> int:
    """Number of isomorphism classes of connected graphs of order n."""
    return len(_classes(n, "connected_graph_count"))


def _trees(n: int, caller: str) -> Sequence[Graph]:
    if not 1 <= n <= _MAX_TREE_ORDER:
        raise ValueError(f"{caller} supports 1 <= n <= {_MAX_TREE_ORDER}, got {n}")
    return _tree_classes(n)


def tree_classes(n: int) -> tuple[Graph, ...]:
    """All trees of order n up to isomorphism, in generation order
    (supported to n = 18).  Each call builds a new tuple; the orders below
    n stay cached as graphs, order n only as each class's parent and mask."""
    return tuple(_trees(n, "tree_classes"))


def trees(n: int) -> Iterator[Graph]:
    """Iterator form of :func:`tree_classes`: each tree is built as it is read."""
    return iter(_trees(n, "trees"))


# -- censuses -------------------------------------------------------------


class CensusEntry(NamedTuple):
    order: int
    canonical: bytes
    graph6: str


class CensusReport(NamedTuple):
    """Counts of isomorphism classes per order satisfying a filter."""

    description: str
    counts: Mapping[int, int]
    total: int
    representatives: tuple[CensusEntry, ...]

    def count(self, order: int) -> int:
        return self.counts.get(order, 0)


def _filtered(
    orders: Iterable[int], predicate: Optional[Callable[[Graph], object]]
) -> Iterator[tuple[int, Sequence[Graph], Sequence[int]]]:
    """Each order with its connected classes and the indices of those that
    meet ``predicate``, in generation order, or of all of them when it is
    None.  The predicate's truth is one ``_fan_out`` pass over the classes,
    so many classes fork; a hit is built only where the caller reads it."""
    from array import array  # here, so that a run that enumerates nothing never loads it

    for n in orders:
        graphs = _classes(n, "census")
        hits: Sequence[int] = range(len(graphs))
        if predicate is not None:
            truth = lambda i: bool(predicate(graphs[i]))
            hits = _fan_out(len(hits), truth, lambda t: array("q", compress(hits, t)))
        yield n, graphs, hits


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
    for n, graphs, hits in _filtered(orders, predicate):
        counts[n] = len(hits)
        reps += (
            CensusEntry(n, canonical_form(g), write_graph6(g).decode("ascii"))
            for g in map(graphs.__getitem__, hits)
        )
    return CensusReport(
        description=description,
        counts=counts,
        total=sum(counts.values()),
        representatives=tuple(reps),
    )
