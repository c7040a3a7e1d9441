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
two centres.  The pass that peels a tree down to its centres names every
vertex's code below them, and with it the automorphism orbits of the
vertices (``canonical._orbit_labels``).  A parent's leaf positions are
the least vertex of each orbit: the first candidate met in each orbit,
the rule that ``_extension_masks`` applies to the canonical search's
generators.  The same children are therefore built in the same order, and
since the key, like the canonical form, is a complete invariant, each
class keeps the same first child: the representatives are those the
general search gives.

A level with many parents is spread across CPU cores.  The stream of a set
of parents yields, parent by parent, the children whose class that stream
meets first, in mask order.  Serially one stream covers every parent.  A
level forks W = min(CPUs this process may use, parents //
``_PARENTS_PER_WORKER``) workers when W >= 2 and ``os.fork`` exists;
worker w runs the stream of the parents i = w (mod W) and writes one
``marshal`` record per parent to a pipe, each child as its mask, its key
and its canonical data.  The main process reads the records in parent
order, parent i's as the next record from worker i mod W, keeps the first
child of each key and rebuilds it from its parent and mask with the
record's canonical data.  The representatives are the serial ones: the
first child of a class in generation order is the first its own worker's
stream meets, since every child that stream meets before it comes earlier
in generation order, and the ordered merge reaches that child before any
later one.  Workers are forked from a process that starts no threads, and
exit with ``os._exit``; a worker that fails prints its traceback, its
records end early, and the call raises once every worker is reaped.
"""

from __future__ import annotations

import marshal
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO, Callable, Hashable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .canonical import _orbit_labels, _tree_key, automorphism_generators, canonical_form
from .graph import Graph
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
# parents per forked worker.  A fork and reap costs about 2 ms, and a
# two-worker fan-out breaks even on tree levels, the cheapest per parent,
# between 235 and 551 parents (measured), so a level forks from 512 parents
_PARENTS_PER_WORKER = 256


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
    the least vertex of each orbit."""
    first: dict[int, int] = {}
    for v, code in enumerate(_orbit_labels(parent._rows)):
        first.setdefault(code, 1 << v)
    return list(first.values())


def _stream(
    parents: Iterable[Graph],
    masks: Callable[[Graph], Iterable[int]],
    key: Callable[[Graph], Hashable],
    seen: set,
) -> Iterator[list[tuple[int, Hashable, Graph]]]:
    """Yield, for each parent, the list ``kept`` of ``(mask, key, child)``,
    in mask order, for each child whose key is not yet in ``seen``, and add
    that key."""
    for parent in parents:
        kept = []
        for mask in masks(parent):
            child = _extend(parent, mask)
            k = key(child)
            if k not in seen:
                seen.add(k)
                kept.append((mask, k, child))
        yield kept


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _children(
    parents: Iterable[Graph],
    masks: Callable[[Graph], Iterable[int]],
    key: Callable[[Graph], Hashable],
) -> tuple[Graph, ...]:
    """One graph per isomorphism class among the parents extended by a
    vertex with each neighbourhood in ``masks(parent)``, each the first one
    generated; ``key`` is a complete isomorphism invariant."""
    parents = tuple(parents)
    workers = min(_cpus(), len(parents) // _PARENTS_PER_WORKER)
    if workers < 2 or not hasattr(os, "fork"):
        stream = _stream(parents, masks, key, set())
        return tuple(child for kept in stream for _, _, child in kept)
    return _fan_out(parents, masks, key, workers)


def _fan_out(
    parents: Sequence[Graph],
    masks: Callable[[Graph], Iterable[int]],
    key: Callable[[Graph], Hashable],
    workers: int,
) -> tuple[Graph, ...]:
    """``_children`` on ``workers`` forked processes: worker w writes the
    records of the stream of the parents i = w (mod ``workers``), in order
    of i, each child as ``(mask, key, child._canon)``, so parent i's record
    is the next one on pipe i mod ``workers``.  Every worker is reaped on
    the way out; one that failed, or a pipe that ends early, raises."""
    import signal  # here, so that a process that never forks never loads it

    pids: list[int] = []
    pipes: list[BinaryIO] = []
    out = []
    seen = set()
    finished = False
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    stream = _stream(parents[w::workers], masks, key, set())
                    _work(write, pipes, stream)
            finally:
                os.close(write)  # the worker never returns here
            pids.append(pid)
        for i, parent in enumerate(parents):
            try:
                kept = marshal.load(pipes[i % workers])
            except EOFError:  # its worker failed: reaped and reported below
                break
            for mask, k, canon in kept:
                if k not in seen:
                    seen.add(k)
                    child = _extend(parent, mask)
                    child._canon = canon
                    out.append(child)
        else:
            finished = True
    finally:
        # kill before closing: a worker still writing would otherwise meet
        # the closed pipe and print its BrokenPipeError
        if not finished:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for f in pipes:
            f.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(statuses) or not finished:
        raise RuntimeError(f"enumeration workers failed with exit statuses {statuses}")
    return tuple(out)


def _work(
    fd: int,
    inherited: list[BinaryIO],
    stream: Iterator[list[tuple[int, Hashable, Graph]]],
) -> NoReturn:
    """A forked worker: close the ``inherited`` read ends, write each record
    of ``stream`` to ``fd``, the child graphs as their canonical data, then
    exit without returning to the caller's frames.  ``os._exit`` leaves the
    buffers inherited from the parent, such as unwritten standard output,
    unflushed.  On failure ``fd`` stays open until ``os._exit``, after the
    traceback: the records end, and the caller may kill its workers, only
    once the report is out."""
    status = 1
    try:
        for f in inherited:
            f.close()
        out = open(fd, "wb")
        for kept in stream:
            marshal.dump([(mask, k, child._canon) for mask, k, child in kept], out)
        out.close()
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


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
