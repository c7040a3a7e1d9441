"""Mechanical checkers for the bounds, characterizations and realization
statements, one per result, each returning a structured :class:`Verdict`.

Checkers *skip* (rather than fail) graphs that do not meet a statement's
hypotheses, recording the unmet hypothesis, so exhaustive sweeps stay
honest about scope.  A ``fails`` verdict always carries counterexamples
serialized as graph6, and re-evaluating a counterexample with the plain
predicates reproduces the failure.

The checked statements, writing n for the order, D for the diameter and
(gamma, beta, eta, lambda) for the four parameters:

* inequality chain: max(gamma, beta) <= eta <= min(gamma + beta, lambda);
* eta bounds (D >= 3): eta + ceil(2D/3) <= n <= eta + eta * 3^(eta-1),
  lower bound tight on paths of order 3k, upper tight on the
  :func:`~locdom.families.g_eta_construction` graphs;
* lambda bounds: lambda + ceil((3D-1)/5) <= n for D >= 3 (tight on P5),
  and n <= lambda + 2^lambda - 1 for every connected graph;
* tree bounds: eta <= lambda <= 2*eta - 2 for every tree of order >= 3
  except P6 (which measures (eta, lambda) = (2, 3));
* eta = lambda whenever D = 2 or beta >= n - 3;
* eta = 2 membership: 3 <= n <= 8, every optimal 2-code {u, v} has
  d(u, v) <= 3, and the metric-coordinate map of some optimal 2-code
  draws G inside the 5x5 king grid (every edge becomes a king move);
* extremal lambda: lambda >= n-2 forces D <= 3; lambda = n-2 iff
  eta = n-2; every lambda = n-2 graph belongs to the seven listed
  families; and eta = n-3 forces lambda = n-3;
* realization: every feasible (gamma, beta, eta) triple and every
  feasible tree pair (eta, lambda) is realized by the constructions in
  :mod:`locdom.families`.

Requested theorems run in one pass (``_run_theorems``; :func:`run_theorem`
is its one-theorem case) over one table, ``_THEOREMS``, of a row per
theorem: its checker or parameter-grid runner, its orders and whether it
sweeps trees.  Every request's order range is checked first, in request
order, so a cap that leaves nothing to check or lies beyond the
enumerator is refused before any graph is.  Then a supplied graph stream
is checked once, or else one loop walks the sorted (trees, n) levels of
the requests, connected orders first.  Each class goes once through the
checker of every sweep whose orders hold it, and its graph6 is encoded
once for all of them and kept on the graph; an order's classes are read
through its level's packed view, so each graph is built where it is
checked and none is kept.  Each sweep keeps a partial verdict: graphs
checked and skipped, and counterexamples in class order.  The pass over
an order, connected or of trees, or over a supplied stream is one
:func:`~locdom.enumeration._fan_out`, forked for many classes: a class's
record is each sweep's (skipped, counterexamples), and the main process
adds them up in class order.  A checker that raises in a worker is run
again on its class in the main process, which raises the error of the
serial pass.
At the end the partial verdicts, with their tightness parts, become the
verdicts, and each grid row runs its grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import families
from .canonical import canonical_form
from .enumeration import _MAX_TREE_ORDER, MAX_ENUMERATION_ORDER, _connected_classes, _fan_out
from .enumeration import _tree_classes, write_graph6
from .graph import Graph
from .predicates import Code, _code_mask, _hitting_family
from .solvers import _tree_minima, full_report, minimum_code

__all__ = [
    "Verdict",
    "check_inequality_chain",
    "check_eta_bounds",
    "check_lambda_bounds",
    "check_tree_bounds",
    "check_eta_equals_lambda_conditions",
    "check_eta2_membership",
    "metric_coordinate_map",
    "isometric_embedding_check",
    "king_grid_subgraph_check",
    "check_lambda_extremal",
    "verify_realization",
    "verify_tree_realization",
    "THEOREM_IDS",
    "run_theorem",
    "sweep",
]

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checker over one graph or one sweep."""

    theorem: str
    scope: str
    status: str
    reason: str = ""
    counterexamples: tuple[tuple[str, str], ...] = ()
    parts: tuple["Verdict", ...] = ()

    def __post_init__(self):
        if (self.status == FAILS) != bool(self.counterexamples):
            raise ValueError("status is 'fails' exactly when counterexamples exist")

    @property
    def ok(self) -> bool:
        return self.status != FAILS


def _judge(theorem: str, scope: str, ok: bool, detail: str, g6: str = "") -> Verdict:
    """Holds with reason ``detail``, or fails with the one counterexample
    ``(g6, detail)``."""
    if ok:
        return Verdict(theorem, scope, HOLDS, detail)
    return Verdict(theorem, scope, FAILS, "", ((g6, detail),))


def _combine(theorem: str, scope: str, parts: Sequence[Verdict], reason="") -> Verdict:
    parts = tuple(parts)
    if not reason and parts:
        reason = parts[0].reason
    cx = tuple(c for p in parts for c in p.counterexamples)
    if cx:
        status = FAILS
    elif parts and all(p.status == SKIPPED for p in parts):
        status = SKIPPED
    else:
        status = HOLDS
    return Verdict(theorem, scope, status, reason, cx, parts)


def _g6(g: Graph) -> str:
    return write_graph6(g).decode("ascii")


def _where(g: Graph) -> tuple[str, str]:
    """The scope of a single-graph verdict, and the graph6 a failure cites."""
    g6 = _g6(g)
    return f"graph {g6} (n={g.n})", g6


# -- single-graph checkers --------------------------------------------------


def check_inequality_chain(g: Graph) -> Verdict:
    """max(gamma, beta) <= eta <= min(gamma + beta, lambda)."""
    scope, g6 = _where(g)
    r = full_report(g)
    lo, hi = max(r.gamma, r.beta), min(r.gamma + r.beta, r.lambda_)
    detail = f"gamma={r.gamma} beta={r.beta} eta={r.eta} lambda={r.lambda_}"
    return _judge("inequality-chain", scope, lo <= r.eta <= hi, detail, g6)


def check_eta_bounds(g: Graph) -> Verdict:
    """eta + ceil(2D/3) <= n <= eta + eta * 3^(eta-1), for D >= 3."""
    scope, g6 = _where(g)
    name = "eta-bounds"
    d = g.diameter()
    if d < 3:
        return Verdict(name, scope, SKIPPED, f"hypothesis unmet: diameter {d} < 3")
    eta = minimum_code(g, "eta")[0]
    lower = eta + ceil(2 * d / 3)
    upper = eta + eta * 3 ** (eta - 1)
    notes = [f"eta={eta} D={d} n={g.n}"]
    if lower == g.n:
        notes.append("lower bound tight")
    if upper == g.n:
        notes.append("upper bound tight")
    return _judge(name, scope, lower <= g.n <= upper, "; ".join(notes), g6)


def check_lambda_bounds(g: Graph) -> Verdict:
    """lambda + ceil((3D-1)/5) <= n for D >= 3, and n <= lambda + 2^lambda - 1."""
    scope, g6 = _where(g)
    name = "lambda-bounds"
    d = g.diameter()
    lam = minimum_code(g, "lambda")[0]
    detail = f"lambda={lam} D={d} n={g.n}"
    if d < 3:
        lower = Verdict(f"{name}/lower", scope, SKIPPED, f"hypothesis unmet: diameter {d} < 3")
    else:
        bound = lam + ceil((3 * d - 1) / 5)
        note = detail + ("; lower bound tight" if bound == g.n else "")
        lower = _judge(f"{name}/lower", scope, bound <= g.n, note, g6)
    upper = _judge(f"{name}/upper", scope, g.n <= lam + 2 ** lam - 1, detail, g6)
    return _combine(name, scope, [lower, upper], detail)


def check_tree_bounds(g: Graph) -> Verdict:
    """eta <= lambda <= 2*eta - 2 for trees of order >= 3 other than P6."""
    scope, g6 = _where(g)
    name = "tree-bounds"
    if not g.is_tree():
        return Verdict(name, scope, SKIPPED, "hypothesis unmet: not a tree")
    if g.n < 3:
        return Verdict(name, scope, SKIPPED, f"hypothesis unmet: order {g.n} < 3")
    eta, lam = _tree_minima(g)
    detail = f"eta={eta} lambda={lam}"
    if g.n == 6 and g.diameter() == 5:  # P6, the only such tree
        exception = "violates upper bound" if lam > 2 * eta - 2 else "within bounds"
        return Verdict(name, scope, SKIPPED, f"stated exception P6: {detail}; {exception}")
    notes = [detail]
    if lam == eta:
        notes.append("lower bound attained")
    if lam == 2 * eta - 2:
        notes.append("upper bound attained")
    return _judge(name, scope, eta <= lam <= 2 * eta - 2, "; ".join(notes), g6)


def check_eta_equals_lambda_conditions(g: Graph) -> Verdict:
    """D = 2 or beta >= n - 3 implies eta = lambda."""
    scope, g6 = _where(g)
    name = "eta-equals-lambda"
    d = g.diameter()
    beta = minimum_code(g, "beta")[0]
    if d != 2 and beta < g.n - 3:
        return Verdict(
            name, scope, SKIPPED, f"hypothesis unmet: D={d} != 2 and beta={beta} < n-3"
        )
    eta, lam = minimum_code(g, "eta")[0], minimum_code(g, "lambda")[0]
    return _judge(name, scope, eta == lam, f"D={d} beta={beta} eta={eta} lambda={lam}", g6)


# -- eta = 2 membership ------------------------------------------------------


@lru_cache(maxsize=None)
def _king5() -> Graph:
    return families.strong_grid([5, 5])


def metric_coordinate_map(g: Graph, code: Code) -> Optional[tuple[int, ...]]:
    """Map each vertex to the king-grid vertex given by its distances to a
    2-code, or None when the coordinates leave the 5x5 grid or collide;
    ValueError unless the code is two distinct vertices of g."""
    if len(code) != 2:
        raise ValueError("metric_coordinate_map expects a 2-element code")
    _code_mask(g, code)
    u, w = code
    dist = g.distance_matrix()
    du, dw = dist[u], dist[w]
    mapping = []
    for v in range(g.n):
        if not (0 <= du[v] <= 4 and 0 <= dw[v] <= 4):
            return None
        mapping.append(5 * du[v] + dw[v])
    if len(set(mapping)) != g.n:
        return None
    return tuple(mapping)


def isometric_embedding_check(g: Graph, h: Graph, mapping: Sequence[int]) -> bool:
    """True iff ``mapping`` preserves every pairwise distance from g into h;
    ValueError unless it sends g's vertices to distinct vertices of h."""
    if len(mapping) != g.n:
        raise ValueError(f"mapping has {len(mapping)} entries for {g.n} vertices")
    _code_mask(h, mapping)
    dg = g.distance_matrix()
    dh = h.distance_matrix()
    for x in range(g.n):
        row_g = dg[x]
        row_h = dh[mapping[x]]
        for y in range(x + 1, g.n):
            if row_g[y] != row_h[mapping[y]]:
                return False
    return True


def king_grid_subgraph_check(g: Graph, mapping: Sequence[int]) -> bool:
    """True iff ``mapping`` sends every edge of g to a king move in the 5x5
    grid (an injective homomorphism: g drawn inside the grid); ValueError
    unless it sends g's vertices to distinct grid vertices 0..24."""
    if len(mapping) != g.n:
        raise ValueError(f"mapping has {len(mapping)} entries for {g.n} vertices")
    king = _king5()
    _code_mask(king, mapping)
    return all(king.has_edge(mapping[x], mapping[y]) for x, y in g.edges())


def check_eta2_membership(g: Graph) -> Verdict:
    """For eta(G) = 2: 3 <= n <= 8, every optimal 2-code is at distance <= 3,
    and the metric-coordinate map of some optimal 2-code draws G inside the
    5x5 king grid (each edge becomes a king move).

    The drawing generally contracts long distances: the grid's diameter is
    4, so a graph of diameter 5 (P6 is one) cannot keep all distances
    exact.  The verdict reason records how many code maps do happen to
    preserve the full metric.
    """
    scope, g6 = _where(g)
    name = "eta2-membership"
    found = minimum_code(g, "eta", k_max=2)
    if found is None or found[0] != 2:
        eta_desc = "eta=1" if found else "eta>2"
        return Verdict(name, scope, SKIPPED, f"hypothesis unmet: {eta_desc}")
    dist = g.distance_matrix()
    family = _hitting_family(g, "eta")  # a pair is a code when it meets every set
    codes = [
        (u, w)
        for u in range(g.n)
        for w in range(u + 1, g.n)
        if all(s & (1 << u | 1 << w) for s in family)
    ]
    bad = []
    if not 3 <= g.n <= 8:
        bad.append((g6, f"order {g.n} outside 3..8"))
    king = _king5()
    embeddings = metric_preserving = 0
    for u, w in codes:
        if dist[u][w] > 3:
            bad.append((g6, f"code ({u},{w}) at distance {dist[u][w]} > 3"))
        mapping = metric_coordinate_map(g, (u, w))
        if mapping is None:
            continue
        if king_grid_subgraph_check(g, mapping):
            embeddings += 1
            if isometric_embedding_check(g, king, mapping):
                metric_preserving += 1
    if embeddings == 0:
        bad.append((g6, "no optimal 2-code draws the graph inside the king grid"))
    detail = (
        f"{len(codes)} optimal 2-codes, {embeddings} king-grid embeddings, "
        f"{metric_preserving} metric-preserving"
    )
    return Verdict(name, scope, FAILS if bad else HOLDS, detail, tuple(bad))


# -- extremal lambda ---------------------------------------------------------


@lru_cache(maxsize=None)
def _extremal_forms(n: int) -> frozenset[bytes]:
    """The canonical forms of the seven families' members of order n."""
    return frozenset(
        canonical_form(inst.graph) for inst in families.eta_extremal_instances_of_order(n)
    )


def check_lambda_extremal(g: Graph) -> Verdict:
    """Extremal behaviour near lambda = n - 2 (order >= 3):

    (a) lambda >= n-2 implies D <= 3; (b) lambda = n-2 iff eta = n-2;
    (c) every lambda = n-2 graph is one of the seven families;
    (d) eta = n-3 implies lambda = n-3.
    """
    scope, g6 = _where(g)
    name = "lambda-extremal"
    if g.n < 3:
        return Verdict(name, scope, SKIPPED, f"hypothesis unmet: order {g.n} < 3")
    r = full_report(g)
    n, d, eta, lam = r.n, r.diameter, r.eta, r.lambda_
    detail = f"n={n} D={d} eta={eta} lambda={lam}"
    parts = []
    if lam >= n - 2:
        parts.append(_judge(f"{name}/diameter", scope, d <= 3, detail, g6))
    else:
        parts.append(Verdict(f"{name}/diameter", scope, SKIPPED, f"lambda={lam} < n-2"))
    equivalent = (lam == n - 2) == (eta == n - 2)
    parts.append(_judge(f"{name}/equivalence", scope, equivalent, detail, g6))
    if lam == n - 2:
        member = canonical_form(g) in _extremal_forms(n)
        note = "" if member else "; not in the seven-family list"
        parts.append(_judge(f"{name}/family-membership", scope, member, detail + note, g6))
    else:
        parts.append(Verdict(f"{name}/family-membership", scope, SKIPPED, f"lambda={lam} != n-2"))
    if eta == n - 3:
        parts.append(_judge(f"{name}/eta-n3", scope, lam == n - 3, detail, g6))
    else:
        parts.append(Verdict(f"{name}/eta-n3", scope, SKIPPED, f"eta={eta} != n-3"))
    return _combine(name, scope, parts, detail)


# -- realization checkers ----------------------------------------------------


def verify_realization(a: int, b: int, c: int) -> Verdict:
    """Build the (gamma, beta, eta) = (a, b, c) construction and brute-force
    its parameters; the non-realizable case must be rejected."""
    name = "realization"
    scope = f"(a,b,c)=({a},{b},{c})"
    if min(a, b, c) < 1 or not max(a, b) <= c <= a + b:
        return Verdict(name, scope, SKIPPED, "outside theorem scope: need max(a,b) <= c <= a+b")
    try:
        inst = families.realization_graph(a, b, c)
    except families.NotRealizableError:
        expected = b == 1 and a > 1 and c == a + 1
        detail = "correctly rejected (not realizable)" if expected else "unexpected rejection"
        return _judge(name, scope, expected, detail)
    r = full_report(inst.graph)
    got = (r.gamma, r.beta, r.eta)
    detail = f"{inst.name}: n={inst.graph.n} computed (gamma,beta,eta)={got}"
    return _judge(name, scope, got == (a, b, c), detail, _g6(inst.graph))


def verify_tree_realization(a: int, b: int) -> Verdict:
    """Build the spider tree with (eta, lambda) = (a, b) and read both
    values from the exact tree programme, with no search."""
    name = "tree-realization"
    scope = f"(a,b)=({a},{b})"
    if not 3 <= a <= b <= 2 * a - 2:
        return Verdict(name, scope, SKIPPED, "outside theorem scope: need 3 <= a <= b <= 2a-2")
    inst = families.realization_tree(a, b)
    eta, lam = _tree_minima(inst.graph)
    detail = f"{inst.name}: n={inst.graph.n} computed (eta,lambda)=({eta},{lam})"
    return _judge(name, scope, (eta, lam) == (a, b), detail, _g6(inst.graph))


# -- sweeps -----------------------------------------------------------------


class _Tally:
    """One sweep's partial verdict: the graphs checked and skipped, and the
    counterexamples in graph order."""

    def __init__(self) -> None:
        self.checked = self.skipped = 0
        self.cx: list[tuple[str, str]] = []

    def add(self, skipped: bool, cx: Sequence[tuple[str, str]]) -> None:
        if skipped:
            self.skipped += 1
        else:
            self.checked += 1
            self.cx.extend(cx)

    def verdict(self, theorem: str, scope: str) -> Verdict:
        reason = f"checked={self.checked} skipped={self.skipped}"
        return Verdict(theorem, scope, FAILS if self.cx else HOLDS, reason, tuple(self.cx))


def sweep(
    checker: Callable[[Graph], Verdict],
    graphs: Iterable[Graph],
    theorem: str,
    scope: str,
) -> Verdict:
    """Run a single-graph checker over a stream and merge the verdicts."""
    tally = _Tally()
    for g in graphs:
        v = checker(g)
        tally.add(v.status == SKIPPED, v.counterexamples)
    return tally.verdict(theorem, scope)


def _sweep_graphs(graphs: Sequence[Graph], sweeps: list[tuple[_Tally, Callable]]) -> None:
    """Check each graph under every sweep's checker and add the outcomes to
    the tallies in graph order, in one :func:`~locdom.enumeration._fan_out`
    pass whose record per graph is its (skipped, counterexamples) per sweep."""

    def outcomes(i: int) -> list[tuple[bool, tuple]]:
        g = graphs[i]
        return [
            (v.status == SKIPPED, v.counterexamples)
            for v in (check(g) for _, check in sweeps)
        ]

    def add(records: Iterator[list[tuple[bool, tuple]]]) -> None:
        for record in records:
            for (tally, _), outcome in zip(sweeps, record):
                tally.add(*outcome)

    _fan_out(len(graphs), outcomes, add)


def _orders(theorem: str, lo: int, hi: int, top: int) -> range:
    """The orders lo..hi of a sweep; a cap that leaves none is a caller
    error, never a vacuous pass, and so is one above ``top``, the largest
    order the sweep's enumerator reaches: a lazy sweep would meet that limit
    only after sweeping every lower order."""
    if hi < lo:
        raise ValueError(
            f"{theorem}: n_max = {hi} is below its lowest order {lo}; nothing to check"
        )
    if hi > top:
        raise ValueError(f"{theorem}: n_max = {hi} is beyond the supported orders {lo}..{top}")
    return range(lo, hi + 1)


def _eta_tightness() -> Iterator[Verdict]:
    for k in (2, 3, 4):
        g = families.path(3 * k).graph
        eta, d = minimum_code(g, "eta")[0], g.diameter()
        tight = eta + ceil(2 * d / 3) == g.n
        yield _judge("eta-bounds/lower-tight", f"path({3 * k})", tight, f"eta={eta} D={d} n={g.n}")
    for e in (2, 3):
        inst = families.g_eta_construction(e)
        eta, n = minimum_code(inst.graph, "eta")[0], inst.graph.n
        tight = eta == e and n == e + e * 3 ** (e - 1)
        yield _judge("eta-bounds/upper-tight", inst.name, tight, f"eta={eta} n={n}")


def _lambda_tightness() -> Iterator[Verdict]:
    p5 = families.path(5).graph
    lam, d = minimum_code(p5, "lambda")[0], p5.diameter()
    tight = lam + ceil((3 * d - 1) / 5) == p5.n
    yield _judge("lambda-bounds/lower-tight", "path(5)", tight, f"lambda={lam} D={d} n={p5.n}")


def _tree_tightness() -> Iterator[Verdict]:
    for k in (2, 3, 4):
        low = families.spider_k3(k)
        eta, lam = _tree_minima(low.graph)
        attained = eta == lam == k + 1
        yield _judge("tree-bounds/lower-attained", low.name, attained, f"eta={eta} lambda={lam}")
        high = families.spider_k4(k)
        eta, lam = _tree_minima(high.graph)
        attained = eta == k + 1 and lam == 2 * k == 2 * eta - 2
        yield _judge("tree-bounds/upper-attained", high.name, attained, f"eta={eta} lambda={lam}")


def _run_realization(theorem: str, orders: range) -> Verdict:
    bound = orders[-1]
    parts = [
        verify_realization(a, b, c)
        for a in orders
        for b in range(1, bound + 1)
        for c in range(max(a, b), a + b + 1)
    ]
    scope = f"all triples with a, b <= {bound}"
    return _combine(theorem, scope, parts, f"checked={len(parts)} combinations")


def _run_tree_realization(theorem: str, orders: range) -> Verdict:
    parts = [verify_tree_realization(a, b) for a in orders for b in range(a, 2 * a - 1)]
    scope = f"all pairs with 3 <= a <= {orders[-1]}"
    return _combine(theorem, scope, parts, f"checked={len(parts)} pairs")


# -- the registry and the pass -----------------------------------------------


class _Theorem(NamedTuple):
    """A registered theorem.  A sweep's ``run`` is its single-graph
    checker, run over the supplied graphs or over every connected graph
    (with ``trees``, every tree) class of its orders and merged with the
    parts ``tightness`` yields.  A sweep's verdict is named ``name``, by
    default the theorem id.  A grid, a theorem with a ``largest`` order, has
    the runner of a parameter grid over a range of its first parameter as
    its ``run``.  The orders run from ``lo`` to ``default`` or the requested
    cap, at most ``largest`` for a grid; a sweep has no ``largest`` of its
    own and runs to the enumerator's largest order, or to the tree
    generator's."""

    run: Callable
    lo: int
    default: int
    largest: Optional[int] = None
    tightness: Optional[Callable[[], Iterator[Verdict]]] = None
    trees: bool = False
    name: Optional[str] = None


_THEOREMS = {
    "prop1": _Theorem(check_inequality_chain, 2, 7, name="inequality-chain"),
    "eta-bounds": _Theorem(check_eta_bounds, 2, 7, tightness=_eta_tightness),
    "lambda-bounds": _Theorem(check_lambda_bounds, 2, 7, tightness=_lambda_tightness),
    "tree-bounds": _Theorem(check_tree_bounds, 3, 12, tightness=_tree_tightness, trees=True),
    "eta-lambda-conditions": _Theorem(
        check_eta_equals_lambda_conditions, 2, 7, name="eta-equals-lambda"
    ),
    "eta2-membership": _Theorem(check_eta2_membership, 2, 8),
    "lambda-extremal": _Theorem(check_lambda_extremal, 3, 7),
    "realization": _Theorem(_run_realization, 1, 3, 4),
    "tree-realization": _Theorem(_run_tree_realization, 3, 5, 6),
}

THEOREM_IDS = tuple(_THEOREMS)


def _run_theorems(
    requests: Sequence[tuple[str, Optional[int]]],
    graphs: Optional[Iterable[Graph]] = None,
) -> list[Verdict]:
    """The verdicts of the theorems (id, n_max) of ``requests``, in order,
    from one pass over the graphs (see the module docstring).  An n_max of
    None is the theorem's default; a supplied graph stream replaces every
    sweep's orders.  Every request is checked, in order, before any graph:
    an unknown id, or a cap that leaves nothing to check or lies above the
    theorem's largest order, raises ``ValueError``."""
    plans = []
    for tid, n_max in requests:
        if tid not in _THEOREMS:
            raise ValueError(f"unknown theorem id {tid!r}; known ids: {', '.join(THEOREM_IDS)}")
        row = _THEOREMS[tid]
        orders = None
        if row.largest is not None or graphs is None:
            top = row.largest or (_MAX_TREE_ORDER if row.trees else MAX_ENUMERATION_ORDER)
            orders = _orders(tid, row.lo, row.default if n_max is None else n_max, top)
        plans.append((tid, row, orders, _Tally()))
    sweeps = [(row, orders, tally) for _, row, orders, tally in plans if row.largest is None]
    if graphs is not None:
        _sweep_graphs(tuple(graphs), [(tally, row.run) for row, _, tally in sweeps])
    else:  # connected orders, then tree orders
        for trees, n in sorted({(row.trees, n) for row, orders, _ in sweeps for n in orders}):
            active = [(tally, row.run) for row, orders, tally in sweeps
                      if row.trees == trees and n in orders]
            _sweep_graphs(_tree_classes(n) if trees else _connected_classes(n), active)
    verdicts = []
    for tid, row, orders, tally in plans:
        if row.largest is not None:
            verdicts.append(row.run(tid, orders))
            continue
        if orders is None:
            scope = "supplied graphs"
        else:
            kind = "trees" if row.trees else "connected graphs"
            scope = f"{kind}, {orders[0]} <= n <= {orders[-1]}"
        verdict = tally.verdict(row.name or tid, scope)
        if row.tightness is not None:
            verdict = _combine(tid, scope, [verdict, *row.tightness()])
        verdicts.append(verdict)
    return verdicts


def run_theorem(
    theorem_id: str,
    *,
    n_max: Optional[int] = None,
    graphs: Optional[Iterable[Graph]] = None,
) -> Verdict:
    """Run one registered checker over its default scope, a capped order
    range, or an explicit graph stream.  A cap above the theorem's largest
    order is an error, raised before any graph is checked."""
    return _run_theorems([(theorem_id, n_max)], graphs)[0]
