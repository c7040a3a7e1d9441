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
is its one-theorem case).  Every request's order range is checked first,
in request order, so a cap that leaves nothing to check or lies beyond
the enumerator is refused before any graph is.  Then each connected class
goes once through the checker of every sweep whose orders hold it, with
its graph6 encoded once for all of them, and each sweep keeps a partial
verdict: graphs checked and skipped, and counterexamples in class order.
An order with many classes fans out across forked workers
(:func:`~locdom.enumeration._mapped`): a worker sends, per class, each
sweep's (skipped, counterexamples), and the main process adds them up in
class order.  A checker that raises in a worker is run again on its class
in the main process, which raises the error of the serial pass.  A
supplied graph stream is one more list of classes; the tree sweep walks
its tree classes serially.  At the end the partial verdicts, with their
tightness parts, become the verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import families
from .canonical import canonical_form
from .enumeration import _MAX_TREE_ORDER, MAX_ENUMERATION_ORDER, connected_graphs, tree_classes
from .enumeration import _mapped, write_graph6
from .graph import Graph
from .predicates import Code, _hitting_family
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


# a checker body: a verdict on one graph, given the graph's ``_where``
_Check = Callable[[Graph, tuple[str, str]], Verdict]


def _one_graph(body: _Check) -> Callable[[Graph], Verdict]:
    """The public checker ``check(g)``, ``body(g, _where(g))``, named and
    documented as ``body``.  A sweep calls ``check.body`` with the
    ``_where`` it encodes once per graph for every checker."""

    def check(g: Graph) -> Verdict:
        return body(g, _where(g))

    check.__name__ = check.__qualname__ = body.__name__
    check.__doc__ = body.__doc__
    check.body = body
    return check


# -- single-graph checkers --------------------------------------------------


@_one_graph
def check_inequality_chain(g: Graph, where: tuple[str, str]) -> Verdict:
    """max(gamma, beta) <= eta <= min(gamma + beta, lambda)."""
    r = full_report(g)
    lo, hi = max(r.gamma, r.beta), min(r.gamma + r.beta, r.lambda_)
    detail = f"gamma={r.gamma} beta={r.beta} eta={r.eta} lambda={r.lambda_}"
    scope, g6 = where
    return _judge("inequality-chain", scope, lo <= r.eta <= hi, detail, g6)


@_one_graph
def check_eta_bounds(g: Graph, where: tuple[str, str]) -> Verdict:
    """eta + ceil(2D/3) <= n <= eta + eta * 3^(eta-1), for D >= 3."""
    name = "eta-bounds"
    scope, g6 = where
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


@_one_graph
def check_lambda_bounds(g: Graph, where: tuple[str, str]) -> Verdict:
    """lambda + ceil((3D-1)/5) <= n for D >= 3, and n <= lambda + 2^lambda - 1."""
    name = "lambda-bounds"
    scope, g6 = where
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


def _eta_lambda(g: Graph) -> tuple[int, int]:
    """(eta, lambda).  A tree of order >= 3 reads both from the exact tree
    programme (:func:`~locdom.solvers._tree_minima`) and runs no search;
    any other graph searches eta first, so it bounds the lambda search from
    below."""
    if g.n >= 3 and g.is_tree():
        return _tree_minima(g)
    return minimum_code(g, "eta")[0], minimum_code(g, "lambda")[0]


@_one_graph
def check_tree_bounds(g: Graph, where: tuple[str, str]) -> Verdict:
    """eta <= lambda <= 2*eta - 2 for trees of order >= 3 other than P6."""
    name = "tree-bounds"
    if not g.is_tree():
        raise ValueError("check_tree_bounds requires a tree")
    scope, g6 = where
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


@_one_graph
def check_eta_equals_lambda_conditions(g: Graph, where: tuple[str, str]) -> Verdict:
    """D = 2 or beta >= n - 3 implies eta = lambda."""
    name = "eta-equals-lambda"
    scope, g6 = where
    d = g.diameter()
    beta = minimum_code(g, "beta")[0]
    if d != 2 and beta < g.n - 3:
        return Verdict(
            name, scope, SKIPPED, f"hypothesis unmet: D={d} != 2 and beta={beta} < n-3"
        )
    eta, lam = _eta_lambda(g)
    return _judge(name, scope, eta == lam, f"D={d} beta={beta} eta={eta} lambda={lam}", g6)


# -- eta = 2 membership ------------------------------------------------------


@lru_cache(maxsize=None)
def _king5() -> Graph:
    return families.strong_grid([5, 5])


def metric_coordinate_map(g: Graph, code: Code) -> Optional[tuple[int, ...]]:
    """Map each vertex to the king-grid vertex given by its distances to a
    2-code, or None when the coordinates leave the 5x5 grid or collide."""
    if len(code) != 2:
        raise ValueError("metric_coordinate_map expects a 2-element code")
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
    """True iff ``mapping`` preserves every pairwise distance from g into h."""
    if len(mapping) != g.n or len(set(mapping)) != g.n:
        raise ValueError("mapping must assign a distinct h-vertex to every g-vertex")
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
    grid (an injective homomorphism: g drawn inside the grid)."""
    if len(mapping) != g.n or len(set(mapping)) != g.n:
        raise ValueError("mapping must assign a distinct grid vertex to every g-vertex")
    king = _king5()
    return all(king.has_edge(mapping[x], mapping[y]) for x, y in g.edges())


@_one_graph
def check_eta2_membership(g: Graph, where: tuple[str, str]) -> Verdict:
    """For eta(G) = 2: 3 <= n <= 8, every optimal 2-code is at distance <= 3,
    and the metric-coordinate map of some optimal 2-code draws G inside the
    5x5 king grid (each edge becomes a king move).

    The drawing generally contracts long distances: the grid's diameter is
    4, so a graph of diameter 5 (P6 is one) cannot keep all distances
    exact.  The verdict reason records how many code maps do happen to
    preserve the full metric.
    """
    name = "eta2-membership"
    scope, g6 = where
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


@_one_graph
def check_lambda_extremal(g: Graph, where: tuple[str, str]) -> Verdict:
    """Extremal behaviour near lambda = n - 2 (order >= 3):

    (a) lambda >= n-2 implies D <= 3; (b) lambda = n-2 iff eta = n-2;
    (c) every lambda = n-2 graph is one of the seven families;
    (d) eta = n-3 implies lambda = n-3.
    """
    name = "lambda-extremal"
    scope, g6 = where
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
    eta, lam = _eta_lambda(inst.graph)
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


def _sweep_graphs(graphs: Sequence[Graph], sweeps: list[tuple[_Tally, _Check]], fork: bool) -> None:
    """Check each graph under every sweep's check, with its ``_where``
    encoded once for all of them, and add the outcomes to the tallies in
    graph order.  With ``fork``, many graphs fan out across forked workers
    (:func:`~locdom.enumeration._mapped`), each graph's record its
    (skipped, counterexamples) per sweep."""

    def outcomes(g: Graph) -> list[tuple[bool, tuple]]:
        where = _where(g)
        return [
            (v.status == SKIPPED, v.counterexamples)
            for v in (check(g, where) for _, check in sweeps)
        ]

    def add(records: Iterator[list[tuple[bool, tuple]]]) -> None:
        for record in records:
            for (tally, _), outcome in zip(sweeps, record):
                tally.add(*outcome)

    if fork:
        _mapped(graphs, outcomes, add)
    else:
        add(map(outcomes, graphs))


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


def _trees_only(check: _Check, theorem: str) -> _Check:
    """``check`` on trees; any other graph of a supplied stream is out of
    the theorem's scope and skipped."""

    def on_trees(g: Graph, where: tuple[str, str]) -> Verdict:
        if g.is_tree():
            return check(g, where)
        return Verdict(theorem, where[0], SKIPPED, "hypothesis unmet: not a tree")

    return on_trees


class _Sweep:
    """A theorem checked graph by graph: ``check`` over the supplied graphs
    or every connected graph (or tree) class of its orders, merged with the
    parts ``tightness`` yields.  A tree sweep skips the graphs of a supplied
    stream that are not trees.  The sweep's verdict is named ``name``, by
    default the theorem id."""

    def __init__(
        self,
        check: _Check,
        tightness: Optional[Callable[[], Iterator[Verdict]]] = None,
        trees: bool = False,
        name: Optional[str] = None,
    ):
        self.check, self.tightness, self.trees, self.name = check, tightness, trees, name


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
        eta, lam = _eta_lambda(low.graph)
        attained = eta == lam == k + 1
        yield _judge("tree-bounds/lower-attained", low.name, attained, f"eta={eta} lambda={lam}")
        high = families.spider_k4(k)
        eta, lam = _eta_lambda(high.graph)
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

# theorem id -> (a sweep, or the runner of a parameter grid over a range of
# its first parameter; the lowest order; the default n_max; the largest n_max
# if below the enumerator's, else None)
_THEOREMS = {
    "prop1": (_Sweep(check_inequality_chain.body, name="inequality-chain"), 2, 7, None),
    "eta-bounds": (_Sweep(check_eta_bounds.body, _eta_tightness), 2, 7, None),
    "lambda-bounds": (_Sweep(check_lambda_bounds.body, _lambda_tightness), 2, 7, None),
    "tree-bounds": (_Sweep(check_tree_bounds.body, _tree_tightness, trees=True), 3, 12, None),
    "eta-lambda-conditions": (
        _Sweep(check_eta_equals_lambda_conditions.body, name="eta-equals-lambda"), 2, 7, None
    ),
    "eta2-membership": (_Sweep(check_eta2_membership.body), 2, 8, 8),
    "lambda-extremal": (_Sweep(check_lambda_extremal.body), 3, 7, None),
    "realization": (_run_realization, 1, 3, 4),
    "tree-realization": (_run_tree_realization, 3, 5, 6),
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
        spec, lo, default, largest = _THEOREMS[tid]
        sweeping = isinstance(spec, _Sweep)
        orders = None
        if not sweeping or graphs is None:
            top = largest or (_MAX_TREE_ORDER if spec.trees else MAX_ENUMERATION_ORDER)
            orders = _orders(tid, lo, default if n_max is None else n_max, top)
        plans.append((tid, spec, orders, _Tally() if sweeping else None))
    sweeps = [plan for plan in plans if plan[3] is not None]
    if graphs is not None:
        checks = [
            (tally, _trees_only(spec.check, spec.name or tid) if spec.trees else spec.check)
            for tid, spec, _, tally in sweeps
        ]
        _sweep_graphs(tuple(graphs), checks, fork=True)
    else:
        connected = [(orders, tally, spec.check) for _, spec, orders, tally in sweeps
                     if not spec.trees]
        for n in sorted({n for orders, _, _ in connected for n in orders}):
            active = [(tally, check) for orders, tally, check in connected if n in orders]
            _sweep_graphs(tuple(connected_graphs(n)), active, fork=True)
        for _, spec, orders, tally in sweeps:
            if spec.trees:  # serial, over each order's cached tree classes
                for n in orders:
                    _sweep_graphs(tree_classes(n), [(tally, spec.check)], fork=False)
    verdicts = []
    for tid, spec, orders, tally in plans:
        if tally is None:
            verdicts.append(spec(tid, orders))
            continue
        if orders is None:
            scope = "supplied graphs"
        else:
            kind = "trees" if spec.trees else "connected graphs"
            scope = f"{kind}, {orders[0]} <= n <= {orders[-1]}"
        verdict = tally.verdict(spec.name or tid, scope)
        if spec.tightness is not None:
            verdict = _combine(tid, scope, [verdict, *spec.tightness()])
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


def _capped(theorem_id: str, n_max: Optional[int]) -> Optional[int]:
    """``n_max`` lowered to the largest order of the theorem, if it has one."""
    largest_n = _THEOREMS[theorem_id][3]
    return n_max if n_max is None or largest_n is None else min(n_max, largest_n)
