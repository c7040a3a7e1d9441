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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Iterable, Optional, Sequence

from . import families
from .canonical import canonical_form
from .enumeration import connected_graphs, tree_classes, write_graph6
from .graph import Graph
from .predicates import Code, is_mld
from .solvers import full_report, minimum_code

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


def _holds(theorem, scope, reason="", parts=()):
    return Verdict(theorem, scope, HOLDS, reason, (), tuple(parts))


def _fails(theorem, scope, counterexamples, reason="", parts=()):
    return Verdict(theorem, scope, FAILS, reason, tuple(counterexamples), tuple(parts))


def _skipped(theorem, scope, reason):
    return Verdict(theorem, scope, SKIPPED, reason)


def _combine(theorem: str, scope: str, parts: Sequence[Verdict], reason="") -> Verdict:
    parts = tuple(parts)
    if not reason and parts:
        reason = parts[0].reason
    cx = tuple(c for p in parts for c in p.counterexamples)
    if cx:
        return _fails(theorem, scope, cx, reason, parts)
    if parts and all(p.status == SKIPPED for p in parts):
        return Verdict(theorem, scope, SKIPPED, reason, (), parts)
    return _holds(theorem, scope, reason, parts)


def _g6(g: Graph) -> str:
    return write_graph6(g).decode("ascii")


def _scope_of(g: Graph) -> str:
    return f"graph {_g6(g)} (n={g.n})"


# -- single-graph checkers --------------------------------------------------


def check_inequality_chain(g: Graph) -> Verdict:
    """max(gamma, beta) <= eta <= min(gamma + beta, lambda)."""
    name = "inequality-chain"
    r = full_report(g)
    lo, hi = max(r.gamma, r.beta), min(r.gamma + r.beta, r.lambda_)
    detail = f"gamma={r.gamma} beta={r.beta} eta={r.eta} lambda={r.lambda_}"
    if lo <= r.eta <= hi:
        return _holds(name, _scope_of(g), detail)
    return _fails(name, _scope_of(g), [(_g6(g), detail)])


def check_eta_bounds(g: Graph) -> Verdict:
    """eta + ceil(2D/3) <= n <= eta + eta * 3^(eta-1), for D >= 3."""
    name = "eta-bounds"
    d = g.diameter()
    if d < 3:
        return _skipped(name, _scope_of(g), f"hypothesis unmet: diameter {d} < 3")
    eta = minimum_code(g, "eta")[0]
    lower = eta + ceil(2 * d / 3)
    upper = eta + eta * 3 ** (eta - 1)
    notes = [f"eta={eta} D={d} n={g.n}"]
    if lower == g.n:
        notes.append("lower bound tight")
    if upper == g.n:
        notes.append("upper bound tight")
    if lower <= g.n <= upper:
        return _holds(name, _scope_of(g), "; ".join(notes))
    return _fails(name, _scope_of(g), [(_g6(g), "; ".join(notes))])


def check_lambda_bounds(g: Graph) -> Verdict:
    """lambda + ceil((3D-1)/5) <= n for D >= 3, and n <= lambda + 2^lambda - 1."""
    name = "lambda-bounds"
    d = g.diameter()
    lam = minimum_code(g, "lambda")[0]
    detail = f"lambda={lam} D={d} n={g.n}"
    parts = []
    if d < 3:
        parts.append(
            _skipped(f"{name}/lower", _scope_of(g), f"hypothesis unmet: diameter {d} < 3")
        )
    else:
        lower = lam + ceil((3 * d - 1) / 5)
        note = detail + ("; lower bound tight" if lower == g.n else "")
        if lower <= g.n:
            parts.append(_holds(f"{name}/lower", _scope_of(g), note))
        else:
            parts.append(_fails(f"{name}/lower", _scope_of(g), [(_g6(g), note)]))
    if g.n <= lam + 2 ** lam - 1:
        parts.append(_holds(f"{name}/upper", _scope_of(g), detail))
    else:
        parts.append(_fails(f"{name}/upper", _scope_of(g), [(_g6(g), detail)]))
    return _combine(name, _scope_of(g), parts, detail)


def _eta_lambda(g: Graph) -> tuple[int, int]:
    """(eta, lambda); eta first, so it bounds the lambda search from below."""
    return minimum_code(g, "eta")[0], minimum_code(g, "lambda")[0]


def _is_p6(g: Graph) -> bool:
    return g.n == 6 and g.is_tree() and g.diameter() == 5


def check_tree_bounds(g: Graph) -> Verdict:
    """eta <= lambda <= 2*eta - 2 for trees of order >= 3 other than P6."""
    name = "tree-bounds"
    if not g.is_tree():
        raise ValueError("check_tree_bounds requires a tree")
    if g.n < 3:
        return _skipped(name, _scope_of(g), f"hypothesis unmet: order {g.n} < 3")
    eta, lam = _eta_lambda(g)
    detail = f"eta={eta} lambda={lam}"
    if _is_p6(g):
        exception = "violates upper bound" if lam > 2 * eta - 2 else "within bounds"
        return _skipped(
            name,
            _scope_of(g),
            f"stated exception P6: {detail}; {exception}",
        )
    notes = [detail]
    if lam == eta:
        notes.append("lower bound attained")
    if lam == 2 * eta - 2:
        notes.append("upper bound attained")
    if eta <= lam <= 2 * eta - 2:
        return _holds(name, _scope_of(g), "; ".join(notes))
    return _fails(name, _scope_of(g), [(_g6(g), "; ".join(notes))])


def check_eta_equals_lambda_conditions(g: Graph) -> Verdict:
    """D = 2 or beta >= n - 3 implies eta = lambda."""
    name = "eta-equals-lambda"
    d = g.diameter()
    beta = minimum_code(g, "beta")[0]
    if d != 2 and beta < g.n - 3:
        return _skipped(
            name, _scope_of(g), f"hypothesis unmet: D={d} != 2 and beta={beta} < n-3"
        )
    eta, lam = _eta_lambda(g)
    detail = f"D={d} beta={beta} eta={eta} lambda={lam}"
    if eta == lam:
        return _holds(name, _scope_of(g), detail)
    return _fails(name, _scope_of(g), [(_g6(g), detail)])


# -- eta = 2 membership ------------------------------------------------------

_KING5: Optional[Graph] = None


def _king5() -> Graph:
    global _KING5
    if _KING5 is None:
        _KING5 = families.strong_grid([5, 5])
    return _KING5


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


def check_eta2_membership(g: Graph) -> Verdict:
    """For eta(G) = 2: 3 <= n <= 8, every optimal 2-code is at distance <= 3,
    and the metric-coordinate map of some optimal 2-code draws G inside the
    5x5 king grid (each edge becomes a king move).

    The drawing generally contracts long distances: the grid's diameter is
    4, so a graph of diameter 5 (P6 is one) cannot keep all distances
    exact.  The verdict reason records how many code maps do happen to
    preserve the full metric.
    """
    name = "eta2-membership"
    found = minimum_code(g, "eta", k_max=2)
    if found is None or found[0] != 2:
        eta_desc = "eta=1" if found else "eta>2"
        return _skipped(name, _scope_of(g), f"hypothesis unmet: {eta_desc}")
    dist = g.distance_matrix()
    codes = [
        (u, w)
        for u in range(g.n)
        for w in range(u + 1, g.n)
        if is_mld(g, (u, w))
    ]
    bad = []
    if not 3 <= g.n <= 8:
        bad.append((_g6(g), f"order {g.n} outside 3..8"))
    king = _king5()
    embeddings = metric_preserving = 0
    for u, w in codes:
        if dist[u][w] > 3:
            bad.append((_g6(g), f"code ({u},{w}) at distance {dist[u][w]} > 3"))
        mapping = metric_coordinate_map(g, (u, w))
        if mapping is None:
            continue
        if king_grid_subgraph_check(g, mapping):
            embeddings += 1
            if isometric_embedding_check(g, king, mapping):
                metric_preserving += 1
    if embeddings == 0:
        bad.append((_g6(g), "no optimal 2-code draws the graph inside the king grid"))
    detail = (
        f"{len(codes)} optimal 2-codes, {embeddings} king-grid embeddings, "
        f"{metric_preserving} metric-preserving"
    )
    if bad:
        return _fails(name, _scope_of(g), bad, detail)
    return _holds(name, _scope_of(g), detail)


# -- extremal lambda ---------------------------------------------------------


def check_lambda_extremal(g: Graph) -> Verdict:
    """Extremal behaviour near lambda = n - 2 (order >= 3):

    (a) lambda >= n-2 implies D <= 3; (b) lambda = n-2 iff eta = n-2;
    (c) every lambda = n-2 graph is one of the seven families;
    (d) eta = n-3 implies lambda = n-3.
    """
    name = "lambda-extremal"
    if g.n < 3:
        return _skipped(name, _scope_of(g), f"hypothesis unmet: order {g.n} < 3")
    r = full_report(g)
    n, d, eta, lam = r.n, r.diameter, r.eta, r.lambda_
    detail = f"n={n} D={d} eta={eta} lambda={lam}"
    parts = []

    scope = _scope_of(g)
    if lam >= n - 2:
        if d <= 3:
            parts.append(_holds(f"{name}/diameter", scope, detail))
        else:
            parts.append(_fails(f"{name}/diameter", scope, [(_g6(g), detail)]))
    else:
        parts.append(_skipped(f"{name}/diameter", scope, f"lambda={lam} < n-2"))

    if (lam == n - 2) == (eta == n - 2):
        parts.append(_holds(f"{name}/equivalence", scope, detail))
    else:
        parts.append(_fails(f"{name}/equivalence", scope, [(_g6(g), detail)]))

    if lam == n - 2:
        key = canonical_form(g)
        member = any(
            canonical_form(inst.graph) == key
            for inst in families.eta_extremal_instances_of_order(n)
        )
        if member:
            parts.append(_holds(f"{name}/family-membership", scope, detail))
        else:
            parts.append(
                _fails(
                    f"{name}/family-membership",
                    scope,
                    [(_g6(g), detail + "; not in the seven-family list")],
                )
            )
    else:
        parts.append(_skipped(f"{name}/family-membership", scope, f"lambda={lam} != n-2"))

    if eta == n - 3:
        if lam == n - 3:
            parts.append(_holds(f"{name}/eta-n3", scope, detail))
        else:
            parts.append(_fails(f"{name}/eta-n3", scope, [(_g6(g), detail)]))
    else:
        parts.append(_skipped(f"{name}/eta-n3", scope, f"eta={eta} != n-3"))

    return _combine(name, scope, parts, detail)


# -- realization checkers ----------------------------------------------------


def verify_realization(a: int, b: int, c: int) -> Verdict:
    """Build the (gamma, beta, eta) = (a, b, c) construction and brute-force
    its parameters; the non-realizable case must be rejected."""
    name = "realization"
    scope = f"(a,b,c)=({a},{b},{c})"
    if min(a, b, c) < 1 or not max(a, b) <= c <= a + b:
        return _skipped(name, scope, "outside theorem scope: need max(a,b) <= c <= a+b")
    try:
        inst = families.realization_graph(a, b, c)
    except families.NotRealizableError:
        if b == 1 and a > 1 and c == a + 1:
            return _holds(name, scope, "correctly rejected (not realizable)")
        return _fails(name, scope, [("", "unexpected rejection")])
    r = full_report(inst.graph)
    got = (r.gamma, r.beta, r.eta)
    detail = f"{inst.name}: n={inst.graph.n} computed (gamma,beta,eta)={got}"
    if got == (a, b, c):
        return _holds(name, scope, detail)
    return _fails(name, scope, [(_g6(inst.graph), detail)])


def verify_tree_realization(a: int, b: int) -> Verdict:
    """Build the spider tree with (eta, lambda) = (a, b) and brute-force it."""
    name = "tree-realization"
    scope = f"(a,b)=({a},{b})"
    if not 3 <= a <= b <= 2 * a - 2:
        return _skipped(name, scope, "outside theorem scope: need 3 <= a <= b <= 2a-2")
    inst = families.realization_tree(a, b)
    eta, lam = _eta_lambda(inst.graph)
    detail = f"{inst.name}: n={inst.graph.n} computed (eta,lambda)=({eta},{lam})"
    if (eta, lam) == (a, b):
        return _holds(name, scope, detail)
    return _fails(name, scope, [(_g6(inst.graph), detail)])


# -- sweeps and the registry -------------------------------------------------


def sweep(
    checker: Callable[[Graph], Verdict],
    graphs: Iterable[Graph],
    theorem: str,
    scope: str,
) -> Verdict:
    """Run a single-graph checker over a stream and merge the verdicts."""
    checked = skipped = 0
    cx: list[tuple[str, str]] = []
    for g in graphs:
        v = checker(g)
        if v.status == SKIPPED:
            skipped += 1
        else:
            checked += 1
            cx.extend(v.counterexamples)
    reason = f"checked={checked} skipped={skipped}"
    if cx:
        return _fails(theorem, scope, cx, reason)
    return _holds(theorem, scope, reason)


def _orders(theorem: str, lo: int, hi: int) -> range:
    """The orders lo..hi of a sweep; a cap that leaves none is a caller
    error, never a vacuous pass."""
    if hi < lo:
        raise ValueError(
            f"{theorem}: n_max = {hi} is below its lowest order {lo}; nothing to check"
        )
    return range(lo, hi + 1)


def _sweep_source(
    theorem: str, graphs: Optional[Iterable[Graph]], lo: int, hi: int, trees: bool = False
) -> tuple[Iterable[Graph], str]:
    """The graphs a sweep runs over, and its scope: the supplied stream, or
    every connected graph (or tree) class of order lo..hi."""
    if graphs is not None:
        return graphs, "supplied graphs"
    orders = _orders(theorem, lo, hi)
    make, kind = (tree_classes, "trees") if trees else (connected_graphs, "connected graphs")
    return (g for n in orders for g in make(n)), f"{kind}, {lo} <= n <= {hi}"


def _run_prop1(n_max, graphs):
    src, scope = _sweep_source("prop1", graphs, 2, n_max)
    return sweep(check_inequality_chain, src, "inequality-chain", scope)


def _tightness_part(name, scope, condition, detail):
    if condition:
        return _holds(name, scope, detail)
    return _fails(name, scope, [("", detail)])


def _run_eta_bounds(n_max, graphs):
    src, scope = _sweep_source("eta-bounds", graphs, 2, n_max)
    parts = [sweep(check_eta_bounds, src, "eta-bounds", scope)]
    for k in (2, 3, 4):
        g = families.path(3 * k).graph
        eta = minimum_code(g, "eta")[0]
        d = g.diameter()
        parts.append(
            _tightness_part(
                "eta-bounds/lower-tight",
                f"path({3 * k})",
                eta + ceil(2 * d / 3) == g.n,
                f"eta={eta} D={d} n={g.n}",
            )
        )
    for e in (2, 3):
        inst = families.g_eta_construction(e)
        eta = minimum_code(inst.graph, "eta")[0]
        parts.append(
            _tightness_part(
                "eta-bounds/upper-tight",
                inst.name,
                eta == e and inst.graph.n == e + e * 3 ** (e - 1),
                f"eta={eta} n={inst.graph.n}",
            )
        )
    return _combine("eta-bounds", scope, parts)


def _run_lambda_bounds(n_max, graphs):
    src, scope = _sweep_source("lambda-bounds", graphs, 2, n_max)
    parts = [sweep(check_lambda_bounds, src, "lambda-bounds", scope)]
    p5 = families.path(5).graph
    lam = minimum_code(p5, "lambda")[0]
    parts.append(
        _tightness_part(
            "lambda-bounds/lower-tight",
            "path(5)",
            lam + ceil((3 * p5.diameter() - 1) / 5) == p5.n,
            f"lambda={lam} D={p5.diameter()} n={p5.n}",
        )
    )
    return _combine("lambda-bounds", scope, parts)


def _run_tree_bounds(n_max, graphs):
    n_max = 12 if n_max is None else n_max
    src, scope = _sweep_source("tree-bounds", graphs, 3, n_max, trees=True)
    parts = [sweep(check_tree_bounds, src, "tree-bounds", scope)]
    for k in (2, 3, 4):
        low = families.spider_k3(k)
        eta, lam = _eta_lambda(low.graph)
        parts.append(
            _tightness_part(
                "tree-bounds/lower-attained",
                low.name,
                eta == lam == k + 1,
                f"eta={eta} lambda={lam}",
            )
        )
        high = families.spider_k4(k)
        eta, lam = _eta_lambda(high.graph)
        parts.append(
            _tightness_part(
                "tree-bounds/upper-attained",
                high.name,
                eta == k + 1 and lam == 2 * k == 2 * eta - 2,
                f"eta={eta} lambda={lam}",
            )
        )
    return _combine("tree-bounds", scope, parts)


def _run_eta_lambda(n_max, graphs):
    src, scope = _sweep_source("eta-lambda-conditions", graphs, 2, n_max)
    return sweep(check_eta_equals_lambda_conditions, src, "eta-equals-lambda", scope)


def _run_eta2(n_max, graphs):
    n_max = 8 if n_max is None else min(n_max, 8)
    src, scope = _sweep_source("eta2-membership", graphs, 2, n_max)
    return sweep(check_eta2_membership, src, "eta2-membership", scope)


def _run_lambda_extremal(n_max, graphs):
    src, scope = _sweep_source("lambda-extremal", graphs, 3, n_max)
    return sweep(check_lambda_extremal, src, "lambda-extremal", scope)


def _run_realization(n_max, graphs):
    bound = 3 if n_max is None else min(n_max, 4)
    parts = []
    for a in _orders("realization", 1, bound):
        for b in range(1, bound + 1):
            for c in range(max(a, b), a + b + 1):
                parts.append(verify_realization(a, b, c))
    return _combine(
        "realization",
        f"all triples with a, b <= {bound}",
        parts,
        f"checked={len(parts)} combinations",
    )


def _run_tree_realization(n_max, graphs):
    hi = 5 if n_max is None else min(n_max, 6)
    parts = []
    for a in _orders("tree-realization", 3, hi):
        for b in range(a, 2 * a - 1):
            parts.append(verify_tree_realization(a, b))
    return _combine(
        "tree-realization",
        f"all pairs with 3 <= a <= {hi}",
        parts,
        f"checked={len(parts)} pairs",
    )


_RUNNERS = {
    "prop1": (_run_prop1, 7),
    "eta-bounds": (_run_eta_bounds, 7),
    "lambda-bounds": (_run_lambda_bounds, 7),
    "tree-bounds": (_run_tree_bounds, None),
    "eta-lambda-conditions": (_run_eta_lambda, 7),
    "eta2-membership": (_run_eta2, None),
    "lambda-extremal": (_run_lambda_extremal, 7),
    "realization": (_run_realization, None),
    "tree-realization": (_run_tree_realization, None),
}

THEOREM_IDS = tuple(_RUNNERS)


def run_theorem(
    theorem_id: str,
    *,
    n_max: Optional[int] = None,
    graphs: Optional[Iterable[Graph]] = None,
) -> Verdict:
    """Run one registered checker over its default scope, a capped order
    range, or an explicit graph stream."""
    if theorem_id not in _RUNNERS:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREM_IDS)}"
        )
    runner, default_n = _RUNNERS[theorem_id]
    if n_max is None:
        n_max = default_n
    return runner(n_max, graphs)
