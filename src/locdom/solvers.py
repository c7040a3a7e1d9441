"""Exact solvers for the four location/domination parameters.

Each parameter is the least size of a code that meets every set of its
hitting family (:func:`locdom.predicates._hitting_family`, the same
definition the predicates use).  The solver tries k = 1, 2, ... from a
floor and, for each k, runs one depth-first search over k-subsets in
lexicographic order.  The floor is the least k that counting allows (see
:func:`_counting_floor`), so every smaller k holds no code.  The search
cuts a branch only where no completion can meet every set:

* the next pick is at most the smallest largest element among the sets
  not yet met, since picks only grow and that set would stay unmet;
* with one pick left, it takes the lowest vertex above the last pick in
  the intersection of the unmet sets (with two left, it does so for each
  first pick in place, without building the child's list of unmet sets);
* with two or more picks left, it collects unmet sets pairwise disjoint
  on the vertices above the last pick (a greedy packing in family
  order); each needs a pick of its own, so more of them than picks left
  means no completion exists;
* once every set is met, the remaining picks are the next consecutive
  vertices, the lexicographically least completion.

The floor and the cuts only skip subsets that are not codes, so a search
that finds nothing has exhausted every k-subset, and every smaller k is
exhausted when a code of size k is returned; that is the optimality
certificate.  On a tree of order >= 3, eta and lambda have an exact
value instead (:func:`_tree_minima`, a dynamic programme over two local
lemmas on the tree rooted at a centre of its leaf peel), and the lemmas
certify the minimum: the search runs at that k* alone, and no failing k
is tried.  Neither the floor nor the cuts change which code is found
first: it is the one an exhaustive lexicographic scan of the k-subsets
would accept first, so the witness is the lexicographically least
optimal code and results are reproducible.
There is no ILP/SAT backend by design: this search is the oracle every
other component is measured against.

A search starts at the tree value where there is one; elsewhere at the
counting floor or at the largest lower bound that the chain
max(gamma, beta) <= eta <= min(gamma + beta, lambda) draws from the
graph's proven minima (``Graph._minima``), whichever is higher.  Every
start is a lower bound, so every code :func:`minimum_code` finds is a
minimum, and it is kept there to answer every later query.  A query
bounded by a k_max below its start returns None before the hitting
family is built.  ``full_report`` asserts the chain; a violation raises
:class:`InvariantViolation`, which signals a solver bug and is never
silently swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, eq, ge, gt, le, lt, ne
from typing import Optional

from .graph import DisconnectedGraphError, Graph, _peel_order
from .predicates import Code, _hitting_family

__all__ = [
    "InvariantViolation",
    "ParameterReport",
    "PARAMETERS",
    "minimum_code",
    "parameter_satisfies",
    "domination_number",
    "metric_dimension",
    "mld_number",
    "ld_number",
    "full_report",
]

#: Names accepted by :func:`minimum_code` and the CLI filter grammar.
PARAMETERS = ("gamma", "beta", "eta", "lambda")

# the least order on which each parameter is defined: K1 has no vertex
# pair to locate
_LEAST_ORDER = {"gamma": 1, "beta": 2, "eta": 2, "lambda": 2}

# the parameters whose minima bound each parameter from below
_CHAIN_BELOW = {"eta": ("gamma", "beta"), "lambda": ("gamma", "beta", "eta")}

# the comparison operators of parameter_satisfies and the CLI filter grammar
_OPS = {"=": eq, "==": eq, "!=": ne, "<=": le, ">=": ge, "<": lt, ">": gt}


class InvariantViolation(RuntimeError):
    """An internal consistency check failed (a bug, not a user error)."""


@dataclass(frozen=True)
class ParameterReport:
    """The four parameters of a connected graph plus one optimal witness each."""

    n: int
    diameter: int
    gamma: int
    beta: int
    eta: int
    lambda_: int
    witness_gamma: Code
    witness_beta: Code
    witness_eta: Code
    witness_lambda: Code

    def value(self, param: str) -> int:
        return getattr(self, "lambda_" if param == "lambda" else param)

    def witness(self, param: str) -> Code:
        return getattr(self, f"witness_{param.rstrip('_')}")


def _least_hitting_set(sets: list[int], n: int, k: int) -> Optional[Code]:
    """Lexicographically least k-subset of range(n) that meets every mask in
    ``sets`` (sorted by largest element), or None when there is none."""
    full = (1 << n) - 1

    def search(unmet: list[int], lo: int, left: int) -> Optional[Code]:
        # picks so far are all below lo, and lo + left <= n
        if not unmet:
            return tuple(range(lo, lo + left))
        if left == 1:
            common = reduce(and_, unmet) >> lo << lo
            return ((common & -common).bit_length() - 1,) if common else None
        # sets pairwise disjoint on the vertices >= lo each need a pick
        used = kept = 0
        for s in unmet:
            s >>= lo
            if not s & used:
                used |= s
                kept += 1
                if kept > left:
                    return None
        for v in range(lo, min(unmet[0].bit_length(), n - left + 1)):
            bit = 1 << v
            if left == 2:
                # the one-pick child inline: the lowest vertex above v in
                # every set that v misses (v + 1 when v meets them all)
                common = full >> (v + 1) << (v + 1)
                for s in unmet:
                    if not s & bit:
                        common &= s
                        if not common:
                            break
                if common:
                    return v, (common & -common).bit_length() - 1
                continue
            found = search([s for s in unmet if not s & bit], v + 1, left - 1)
            if found is not None:
                return (v,) + found
        return None

    return search(sets, 0, k)


def _counting_floor(g: Graph, param: str) -> int:
    """Least k that counting allows for a ``param`` code of size k.

    A code of size k dominates at most k(Delta + 1) vertices.  The n - k
    vertices outside a locating code have distinct distance vectors in
    {1..D}^k (D the diameter), at most D^k of them; outside an eta code
    each vector also has an entry 1, at most D^k - (D - 1)^k.  Outside a
    lambda code the neighbourhood traces are distinct and nonempty, the
    eta count with every distance above 1 read as 2: 2^k - 1.
    """
    n = g.n
    if param == "gamma":
        return -(-n // (max(g.degrees()) + 1))
    d = 2 if param == "lambda" else g.diameter()
    k = 1
    while n - k > d**k - (0 if param == "beta" else (d - 1) ** k):
        k += 1
    return k


def _tree_minima(g: Graph) -> tuple[int, int]:
    """(eta, lambda) of a tree of order >= 3, by a dynamic programme over
    the tree rooted at the last centre of its peel
    (:func:`~locdom.graph._peel_order`), whose degree >= 2 makes every leaf
    a child.

    On a tree both codes are local conditions on a dominating set S:

    * lambda: two vertices outside S with equal traces of size >= 2 would
      close a 4-cycle, so S is locating-dominating iff no x in S is the
      only code neighbour of two vertices outside S (each code vertex has
      one *slot*);
    * eta: two vertices outside S with equal distance vectors hang off a
      common code neighbour in branches free of code vertices, which
      domination makes single leaves, so S is metric-locating-dominating
      iff no code vertex has two leaf neighbours outside S.

    Each vertex keeps the least code size in its subtree for each state
    of both programmes (:func:`_eta_states`, :func:`_lambda_states`), in
    one pass over the peel order, so children before parents.
    """
    refusal = "_tree_minima computes eta and lambda of a tree of order >= 3"
    if g.n < 3:
        raise ValueError(refusal)
    try:
        centres, order, parent = _peel_order(g._rows)  # refuses every graph but a tree
    except ValueError as exc:
        raise ValueError(refusal) from exc
    n = g.n
    root = order[-1]
    for c in centres[:-1]:  # the other centre is a child of the root
        parent[c] = root
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order[:-1]:
        children[parent[v]].append(v)
    inf = n + 1  # no code is this large; a sum with such a term stays above n
    # a leaf's lambda states are fixed, and the eta programme only counts leaves
    lam: list = [_lambda_states([], inf)] * n
    eta: list = [None] * n
    for v in order:
        kids = children[v]
        if kids:
            lam[v] = _lambda_states([lam[c] for c in kids], inf)
            inner = [eta[c] for c in kids if children[c]]
            eta[v] = _eta_states(inner, len(kids) - len(inner), inf)
    # the root has no parent to dominate it or to take its slot
    top = lam[root]
    return min(eta[root][:2]), min(top[0], top[1], top[3], top[5])


def _lambda_states(kids: list[tuple[int, ...]], inf: int) -> tuple[int, ...]:
    """The six lambda states of a vertex from those of its children: in S
    with its slot free, or used by a child; out of S with no code child
    (it needs a code parent and takes its slot), one code child whose slot
    is free, one whose slot is used (it needs a code parent), or two or
    more.  ``inf`` marks a state that no code reaches."""
    in_s, out, mixed = 1, 0, 0
    slot = one_free = one_used = inf
    lift1 = lift2 = inf  # the two least extra costs of making a child a code child
    for a, b, bare, one_f, one_u, two in kids:
        # under a code vertex only a child with no code child takes the slot
        free = min(a, b, one_f, one_u, two)
        in_s += free
        slot = min(slot, bare - free)
        # under a vertex out of S a child must not need a code parent
        alone = min(one_f, two)
        out += alone
        one_free = min(one_free, a - alone)
        one_used = min(one_used, b - alone)
        code = min(a, b)
        least = min(code, alone)
        mixed += least
        lift = code - least
        if lift < lift2:
            lift1, lift2 = min(lift, lift1), max(lift, lift1)
    return in_s, in_s + slot, out, out + one_free, out + one_used, mixed + lift1 + lift2


def _eta_states(kids: list[tuple[int, int, int]], leaves: int, inf: int) -> tuple[int, int, int]:
    """The three eta states of a vertex from those of ``kids``, its
    children that are not leaves, and its number of leaf children: in S;
    out of S and dominated by a child; out of S and waiting for a code
    parent.  A leaf child outside S needs this vertex in S, and at most
    one may be outside.  ``inf`` marks a state that no code reaches."""
    in_s = 1 + max(leaves - 1, 0)
    dominated = leaves
    lift = 0 if leaves else inf  # the least extra cost of one child in S
    waiting = inf if leaves else 0
    for s, d, w in kids:
        in_s += min(s, d, w)
        least = min(s, d)
        dominated += least
        lift = min(lift, s - least)
        waiting += d
    return in_s, dominated + lift, waiting


def _require_connected(g: Graph, param: str) -> None:
    if param in ("beta", "eta", "full_report"):
        # these read every distance anyway: connectivity is read from them
        g.distance_matrix()
    if not g.is_connected():
        raise DisconnectedGraphError(f"{param} is only computed for connected graphs")


def minimum_code(
    g: Graph, param: str, *, k_max: Optional[int] = None
) -> Optional[tuple[int, Code]]:
    """Smallest code for ``param``, or None when it is larger than ``k_max``.

    Returns (k, witness) with the lexicographically least witness of the
    minimum size.  With the default k_max (the whole vertex set) a result
    is guaranteed: V itself is dominating, locating and
    locating-dominating.  A graph below the parameter's least order (1 for
    gamma, 2 for the others) raises ``ValueError``.  The search starts at
    a proven lower bound, so every code it finds is the minimum; it is kept
    on the graph and answers every later query.
    """
    if param not in PARAMETERS:
        raise ValueError(f"unknown parameter {param!r}; expected one of {PARAMETERS}")
    if g.n < _LEAST_ORDER[param]:
        raise ValueError(f"{param} requires n >= {_LEAST_ORDER[param]}, got n = {g.n}")
    _require_connected(g, param)
    known = g._minima or {}
    if param in known:
        k, code = known[param]
        return (k, code) if k_max is None or k <= k_max else None
    if param in ("eta", "lambda") and g.n >= 3 and g.is_tree():
        floor = _tree_minima(g)[param == "lambda"]  # exact: only the search at k* runs
    else:
        chain = [known[p][0] for p in _CHAIN_BELOW.get(param, ()) if p in known]
        floor = max([_counting_floor(g, param), *chain])
    n = g.n
    hi = n if k_max is None else min(k_max, n)
    if floor > hi:
        return None
    sets = _hitting_family(g, param)
    for k in range(floor, hi + 1):
        code = _least_hitting_set(sets, n, k)
        if code is not None:
            g._minima = {**known, param: (k, code)}
            return k, code
    if k_max is None:
        raise InvariantViolation(
            f"no {param} code found up to k = {n}; the full vertex set must qualify"
        )
    return None


def parameter_satisfies(g: Graph, param: str, op: str, value: int) -> bool:
    """Compare a parameter against a constant with one search bounded by
    the constant: deciding ``eta == 2`` scans subsets of size <= 2 only.

    A parameter above the bound reads as value + 1, which settles every
    comparison once ``<`` and ``>=`` become ``<=`` and ``>`` on value - 1.
    """
    op, value = {"<": ("<=", value - 1), ">=": (">", value - 1)}.get(op, (op, value))
    if op not in _OPS:
        raise ValueError(f"unknown comparison operator {op!r}")
    found = minimum_code(g, param, k_max=value)
    return _OPS[op](found[0] if found else value + 1, value)


def _solve(g: Graph, param: str) -> tuple[int, Code]:
    result = minimum_code(g, param)
    assert result is not None
    return result


def domination_number(g: Graph) -> tuple[int, Code]:
    """gamma(G) with the lexicographically least optimal dominating set."""
    return _solve(g, "gamma")


def metric_dimension(g: Graph) -> tuple[int, Code]:
    """beta(G) with the lexicographically least optimal locating set."""
    return _solve(g, "beta")


def mld_number(g: Graph) -> tuple[int, Code]:
    """eta(G) with the lexicographically least optimal metric-locating-dominating set."""
    return _solve(g, "eta")


def ld_number(g: Graph) -> tuple[int, Code]:
    """lambda(G) with the lexicographically least optimal locating-dominating set."""
    return _solve(g, "lambda")


def full_report(g: Graph) -> ParameterReport:
    """All four parameters with witnesses, kept on the graph instance by
    :func:`minimum_code`, so a repeated report searches nothing.

    The inequality chain max(gamma, beta) <= eta <= min(gamma + beta,
    lambda) is asserted before returning.
    """
    if g.n < 2:
        raise ValueError(f"full_report requires n >= 2, got n = {g.n}")
    _require_connected(g, "full_report")
    diameter = g.diameter()
    gamma, w_gamma = minimum_code(g, "gamma")
    beta, w_beta = minimum_code(g, "beta")
    eta, w_eta = minimum_code(g, "eta")
    lam, w_lambda = minimum_code(g, "lambda")
    if not (max(gamma, beta) <= eta <= min(gamma + beta, lam)):
        raise InvariantViolation(
            f"inequality chain violated: gamma={gamma} beta={beta} "
            f"eta={eta} lambda={lam}"
        )
    return ParameterReport(
        n=g.n,
        diameter=diameter,
        gamma=gamma,
        beta=beta,
        eta=eta,
        lambda_=lam,
        witness_gamma=w_gamma,
        witness_beta=w_beta,
        witness_eta=w_eta,
        witness_lambda=w_lambda,
    )
