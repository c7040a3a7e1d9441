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
certificate.  For the same reason neither changes which code is found
first: it is the one an exhaustive lexicographic scan of the k-subsets
would accept first, so the witness is the lexicographically least
optimal code and results are reproducible.  There is no ILP/SAT backend
by design: this search is the oracle every other component is measured
against.

Each graph keeps its proven minima (``Graph._minima``), which answer
repeated queries.  A new search starts at the counting floor or at the
largest lower bound that the chain max(gamma, beta) <= eta <= min(gamma +
beta, lambda) draws from them, whichever is higher, so no caller seeds
one; a bounded query whose start lies above its k_max returns None
before the hitting family is built.  ``full_report`` asserts the chain;
a violation raises :class:`InvariantViolation`, which signals a solver bug
and is never silently swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, eq, ge, gt, le, lt, ne
from typing import Optional

from .graph import DisconnectedGraphError, Graph
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


def _require_connected(g: Graph, param: str) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError(f"{param} is only computed for connected graphs")


def minimum_code(
    g: Graph,
    param: str,
    *,
    k_min: int = 1,
    k_max: Optional[int] = None,
) -> Optional[tuple[int, Code]]:
    """Smallest code for ``param`` with cardinality in [k_min, k_max].

    Returns (k, witness) with the lexicographically least witness of the
    minimum size, or None when no code of size <= k_max exists.  With the
    default k_max (the whole vertex set) a result is guaranteed: V itself
    is dominating, locating and locating-dominating; there a k_min above n
    is a caller error and raises ``ValueError``, as does a graph below the
    parameter's least order (1 for gamma, 2 for the others).  A proven
    minimum is kept on the graph and answers every later query with k_min
    up to it.
    """
    if param not in PARAMETERS:
        raise ValueError(f"unknown parameter {param!r}; expected one of {PARAMETERS}")
    if g.n < _LEAST_ORDER[param]:
        raise ValueError(f"{param} requires n >= {_LEAST_ORDER[param]}, got n = {g.n}")
    if k_max is None and k_min > g.n:
        raise ValueError(f"k_min = {k_min} exceeds n = {g.n}: no {param} code is that large")
    _require_connected(g, param)
    known = g._minima or {}
    if param in known and k_min <= known[param][0]:
        k, code = known[param]
        return (k, code) if k_max is None or k <= k_max else None
    chain = [known[p][0] for p in _CHAIN_BELOW.get(param, ()) if p in known]
    floor = max([_counting_floor(g, param), *chain])
    start = max(k_min, floor)
    if k_max is not None and start > k_max:
        return None
    sets = _hitting_family(g, param)
    n = g.n
    hi = n if k_max is None else min(k_max, n)
    for k in range(start, hi + 1):
        code = _least_hitting_set(sets, n, k)
        if code is not None:
            if k_min <= floor:  # no smaller code exists: k is the minimum
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
