"""Parametric graph family constructors with checkable claims.

Each constructor returns a :class:`FamilyInstance` bundling the graph
with the closed-form parameter values and/or explicit optimal codes known
for that family.  Claimed codes are asserted to satisfy their predicates
at construction time (disable with ``python -O``); claimed *values* are
optimality statements and are verified by brute force in the test suite.

Vertex labelling conventions are fixed so claims can be concrete index
sets: stars, spiders and wheels put the centre at vertex 0; grids are
row-major; spider legs are appended leg by leg, inner vertex first.

Realization constructions for the case gamma, beta >= 2
-------------------------------------------------------
The target triples (gamma, beta, eta) = (a, b, c) with max(a,b) <= c <=
a+b are hit by hanging gadgets on a hub vertex h = 0:

* r triangles (p,x,x') with p on h.  The closed twins x,x' force one of
  them into every locating set, and it also dominates the gadget: +1 to
  each of gamma, beta, eta.
* s cherries: v on h carrying pendant leaves z,z'.  The open twins force
  one leaf into every locating set, while dominating the leaves forces v
  (or the second leaf): +1 to gamma and beta but +2 to eta.
* a blob of l+1 vertices on h, either a clique or pendant leaves.
  Locating takes l of the l+1 twins: +l to beta.  A clique's l members
  dominate it, so eta gains l; a leaf outside the code still needs h, so
  eta gains l+1.
* or a tail u_1..u_m hanging from h, its tip a twin pair delta,delta' on
  u_m (a triangle or a pendant pair).  Dominating the path costs every
  third vertex from u_1, locating it is free (its distances are already
  distinct), and the tip twins force delta into every locating set.

Each ordering of (a,b,c) picks one mix, the table that
``_realization_gadgets`` reads:

    ordering     r       s       blob (l+1 on h)     tail (m from h), tip
    a <= b = c   a-1     0       clique, l = b-a+1   -
    a = b < c    2a-c    c-a     -                   -
    a < b < c    a+b-c   c-b-1   leaves, l = b-a+1   -
    b < a = c    b-1     0       -                   m = 3(a-b), triangle
    b < a < c    a+b-c   c-a-1   -                   m = 3(a-b)+1, pair

Vertices are numbered h, then the triangles, the cherries, the blob or
tail, and the tip.  The codes follow from the mix: gamma is each x, each
v, h when there is a blob, every third tail vertex from u_1, and delta
on a triangle tip; beta is each x, one leaf z per cherry, the first l
blob vertices, and delta on a tail; eta is beta with a clique blob and
gamma u beta otherwise.  Every feasible small triple is brute-force
checked in the acceptance suite, which is the ground truth for this
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import ceil
from typing import Iterator, Mapping, Sequence

from .graph import Graph, strong_product
from .predicates import Code, _hits

__all__ = [
    "FamilyInstance",
    "NotRealizableError",
    "path",
    "cycle",
    "complete",
    "star",
    "complete_bipartite",
    "wheel",
    "strong_grid",
    "spider",
    "spider_k3",
    "spider_k4",
    "spider_mixed",
    "g_eta_construction",
    "ETA_EXTREMAL_KINDS",
    "eta_n_minus_2_family",
    "eta_extremal_instances_of_order",
    "realization_graph",
    "realization_tree",
]


class NotRealizableError(ValueError):
    """The requested parameter combination is provably not realizable."""


@dataclass(frozen=True)
class FamilyInstance:
    """A generated graph together with its claimed values and codes."""

    graph: Graph
    name: str
    claimed_values: Mapping[str, int] = field(default_factory=dict)
    claimed_codes: Mapping[str, Code] = field(default_factory=dict)

    def claims_hold(self) -> bool:
        """Do all claimed codes satisfy their predicates (and sizes)?"""
        for param, code in self.claimed_codes.items():
            if not _hits(self.graph, param, code):
                return False
            if param in self.claimed_values and len(code) != self.claimed_values[param]:
                return False
        return True


def _instance(graph, name, values=None, codes=None) -> FamilyInstance:
    inst = FamilyInstance(
        graph=graph,
        name=name,
        claimed_values=dict(values or {}),
        claimed_codes={k: tuple(v) for k, v in (codes or {}).items()},
    )
    assert inst.claims_hold(), f"claimed code fails its predicate for {name}"
    return inst


def _require_positive(**params: int) -> None:
    for key, value in params.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{key} must be a positive integer, got {value!r}")


# -- basic families (closed-form values where known) -----------------------


def path(n: int) -> FamilyInstance:
    """Path P_n; closed-form values attach for n > 3."""
    _require_positive(n=n)
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    values = {}
    if n > 3:
        values = {
            "gamma": ceil(n / 3),
            "beta": 1,
            "eta": ceil(n / 3),
            "lambda": ceil(2 * n / 5),
        }
    return _instance(g, f"path({n})", values)


def cycle(n: int) -> FamilyInstance:
    """Cycle C_n (n >= 3); closed-form values attach for n > 6."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    values = {}
    if n > 6:
        values = {
            "gamma": ceil(n / 3),
            "beta": 2,
            "eta": ceil(n / 3),
            "lambda": ceil(2 * n / 5),
        }
    return _instance(g, f"cycle({n})", values)


def complete(n: int) -> FamilyInstance:
    """Complete graph K_n; values attach for n > 1."""
    _require_positive(n=n)
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    values = {}
    if n > 1:
        values = {"gamma": 1, "beta": n - 1, "eta": n - 1, "lambda": n - 1}
    return _instance(g, f"complete({n})", values)


def star(n: int) -> FamilyInstance:
    """Star of order n (centre 0 with n-1 leaves); values attach for n > 2."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    g = Graph(n, [(0, i) for i in range(1, n)])
    values = {}
    if n > 2:
        values = {"gamma": 1, "beta": n - 2, "eta": n - 1, "lambda": n - 1}
    return _instance(g, f"star({n})", values)


def complete_bipartite(r: int, s: int) -> FamilyInstance:
    """K_{r,s} with parts 0..r-1 and r..r+s-1; values attach for min(r,s) >= 2."""
    _require_positive(r=r, s=s)
    n = r + s
    g = Graph(n, [(i, r + j) for i in range(r) for j in range(s)])
    values = {}
    if min(r, s) >= 2:
        values = {"gamma": 2, "beta": n - 2, "eta": n - 2, "lambda": n - 2}
    return _instance(g, f"complete_bipartite({r},{s})", values)


def wheel(n: int) -> FamilyInstance:
    """Wheel of order n: hub 0 joined to the cycle 1..n-1; values for n > 7."""
    if n < 4:
        raise ValueError(f"wheel needs n >= 4, got {n}")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((n - 1, 1))
    g = Graph(n, edges)
    values = {}
    if n > 7:
        values = {
            "gamma": 1,
            "beta": 2 * n // 5,
            "eta": ceil((2 * n - 2) / 5),
            "lambda": ceil((2 * n - 2) / 5),
        }
    return _instance(g, f"wheel({n})", values)


def strong_grid(dims: Sequence[int]) -> Graph:
    """Iterated strong product of paths, row-major indexing.

    ``strong_grid([5, 5])`` is the 5x5 king grid.
    """
    dims = list(dims)
    if not dims:
        raise ValueError("strong_grid needs at least one dimension")
    _require_positive(**{f"dims[{i}]": d for i, d in enumerate(dims)})
    g = path(dims[0]).graph
    for d in dims[1:]:
        g = strong_product(g, path(d).graph)
    return g


# -- spiders ----------------------------------------------------------------


def spider(leg_lengths: Sequence[int]) -> Graph:
    """Tree with centre 0 and one path leg per entry of ``leg_lengths``.

    Leg vertices are appended in order from the centre outward.  Two legs
    give a plain path, which is allowed.
    """
    legs = list(leg_lengths)
    if len(legs) < 2:
        raise ValueError("spider needs at least 2 legs")
    _require_positive(**{f"leg[{i}]": L for i, L in enumerate(legs)})
    edges = []
    nxt = 1
    for L in legs:
        prev = 0
        for _ in range(L):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def spider_mixed(r: int, k: int) -> FamilyInstance:
    """Spider with r legs of 4 edges and k - r legs of 3 edges (k >= 2 legs).

    Codes: the centre plus the third vertex of each 4-leg and the second
    vertex of each 3-leg is a minimum dominating-and-locating code of
    size k+1.  For the locating-dominating minimum, the all-4-legs spider
    additionally takes the first vertex of each leg instead of the centre
    (size 2k); mixed spiders add the first vertex of each 4-leg to the
    first code (size k+r+1).
    """
    if k < 2:
        raise ValueError(f"spider_mixed needs k >= 2 legs, got k={k}")
    if not 0 <= r <= k:
        raise ValueError(f"spider_mixed needs 0 <= r <= k, got r={r}, k={k}")
    g = spider([4] * r + [3] * (k - r))
    # 4-leg i holds 4i+1..4i+4, so its 1st and 3rd vertices are the odd
    # vertices below 4r; the 3-legs follow, their 2nd vertices 3 apart
    mid = range(4 * r + 2, g.n, 3)
    eta_code = (0, *range(3, 4 * r, 4), *mid)
    if r == k:
        lambda_code = tuple(range(1, 4 * r, 2))
        lam = 2 * k
    else:
        lambda_code = (0, *range(1, 4 * r, 2), *mid)
        lam = k + r + 1
    values = {"eta": k + 1, "lambda": lam}
    codes = {"eta": eta_code, "lambda": lambda_code}
    return _instance(g, f"spider_mixed(r={r},k={k})", values, codes)


def spider_k3(k: int) -> FamilyInstance:
    """Spider with k legs of 3 edges; one code of size k+1 is optimal for
    both the metric and the neighbourhood variant."""
    return spider_mixed(0, k)


def spider_k4(k: int) -> FamilyInstance:
    """Spider with k legs of 4 edges; eta = k+1 while lambda = 2k."""
    return spider_mixed(k, k)


# -- tight construction for the upper bound n <= eta + eta * 3^(eta-1) ------


def g_eta_construction(eta: int) -> FamilyInstance:
    """Induced subgraph of the eta-fold strong power of P5 witnessing the
    largest possible order for a given eta.

    Vertices are the eta coordinate tuples with a single 0 and 3s
    elsewhere (the claimed code A0) plus, for each position i, all tuples
    with 1 at i and coordinates in 2..4 elsewhere.  The order is
    eta + eta * 3^(eta-1).  Supported for 2 <= eta <= 4: the order grows
    too fast beyond that for exhaustive checks to stay meaningful.
    """
    if not 2 <= eta <= 4:
        raise ValueError(f"g_eta_construction supports 2 <= eta <= 4, got {eta}")
    code = [tuple(0 if j == i else 3 for j in range(eta)) for i in range(eta)]
    verts = sorted(code + [
        t
        for i in range(eta)
        for t in product(*((1,) if j == i else (2, 3, 4) for j in range(eta)))
    ])
    edges = [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if max(abs(x - y) for x, y in zip(verts[i], verts[j])) == 1
    ]
    codes = {"eta": sorted(map(verts.index, code))}
    return _instance(Graph(len(verts), edges), f"g_eta({eta})", {"eta": eta}, codes)


# -- the seven families with eta = lambda = n - 2 ---------------------------

def _clique(vertices: range) -> list[tuple[int, int]]:
    return [(i, j) for i in vertices for j in vertices if i < j]


# kind -> (stated range of (r, s), that range as a test, order, edges)
_KINDS = {
    "complete_bipartite": (
        "r >= 2, s >= 2",
        lambda r, s: r >= 2 and s >= 2,
        lambda r, s: r + s,
        lambda r, s: [(i, r + j) for i in range(r) for j in range(s)],
    ),
    # clique 0..r-1 joined to s isolated vertices
    "join_clique_empty": (
        "r >= 2, s >= 2",
        lambda r, s: r >= 2 and s >= 2,
        lambda r, s: r + s,
        lambda r, s: _clique(range(r)) + [(i, r + j) for i in range(r) for j in range(s)],
    ),
    # apex 0 over (clique 1..r) u (s isolated vertices)
    "cone_clique_plus_empty": (
        "r >= 2, s >= 2",
        lambda r, s: r >= 2 and s >= 2,
        lambda r, s: 1 + r + s,
        lambda r, s: [(0, v) for v in range(1, 1 + r + s)] + _clique(range(1, r + 1)),
    ),
    # clique 0..r-1 joined to ({r} u clique r+1..r+s)
    "join_clique_k1_clique": (
        "r >= 1, s >= 2",
        lambda r, s: r >= 1 and s >= 2,
        lambda r, s: r + 1 + s,
        lambda r, s: _clique(range(r))
        + [(i, v) for i in range(r) for v in range(r, r + 1 + s)]
        + _clique(range(r + 1, r + 1 + s)),
    ),
    # centres 0, 1; r leaves on 0, s leaves on 1
    "double_star": (
        "r >= 1, s >= 1",
        lambda r, s: r >= 1 and s >= 1,
        lambda r, s: 2 + r + s,
        lambda r, s: [(0, 1)] + [(0, 2 + i) for i in range(r)] + [(1, 2 + r + j) for j in range(s)],
    ),
    # apex 0 over (star: centre 1 with leaves 2..r+1) u (s isolated)
    "cone_star_plus_empty": (
        "r >= 2, s >= 1",
        lambda r, s: r >= 2 and s >= 1,
        lambda r, s: 2 + r + s,
        lambda r, s: [(0, v) for v in range(1, 2 + r + s)] + [(1, v) for v in range(2, r + 2)],
    ),
    # star: centre 0, leaves 1..r; vertex r+1 adjacent to leaves 1..s
    "star_plus_vertex": (
        "2 <= s <= r - 1",
        lambda r, s: 2 <= s <= r - 1,
        lambda r, s: r + 2,
        lambda r, s: [(0, v) for v in range(1, r + 1)] + [(r + 1, v) for v in range(1, s + 1)],
    ),
}

ETA_EXTREMAL_KINDS = tuple(_KINDS)


def eta_n_minus_2_family(kind: str, r: int, s: int) -> FamilyInstance:
    """One of the seven families whose members satisfy eta = lambda = n - 2."""
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {ETA_EXTREMAL_KINDS}")
    stated, ok, order, edges = _KINDS[kind]
    if not ok(r, s):
        raise ValueError(
            f"parameters (r={r}, s={s}) outside the stated range for {kind!r} ({stated})"
        )
    g = Graph(order(r, s), edges(r, s))
    values = {"eta": g.n - 2, "lambda": g.n - 2}
    return _instance(g, f"eta_extremal({kind},{r},{s})", values)


def eta_extremal_instances_of_order(n: int) -> Iterator[FamilyInstance]:
    """Every member of the seven families with exactly n vertices."""
    for kind, (_, ok, order, _) in _KINDS.items():
        for r in range(1, n):
            for s in range(1, n):
                if ok(r, s) and order(r, s) == n:
                    yield eta_n_minus_2_family(kind, r, s)


# -- realization constructions ---------------------------------------------


def realization_graph(a: int, b: int, c: int) -> FamilyInstance:
    """A graph with domination number a, metric dimension b and
    dominating-locating minimum c, for max(a,b) <= c <= a+b.

    The single non-realizable combination 1 = b < a < c = a+1 raises
    :class:`NotRealizableError`.
    """
    _require_positive(a=a, b=b, c=c)
    if not max(a, b) <= c <= a + b:
        raise ValueError(
            f"need max(a,b) <= c <= a+b, got (a,b,c)=({a},{b},{c})"
        )
    values = {"gamma": a, "beta": b, "eta": c}
    name = f"realization({a},{b},{c})"

    if b == 1:
        if a == 1:
            g = path(2 if c == 1 else 3).graph
            return _instance(g, name, values)
        if c == a + 1:
            raise NotRealizableError(
                f"(gamma, beta, eta) = ({a}, 1, {a + 1}) is not realizable"
            )
        return _instance(path(3 * a).graph, name, values)

    if a == 1:
        if c == b:
            return _instance(complete(b + 1).graph, name, values)
        return _instance(star(b + 2).graph, name, values)

    graph, codes = _realization_gadgets(a, b, c)
    return _instance(graph, name, values, codes)


def _realization_gadgets(a: int, b: int, c: int) -> tuple[Graph, dict[str, Code]]:
    """Hub-and-gadget constructions for a, b >= 2: the ordering of (a, b, c)
    picks its row of the module docstring's mix table, and one builder
    lays that mix out on hub 0."""
    # r triangles, s cherries, a blob of l+1 or a tail of m; closed: the
    # blob is a clique or the tip a triangle, so its twins are adjacent
    if a <= b == c:
        r, s, l, m, closed = a - 1, 0, b - a + 1, 0, True
    elif a == b:
        r, s, l, m, closed = 2 * a - c, c - a, 0, 0, False
    elif a < b:
        r, s, l, m, closed = a + b - c, c - b - 1, b - a + 1, 0, False
    elif a == c:
        r, s, l, m, closed = b - 1, 0, 0, 3 * (a - b), True
    else:
        r, s, l, m, closed = a + b - c, c - a - 1, 0, 3 * (a - b) + 1, False
    # hub 0, then (p, x, x') per triangle and (v, z, z') per cherry
    n = 3 * (r + s) + 1
    xs, vs = range(2, 3 * r + 1, 3), range(3 * r + 1, n, 3)
    edges = [e for p in range(1, n, 3) for e in ((0, p), (p, p + 1), (p, p + 2))]
    edges += [(x, x + 1) for x in xs]
    gamma, beta = [*xs, *vs], [*xs, *(v + 1 for v in vs)]
    if l:  # the blob n..n+l on the hub
        blob = range(n, n + l + 1)
        edges += [(0, w) for w in blob] + (_clique(blob) if closed else [])
        gamma.append(0)
        beta += blob[:l]
        n += l + 1
    if m:  # the tail u_1..u_m = n..n+m-1 from the hub, tip delta, delta' on u_m
        us, delta = range(n, n + m), n + m
        edges += zip([0, *us], [*us, delta])
        edges.append((delta - 1, delta + 1))
        if closed:
            edges.append((delta, delta + 1))
            gamma.append(delta)
        gamma += us[::3]
        beta.append(delta)
        n += m + 2
    codes = {"gamma": gamma, "beta": beta, "eta": beta if l and closed else gamma + beta}
    return Graph(n, edges), {k: tuple(sorted(set(v))) for k, v in codes.items()}


def realization_tree(a: int, b: int) -> FamilyInstance:
    """A tree with dominating-locating minima eta = a and lambda = b,
    for 3 <= a <= b <= 2a - 2: the spider with b-a legs of 4 edges and
    2a-b-1 legs of 3 edges."""
    if not 3 <= a <= b <= 2 * a - 2:
        raise ValueError(f"need 3 <= a <= b <= 2a-2, got (a,b)=({a},{b})")
    inst = spider_mixed(b - a, a - 1)
    return _instance(
        inst.graph,
        f"realization_tree({a},{b})",
        {"eta": a, "lambda": b},
        dict(inst.claimed_codes),
    )
