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
a+b are hit by attaching small gadgets to a hub vertex h:

* triangle gadget (count r): a triangle (p,x,x') with p adjacent to h.
  The closed twins x,x' force one triangle vertex into every locating
  set, and that one vertex also dominates the gadget: +1 to each of
  gamma, beta, eta.
* cherry gadget (count s): a vertex v adjacent to h carrying two pendant
  leaves z,z'.  The open twins z,z' force one leaf into every locating
  set, while dominating the leaves independently forces v (or a second
  leaf): +1 to gamma and beta but +2 to eta.
* hub blob (count l+1): either a clique joined to h (locating needs l of
  the l+1 closed twins, and those l members already dominate the blob:
  +l to beta and eta, +0 to gamma beyond h itself) or l+1 pendant leaves
  on h (same twin forcing, but now the leaf outside the code still needs
  h as dominator: +l to beta, +l+1 to eta).
* tail: a path u_1..u_m hanging from h with a twin tip (a triangle or a
  pendant pair delta,delta' at the far end).  Dominating the path costs
  one vertex per three, locating it is free (distances along the path
  are already distinct), and the tip twins force exactly one extra
  locating vertex.

The five (a,b,c) orderings pick the gadget mix; the stated codes are
attached as claims and every feasible small triple is brute-force checked
in the acceptance suite, which is the ground truth for this
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _leg_offsets(legs: Sequence[int]) -> list[int]:
    offs = []
    pos = 1
    for L in legs:
        offs.append(pos)
        pos += L
    return offs


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
    legs = [4] * r + [3] * (k - r)
    g = spider(legs)
    offs = _leg_offsets(legs)
    inner = [offs[i] for i in range(r)]                 # 1st vertex of 4-legs
    deep = [offs[i] + 2 for i in range(r)]              # 3rd vertex of 4-legs
    mid = [offs[i] + 1 for i in range(r, k)]            # 2nd vertex of 3-legs
    eta_code = tuple(sorted(deep + mid + [0]))
    if r == k:
        lambda_code = tuple(sorted(inner + deep))
        lam = 2 * k
    else:
        lambda_code = tuple(sorted(inner + deep + mid + [0]))
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
    verts: list[tuple[int, ...]] = []
    code_tuples = []
    for i in range(eta):
        t = tuple(0 if j == i else 3 for j in range(eta))
        verts.append(t)
        code_tuples.append(t)
    for i in range(eta):
        stack = [()]
        for j in range(eta):
            if j == i:
                stack = [t + (1,) for t in stack]
            else:
                stack = [t + (x,) for t in stack for x in (2, 3, 4)]
        verts.extend(stack)
    verts = sorted(set(verts))
    index = {t: i for i, t in enumerate(verts)}
    edges = []
    for a in range(len(verts)):
        ta = verts[a]
        for b in range(a + 1, len(verts)):
            tb = verts[b]
            if max(abs(x - y) for x, y in zip(ta, tb)) == 1:
                edges.append((a, b))
    g = Graph(len(verts), edges)
    code = tuple(sorted(index[t] for t in code_tuples))
    return _instance(
        g,
        f"g_eta({eta})",
        {"eta": eta},
        {"eta": code},
    )


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
    """Hub-and-gadget constructions for a, b >= 2 (see module docstring)."""
    edges: list[tuple[int, int]] = []
    hub = 0
    nxt = 1

    def triangle_gadgets(count):
        nonlocal nxt
        xs, xps = [], []
        for _ in range(count):
            p, x, xp = nxt, nxt + 1, nxt + 2
            nxt += 3
            edges.extend([(hub, p), (p, x), (p, xp), (x, xp)])
            xs.append(x)
            xps.append(xp)
        return xs, xps

    def cherry_gadgets(count):
        nonlocal nxt
        vs, zs = [], []
        for _ in range(count):
            v, z, zp = nxt, nxt + 1, nxt + 2
            nxt += 3
            edges.extend([(hub, v), (v, z), (v, zp)])
            vs.append(v)
            zs.append(z)
        return vs, zs

    def hub_blob(count, clique):
        # count vertices on the hub; pairwise adjacent when clique is True
        nonlocal nxt
        blob = list(range(nxt, nxt + count))
        nxt += count
        edges.extend((hub, v) for v in blob)
        if clique:
            edges.extend(
                (blob[i], blob[j])
                for i in range(count)
                for j in range(i + 1, count)
            )
        return blob

    def tail(length):
        # path u_1..u_length hanging from the hub
        nonlocal nxt
        us = list(range(nxt, nxt + length))
        nxt += length
        prev = hub
        for u in us:
            edges.append((prev, u))
            prev = u
        return us

    if a <= b == c:
        # r triangles + clique blob of b-a+2 on the hub
        r, l = a - 1, b - a + 1
        xs, _ = triangle_gadgets(r)
        blob = hub_blob(l + 1, clique=True)
        gamma = sorted(xs + [hub])
        beta = sorted(xs + blob[:l])
        codes = {"gamma": gamma, "beta": beta, "eta": beta}
    elif a == b < c:
        # r triangles + s cherries
        r, s = 2 * a - c, c - a
        xs, _ = triangle_gadgets(r)
        vs, zs = cherry_gadgets(s)
        codes = {
            "gamma": sorted(xs + vs),
            "beta": sorted(xs + zs),
            "eta": sorted(xs + zs + vs),
        }
    elif a < b < c:
        # r triangles + s cherries + pendant-leaf blob of b-a+2 on the hub
        r, s, l = a + b - c, c - b - 1, b - a + 1
        xs, _ = triangle_gadgets(r)
        vs, zs = cherry_gadgets(s)
        blob = hub_blob(l + 1, clique=False)
        codes = {
            "gamma": sorted(xs + vs + [hub]),
            "beta": sorted(xs + zs + blob[:l]),
            "eta": sorted(xs + zs + blob[:l] + vs + [hub]),
        }
    elif b < a == c:
        # r triangles + tail of 3l vertices ending in a twin triangle
        r, l = b - 1, a - b
        xs, _ = triangle_gadgets(r)
        us = tail(3 * l)
        delta, deltap = nxt, nxt + 1
        nxt += 2
        edges.extend([(us[-1], delta), (us[-1], deltap), (delta, deltap)])
        ws = [us[3 * i] for i in range(l)]  # u_1, u_4, ...
        gamma = sorted(xs + ws + [delta])
        codes = {"gamma": gamma, "beta": sorted(xs + [delta]), "eta": gamma}
    else:
        # b < a < c: r triangles + s cherries + tail of 3l-2 with a pendant
        # twin pair on the tip
        r, s, l = a + b - c, c - a - 1, a - b + 1
        xs, _ = triangle_gadgets(r)
        vs, zs = cherry_gadgets(s)
        us = tail(3 * l - 2)
        delta, deltap = nxt, nxt + 1
        nxt += 2
        edges.extend([(us[-1], delta), (us[-1], deltap)])
        ws = [us[3 * i] for i in range(l)]  # u_1, u_4, ..., u_{3l-2}
        codes = {
            "gamma": sorted(xs + vs + ws),
            "beta": sorted(xs + zs + [delta]),
            "eta": sorted(xs + zs + [delta] + vs + ws),
        }
    g = Graph(nxt, edges)
    return g, {k: tuple(v) for k, v in codes.items()}


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
