"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles with plain dict
adjacency, explicit BFS and raw definition transcriptions, deliberately
sharing no algorithmic machinery with the package (graphs are only taken
apart via .n and .edges()).  These oracles define the expected values the
package is tested against.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, reduce
from itertools import combinations, permutations
from operator import and_

from locdom import Graph


def adjacency(g: Graph) -> dict[int, set[int]]:
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distances(adj: dict[int, set[int]], n: int, src: int) -> list:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [dist.get(v) for v in range(n)]


def is_connected(g: Graph) -> bool:
    adj = adjacency(g)
    return None not in bfs_distances(adj, g.n, 0)


def all_distances(g: Graph) -> list[list]:
    adj = adjacency(g)
    return [bfs_distances(adj, g.n, s) for s in range(g.n)]


# -- definition-transcribed predicates --------------------------------------


def brute_dominating(adj, n, subset) -> bool:
    chosen = set(subset)
    return all(v in chosen or adj[v] & chosen for v in range(n))


def brute_locating(dist, n, subset) -> bool:
    chosen = set(subset)
    vectors = [
        tuple(dist[v][x] for x in subset) for v in range(n) if v not in chosen
    ]
    return len(vectors) == len(set(vectors))


def brute_ld(adj, n, subset) -> bool:
    chosen = set(subset)
    traces = []
    for v in range(n):
        if v in chosen:
            continue
        t = frozenset(adj[v] & chosen)
        if not t:
            return False
        traces.append(t)
    return len(traces) == len(set(traces))


def brute_accept(g: Graph, param: str):
    """The definition of a ``param`` code, as a predicate on vertex tuples."""
    n = g.n
    adj = adjacency(g)
    dist = all_distances(g)
    if param == "gamma":
        return lambda s: brute_dominating(adj, n, s)
    if param == "beta":
        return lambda s: brute_locating(dist, n, s)
    if param == "eta":
        return lambda s: brute_dominating(adj, n, s) and brute_locating(dist, n, s)
    if param == "lambda":
        return lambda s: brute_ld(adj, n, s)
    raise ValueError(param)


def brute_minimum(g: Graph, param: str, k_min: int = 1, k_max=None):
    """(size, lexicographically least witness) by unseeded exhaustive scan
    over the sizes k_min..k_max, or None when k_max is given and no code
    of those sizes exists."""
    accept = brute_accept(g, param)
    for k in range(k_min, (g.n if k_max is None else k_max) + 1):
        for subset in combinations(range(g.n), k):
            if accept(subset):
                return k, subset
    if k_max is None:
        raise AssertionError("the full vertex set must qualify")
    return None


def brute_parameters(g: Graph) -> dict[str, int]:
    return {p: brute_minimum(g, p)[0] for p in ("gamma", "beta", "eta", "lambda")}


# -- reference hitting-set search ----------------------------------------------
#
# The lexicographic hitting-set search as first written, with no lower
# bound: it cuts only by the smallest largest element of the unmet sets,
# takes the one-pick-left intersection and completes consecutively.  The
# package's search, with its counting floor and packing cut, must return
# the same (k, witness) on the same family.


def reference_least_hitting_set(sets: list[int], n: int, k: int):
    """Lexicographically least k-subset of range(n) that meets every mask in
    ``sets`` (sorted by largest element), or None when there is none."""

    def search(unmet: list[int], lo: int, left: int):
        # picks so far are all below lo, and lo + left <= n
        if not unmet:
            return tuple(range(lo, lo + left))
        if left == 1:
            common = reduce(and_, unmet) >> lo << lo
            return ((common & -common).bit_length() - 1,) if common else None
        for v in range(lo, min(unmet[0].bit_length(), n - left + 1)):
            bit = 1 << v
            found = search([s for s in unmet if not s & bit], v + 1, left - 1)
            if found is not None:
                return (v,) + found
        return None

    return search(sets, 0, k)


def reference_minimum(sets: list[int], n: int):
    """(k, witness) of the reference search tried at k = 1, 2, ..., n."""
    for k in range(1, n + 1):
        code = reference_least_hitting_set(sets, n, k)
        if code is not None:
            return k, code
    raise AssertionError("the full vertex set must meet every set")


# -- brute-force isomorphism -------------------------------------------------


def _degree_sequence(g: Graph):
    return sorted(g.degrees())


def _distance_profile(g: Graph):
    rows = all_distances(g)
    return sorted(tuple(sorted(-1 if d is None else d for d in row)) for row in rows)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search, pruned only by isomorphism-invariant facts."""
    if g.n != h.n or len(g.edges()) != len(h.edges()):
        return False
    if _degree_sequence(g) != _degree_sequence(h):
        return False
    if _distance_profile(g) != _distance_profile(h):
        return False
    g_edges = {frozenset(e) for e in g.edges()}
    h_edges = {frozenset(e) for e in h.edges()}
    for perm in permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in h_edges for u, v in g_edges):
            return True
    return False


# -- reference canonical search ------------------------------------------------
#
# The canonical labelling search as first written: colour refinement by
# sorted tuples of neighbour colours over colour lists, leaves scored by
# a tuple of packed columns, the form encoded from the relabelled edges.
# The package's search must return the same form, labelling and
# automorphism generators.


def _reference_refine(nbrs, colors: list[int]) -> list[int]:
    """Stable neighbour-colour refinement: new colours sort by (old colour,
    sorted multiset of neighbour colours)."""
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
            for v in range(n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _reference_columns(adj, lab) -> tuple[int, ...]:
    cols = []
    for j in range(1, len(lab)):
        c = 0
        for i in range(j):
            c = (c << 1) | (lab[i] in adj[lab[j]])
        cols.append(c)
    return tuple(cols)


def _reference_in_orbit(v, explored, gens, fixed) -> bool:
    live = [p for p in gens if all(p[f] == f for f in fixed)]
    if not live:
        return False
    orbit = set(explored)
    frontier = list(explored)
    while frontier:
        u = frontier.pop()
        for p in live:
            w = p[u]
            if w == v:
                return True
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return False


def brute_graph6(n: int, edges) -> bytes:
    """Short-form graph6 of a graph on 0..n-1, bit by bit from the format."""
    pairs = {frozenset(e) for e in edges}
    bits = [int(frozenset((i, j)) in pairs) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)
    ]
    return bytes([n + 63] + body)


def reference_write_graph6(g: Graph) -> bytes:
    """Short-form graph6 by the bit-by-bit encoder loop: one shift per
    upper-triangle bit x(0,j), ..., x(j-1,j), column by column, then the
    bits zero-padded and cut into 6-bit bytes offset by 63."""
    n = g.n
    pairs = set(g.edges())
    bits = 0
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | ((i, j) in pairs)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    bits <<= 6 * nbytes - nbits
    return bytes([n + 63] + [(bits >> s & 63) + 63 for s in range(6 * nbytes - 6, -6, -6)])


def reference_read_graph6(data: bytes) -> Graph:
    """Decode a valid short-form graph6 value by the bit-by-bit decoder
    loop: one bit position per upper-triangle pair, column by column."""
    n = data[0] - 63
    bits = 0
    for b in data[1:]:
        bits = (bits << 6) | (b - 63)
    nbits = n * (n - 1) // 2
    bits >>= 6 * (len(data) - 1) - nbits
    edges = []
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                edges.append((i, j))
    return Graph(n, edges)


def reference_canonical(g: Graph):
    """(canonical form, labelling position -> vertex, automorphism generators)."""
    n = g.n
    adj = adjacency(g)
    nbrs = [sorted(adj[v]) for v in range(n)]
    best = {"cols": None, "lab": None}
    gens: list[tuple[int, ...]] = []

    def rec(colors, fixed):
        ncells = max(colors) + 1
        if ncells == n:
            lab = [0] * n
            for v in range(n):
                lab[colors[v]] = v
            cols = _reference_columns(adj, lab)
            if best["cols"] is None or cols < best["cols"]:
                best["cols"], best["lab"] = cols, lab
            elif cols == best["cols"]:
                perm = [0] * n
                for i in range(n):
                    perm[best["lab"][i]] = lab[i]
                gens.append(tuple(perm))
            return
        cells = [[] for _ in range(ncells)]
        for v in range(n):
            cells[colors[v]].append(v)
        target = next(cell for cell in cells if len(cell) > 1)
        explored: list[int] = []
        for v in target:
            if explored and _reference_in_orbit(v, explored, gens, fixed):
                continue
            branch = [2 * c for c in colors]
            branch[v] -= 1
            rec(_reference_refine(nbrs, branch), fixed + [v])
            explored.append(v)

    rec(_reference_refine(nbrs, [0] * n), [])
    lab = tuple(best["lab"])
    pos = {v: i for i, v in enumerate(lab)}
    form = brute_graph6(n, [(pos[u], pos[v]) for u, v in g.edges()])
    return form, lab, tuple(gens)


# -- labeled enumeration oracle ----------------------------------------------


def labeled_connected_classes(n: int) -> list[Graph]:
    """Every connected graph class of order n: walk all 2^C(n,2) labeled
    graphs in order; each graph not yet marked starts a class, whose whole
    S_n orbit is marked, and is kept if it is connected.  Each class is
    represented by its first labeled graph."""
    pair_list = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pair_list)}
    # images[p][i]: the bit that pair i maps to under permutation p
    images = [
        [1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in pair_list]
        for perm in permutations(range(n))
    ]
    marked = bytearray(1 << len(pair_list))
    reps: list[Graph] = []
    for bits in range(len(marked)):
        if marked[bits]:
            continue
        present = [i for i in range(len(pair_list)) if (bits >> i) & 1]
        for image in images:
            marked[sum(image[i] for i in present)] = 1
        g = Graph(n, [pair_list[i] for i in present])
        if is_connected(g):
            reps.append(g)
    return reps


# -- trees --------------------------------------------------------------------
#
# Tree generation as first written: leaf augmentation of each class of the
# order below, one leaf position per orbit of the automorphism generators
# that the general canonical search finds, children deduplicated by their
# canonical forms.  Unlike the rest of this module it runs the package's
# general path on purpose: the tree path must keep the same
# representatives, in the same order.


@lru_cache(maxsize=None)
def reference_tree_classes(n: int) -> tuple[Graph, ...]:
    """The tree classes of order n, each the first child generated."""
    from locdom.canonical import canonical_form
    from locdom.enumeration import _extend, _extension_masks

    if n == 1:
        return (Graph(1),)
    out = []
    seen = set()
    for parent in reference_tree_classes(n - 1):
        for mask in _extension_masks(parent, [1 << v for v in range(n - 1)]):
            child = _extend(parent, mask)
            key = canonical_form(child)
            if key not in seen:
                seen.add(key)
                out.append(child)
    return tuple(out)


def reference_rooted_code(g: Graph, root: int) -> str:
    """The AHU code of the tree g rooted at root: "(" + the sorted codes of
    the root's subtrees + ")".  Two rooted trees are isomorphic iff their
    codes are equal."""
    adj = adjacency(g)

    def code(v: int, up: int) -> str:
        return "(" + "".join(sorted(code(c, v) for c in adj[v] if c != up)) + ")"

    return code(root, -1)


def reference_tree_key(g: Graph) -> str:
    """The least code of the tree g rooted at a centre, a vertex of least
    eccentricity."""
    ecc = [max(row) for row in all_distances(g)]
    return min(reference_rooted_code(g, v) for v in range(g.n) if ecc[v] == min(ecc))


def prufer_tree(seq: tuple[int, ...]) -> Graph:
    """Tree of order len(seq) + 2 decoded from its Prufer sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    remaining = list(seq)
    for v in remaining:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def prufer_tree_class_count(n: int) -> int:
    """Number of tree classes of order n via all n^(n-2) Prufer sequences,
    deduplicated by brute-force isomorphism."""
    if n == 1 or n == 2:
        return 1
    reps: list[Graph] = []
    from itertools import product

    for seq in product(range(n), repeat=n - 2):
        t = prufer_tree(seq)
        if not any(brute_isomorphic(t, rep) for rep in reps):
            reps.append(t)
    return len(reps)
