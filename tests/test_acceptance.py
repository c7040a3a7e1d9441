"""Acceptance suite: one test per criterion, exact-integer checks throughout.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failures).  Criterion 7 is expected to FAIL: the tree
upper bound it states is violated by the order-10 spider with legs
(4, 4, 1), which measures eta = 3 and lambda = 5 > 2*eta - 2; the sweep
is implemented exactly as stated and reports that counterexample rather
than being weakened to pass.
"""

import time
from math import ceil

import pytest

from locdom import (
    are_isomorphic,
    canonical_form,
    census,
    connected_graphs,
    full_report,
    is_mld,
    king_grid_subgraph_check,
    metric_coordinate_map,
    minimum_code,
    parameter_satisfies,
    read_graph6,
    tree_classes,
    write_graph6,
)
from locdom.families import (
    complete,
    complete_bipartite,
    cycle,
    eta_extremal_instances_of_order,
    g_eta_construction,
    path,
    realization_graph,
    realization_tree,
    spider_k3,
    spider_k4,
    star,
    wheel,
    NotRealizableError,
)

import _brute


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def eta2_census():
    return census(
        range(3, 9), lambda g: parameter_satisfies(g, "eta", "==", 2), "eta=2"
    )


@pytest.fixture(scope="module")
def reports_2_to_7():
    return [full_report(g) for n in range(2, 8) for g in connected_graphs(n)]


def measured(g, params):
    return {p: minimum_code(g, p)[0] for p in ("gamma", "beta", "eta", "lambda") if p in params}


def test_criterion_01_census_eta_2(eta2_census):
    from locdom import connected_graph_count

    t0 = time.monotonic()
    class_counts = [connected_graph_count(n) for n in range(1, 9)]
    counts = [eta2_census.count(n) for n in range(3, 9)]
    ok = (
        class_counts == [1, 1, 2, 6, 21, 112, 853, 11117]
        and counts == [2, 4, 10, 15, 17, 3]
        and eta2_census.total == 51
    )
    report(
        1,
        "eta=2 census over n=3..8 has 51 classes with counts (2,4,10,15,17,3)",
        ok,
        f"got {counts}, total {eta2_census.total}; class counts {class_counts}; "
        f"{time.monotonic() - t0:.1f}s after enumeration",
    )


def test_criterion_02_census_lambda_2():
    rep = census(range(3, 6), lambda g: parameter_satisfies(g, "lambda", "==", 2), "lambda=2")
    each_eta2 = all(
        parameter_satisfies(read_graph6(e.graph6), "eta", "==", 2)
        for e in rep.representatives
    )
    report(
        2,
        "lambda=2 census over n=3..5 has 16 classes, each with eta=2",
        rep.total == 16 and each_eta2,
        f"total {rep.total}",
    )


def test_criterion_03_table_of_family_values():
    instances = []
    instances += [path(n) for n in range(4, 16)]
    instances += [cycle(n) for n in range(7, 16)]
    instances += [complete(n) for n in range(2, 10)]
    instances += [star(n) for n in range(3, 10)]
    instances += [
        complete_bipartite(r, n - r)
        for n in range(4, 11)
        for r in range(2, n // 2 + 1)
    ]
    instances += [wheel(n) for n in range(8, 13)]
    mismatches = []
    for inst in instances:
        assert inst.claimed_values, inst.name
        got = measured(inst.graph, inst.claimed_values)
        if got != dict(inst.claimed_values):
            mismatches.append((inst.name, got, dict(inst.claimed_values)))
    report(
        3,
        "closed-form family values match brute force "
        "(paths, cycles, complete, stars, bipartite, wheels)",
        not mismatches,
        f"{len(instances)} instances" + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_04_inequality_chain_sweep(reports_2_to_7):
    ok = len(reports_2_to_7) == 995 and all(
        max(r.gamma, r.beta) <= r.eta <= min(r.gamma + r.beta, r.lambda_)
        for r in reports_2_to_7
    )
    report(
        4,
        "max(gamma,beta) <= eta <= min(gamma+beta,lambda) on all 995 connected graphs 2<=n<=7",
        ok,
        f"{len(reports_2_to_7)} graphs",
    )


def test_criterion_05_eta_bounds_sweep(reports_2_to_7):
    swept = [r for r in reports_2_to_7 if r.diameter >= 3]
    bounds_ok = all(
        r.eta + ceil(2 * r.diameter / 3) <= r.n <= r.eta + r.eta * 3 ** (r.eta - 1)
        for r in swept
    )
    lower_tight = all(
        (lambda r: r.eta + ceil(2 * r.diameter / 3) == r.n)(full_report(path(3 * k).graph))
        for k in (2, 3, 4)
    )
    g2 = g_eta_construction(2)
    upper2 = g2.graph.n == 8 and minimum_code(g2.graph, "eta")[0] == 2
    g3 = g_eta_construction(3)
    code3 = g3.claimed_codes["eta"]
    upper3 = (
        g3.graph.n == 30
        and len(code3) == 3
        and is_mld(g3.graph, code3)
        and minimum_code(g3.graph, "eta", k_max=2) is None
    )
    report(
        5,
        "eta + ceil(2D/3) <= n <= eta + eta*3^(eta-1) for D>=3, n<=7; "
        "tight at P6/P9/P12 and at the strong-grid constructions",
        bounds_ok and lower_tight and upper2 and upper3,
        f"{len(swept)} graphs swept",
    )


def test_criterion_06_lambda_bound_sweep(reports_2_to_7):
    swept = [r for r in reports_2_to_7 if r.diameter >= 3]
    lower_ok = all(r.lambda_ + ceil((3 * r.diameter - 1) / 5) <= r.n for r in swept)
    p5 = full_report(path(5).graph)
    tight = p5.lambda_ + ceil((3 * p5.diameter - 1) / 5) == p5.n
    upper_ok = all(r.n <= r.lambda_ + 2 ** r.lambda_ - 1 for r in reports_2_to_7)
    report(
        6,
        "lambda + ceil((3D-1)/5) <= n for D>=3 (tight at P5) and n <= lambda + 2^lambda - 1, n<=7",
        lower_ok and tight and upper_ok,
        f"{len(swept)} graphs swept for the lower bound",
    )


def test_criterion_07_tree_bounds():
    # P6 exception is genuine
    p6 = path(6).graph
    eta6 = minimum_code(p6, "eta")[0]
    lam6 = minimum_code(p6, "lambda")[0]
    exception_ok = (eta6, lam6) == (2, 3) and lam6 > 2 * eta6 - 2
    # attainment witnesses
    attain_ok = True
    for k in (2, 3, 4):
        low = spider_k3(k).graph
        eta = minimum_code(low, "eta")[0]
        lam = minimum_code(low, "lambda")[0]
        attain_ok &= eta == lam == k + 1
        high = spider_k4(k).graph
        eta = minimum_code(high, "eta")[0]
        lam = minimum_code(high, "lambda")[0]
        attain_ok &= eta == k + 1 and lam == 2 * k
    assert exception_ok and attain_ok
    # the sweep exactly as stated
    violations = []
    for n in range(3, 13):
        for t in tree_classes(n):
            if n == 6 and t.diameter() == 5:  # P6
                continue
            eta = minimum_code(t, "eta")[0]
            lam = minimum_code(t, "lambda")[0]
            if not eta <= lam <= 2 * eta - 2:
                violations.append((write_graph6(t).decode(), eta, lam))
    report(
        7,
        "eta <= lambda <= 2*eta-2 for every tree 3<=n<=12 except P6",
        not violations,
        f"violations: {violations}" if violations else "",
    )


def test_criterion_08_extremal_lambda(reports_2_to_7):
    family_forms = {
        n: {canonical_form(inst.graph) for inst in eta_extremal_instances_of_order(n)}
        for n in range(3, 8)
    }
    graphs = [g for n in range(3, 8) for g in connected_graphs(n)]
    a_ok = b_ok = c_ok = d_ok = True
    for g in graphs:
        r = full_report(g)
        if r.lambda_ >= r.n - 2:
            a_ok &= r.diameter <= 3
        b_ok &= (r.lambda_ == r.n - 2) == (r.eta == r.n - 2)
        if r.lambda_ == r.n - 2:
            c_ok &= canonical_form(g) in family_forms[r.n]
        if r.eta == r.n - 3:
            d_ok &= r.lambda_ == r.n - 3
    report(
        8,
        "lambda>=n-2 => D<=3; lambda=n-2 <=> eta=n-2; lambda=n-2 graphs are in the "
        "seven families; eta=n-3 => lambda=n-3 (all connected 3<=n<=7)",
        a_ok and b_ok and c_ok and d_ok,
        f"{len(graphs)} graphs",
    )


def test_criterion_09_eta_equals_lambda(reports_2_to_7):
    applicable = [
        r for r in reports_2_to_7 if r.diameter == 2 or r.beta >= r.n - 3
    ]
    ok = all(r.eta == r.lambda_ for r in applicable)
    report(
        9,
        "D=2 or beta>=n-3 forces eta=lambda on all connected graphs n<=7",
        ok,
        f"{len(applicable)} graphs met the hypothesis",
    )


def test_criterion_10_king_grid_embedding(eta2_census):
    ok = True
    details = []
    for entry in eta2_census.representatives:
        g = read_graph6(entry.graph6)
        dist = g.distance_matrix()
        codes = [
            (u, w)
            for u in range(g.n)
            for w in range(u + 1, g.n)
            if is_mld(g, (u, w))
        ]
        if not (3 <= g.n <= 8) or not codes:
            ok = False
            details.append(f"{entry.graph6}: order/codes")
            continue
        if any(dist[u][w] > 3 for u, w in codes):
            ok = False
            details.append(f"{entry.graph6}: code distance > 3")
        drawn = 0
        for code in codes:
            mapping = metric_coordinate_map(g, code)
            if mapping is not None and king_grid_subgraph_check(g, mapping):
                drawn += 1
        if drawn == 0:
            ok = False
            details.append(f"{entry.graph6}: no king-grid drawing")
    report(
        10,
        "every eta=2 census graph has 3<=n<=8, all optimal 2-codes at distance <=3, "
        "and a metric-coordinate drawing inside the 5x5 king grid",
        ok,
        "; ".join(details) if details else f"{eta2_census.total} graphs",
    )


def test_criterion_11_realization():
    bad = []
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(max(a, b), a + b + 1):
                excluded = b == 1 and a > 1 and c == a + 1
                if excluded:
                    try:
                        realization_graph(a, b, c)
                        bad.append((a, b, c, "not rejected"))
                    except NotRealizableError:
                        pass
                    continue
                inst = realization_graph(a, b, c)
                r = full_report(inst.graph)
                if (r.gamma, r.beta, r.eta) != (a, b, c):
                    bad.append((a, b, c, (r.gamma, r.beta, r.eta)))
    for a in range(3, 6):
        for b in range(a, 2 * a - 1):
            inst = realization_tree(a, b)
            eta = minimum_code(inst.graph, "eta")[0]
            lam = minimum_code(inst.graph, "lambda")[0]
            if (eta, lam) != (a, b):
                bad.append(("tree", a, b, (eta, lam)))
    report(
        11,
        "every feasible (gamma,beta,eta) triple with a,b<=3 and every tree pair "
        "3<=a<=5 is realized; the excluded triples are rejected",
        not bad,
        f"failures {bad}" if bad else "",
    )


def test_criterion_12_infrastructure_oracles():
    # labeled-enumeration oracle vs the canonical-augmentation enumerator
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    counts_ok = True
    classes_ok = True
    for n, count in expected.items():
        oracle = _brute.labeled_connected_classes(n)
        mine = list(connected_graphs(n))
        counts_ok &= len(oracle) == count == len(mine)
        classes_ok &= {canonical_form(g) for g in oracle} == {
            canonical_form(g) for g in mine
        }
    # graph6 round trip
    roundtrip_ok = True
    for n in range(1, 7):
        for g in connected_graphs(n):
            back = read_graph6(write_graph6(g))
            roundtrip_ok &= back == g and are_isomorphic(back, g)
    # canonical form agreement with brute-force isomorphism on all class pairs
    agree_ok = True
    classes = [g for n in range(1, 7) for g in connected_graphs(n)]
    for i, g in enumerate(classes):
        for h in classes[i + 1:]:
            if g.n != h.n:
                continue
            agree_ok &= _brute.brute_isomorphic(g, h) == (
                canonical_form(g) == canonical_form(h)
            )
    report(
        12,
        "labeled-enumeration oracle matches (1,1,2,6,21,112); graph6 round-trips; "
        "canonical form agrees with brute-force isomorphism on all class pairs n<=6",
        counts_ok and classes_ok and roundtrip_ok and agree_ok,
    )
