"""Realization gallery: hitting prescribed parameter combinations.

For any targets max(a, b) <= c <= a + b there is a graph with gamma = a,
beta = b and eta = c, except the single impossible family
1 = b < a < c = a + 1 (beta = 1 forces a path, and paths never have
eta = gamma + 1).  For trees, every pair 3 <= a <= b <= 2a - 2 is hit by
a spider with b - a legs of 4 edges and 2a - b - 1 legs of 3 edges.

Every construction below is re-measured by the exhaustive solver.
"""

from locdom import full_report, minimum_code
from locdom.families import NotRealizableError, realization_graph, realization_tree

print("graphs with prescribed (gamma, beta, eta):")
for a in range(1, 4):
    for b in range(1, 4):
        for c in range(max(a, b), a + b + 1):
            try:
                inst = realization_graph(a, b, c)
            except NotRealizableError:
                print(f"  ({a},{b},{c}): impossible, correctly rejected")
                continue
            r = full_report(inst.graph)
            got = (r.gamma, r.beta, r.eta)
            mark = "ok" if got == (a, b, c) else "MISMATCH"
            print(f"  ({a},{b},{c}): {inst.name:22s} n={inst.graph.n:2d}  measured {got}  {mark}")

print("\ntrees with prescribed (eta, lambda):")
for a in range(3, 6):
    for b in range(a, 2 * a - 1):
        inst = realization_tree(a, b)
        eta = minimum_code(inst.graph, "eta")[0]
        lam = minimum_code(inst.graph, "lambda")[0]
        mark = "ok" if (eta, lam) == (a, b) else "MISMATCH"
        print(f"  ({a},{b}): {inst.name:24s} n={inst.graph.n:2d}  measured ({eta},{lam})  {mark}")
