"""Mechanical verification of bounds and extremal characterizations.

Runs the registered checkers over exhaustive scopes and prints their
verdicts.  Two things worth noticing:

* the eta = 2 graphs all draw inside the 5x5 king grid via the
  metric-coordinate map of an optimal 2-code, but the drawing can
  contract long distances (the grid's diameter is only 4);
* the tree sweep eta <= lambda <= 2*eta - 2 finds a genuine order-10
  counterexample, the spider with legs (4, 4, 1): eta = 3, lambda = 5.
  The checker reports it as a counterexample rather than hiding it.
"""

from locdom import minimum_code, read_graph6, run_theorem

for tid, kwargs in (
    ("prop1", {"n_max": 7}),
    ("eta-bounds", {"n_max": 7}),
    ("lambda-bounds", {"n_max": 7}),
    ("eta-lambda-conditions", {"n_max": 7}),
    ("lambda-extremal", {"n_max": 7}),
    ("eta2-membership", {"n_max": 6}),
    ("tree-bounds", {"n_max": 12}),
):
    verdict = run_theorem(tid, **kwargs)
    print(f"{tid:24s} {verdict.status.upper():7s} {verdict.reason}")
    for g6, detail in verdict.counterexamples:
        print(f"    counterexample {g6}: {detail}")

print("\nThe tree counterexample, up close:")
spider441 = read_graph6("IsO_OGA?O")
print("  edges:", spider441.edges())
eta, eta_code = minimum_code(spider441, "eta")
lam, lam_code = minimum_code(spider441, "lambda")
print(f"  eta = {eta} (witness {eta_code}), lambda = {lam} (witness {lam_code})")
print(f"  2*eta - 2 = {2 * eta - 2} < lambda: each 4-edge leg needs two")
print("  locating-dominating vertices of its own, and the pendant leaf a third resource.")
