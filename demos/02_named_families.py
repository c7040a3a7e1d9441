"""Closed-form parameter values of named families, re-derived by brute force.

Every family constructor attaches the known closed-form values as claims;
this script recomputes each claim with the exhaustive solver and prints a
side-by-side table.  A mismatch would be a bug in one or the other.
"""

from locdom import PARAMETERS, minimum_code
from locdom.families import complete, complete_bipartite, cycle, path, star, wheel

instances = (
    [path(n) for n in (5, 10, 15)]
    + [cycle(n) for n in (7, 10, 15)]
    + [complete(n) for n in (4, 7)]
    + [star(n) for n in (5, 8)]
    + [complete_bipartite(2, 4), complete_bipartite(3, 3)]
    + [wheel(n) for n in (8, 10, 12)]
)

print(f"{'family':24s} {'n':>3s}  {'claimed':28s} {'computed':28s}")
for inst in instances:
    computed = {p: minimum_code(inst.graph, p)[0] for p in PARAMETERS}
    claimed = " ".join(f"{k[0]}={v}" for k, v in sorted(inst.claimed_values.items()))
    derived = " ".join(f"{k[0]}={computed[k]}" for k in sorted(inst.claimed_values))
    flag = "" if all(computed[k] == v for k, v in inst.claimed_values.items()) else "  <-- MISMATCH"
    print(f"{inst.name:24s} {inst.graph.n:3d}  {claimed:28s} {derived:28s}{flag}")
