"""The four benchmark workloads: CLI arguments, inputs and output checks.

Each workload is one ``locdom`` command.  Every layer that later work is
planned to change does most of the work in one workload and little in
another (see README.md in this directory):

* ``census8``  - ``enumerate --n 3..8 --filter eta=2 --output census``:
  canonical form and enumeration; the bounded solver filter is small.
* ``verify7``  - ``verify all --n-max 7``: many tiny solver searches and
  ``full_report`` cache reuse across theorems.
* ``trees12``  - ``verify tree-bounds --n-max 12``: the tree generator and
  solver searches on trees; its expected verdict is the known FAIL.
* ``large``    - ``compute FILE`` on seeded relabellings of structured
  instances with n = 12..25: solver search only.

``prepare`` returns the CLI arguments of one execution; ``check``
returns the list of problems with its exit code and standard output
(empty when correct).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

# the seed whose first ``large`` input is checked byte for byte
DEFAULT_SEED = 1

WORKLOADS = ("census8", "verify7", "trees12", "large")

_ARGS = {
    "census8": ["enumerate", "--n", "3..8", "--filter", "eta=2", "--output", "census"],
    "verify7": ["verify", "all", "--n-max", "7"],
    "trees12": ["verify", "tree-bounds", "--n-max", "12"],
}

CENSUS8_COUNTS = {3: 2, 4: 4, 5: 10, 6: 15, 7: 17, 8: 3}
TREES12_COUNTEREXAMPLES = [{"detail": "eta=3 lambda=5", "graph6": "IsO_OGA?O"}]


# -- large: seeded relabellings of structured instances ---------------------
#
# Why each instance (values are labelling-invariant; "closed form" are the
# locdom.families claims, the others were recorded at the seed commit):
#   P21        long path: the largest exhaustive lambda scan (levels 7..9);
#              closed form (gamma, beta, eta, lambda) = (7, 1, 7, 9)
#   C18        cycle: beta = 2 with many symmetric codes; closed form
#              (6, 2, 6, 8)
#   king5x5    5x5 king grid, the host of the eta = 2 drawings; n = 25 with
#              a dense neighbourhood; recorded (4, 3, 4, 7)
#   W16        wheel: gamma = 1 but beta = eta = lambda = 6, so the metric
#              searches dominate; closed form (1, 6, 6, 6)
#   spider     spider (4,4,4,4,1), the family of the tree-bound
#              counterexample; recorded (5, 4, 5, 9)
#   K6,6       complete bipartite: a large beta (10) reached at small n;
#              closed form (2, 10, 10, 10)
# The lexicographic search time depends on the labelling by +-10-30 % per
# instance, so every input holds LABELLINGS independent relabellings of
# each instance; averaging them keeps one execution's time steady across
# seeds.  P21 stands in for P24: one P24 alone takes ~6 s and varies by
# ~25 % with the labelling, too much to average within a run.

LABELLINGS = 3


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _king(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((r * cols + c, rr * cols + cc))
    return rows * cols, edges


def _wheel(n):
    return n, [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)]


def _spider(legs):
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


def _complete_bipartite(r, s):
    return r + s, [(i, r + j) for i in range(r) for j in range(s)]


# name -> ((n, edges), diameter, (gamma, beta, eta, lambda))
INSTANCES = {
    "P21": (_path(21), 20, (7, 1, 7, 9)),
    "C18": (_cycle(18), 9, (6, 2, 6, 8)),
    "king5x5": (_king(5, 5), 4, (4, 3, 4, 7)),
    "W16": (_wheel(16), 2, (1, 6, 6, 6)),
    "spider44441": (_spider([4, 4, 4, 4, 1]), 8, (5, 4, 5, 9)),
    "K6,6": (_complete_bipartite(6, 6), 2, (2, 10, 10, 10)),
}

PARAMS = ("gamma", "beta", "eta", "lambda")


def graph6(n: int, edges) -> str:
    """Short-form graph6 of a simple graph on 0..n-1 (n <= 62)."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return chr(n + 63) + "".join(map(chr, body))


def large_input(seed: int, index: int) -> list[tuple[str, str]]:
    """(instance name, graph6) lines of the ``large`` input for one execution."""
    lines = []
    for copy in range(LABELLINGS):
        for name, ((n, edges), _, _) in INSTANCES.items():
            perm = list(range(n))
            random.Random(f"{seed}:{index}:{copy}:{name}").shuffle(perm)
            lines.append((name, graph6(n, [(perm[u], perm[v]) for u, v in edges])))
    return lines


# -- running and checking ----------------------------------------------------


def prepare(workload: str, seed: int, index: int, work: Path) -> tuple[list[str], object]:
    """CLI arguments for execution ``index`` and the context ``check`` needs."""
    if workload != "large":
        return list(_ARGS[workload]), None
    lines = large_input(seed, index)
    path = work / f"large-{seed}-{index}.g6"
    path.write_text("".join(g6 + "\n" for _, g6 in lines))
    golden = seed == DEFAULT_SEED and index == 0
    return ["compute", str(path)], (lines, golden)


def _records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode().splitlines()]


def _golden(name: str, stdout: bytes) -> list[str]:
    """Payload lines byte-identical to the expected output; the summary
    is compared without its manifest (run-specific by design)."""
    got = stdout.splitlines()
    want = (EXPECTED / f"{name}.jsonl").read_bytes().splitlines()
    if len(got) != len(want):
        return [f"{len(got)} output lines, expected {len(want)}"]
    problems = [f"line {i + 1} differs from expected"
                for i, (a, b) in enumerate(zip(got[:-1], want[:-1])) if a != b]
    summaries = [json.loads(s) for s in (got[-1], want[-1])]
    for s in summaries:
        s.pop("manifest", None)
    if summaries[0] != summaries[1]:
        problems.append(f"summary {summaries[0]} differs from expected {summaries[1]}")
    return problems


def check(workload: str, context, code: int, stdout: bytes) -> list[str]:
    try:
        return _check(workload, context, code, stdout)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def _check(workload: str, context, code: int, stdout: bytes) -> list[str]:
    expected_code = 1 if workload == "trees12" else 0
    if code != expected_code:
        return [f"exit code {code}, expected {expected_code}"]
    records = _records(stdout)
    if workload == "large":
        lines, golden = context
        return (_golden("large", stdout) if golden else []) + _check_large(lines, records)
    problems = _golden(workload, stdout)
    payload = records[:-1]
    if workload == "census8":
        counts = {r["order"]: r["count"] for r in payload if r.get("type") == "census"}
        totals = [r["total"] for r in payload if r.get("type") == "count"]
        if counts != CENSUS8_COUNTS or totals != [51]:
            problems.append(f"census counts {counts} total {totals}")
    elif workload == "verify7":
        statuses = {r["theorem"]: r["status"] for r in payload}
        if set(statuses.values()) != {"holds"}:
            problems.append(f"verdicts {statuses}")
    elif workload == "trees12":
        verdict = payload[0] if len(payload) == 1 else {}
        if (verdict.get("status"), verdict.get("counterexamples")) != (
            "fails", TREES12_COUNTEREXAMPLES
        ):
            problems.append(f"tree-bounds verdict {verdict}")
    return problems


def _check_large(lines, records) -> list[str]:
    """Values equal the instance's known values; each witness is a code of
    that size accepted by the matching public predicate."""
    from locdom import is_dominating, is_ld, is_locating, is_mld, read_graph6

    predicates = dict(zip(PARAMS, (is_dominating, is_locating, is_mld, is_ld)))
    graphs = [r for r in records if r.get("type") == "graph"]
    summary = records[-1] if records else {}
    if (len(graphs), summary.get("type"), summary.get("records"), summary.get("failures")) != (
        len(lines), "summary", len(lines), 0
    ):
        return [f"{len(graphs)} graph records for {len(lines)} inputs; summary {summary}"]
    problems = []
    for i, ((name, g6), rec) in enumerate(zip(lines, graphs), start=1):
        _, diameter, values = INSTANCES[name]
        if (rec["line"], rec["graph6"], rec["diameter"]) != (i, g6, diameter):
            problems.append(f"{name} line {i}: record {rec}")
            continue
        g = read_graph6(g6)
        for param, value in zip(PARAMS, values):
            witness = rec[f"witness_{param}"]
            if (
                rec[param] != value
                or len(witness) != value
                or witness != sorted(set(witness))
                or not predicates[param](g, witness)
            ):
                problems.append(f"{name} line {i}: {param}={rec[param]} witness {witness}")
    return problems
