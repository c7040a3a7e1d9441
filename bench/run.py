"""Benchmark of the locdom CLI: workloads timed end to end from outside,
with checked output, and a traced run for per-layer numbers.

    python3 bench/run.py --workload census8 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is ``src/locdom``, run from
source.  Every execution of a workload is the ``locdom`` CLI in a fresh
interpreter, so the package's in-process caches start empty each time,
and executions run one after another, never side by side.  An execution
counts as failed when its exit code or checked output differs from the
expected one, or when it times out.

``--trace 0`` repeats the workload for ``--seconds`` seconds and reports
the end-to-end metrics listed in BENCHMARK.json:

* ``wall_s``: median wall time of one execution, from spawn to exit;
* ``setup_s``: median wall time of interpreter start plus
  ``import locdom.cli``, each in its own fresh process;
* ``peak_rss_mb``: median over executions of the execution's own peak
  resident set (``os.wait4``, per child).

``--trace 1`` runs pairs of executions on the same input, one untraced
and one under ``bench/tracer.py``, and reports the per-layer metrics of
the pair with the median traced wall time.  Layer self times plus
``cli.self_s`` add up to the traced wall time, which exceeds the untraced
``trace.wall_s`` by ``trace.overhead_s``.

Standard output: one JSON line recording the environment, seed and every
execution, then, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``.  Problems go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, WORKLOADS, check, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
# every run must end within 180 s, whatever the program does
RUN_LIMIT_S = 170.0

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
CLI = [sys.executable, "-c", "import sys; from locdom.cli import main; sys.exit(main())"]
IMPORT_CLI = [sys.executable, "-c", "import locdom.cli"]
TRACED = [sys.executable, str(BENCH / "tracer.py")]

LAYERS = ("graph", "graph6", "canonical", "enumeration", "predicates", "solvers",
          "theorems", "families")
PARAMS = ("gamma", "beta", "eta", "lambda")
THEOREM_IDS = ("prop1", "eta-bounds", "lambda-bounds", "tree-bounds",
               "eta-lambda-conditions", "eta2-membership", "lambda-extremal",
               "realization", "tree-realization")


class Execution:
    """One child process: wall time, peak RSS, exit code and output."""

    def __init__(self, argv: list[str], timeout: float):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        streams: dict[str, bytes] = {}
        readers = [
            threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
            for k, f in (("out", proc.stdout), ("err", proc.stderr))
        ]
        for r in readers:
            r.start()
        self.timed_out = False
        for r in readers:
            r.join(max(0.0, t0 + timeout - perf_counter()))
            if r.is_alive():
                self.timed_out = True
                proc.kill()
                r.join()
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout, self.stderr = streams["out"], streams["err"]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def per_layer(trace: dict, traced_wall: float, wall: float) -> dict[str, float]:
    spans, counts = trace["spans"], trace["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "canonical.calls": span("canonical", "calls"),
        "canonical.busy_s": span("canonical", "busy_s"),
        "canonical.us_per_call": 1e6 * ratio(span("canonical", "busy_s"),
                                             span("canonical", "calls")),
        "canonical.autgens.calls": span("canonical.autgens", "calls"),
        "graph6.write.calls": span("graph6.write", "calls"),
        "graph6.write.busy_s": span("graph6.write", "busy_s"),
        "graph6.read.busy_s": span("graph6.read", "busy_s"),
    }
    for key in ("enumeration", "enumeration.trees"):
        classes = counts.get(f"{key}.classes", 0)
        children = counts.get(f"{key}.children", 0)
        m[f"{key}.classes"] = classes
        m[f"{key}.children"] = children
        m[f"{key}.keep_ratio"] = ratio(classes, children)
    m["enumeration.trees.self_s"] = span("enumeration.trees", "self_s")
    for p in PARAMS:
        m[f"solvers.{p}.calls"] = span(f"solvers.{p}", "calls")
        m[f"solvers.{p}.busy_s"] = span(f"solvers.{p}", "busy_s")
    m["solvers.bounded.calls"] = span("solvers.bounded", "calls")
    m["solvers.bounded.busy_s"] = span("solvers.bounded", "busy_s")
    reports = span("solvers.full_report", "calls")
    hits = counts.get("solvers.full_report.hits", 0)
    m["solvers.full_report.calls"] = reports
    m["solvers.full_report.hits"] = hits
    m["solvers.full_report.hit_ratio"] = ratio(hits, reports)
    for tid in THEOREM_IDS:
        m[f"theorems.{tid}.busy_s"] = span(f"theorems.{tid}", "busy_s")
        m[f"theorems.{tid}.self_s"] = span(f"theorems.{tid}", "self_s")
    m["graph.distance_matrix.calls"] = span("graph.distance_matrix", "calls")
    m["graph.distance_matrix.busy_s"] = span("graph.distance_matrix", "busy_s")
    m["predicates.calls"] = span("predicates", "calls")
    m["predicates.busy_s"] = span("predicates", "busy_s")
    m["families.busy_s"] = span("families", "busy_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = span(layer, "self_s")
    m["cli.self_s"] = traced_wall - trace["top_s"]
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = traced_wall - wall
    return m


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not (SRC / "locdom" / "cli.py").is_file():
        fail(f"no locdom sources under {SRC}")
    # output checks use the package's public predicates
    sys.path.insert(0, str(SRC))
    deadline = perf_counter() + RUN_LIMIT_S

    def remaining():
        return deadline - perf_counter()

    # the first import may compile bytecode; it is not a set-up sample
    setup = [Execution(IMPORT_CLI, remaining()) for _ in range(1 + (0 if trace else SETUP_RUNS))]
    if any(e.code for e in setup):
        fail("cannot import locdom.cli:\n" + setup[0].stderr.decode(errors="replace"))
    setup_s = [e.wall_s for e in setup[1:]]

    work = BENCH / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    executions, pairs, failed = [], [], 0
    t0 = perf_counter()
    try:
        index = 0
        while True:
            args, context = prepare(workload, seed, index, work)
            started = perf_counter()
            batch = [Execution(CLI + args, remaining())]
            if trace:
                spans_path = work / f"spans-{index}.json"
                batch.append(Execution(TRACED + [str(spans_path)] + args, remaining()))
            for e in batch:
                problems = ["timed out"] if e.timed_out else check(
                    workload, context, e.code, e.stdout)
                executions.append({"wall_s": e.wall_s, "peak_rss_mb": e.rss_mb,
                                   "exit": e.code, "ok": not problems})
                if problems:
                    failed += 1
                    print(f"{workload} execution {len(executions)}: " + "; ".join(problems),
                          file=sys.stderr)
                    if e.stderr:
                        print(e.stderr.decode(errors="replace"), file=sys.stderr)
            if trace and spans_path.is_file():
                pairs.append((batch[1].wall_s, batch[0].wall_s,
                              json.loads(spans_path.read_text())))
            index += 1
            took = perf_counter() - started
            elapsed = perf_counter() - t0
            if elapsed + took > seconds or took > remaining():
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if trace:
        if not pairs:
            fail("the traced execution wrote no spans")
        pairs.sort(key=lambda p: p[0])
        traced_wall, wall, spans = pairs[(len(pairs) - 1) // 2]
        if spans["missing"]:
            print("warning: not wrapped: " + ", ".join(spans["missing"]), file=sys.stderr)
        values = per_layer(spans, traced_wall, wall)
    else:
        values = {
            "wall_s": statistics.median(e["wall_s"] for e in executions),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in executions),
        }
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    print(json.dumps({
        "environment": environment(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup_s": setup_s,
        "executions": executions,
        "failed_frac": failed / len(executions),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
