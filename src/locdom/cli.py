"""Command-line front end: batch computation, enumeration, family
generation and theorem verification with reproducible JSON-lines output.

Commands
--------
* ``locdom compute [FILE]``: read graphs (graph6 lines or a single
  edge-list file), print one record per graph with the requested
  parameters and witnesses.
* ``locdom enumerate --n 3..8 --filter "eta=2" --output census``:
  census/count/graph6 stream over the connected graphs of the given
  orders, filtered by comparisons over gamma/beta/eta/lambda/n/diam
  joined with ``and``.
* ``locdom family NAME PARAMS...``: build a named family instance, emit
  it and/or verify its claimed values by brute force.
* ``locdom verify THEOREM|all``: run registered theorem checkers over an
  order range or a graph6 stream; counterexamples are printed as graph6.

Structured output is one JSON object per line with sorted keys, closed by
a summary record embedding the run manifest (command line, version, wall
time, input digest).  Identical inputs and version produce byte-identical
payload records; only the manifest's wall time varies.  ``--table``
switches to a human-readable rendering.

Exit codes: 0 success/holds; 1 verification failure (mismatch or
counterexample); 2 input parse error; 3 precondition violation (e.g.
disconnected input, or a parameter asked of one vertex); 4 internal
error: an invariant violation, or a forked worker that died or raised
where the main process did not; 141 (128 + SIGPIPE) standard output
closed before the output was written, as by ``| head``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from typing import Callable, Optional

from . import __version__, families
from .enumeration import MAX_ENUMERATION_ORDER, WorkerError, _filtered, write_graph6
from .graph import DisconnectedGraphError, Graph
from .graph6 import Graph6Error, read_graph6
from .solvers import (
    InvariantViolation,
    PARAMETERS,
    _OPS,
    full_report,
    minimum_code,
    parameter_satisfies,
)
from .theorems import THEOREM_IDS, Verdict, _capped, _run_theorems

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


class _InputError(ValueError):
    """Unparseable input (maps to exit code 2)."""


# -- input handling ----------------------------------------------------------


def _read_source(path: Optional[str]) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _parse_edge_list(text: str) -> Graph:
    """Whitespace edge list: first line n, then one 'u v' pair per line."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise _InputError("empty edge-list input")
    if not re.fullmatch(r"[0-9]+", lines[0]):
        raise _InputError(f"edge list must start with the vertex count, got {lines[0]!r}")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(re.fullmatch(r"[0-9]+", p) for p in parts):
            raise _InputError(f"bad edge line {ln!r}; expected 'u v'")
        edges.append((int(parts[0]), int(parts[1])))
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _parse_graphs(data: bytes, fmt: str) -> list[tuple[int, Graph]]:
    """Parse input into (line_number, Graph) pairs."""
    text = data.decode("utf-8", errors="replace")
    stripped = [ln.strip() for ln in text.splitlines()]
    if fmt == "auto":
        first = next((ln for ln in stripped if ln), "")
        fmt = "edges" if re.fullmatch(r"[0-9]+", first) else "g6"
    if fmt == "edges":
        return [(1, _parse_edge_list(text))]
    out = []
    for i, ln in enumerate(stripped, start=1):
        if not ln or ln.startswith(">>graph6<<") and not ln[len(">>graph6<<"):]:
            continue
        try:
            out.append((i, read_graph6(ln)))
        except Graph6Error as exc:
            raise _InputError(f"line {i}: {exc}") from exc
    if not out:
        raise _InputError("no graphs found in input")
    return out


# -- filter grammar ----------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(gamma|beta|eta|lambda|n|diam)\s*(<=|>=|==|!=|=|<|>)\s*([0-9]+)\s*$"
)


def _parse_filter(expr: str) -> list[tuple[str, str, int]]:
    """The terms of a filter: comparisons over gamma/beta/eta/lambda/n/diam
    joined by 'and', the structural ones first."""
    terms = []
    for chunk in re.split(r"\band\b", expr):
        if not chunk.strip():
            raise _InputError(f"empty term in filter {expr!r}")
        m = _TERM_RE.match(chunk)
        if not m:
            raise _InputError(
                f"bad filter term {chunk.strip()!r}; expected "
                "(gamma|beta|eta|lambda|n|diam) OP integer"
            )
        terms.append((m.group(1), m.group(2), int(m.group(3))))
    terms.sort(key=lambda t: t[0] not in ("n", "diam"))
    return terms


def _filter_predicate(terms: list[tuple[str, str, int]]) -> Optional[Callable[[Graph], bool]]:
    """Does a graph meet every term?  Structural terms are evaluated first;
    parameter terms use bounded searches, so 'eta=2' never computes eta
    exactly on a large graph.  No terms give None: no predicate to run."""
    if not terms:
        return None

    def predicate(g: Graph) -> bool:
        for key, op, value in terms:
            if key == "n":
                ok = _OPS[op](g.n, value)
            elif key == "diam":
                ok = _OPS[op](g.diameter(), value)
            else:
                ok = parameter_satisfies(g, key, op, value)
            if not ok:
                return False
        return True

    return predicate


def _parse_order_range(text: str) -> range:
    m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text.strip())
    if not m:
        raise _InputError(f"bad order range {text!r}; expected N or A..B")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise _InputError(f"bad order range {text!r}: {hi} < {lo}")
    if lo < 1 or hi > MAX_ENUMERATION_ORDER:
        raise _InputError(
            f"order range {text!r} outside the supported orders 1..{MAX_ENUMERATION_ORDER}"
        )
    return range(lo, hi + 1)


def _ascii_int(text: str) -> int:
    # int() alone would also read digits of other scripts, such as '٣'
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


# -- output ------------------------------------------------------------------


class _Emitter:
    def __init__(self, argv: list[str], table: bool, digest: Optional[str]):
        self.records = 0
        self.failures = 0
        self.table = table
        self.t0 = time.monotonic()
        self.argv = argv
        self.digest = digest

    def record(self, obj: dict, text: str) -> None:
        self.records += 1
        print(text if self.table else json.dumps(obj, sort_keys=True))

    def close(self) -> None:
        manifest = {
            "command": "locdom " + " ".join(self.argv),
            "version": __version__,
            "wall_time_s": round(time.monotonic() - self.t0, 3),
            "input_sha256": self.digest,
        }
        summary = {
            "type": "summary",
            "records": self.records,
            "failures": self.failures,
            "manifest": manifest,
        }
        if self.table:
            print(f"-- {self.records} records, {self.failures} failures "
                  f"[{manifest['wall_time_s']}s, locdom {__version__}]")
        else:
            print(json.dumps(summary, sort_keys=True))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parameters_defined(graphs: list[tuple[int, Graph]]) -> bool:
    """Are the parameters defined on every input graph (connected, n >= 2)?
    If not, name the first graph that fails on stderr."""
    for line, g in graphs:
        if g.n < 2 or not g.is_connected():
            problem = "has one vertex; the parameters need n >= 2" if g.n < 2 else "is disconnected"
            print(f"error: graph on input line {line} {problem}", file=sys.stderr)
            return False
    return True


# -- compute -----------------------------------------------------------------


def _cmd_compute(args, argv) -> int:
    data = _read_source(args.input)
    graphs = _parse_graphs(data, args.format)
    params = [p.strip() for p in args.params.split(",")] if args.params else list(PARAMETERS)
    for i, p in enumerate(params):
        if p not in PARAMETERS:
            raise _InputError(f"unknown parameter {p!r}; expected subset of {','.join(PARAMETERS)}")
        if p in params[:i]:
            raise _InputError(f"parameter {p!r} named twice in --params")
    if not _parameters_defined(graphs):
        return EXIT_PRECONDITION
    out = _Emitter(argv, args.table, _sha256(data))
    for line, g in graphs:
        if set(params) == set(PARAMETERS):
            rep = full_report(g)
            values = {p: rep.value(p) for p in PARAMETERS}
            witnesses = {p: list(rep.witness(p)) for p in PARAMETERS}
        else:
            values, witnesses = {}, {}
            for p in params:
                k, code = minimum_code(g, p)
                values[p] = k
                witnesses[p] = list(code)
        rec = {
            "type": "graph",
            "line": line,
            "graph6": write_graph6(g).decode("ascii"),
            "n": g.n,
            "diameter": g.diameter(),
        }
        for p in params:
            rec[p] = values[p]
            rec[f"witness_{p}"] = witnesses[p]
        cells = " ".join(f"{p}={values[p]}{tuple(witnesses[p])}" for p in params)
        out.record(rec, f"{rec['graph6']}  n={g.n} D={rec['diameter']}  {cells}")
    out.close()
    return EXIT_OK


# -- enumerate ---------------------------------------------------------------


def _cmd_enumerate(args, argv) -> int:
    orders = _parse_order_range(args.n)
    terms = _parse_filter(args.filter) if args.filter else []
    if args.output == "graph6" and args.table:
        raise _InputError("--table does not apply to --output graph6, a bare graph6 stream")
    if orders[0] < 2 and any(key in PARAMETERS for key, _, _ in terms):
        print(f"error: order range {args.n!r} includes n = 1; the parameters need n >= 2",
              file=sys.stderr)
        return EXIT_PRECONDITION
    predicate = _filter_predicate(terms)
    if args.output == "graph6":
        for _, hits in _filtered(orders, predicate):
            for g in hits:
                sys.stdout.write(write_graph6(g).decode("ascii") + "\n")
        return EXIT_OK
    out = _Emitter(argv, args.table, None)
    # counts alone: census() would also find every hit's canonical form
    counts = {n: len(hits) for n, hits in _filtered(orders, predicate)}
    if args.output == "census":
        for n, count in counts.items():
            rec = {"type": "census", "order": n, "count": count}
            out.record(rec, f"n={n}: {count}")
    total = sum(counts.values())
    rec = {"type": "count", "filter": args.filter or "all", "total": total}
    out.record(rec, f"total: {total}")
    out.close()
    return EXIT_OK


# -- family ------------------------------------------------------------------


# family name -> (constructor in locdom.families, number of integer
# parameters, or None for one list of any length whose constructor returns
# a bare graph).  Constructors are looked up by name when called, so a
# wrapper installed on the module (bench/tracer.py installs one) is used.
_FAMILIES = {
    "path": ("path", 1),
    "cycle": ("cycle", 1),
    "complete": ("complete", 1),
    "star": ("star", 1),
    "complete-bipartite": ("complete_bipartite", 2),
    "wheel": ("wheel", 1),
    "spider": ("spider", None),
    "spider-k3": ("spider_k3", 1),
    "spider-k4": ("spider_k4", 1),
    "spider-mixed": ("spider_mixed", 2),
    "strong-grid": ("strong_grid", None),
    "geta": ("g_eta_construction", 1),
    "eta-extremal": ("eta_n_minus_2_family", 2),  # after the KIND
    "realization": ("realization_graph", 3),
    "realization-tree": ("realization_tree", 2),
}


def _family_instance(name: str, params: list[str]) -> families.FamilyInstance:
    constructor, arity = _FAMILIES[name]
    kind = []
    if name == "eta-extremal":
        if len(params) != 3:
            raise _InputError("family 'eta-extremal' expects KIND R S")
        kind, params = params[:1], params[1:]
    for p in params:
        if not re.fullmatch(r"-?[0-9]+", p):
            raise _InputError(f"family {name!r} expects integer parameters, got {p!r}")
    vals = [int(p) for p in params]
    if arity is not None and len(vals) != arity:
        raise _InputError(f"family {name!r} expects {arity} parameters, got {len(vals)}")
    make = getattr(families, constructor)
    try:
        if arity is None:
            return families.FamilyInstance(make(vals), f"{constructor}({vals})")
        return make(*kind, *vals)
    except families.NotRealizableError:
        raise
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _cmd_family(args, argv) -> int:
    if args.emit and args.table and not args.verify:
        raise _InputError(f"--table does not apply to --emit {args.emit} without --verify")
    try:
        inst = _family_instance(args.name, args.params)
    except families.NotRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    g = inst.graph
    if args.emit == "graph6":
        sys.stdout.write(write_graph6(g).decode("ascii") + "\n")
    elif args.emit == "edgelist":
        sys.stdout.write(f"{g.n}\n")
        for u, v in g.edges():
            sys.stdout.write(f"{u} {v}\n")
    if args.emit and not args.verify:
        return EXIT_OK
    out = _Emitter(argv, args.table, None)
    rec = {
        "type": "family",
        "name": inst.name,
        "n": g.n,
        "graph6": write_graph6(g).decode("ascii"),
        "claims": dict(inst.claimed_values),
        "claimed_codes": {k: list(v) for k, v in inst.claimed_codes.items()},
    }
    verified = None
    if args.verify:
        computed = {}
        for p in sorted(inst.claimed_values):
            computed[p] = minimum_code(g, p)[0]
        verified = computed == dict(inst.claimed_values) and inst.claims_hold()
        rec["computed"] = computed
        rec["verified"] = verified
        if not verified:
            out.failures += 1
    claims = " ".join(f"{k}={v}" for k, v in sorted(inst.claimed_values.items())) or "(none)"
    line = f"{inst.name}: n={g.n} claims {claims}"
    if verified is not None:
        line += f" -> {'OK' if verified else 'MISMATCH'}"
    out.record(rec, line)
    out.close()
    return EXIT_OK if not out.failures else EXIT_VERIFICATION_FAILED


# -- verify ------------------------------------------------------------------


def _verdict_record(v: Verdict) -> dict:
    return {
        "type": "verdict",
        "theorem": v.theorem,
        "scope": v.scope,
        "status": v.status,
        "reason": v.reason,
        "counterexamples": [{"graph6": g6, "detail": d} for g6, d in v.counterexamples],
        "parts": [
            {"theorem": p.theorem, "scope": p.scope, "status": p.status, "reason": p.reason}
            for p in v.parts
        ],
    }


def _cmd_verify(args, argv) -> int:
    ids = list(THEOREM_IDS) if args.theorem == "all" else [args.theorem]
    for tid in ids:
        if tid not in THEOREM_IDS:
            raise _InputError(
                f"unknown theorem {tid!r}; known: all, {', '.join(THEOREM_IDS)}"
            )
    graphs = None
    digest = None
    if args.input:
        fixed_scope = {"realization", "tree-realization"}
        if set(ids) <= fixed_scope:
            raise _InputError(
                f"--input does not apply to {args.theorem!r}; its scope is the "
                "parameter grid, not a graph stream"
            )
        data = _read_source(args.input)
        digest = _sha256(data)
        numbered = _parse_graphs(data, "g6")
        if not _parameters_defined(numbered):
            return EXIT_PRECONDITION
        if ids == ["tree-bounds"]:
            # named alone, the tree sweep refuses what ``all`` would skip
            line = next((line for line, g in numbered if not g.is_tree()), None)
            if line is not None:
                raise _InputError(
                    f"tree-bounds requires a tree; the graph on input line {line} is not one"
                )
        graphs = [g for _, g in numbered]
    out = _Emitter(argv, args.table, digest)
    try:
        # every verdict before the first record: a cap that leaves a sweep
        # nothing to check prints no partial result.  One named theorem
        # refuses a cap above its largest order; all lowers it there
        every = args.theorem == "all"
        requests = [(tid, _capped(tid, args.n_max) if every else args.n_max) for tid in ids]
        verdicts = _run_theorems(requests, graphs)
    except DisconnectedGraphError:
        raise
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    for tid, v in zip(ids, verdicts):
        if v.status == "fails":
            out.failures += 1
        line = f"{tid}: {v.status.upper()}"
        if v.reason:
            line += f" ({v.reason})"
        for g6, detail in v.counterexamples:
            line += f"\n  counterexample {g6}: {detail}"
        out.record(_verdict_record(v), line)
    out.close()
    return EXIT_VERIFICATION_FAILED if out.failures else EXIT_OK


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdom",
        description="Exact location-domination parameters, graph family "
        "generators, exhaustive censuses and theorem verification.",
    )
    parser.add_argument("--version", action="version", version=f"locdom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--table", action="store_true", help="human-readable output")

    p = sub.add_parser("compute", help="compute parameters for input graphs")
    p.add_argument("input", nargs="?", help="graph6 or edge-list file (default stdin)")
    p.add_argument("--format", choices=("auto", "g6", "edges"), default="auto")
    p.add_argument("--params", help="comma-separated subset of gamma,beta,eta,lambda")
    common(p)

    p = sub.add_parser("enumerate", help="enumerate connected graphs up to isomorphism")
    p.add_argument("--n", required=True, metavar="A..B", help="order or order range")
    p.add_argument("--filter", help='e.g. "eta=2 and n<=6"')
    p.add_argument("--output", choices=("count", "census", "graph6"), default="count")
    common(p)

    p = sub.add_parser("family", help="build a named graph family instance")
    p.add_argument("name", choices=list(_FAMILIES))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--emit", choices=("graph6", "edgelist"))
    p.add_argument("--verify", action="store_true", help="brute-force check the claims")
    common(p)

    p = sub.add_parser("verify", help="run theorem checkers")
    p.add_argument("theorem", help=f"one of: all, {', '.join(THEOREM_IDS)}")
    p.add_argument("--n-max", type=_ascii_int, dest="n_max", help="cap the sweep order")
    p.add_argument("--input", help="verify over a graph6 stream instead of enumerating")
    common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": _cmd_compute,
        "enumerate": _cmd_enumerate,
        "family": _cmd_family,
        "verify": _cmd_verify,
    }[args.command]
    try:
        code = handler(args, argv)
        sys.stdout.flush()  # so that a closed pipe shows here
        return code
    except BrokenPipeError:
        # the reader is gone: send what is left to the null device, so that
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvariantViolation, WorkerError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
