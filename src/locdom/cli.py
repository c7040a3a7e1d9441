"""Command-line front end: batch computation, enumeration, family
generation and theorem verification with reproducible JSON-lines output.

Commands
--------
* ``locdom compute [FILE]``: read graphs, print one record per graph
  with the requested parameters and witnesses.
* ``locdom enumerate --n 3..8 --filter "eta=2" --output census``:
  census/count/graph6 stream over the connected graphs of the given
  orders, filtered by comparisons over gamma/beta/eta/lambda/n/diam
  joined with ``and``.
* ``locdom family NAME PARAMS...``: build a named family instance, emit
  it and/or verify its claimed values with the exact solver.
* ``locdom verify THEOREM|all``: run registered theorem checkers over an
  order range or the graphs of an input file; counterexamples are printed
  as graph6.

``compute`` and ``verify --input`` read graph6 lines or one edge list (n,
then one ``u v`` pair per line): a first line of ASCII digits starts an
edge list, as a graph6 line starts with byte n + 63 >= 64 or ``>``.
Lines end only at ``\\n``, ``\\r\\n`` and ``\\r``; an edge list is numbered
by the line of its vertex count, and an error in it by its own line.

Each command imports the modules it runs when it runs, so importing this
module loads no other ``locdom`` module.  ``compute`` loads ``graph``,
``graph6``, ``predicates`` and ``solvers``; ``enumerate`` adds
``canonical`` and ``enumeration``; ``family`` adds ``families``; ``verify``
loads ``theorems`` and with it every module, already while its theorem
argument is parsed.

Structured output is one JSON object per line with sorted keys, closed by
a summary record embedding the run manifest (command line, version, wall
time, input digest).  Identical inputs and version produce byte-identical
payload records; only the manifest's wall time varies.  ``--table``
switches to a human-readable rendering.

Exit codes: 0 success/holds; 1 verification failure (mismatch or
counterexample); 2 input parse error; 3 precondition violation (e.g.
disconnected input, or a parameter asked of one vertex); 4 internal
error: an invariant violation, a worker that could not be forked, a
forked worker that died or raised where the main process did not, or
memory ran out; 141 (128 + SIGPIPE) standard output closed before the
output was written, as by ``| head``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from . import __version__

if TYPE_CHECKING:  # each command imports what it runs; see the module docstring
    from . import families
    from .graph import Graph
    from .theorems import Verdict

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


def _parse_edge_list(lines: list[str]) -> Graph:
    """ASCII-whitespace edge list, as its stripped lines: first n, then one
    'u v' pair per line, blank lines skipped.  An error names its line."""
    from .graph import Graph
    from .graph6 import _check_order

    (at, first), *rest = [(i, ln) for i, ln in enumerate(lines, 1) if ln]

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal at
        for at, ln in rest:  # Graph reads one edge at a time: ``at`` is the line it refuses
            pair = re.fullmatch(r"([0-9]+)\s+([0-9]+)", ln, re.ASCII)
            if not pair:
                raise ValueError(f"bad edge line {ln!r}; expected 'u v'")
            yield int(pair[1]), int(pair[2])

    try:
        _check_order(int(first))  # the records carry graph6: refuse a larger order before any work
        return Graph(int(first), edges())
    except ValueError as exc:
        raise _InputError(f"line {at}: {exc}") from exc


def _parse_graphs(data: bytes) -> list[tuple[int, Graph]]:
    """Parse input into (line_number, Graph) pairs: one edge list, numbered
    by the line of its vertex count, if the first non-blank line is a
    vertex count; graph6 lines otherwise."""
    from .graph6 import _numbered_graphs

    # lines end only at \n, \r\n and \r, and are stripped of ASCII whitespace
    # only: str.splitlines and str.strip also take \x1c-\x1e, \x85 and more
    stripped = [ln.strip().decode("utf-8", errors="replace") for ln in data.splitlines()]
    first = next((i for i, ln in enumerate(stripped, start=1) if ln), None)
    if first is not None and re.fullmatch(r"[0-9]+", stripped[first - 1]):
        return [(first, _parse_edge_list(stripped))]
    out = list(_numbered_graphs(stripped))
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
    from .solvers import _OPS, parameter_satisfies

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
    from .enumeration import MAX_ENUMERATION_ORDER

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
    # CPython's built-in SHA-256 (``_sha256`` to 3.11, ``_sha2`` from 3.12)
    # loads no OpenSSL, unlike hashlib, which serves only builds without it
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


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
    from .graph6 import write_graph6
    from .solvers import PARAMETERS, full_report, minimum_code

    data = _read_source(args.input)
    graphs = _parse_graphs(data)
    params = list(PARAMETERS)
    if args.params is not None:  # an empty value names the empty parameter, refused below
        params = [p.strip() for p in args.params.split(",")]
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
            full_report(g)  # for its chain assertion: the searches below are then lookups
        found = {p: minimum_code(g, p) for p in params}
        rec = {
            "type": "graph",
            "line": line,
            "graph6": write_graph6(g).decode("ascii"),
            "n": g.n,
            "diameter": g.diameter(),
        }
        for p, (k, code) in found.items():
            rec[p] = k
            rec[f"witness_{p}"] = list(code)
        cells = " ".join(f"{p}={k}{code}" for p, (k, code) in found.items())
        out.record(rec, f"{rec['graph6']}  n={g.n} D={rec['diameter']}  {cells}")
    out.close()
    return EXIT_OK


# -- enumerate ---------------------------------------------------------------


def _cmd_enumerate(args, argv) -> int:
    from .enumeration import _filtered
    from .graph6 import write_graph6
    from .solvers import PARAMETERS

    orders = _parse_order_range(args.n)
    terms = [] if args.filter is None else _parse_filter(args.filter)
    if args.output == "graph6" and args.table:
        raise _InputError("--table does not apply to --output graph6, a bare graph6 stream")
    if orders[0] < 2 and any(key in PARAMETERS for key, _, _ in terms):
        print(f"error: order range {args.n!r} includes n = 1; the parameters need n >= 2",
              file=sys.stderr)
        return EXIT_PRECONDITION
    predicate = _filter_predicate(terms)
    if args.output == "graph6":
        for _, graphs, hits in _filtered(orders, predicate):
            for g in map(graphs.__getitem__, hits):
                sys.stdout.write(write_graph6(g).decode("ascii") + "\n")
        return EXIT_OK
    out = _Emitter(argv, args.table, None)
    # counts alone: census() would also find every hit's canonical form
    counts = {n: len(hits) for n, _, hits in _filtered(orders, predicate)}
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
    from . import families

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
    from .families import NotRealizableError
    from .graph6 import _check_order, write_graph6
    from .solvers import minimum_code

    if args.emit and args.table and not args.verify:
        raise _InputError(f"--table does not apply to --emit {args.emit} without --verify")
    try:
        inst = _family_instance(args.name, args.params)
    except NotRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    g = inst.graph
    if args.emit != "edgelist" or args.verify:
        _check_order(g.n)
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
    from .graph import DisconnectedGraphError
    from .theorems import _THEOREMS, THEOREM_IDS, _run_theorems

    ids = list(THEOREM_IDS) if args.theorem == "all" else [args.theorem]
    rows = [_THEOREMS[tid] for tid in ids]
    graphs = None
    digest = None
    if args.input is not None:
        if all(row.largest is not None for row in rows):
            raise _InputError(
                f"--input does not apply to {args.theorem!r}; its scope is the "
                "parameter grid, not a graph stream"
            )
        if args.n_max is not None and all(row.largest is None for row in rows):
            raise _InputError(
                f"--n-max does not apply to {args.theorem!r} with --input; its scope "
                "is the supplied graphs"
            )
        data = _read_source(args.input)
        digest = _sha256(data)
        numbered = _parse_graphs(data)
        if not _parameters_defined(numbered):
            return EXIT_PRECONDITION
        if rows[0].trees and len(rows) == 1:
            # named alone, the tree sweep refuses what ``all`` would skip
            line = next((line for line, g in numbered if not g.is_tree()), None)
            if line is not None:
                raise _InputError(
                    f"{args.theorem} requires a tree; the graph on input line {line} is not one"
                )
        graphs = [g for _, g in numbered]
    out = _Emitter(argv, args.table, digest)
    try:
        # every verdict before the first record: a cap that leaves a sweep
        # nothing to check prints no partial result.  One named theorem
        # refuses a cap above its largest order; all lowers it there
        n_max, every = args.n_max, args.theorem == "all"
        requests = [
            (tid, min(n_max, row.largest) if every and None not in (n_max, row.largest) else n_max)
            for tid, row in zip(ids, rows)
        ]
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


class _TheoremChoices:
    """The verify argument's choices, "all" and the theorem ids.  They are
    read only to parse, or to show, that argument, so another command
    never imports the theorems."""

    def __iter__(self):
        from .theorems import THEOREM_IDS

        return iter(["all", *THEOREM_IDS])


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
    p.add_argument("--verify", action="store_true", help="check the claims with the exact solver")
    common(p)

    p = sub.add_parser("verify", help="run theorem checkers")
    # set after add_argument, which formats the argument once and would
    # read the choices, and with them the theorems, at once
    p.add_argument("theorem").choices = _TheoremChoices()
    p.add_argument("--n-max", type=_ascii_int, dest="n_max", help="cap the sweep order")
    p.add_argument("--input", help="graph6 or edge-list file to sweep (- for stdin)")
    common(p)

    return parser


def _worker_error() -> tuple[type, ...]:
    """WorkerError, once the enumerator is loaded: only a command that
    loaded it can raise one."""
    enumeration = sys.modules.get("locdom.enumeration")
    return (enumeration.WorkerError,) if enumeration else ()


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
    # the modules of the errors mapped below, which every command loads
    from .graph import DisconnectedGraphError
    from .graph6 import Graph6Error
    from .solvers import InvariantViolation

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
    except (_InputError, Graph6Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvariantViolation, *_worker_error()) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal error: out of memory; try a smaller input or order", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
