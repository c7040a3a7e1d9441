"""Traced locdom run: timing shims around each layer's entry points.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/tracer.py SPANS.json enumerate --n 3..6 --output census

The script imports ``locdom.cli``, replaces the module-level entry points
of every layer listed in ``SPANS`` with shims that record a span per
call, runs ``locdom.cli.main`` on the remaining arguments, writes the
span totals to SPANS.json and exits with the CLI's exit code.  Nothing
under ``src/`` is modified: a shim is installed by rebinding every
module-level name (in every loaded ``locdom`` module) that refers to the
wrapped object, so calls made through ``from .x import f`` bindings are
caught as well.

Spans are keyed by layer and by a finer key (``solvers.eta``,
``theorems.prop1``, ``enumeration.trees`` ...).  For each name the
tracer keeps

* ``calls``: span count (for a layer, only calls entering it from
  another layer or from the CLI);
* ``busy``: time inside outermost spans of that name, so recursion and
  same-layer nesting are not counted twice;
* ``self``: span time minus the time of directly nested spans.

Self times of all spans partition the time covered by top-level spans;
the CLI's own time is the traced wall time minus ``top_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> wrapped names; "Graph.x" is a method of locdom.graph.Graph.
# Only entry points are wrapped: per-subset inner checks (_locates,
# _ld_ok, _dominates) and per-node canonical refinement run millions of
# times and would dominate the trace.
SPANS = {
    "graph": [
        "Graph.distance_matrix", "Graph.is_connected", "Graph.diameter",
        "Graph.is_tree", "relabeled", "strong_product", "join",
        "disjoint_union", "complement", "tree_profile",
    ],
    "graph6": ["write_graph6", "read_graph6"],
    "canonical": [
        "canonical_form", "canonical_labeling", "automorphism_generators",
        "are_isomorphic",
    ],
    "enumeration": [
        "census", "connected_graphs", "connected_graph_count",
        "_connected_classes", "tree_classes", "trees", "_tree_classes",
    ],
    "predicates": ["is_dominating", "is_locating", "is_mld", "is_ld", "metric_vector"],
    "solvers": [
        "minimum_code", "parameter_satisfies", "full_report",
        "domination_number", "metric_dimension", "mld_number", "ld_number",
    ],
    "theorems": ["run_theorem"],
    "families": None,  # every public function of locdom.families
}

# finer span keys; minimum_code and run_theorem are keyed by argument
_KEYS = {
    "write_graph6": "graph6.write",
    "read_graph6": "graph6.read",
    "Graph.distance_matrix": "graph.distance_matrix",
    "automorphism_generators": "canonical.autgens",
    "tree_classes": "enumeration.trees",
    "trees": "enumeration.trees",
    "_tree_classes": "enumeration.trees",
    "parameter_satisfies": "solvers.bounded",
    "full_report": "solvers.full_report",
}

# class builders: the length of their result is the number of classes of
# one order, built by augmenting the classes of the order below
_CLASS_BUILDERS = {"_connected_classes": "enumeration", "_tree_classes": "enumeration.trees"}


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, busy_s, self_s, open spans, name]
        self.records: dict[str, list] = {}
        self.stack: list[list] = []  # [layer record, key record or None, child time]
        self.counts: Counter = Counter()
        self.classes: dict[str, dict] = defaultdict(dict)
        self.searches = 0
        self.top_s = 0.0

    def record(self, name: str) -> list:
        return self.records.setdefault(name, [0, 0.0, 0.0, 0, name])

    def key_of(self, layer: str, name: str):
        """Function from a call's arguments to its key record (None when
        the key is the layer itself)."""
        if name == "minimum_code":
            def key_of(args, kwargs):
                param = args[1] if len(args) > 1 else kwargs.get("param")
                return self.record(f"solvers.{param}")
        elif name == "run_theorem":
            def key_of(args, kwargs):
                return self.record(f"theorems.{args[0] if args else kwargs.get('theorem_id')}")
        else:
            rec = self.record(_KEYS[name]) if name in _KEYS else None

            def key_of(args, kwargs):
                return rec
        return key_of

    def enter(self, layer: list, key: list | None) -> None:
        stack = self.stack
        if not stack or stack[-1][0] is not layer:
            layer[0] += 1
        layer[3] += 1
        if key is not None:
            key[0] += 1
            key[3] += 1
        stack.append([layer, key, 0.0])

    def exit(self, elapsed: float) -> None:
        layer, key, child = self.stack.pop()
        own = elapsed - child
        for rec in (layer, key):
            if rec is not None:
                rec[2] += own
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += elapsed
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            self.top_s += elapsed

    def span(self, layer_name: str, name: str, fn):
        layer, key_of = self.record(layer_name), self.key_of(layer_name, name)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(layer, key_of, fn)
        search = name == "minimum_code"
        report = name == "full_report"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            searches = self.searches
            self.searches += search
            self.enter(layer, key_of(args, kwargs))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(perf_counter() - t0)
                # a report that ran no solver search was served from a cache
                if report and self.searches == searches:
                    self.counts["solvers.full_report.hits"] += 1

        return shim

    def _generator_span(self, layer, key_of, fn):
        # one span per resumption, so the consumer's time between items
        # is not charged to the generator's layer
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            key = key_of(args, kwargs)
            it = fn(*args, **kwargs)
            while True:
                self.enter(layer, key)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(perf_counter() - t0)
                yield item

        return shim

    def class_builder(self, key: str, fn):
        # classes built by augmentation: result sizes per distinct order >= 2
        @functools.wraps(fn)
        def shim(n, *args, **kwargs):
            result = fn(n, *args, **kwargs)
            if n >= 2:
                self.classes[key][n] = len(result)
            return result

        return shim

    def child_counter(self, fn):
        # each _extend call builds one child graph of the calling generator
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            caller = (self.stack[-1][1] or self.stack[-1][0])[4] if self.stack else "enumeration"
            self.counts[f"{caller}.children"] += 1
            return fn(*args, **kwargs)

        return shim

    def summary(self) -> dict:
        counts = dict(self.counts)
        for key, sizes in self.classes.items():
            counts[f"{key}.classes"] = sum(sizes.values())
        return {
            "spans": {
                name: {"calls": calls, "busy_s": busy, "self_s": own}
                for name, (calls, busy, own, _, _) in sorted(self.records.items())
            },
            "counts": counts,
            "top_s": self.top_s,
        }


def _rebind(old, new) -> None:
    """Point every module-level name in loaded locdom modules at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "locdom" or mod_name.startswith("locdom.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> list[str]:
    """Install all shims; return the wrapped names that were not found."""
    missing = []
    for layer, names in SPANS.items():
        try:
            mod = importlib.import_module(f"locdom.{layer}")
        except ModuleNotFoundError:
            missing.append(f"locdom.{layer}")
            continue
        if names is None:
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))]
        for name in names:
            if name.startswith("Graph."):
                cls, meth = mod.Graph, name.split(".", 1)[1]
                fn = cls.__dict__.get(meth)
                if fn is None:
                    missing.append(f"{layer}.{name}")
                    continue
                setattr(cls, meth, tracer.span(layer, name, fn))
                continue
            fn = getattr(mod, name, None)
            if fn is None:
                missing.append(f"{layer}.{name}")
                continue
            wrapped = fn
            if name in _CLASS_BUILDERS:
                wrapped = tracer.class_builder(_CLASS_BUILDERS[name], wrapped)
            wrapped = tracer.span(layer, name, wrapped)
            _rebind(fn, wrapped)

    extend = getattr(sys.modules.get("locdom.enumeration"), "_extend", None)
    if extend is None:
        missing.append("enumeration._extend")
    else:
        _rebind(extend, tracer.child_counter(extend))
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import locdom.cli

    tracer = Tracer()
    missing = install(tracer)
    code = 0
    try:
        code = locdom.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        result = tracer.summary()
        result["missing"] = missing
        with open(out_path, "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
