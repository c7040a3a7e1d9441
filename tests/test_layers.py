"""Per-layer expectations that the benchmark's traced runs report.

The enumeration generates one child per orbit of extension masks, so the
child counts depend only on the orbits: those of the automorphism
generators the canonical search returns for connected graphs, and the
classes of equal vertex-rooted codes for trees.  A faster search that
finds the same orbits leaves them unchanged.  The benchmark's tracer
wraps entry points by name, so those names must keep resolving.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import built_keys

from locdom import canonical, enumeration, graph, solvers, theorems
from locdom.canonical import _tree_keys, canonical_form
from locdom.enumeration import _connected_classes, _extension_masks, _tree_classes

# children generated per order: connected graphs (n = 8 keys or drops
# 67,141 for 11,117 classes) and trees (3,047 keyed in all up to n = 12)
CONNECTED_CHILDREN = {2: 1, 3: 2, 4: 8, 5: 44, 6: 333, 7: 3771, 8: 67141}
TREE_CHILDREN = {
    2: 1, 3: 1, 4: 2, 5: 4, 6: 9, 7: 20, 8: 48, 9: 115, 10: 286, 11: 719, 12: 1842,
}


def _connected_candidates(n):
    return range(1, 1 << (n - 1))


def _tree_candidates(n):
    return [1 << v for v in range(n - 1)]


def _child_count(classes, candidates, n):
    return sum(len(_extension_masks(p, candidates(n))) for p in classes(n - 1))


def test_connected_children_per_order():
    counts = {n: _child_count(_connected_classes, _connected_candidates, n) for n in range(2, 9)}
    assert counts == CONNECTED_CHILDREN


def test_tree_children_per_order():
    counts = {n: _child_count(_tree_classes, _tree_candidates, n) for n in range(2, 13)}
    assert counts == TREE_CHILDREN
    assert sum(counts.values()) == 3047
    keyed = {n: 0 for n in range(2, 13)}
    for n in keyed:
        for p in _tree_classes(n - 1):
            keyed[n] += sum(_tree_keys(0, p)(1 << v) is not None for v in range(n - 1))
    assert keyed == TREE_CHILDREN


def _connected_masks(parent):
    return _extension_masks(parent, range(1, 1 << parent.n))


@pytest.mark.parametrize(
    "classes, candidates, masks, key, n_max",
    [
        pytest.param(
            _connected_classes, _connected_candidates, _connected_masks, canonical_form, 6,
            id="_connected_classes-_connected_candidates-6",
        ),
    ],
)
def test_children_extend_once_per_extension_mask(
    monkeypatch, classes, candidates, masks, key, n_max
):
    # the tracer counts children as calls of enumeration._extend: keyed by
    # the built child, they must number the generators' orbits of
    # extension masks
    calls = []
    extend = enumeration._extend

    def counted(parent, mask):
        calls.append(mask)
        return extend(parent, mask)

    monkeypatch.setattr(enumeration, "_extend", counted)
    for n in range(2, n_max + 1):
        parents = tuple(classes(n - 1))  # rebuilt from the level, outside the count
        calls.clear()
        enumeration._children(parents, masks, built_keys(key), complete=True)
        assert len(calls) == _child_count(classes, candidates, n)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_tree_level_builds_no_child(monkeypatch, cpus):
    # tree children are keyed from their parent's peel: serial or forked,
    # a tree level builds no graph, and forked it keeps the serial classes
    enumeration._parents(11, True)  # the parents, built outside the count
    serial = {n: list(_tree_classes(n).packed) for n in range(2, 13)}

    def refused(parent, mask):
        raise AssertionError("a tree level built a child")

    monkeypatch.setattr(enumeration, "_extend", refused)
    monkeypatch.setattr(enumeration, "_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(enumeration, "_cpus", lambda: cpus)
    for n in range(2, 13):
        assert list(_tree_classes.__wrapped__(n).packed) == serial[n], n


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_connected_level_builds_children_only_to_settle_keys(monkeypatch, cpus):
    # connected children are keyed from the parent's subset tables: serial
    # or forked, the level's process builds a child, or a key's holder,
    # only for the merge to search its canonical form
    enumeration._parents(7, False)  # the parents, built outside the count
    extend, form = enumeration._extend, enumeration.canonical_form
    built, searched = [], []

    def counted(parent, mask):
        built.append(extend(parent, mask))
        return built[-1]

    def searching(g):
        searched.append(g)
        return form(g)

    monkeypatch.setattr(enumeration, "_extend", counted)
    monkeypatch.setattr(enumeration, "canonical_form", searching)
    monkeypatch.setattr(enumeration, "_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(enumeration, "_cpus", lambda: cpus)
    for n in range(2, 9):
        _connected_classes.__wrapped__(n)
    assert list(map(id, built)) == list(map(id, searched))
    assert len(built) == 228  # the searches of order 8; below it no key is met twice


def _tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("locdom_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    for layer, names in tracer.SPANS.items():
        mod = importlib.import_module(f"locdom.{layer}")
        for name in names or ():
            if name.startswith("Graph."):
                assert name.split(".", 1)[1] in mod.Graph.__dict__, name
            else:
                assert callable(getattr(mod, name, None)), f"{layer}.{name}"
    assert callable(enumeration._extend)


def test_one_worker_loop_forks():
    # every forked pass runs on enumeration._fan_out; a second loop that
    # forks would bring back a second failure contract
    package = Path(enumeration.__file__).parent
    forks = {
        path.name: path.read_text(encoding="utf-8").count("os.fork(")
        for path in package.glob("*.py")
    }
    assert sum(forks.values()) == forks["enumeration.py"] == 1
    assert "os.fork(" in inspect.getsource(enumeration._fan_out)


def test_one_pass_decides_to_fork():
    # only enumeration._fan_out reads the CPU count and the items per
    # worker; a second reader would bring back a serial branch of its own
    package = Path(enumeration.__file__).parent
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}  # reads and imports
    readers = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = getattr(node, fields.get(type(node), ""), None)
                stored = isinstance(getattr(node, "ctx", None), ast.Store)
                if name in ("_cpus", "_ITEMS_PER_WORKER") and not stored:
                    readers.append((path.name, getattr(top, "name", None), name))
    assert readers == [
        ("enumeration.py", "_fan_out", "_cpus"),
        ("enumeration.py", "_fan_out", "_ITEMS_PER_WORKER"),
    ]


def test_serial_passes_run_on_the_one_loop(monkeypatch):
    # one CPU: a level, a census filter and a theorem sweep each run their
    # items through _fan_out, which maps them here and forks nothing
    _connected_classes(5)  # the levels the census and the sweep read
    fan_out, calls = enumeration._fan_out, []

    def counted(items, one, consume):
        calls.append(items)
        return fan_out(items, one, consume)

    def fork():
        raise AssertionError("a pass forked on one CPU")

    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    monkeypatch.setattr(enumeration, "_fan_out", counted)
    monkeypatch.setattr(theorems, "_fan_out", counted)
    monkeypatch.setattr(os, "fork", fork)
    masks = lambda p: _extension_masks(p, range(1, 1 << p.n))
    level = enumeration._children(
        _connected_classes(4), masks, built_keys(canonical_form), complete=True
    )
    assert len(level) == 21
    assert calls == [6]
    report = enumeration.census(range(3, 6), lambda g: g.n % 2)
    assert report.total == 2 + 21
    assert calls == [6, 2, 6, 21]
    assert theorems.run_theorem("prop1", n_max=5).status == "holds"
    assert calls == [6, 2, 6, 21, 1, 2, 6, 21]


def test_one_peel_roots_every_tree():
    # the tree keys, their orbits and the tree programme all root a tree
    # at a centre of graph._peel_order; a second rooting could disagree
    package = Path(enumeration.__file__).parent
    loop = "while n - len(order) > 2:"
    peels = {
        path.name: path.read_text(encoding="utf-8").count(loop) for path in package.glob("*.py")
    }
    assert sum(peels.values()) == peels["graph.py"] == 1
    assert loop in inspect.getsource(graph._peel_order)
    for caller in (canonical._peel, solvers._tree_minima):
        assert "_peel_order(" in inspect.getsource(caller), caller.__name__
    assert "from .canonical" not in inspect.getsource(solvers)


# the orders of the graphs alive in a fresh process, and of the tuples of
# graphs, after the top connected level 8 is counted, after every tree
# level to 12 is swept and after tree_classes(12) is read
_TOP_LEVEL_SCRIPT = """
import gc, sys
from locdom import enumeration
from locdom.graph import Graph
from locdom.theorems import run_theorem

def alive():
    gc.collect()
    objects = gc.get_objects()
    graphs = sorted({g.n for g in objects if isinstance(g, Graph)})
    tuples = [t for t in objects if type(t) is tuple and t and isinstance(t[0], Graph)]
    return graphs, sorted({t[0].n for t in tuples})

enumeration._cpus = lambda: int(sys.argv[1])
enumeration._ITEMS_PER_WORKER = 1
assert enumeration.connected_graph_count(8) == 11117
print(alive())
run_theorem("tree-bounds", n_max=12)
print(alive())
assert len(enumeration.tree_classes(12)) == 551
print(alive())
"""


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_top_level_keeps_no_graphs(cpus):
    # only the orders that served as parents stay cached as graphs; the top
    # level is held as packed ints and rebuilt where it is read
    src = Path(enumeration.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _TOP_LEVEL_SCRIPT, str(cpus)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    below = list(range(1, 8)), list(range(1, 12))
    assert done.stdout.splitlines() == [
        repr((below[0], below[0])), repr((below[1], below[1])), repr((below[1], below[1]))
    ]
