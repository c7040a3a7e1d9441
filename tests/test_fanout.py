"""The enumeration's fan-out across forked workers.

A level with enough parents splits them among forked workers and merges
their records in parent order, and a census filter or the theorem sweeps
over enough classes split the classes; the result must be the serial one,
byte for byte, and no worker may outlive the call (``conftest.py`` checks
that after every test).  The fan-out is forced on small passes by lowering the
items-per-worker constant and faking the CPU count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import built_keys

from locdom import enumeration, theorems
from locdom.canonical import _tree_keys, canonical_form
from locdom.cli import _filter_predicate, _parse_filter, main
from locdom.enumeration import (
    _children, _connected_classes, _extension_masks, _tree_classes, census, write_graph6,
)
from locdom.solvers import InvariantViolation
from locdom.theorems import THEOREM_IDS

SRC = Path(__file__).resolve().parents[1] / "src"


def _connected_masks(parent):
    return _extension_masks(parent, range(1, 1 << parent.n))


def _tree_masks(parent):
    return [1 << v for v in range(parent.n)]


# complete keys: the canonical forms of built children, and the tree keys
LEVELS = [
    pytest.param(
        _connected_classes, _connected_masks, built_keys(canonical_form), 7, id="connected-7"
    ),
    pytest.param(_tree_classes, _tree_masks, _tree_keys, 13, id="trees-13"),
]


def _carried(level):
    # what a level hands over: each class as its parent's index and its mask
    return list(level.packed)


def _force(monkeypatch, cpus):
    monkeypatch.setattr(enumeration, "_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(enumeration, "_cpus", lambda: cpus)


@pytest.mark.parametrize("classes, masks, key, n_max", LEVELS)
@pytest.mark.parametrize("cpus", [2, 3])
def test_fan_out_matches_the_serial_path(monkeypatch, classes, masks, key, n_max, cpus):
    for n in range(2, n_max + 1):
        parents = classes(n - 1)
        monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
        serial = _carried(_children(parents, masks, key, complete=True))
        _force(monkeypatch, cpus)
        assert _carried(_children(parents, masks, key, complete=True)) == serial, n
        monkeypatch.undo()


def test_a_failing_worker_raises_and_every_worker_is_reaped(monkeypatch, capfd):
    # the worker sends no traceback; the main process raises the key's error
    def broken_key(g):
        raise ValueError("broken key")

    _force(monkeypatch, 2)
    with pytest.raises(ValueError, match="broken key"):
        _children(_connected_classes(4), _connected_masks, built_keys(broken_key), complete=True)
    assert capfd.readouterr().err == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_key_that_raises_only_in_a_worker_is_refused(monkeypatch):
    main_pid = os.getpid()

    def impure(g):
        if os.getpid() != main_pid and g.edge_count == g.n:
            raise KeyError("worker")
        return canonical_form(g)

    _force(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="pure function"):
        _children(_connected_classes(4), _connected_masks, built_keys(impure), complete=True)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_sends_no_complete_key_it_sent_before(monkeypatch, cpus):
    # the merge drops a child whose complete key was met before, so a
    # worker leaves out the keys of its own earlier records
    merge = enumeration._merge
    levels = []

    def recorded(parents, records, confirm):
        records = list(records)
        levels.append(records)
        return merge(parents, records, confirm)

    parents = [_tree_classes(n - 1) for n in range(2, 12)]
    _force(monkeypatch, cpus)
    monkeypatch.setattr(enumeration, "_merge", recorded)
    for level in parents:
        _children(level, _tree_masks, _tree_keys, complete=True)
    forked = [records for records in levels if len(records) > 1]  # orders 5..11
    assert len(forked) == 7
    for records in forked:
        sent = [set() for _ in range(cpus)]
        for i, kept in enumerate(records):
            keys = {k for _, k in kept}
            assert not keys & sent[i % cpus], (len(records), i)
            sent[i % cpus] |= keys


def test_an_error_while_merging_reaps_every_worker(monkeypatch, capfd):
    # the merge fails after its first record, while workers still write
    def failing(parents, records, confirm):
        next(iter(records))
        raise KeyError("merge")

    _force(monkeypatch, 2)
    monkeypatch.setattr(enumeration, "_merge", failing)
    with pytest.raises(KeyError, match="merge"):
        _children(
            _connected_classes(6), _connected_masks, built_keys(canonical_form), complete=True
        )
    # killed, not left to fail on the closed pipe and print that
    assert capfd.readouterr().err == ""


def test_an_error_while_settling_a_key_reaps_every_worker(monkeypatch, capfd):
    # one key for every child: the merge settles the second child it reads,
    # in this process and outside the pipe reader, while workers still write
    main = os.getpid()
    form = enumeration.canonical_form

    def failing_in_main(g):
        if os.getpid() == main:
            raise KeyError("settle")
        return form(g)

    _force(monkeypatch, 2)
    monkeypatch.setattr(enumeration, "_key", lambda profile, sums: 0)
    monkeypatch.setattr(enumeration, "canonical_form", failing_in_main)
    parents = _connected_classes(6)
    with pytest.raises(KeyError, match="settle"):
        _children(parents, _connected_masks, keys=enumeration._connected_keys(parents))
    assert capfd.readouterr().err == ""


def _refuse_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize(
    "per_worker, cpus",
    [(1, 1), (enumeration._ITEMS_PER_WORKER, 64)],  # one CPU; 112 parents, a small level
    ids=["one-cpu", "small-level"],
)
def test_one_cpu_or_a_small_level_never_forks(monkeypatch, per_worker, cpus):
    parents = _connected_classes(6)
    expected = _carried(_connected_classes(7))
    monkeypatch.setattr(enumeration, "_ITEMS_PER_WORKER", per_worker)
    monkeypatch.setattr(enumeration, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    level = _children(parents, _connected_masks, built_keys(canonical_form), complete=True)
    assert _carried(level) == expected


def test_no_fork_means_the_serial_path(monkeypatch):
    parents = _connected_classes(6)
    expected = _carried(_connected_classes(7))
    _force(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    level = _children(parents, _connected_masks, built_keys(canonical_form), complete=True)
    assert _carried(level) == expected


def _enumerate_graph6(cpus):
    # the fan-out is forced at every level with more than one parent
    script = (
        "import sys; import locdom.enumeration as e; "
        f"e._ITEMS_PER_WORKER = 1; e._cpus = lambda: {cpus}; "
        "from locdom.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", script, "enumerate", "--n", "3..7", "--output", "graph6"]
    # block-buffered standard output, which a worker must never flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_output_is_byte_identical_with_the_fan_out_forced():
    serial = _enumerate_graph6(1)
    forked = _enumerate_graph6(2)
    assert forked == serial
    lines = forked.splitlines()
    assert len(lines) == len(set(lines)) == 2 + 6 + 21 + 112 + 853


# -- the census filter ------------------------------------------------------

FILTERS = ["eta=2", "lambda<=3 and diam>=2", "beta=1"]
ORDERS = range(2, 8)


def _census(expr):
    return census(ORDERS, _filter_predicate(_parse_filter(expr)), expr)


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("expr", FILTERS)
@pytest.mark.parametrize("cpus", [2, 3])
def test_census_matches_the_serial_path(monkeypatch, expr, cpus):
    _connected_classes(max(ORDERS))
    _force(monkeypatch, cpus)
    forks = _counting_forks(monkeypatch)
    forked = _census(expr)
    assert forks  # the levels are cached: every fork is the filter's
    monkeypatch.undo()
    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    assert forked == _census(expr)
    assert forked.representatives  # canonical bytes and graph6 compared too


@pytest.mark.parametrize("expr", FILTERS)
@pytest.mark.parametrize("cpus", [2, 3])
def test_graph6_stream_matches_the_serial_path(monkeypatch, capsys, expr, cpus):
    argv = ["enumerate", "--n", "2..7", "--filter", expr, "--output", "graph6"]
    _force(monkeypatch, cpus)
    assert main(argv) == 0
    forked = capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    assert main(argv) == 0
    assert forked == capsys.readouterr().out
    assert forked


# EOFError is also what a pipe that ends early raises
@pytest.mark.parametrize("error", [ZeroDivisionError, EOFError])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_raising_predicate_raises_its_own_error(monkeypatch, capfd, cpus, error):
    def unicyclic_fails(g):
        if g.edge_count == g.n:
            raise error("one cycle")
        return g.is_tree()

    _force(monkeypatch, cpus)
    with pytest.raises(error, match="one cycle"):
        census(ORDERS, unicyclic_fails)
    # the worker sends no traceback; the main process raises the error
    assert capfd.readouterr().err == ""


def test_a_predicate_that_raises_only_in_a_worker_is_refused(monkeypatch):
    main_pid = os.getpid()

    def impure(g):
        if os.getpid() != main_pid and g.n == 5:
            raise KeyError("worker")
        return True

    _force(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="pure function"):
        census(ORDERS, impure)


def test_the_predicate_is_read_as_a_bool(monkeypatch):
    # neither a graph nor a list can be marshalled: workers send their truth
    def truthy(g):
        return g if g.is_tree() else []

    expected = census(ORDERS, lambda g: g.is_tree())
    _force(monkeypatch, 2)
    assert census(ORDERS, truthy) == expected


def test_an_unfiltered_census_never_forks(monkeypatch, capsys):
    counts = {n: len(_connected_classes(n)) for n in ORDERS}
    _force(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert census(ORDERS, None).counts == counts
    assert main(["enumerate", "--n", "2..7", "--output", "census"]) == 0
    assert '"total": 995' in capsys.readouterr().out


# -- a dead worker ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "2..6", "--filter", "eta=2", "--output", "census"],
        ["verify", "prop1", "--n-max", "6"],
    ],
    ids=["enumerate", "verify"],
)
def test_a_dead_worker_exits_4_with_one_line(monkeypatch, capsys, argv):
    _connected_classes(6)  # cached: the filter's or the sweep's workers die
    _force(monkeypatch, 2)
    monkeypatch.setattr(enumeration, "_work", lambda fd, inherited, records: os._exit(1))
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: forked workers failed")
    assert err.count("\n") == 1


def test_a_failed_fork_exits_4_with_one_line(monkeypatch, capsys):
    # the second fork fails as it does without processes or memory left;
    # the first worker is killed and reaped
    forks = []
    fork = os.fork

    def second_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    _connected_classes(6)
    _force(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", second_fails)
    argv = ["enumerate", "--n", "3..6", "--filter", "eta=2", "--output", "census"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal error: cannot fork a worker: [Errno 11] Resource temporarily unavailable\n"
    )
    assert len(forks) == 2


# -- the theorem sweeps -----------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "verify_payloads.jsonl"
# the connected sweeps, each with its line of the recording (all at n = 6)
SWEEPS = {
    "prop1": 0, "eta-bounds": 1, "lambda-bounds": 2, "eta-lambda-conditions": 4,
    "eta2-membership": 5, "lambda-extremal": 6,
}


def _payload(capsys, argv, code):
    assert main(argv) == code
    return capsys.readouterr().out.splitlines()[:-1]


def _serial_and_forked(monkeypatch, capsys, argv, cpus, code=0):
    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    serial = _payload(capsys, argv, code)
    monkeypatch.undo()
    _force(monkeypatch, cpus)
    forks = _counting_forks(monkeypatch)
    forked = _payload(capsys, argv, code)
    assert forks
    return serial, forked


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_sweep_in_one_forked_pass_matches_the_serial_one(monkeypatch, capsys, cpus):
    serial, forked = _serial_and_forked(
        monkeypatch, capsys, ["verify", "all", "--n-max", "6"], cpus
    )
    assert forked == serial
    golden = GOLDEN.read_text(encoding="ascii").splitlines()
    for tid, row in SWEEPS.items():
        assert forked[THEOREM_IDS.index(tid)] == golden[row], tid


@pytest.mark.parametrize("tid", SWEEPS)
@pytest.mark.parametrize("cpus", [2, 3])
def test_each_sweep_alone_forked_matches_the_serial_one(monkeypatch, capsys, tid, cpus):
    serial, forked = _serial_and_forked(monkeypatch, capsys, ["verify", tid, "--n-max", "6"], cpus)
    golden = GOLDEN.read_text(encoding="ascii").splitlines()
    assert forked == serial == [golden[SWEEPS[tid]]]


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_forked_tree_sweep_matches_the_serial_one(monkeypatch, capsys, cpus):
    # the tree levels are cached first, so every fork counted is the sweep's;
    # exit 1 is the known counterexample
    _tree_classes(10)
    argv = ["verify", "tree-bounds", "--n-max", "10"]
    serial, forked = _serial_and_forked(monkeypatch, capsys, argv, cpus, code=1)
    golden = GOLDEN.read_text(encoding="ascii").splitlines()
    assert forked == serial == [golden[3]]


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_forked_input_stream_matches_the_serial_one(monkeypatch, capsys, tmp_path, cpus):
    # every connected class of orders 2..6 and the trees of order 7, in a
    # file; tree-bounds skips the graphs that are not trees
    graphs = [g for n in range(2, 7) for g in _connected_classes(n)] + list(_tree_classes(7))
    stream = tmp_path / "stream.g6"
    stream.write_bytes(b"".join(write_graph6(g) + b"\n" for g in graphs))
    argv = ["verify", "all", "--input", str(stream)]
    serial, forked = _serial_and_forked(monkeypatch, capsys, argv, cpus)
    assert forked == serial
    assert '"reason": "checked=153 skipped=0"' in serial[0]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_checker_raising_in_a_worker_exits_4(monkeypatch, capsys, cpus):
    report = theorems.full_report

    def broken(g):
        if g.n == 5 and g.edge_count == 6:
            raise InvariantViolation("synthetic solver bug")
        return report(g)

    _force(monkeypatch, cpus)
    monkeypatch.setattr(theorems, "full_report", broken)
    assert main(["verify", "prop1", "--n-max", "6"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: synthetic solver bug\n"
