import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from locdom.cli import main
from locdom.enumeration import write_graph6
from locdom.families import path, complete

P6_EDGE_LIST = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv, stdin: str | bytes = ""):
    import sys

    buffer = io.BytesIO(stdin if isinstance(stdin, bytes) else stdin.encode())
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(buffer)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line]


class TestCompute:
    def test_edge_list_all_params(self, capsys, tmp_path):
        f = tmp_path / "p6.txt"
        f.write_text(P6_EDGE_LIST)
        code, out, _ = run_cli(capsys, ["compute", str(f)])
        assert code == 0
        recs = records(out)
        graph_rec = recs[0]
        assert graph_rec["type"] == "graph"
        assert (graph_rec["gamma"], graph_rec["beta"], graph_rec["eta"], graph_rec["lambda"]) == (2, 1, 2, 3)
        assert graph_rec["n"] == 6 and graph_rec["diameter"] == 5
        assert graph_rec["witness_eta"] == [1, 4]
        assert recs[-1]["type"] == "summary"
        assert recs[-1]["manifest"]["input_sha256"]

    def test_graph6_stdin_multiple(self, capsys):
        blob = "\n".join(
            write_graph6(g).decode() for g in (path(6).graph, complete(4).graph)
        )
        code, out, _ = run_cli(capsys, ["compute", "-", "--params", "gamma,eta"], stdin=blob)
        assert code == 0
        recs = records(out)
        assert [r["eta"] for r in recs[:-1]] == [2, 3]
        assert "beta" not in recs[0]

    def test_disconnected_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "-"], stdin="4\n0 1\n2 3\n")
        assert code == 3
        assert "line 1" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["compute", "-", "--format", "g6"], stdin="@@@bad***\n")
        assert code == 2

    @pytest.mark.parametrize("blob", [b"C\xc3\xa9\n", b"C\xff\n"])
    def test_non_ascii_graph6_exits_2(self, capsys, blob):
        # a replacement "?" would turn "C" plus one byte into the valid
        # (disconnected) graph6 value "C?"
        code, _, err = run_cli(capsys, ["compute", "-"], stdin=blob)
        assert code == 2
        assert "non-ASCII" in err

    def test_empty_input_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["compute", "-"], stdin="")
        assert code == 2

    def test_non_ascii_digit_edge_list_exits_2(self, capsys):
        # int() reads the Arabic-Indic digit three as 3
        code, _, _ = run_cli(capsys, ["compute", "-"], stdin="\u0663\n0 1\n1 2\n")
        assert code == 2
        code, _, _ = run_cli(
            capsys, ["compute", "-", "--format", "edges"], stdin="3\n0 1\n1 \u0662\n"
        )
        assert code == 2

    def test_bad_param_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["compute", "-", "--params", "delta"], stdin=P6_EDGE_LIST)
        assert code == 2

    def test_repeated_param_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["compute", "-", "--params", "eta,eta", "--table"], stdin=P6_EDGE_LIST
        )
        assert code == 2
        assert out == ""
        assert "'eta' named twice" in err

    @pytest.mark.parametrize("params", [[], ["--params", "beta"]])
    def test_single_vertex_exits_3(self, capsys, params):
        # the empty set locates K1, so no parameter is reported for it
        code, out, err = run_cli(capsys, ["compute", "-", *params], stdin="@\n")
        assert code == 3
        assert out == ""
        assert "line 1" in err and "n >= 2" in err


class TestEnumerate:
    def test_count_n4(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--n", "4"])
        assert code == 0
        assert records(out)[0]["total"] == 6

    def test_lambda2_census(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["enumerate", "--n", "3..5", "--filter", "lambda=2", "--output", "census"],
        )
        assert code == 0
        recs = records(out)
        counts = {r["order"]: r["count"] for r in recs if r["type"] == "census"}
        assert counts == {3: 2, 4: 4, 5: 10}
        totals = [r for r in recs if r["type"] == "count"]
        assert totals[0]["total"] == 16

    @pytest.mark.parametrize(
        "output, expected",
        [
            ("count", ['{"filter": "all", "total": 143, "type": "count"}']),
            (
                "census",
                [f'{{"count": {c}, "order": {n}, "type": "census"}}'
                 for n, c in enumerate([1, 1, 2, 6, 21, 112], start=1)]
                + ['{"filter": "all", "total": 143, "type": "count"}'],
            ),
        ],
    )
    def test_counts_search_no_canonical_form(self, capsys, monkeypatch, output, expected):
        # only counts are printed: no class needs its canonical form
        from locdom import enumeration

        calls = []
        form = enumeration.canonical_form

        def counted(g):
            calls.append(g)
            return form(g)

        monkeypatch.setattr(enumeration, "canonical_form", counted)
        code, out, _ = run_cli(capsys, ["enumerate", "--n", "1..6", "--output", output])
        assert code == 0
        assert out.splitlines()[:-1] == expected
        assert calls == []

    def test_graph6_stream_output(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "--n", "4..4", "--filter", "n=4", "--output", "graph6"]
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 6
        from locdom import read_graph6

        assert all(read_graph6(ln).n == 4 for ln in lines)

    def test_compound_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "--n", "3..6", "--filter", "eta=2 and diam>=3 and n<=6"]
        )
        assert code == 0
        assert records(out)[0]["total"] > 0

    @pytest.mark.parametrize("param", ["gamma", "beta", "eta", "lambda"])
    @pytest.mark.parametrize("output", ["census", "graph6"])
    def test_parameter_filter_over_order_1_exits_3(self, capsys, param, output):
        # compute refuses K1, so a census must not count it either
        argv = ["enumerate", "--n", "1..3", "--filter", f"n<=3 and {param}=1", "--output", output]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert "n >= 2" in err

    @pytest.mark.parametrize("term, total", [("n<=2", 2), ("diam=0", 1), ("diam<=1", 3)])
    def test_structural_filter_over_order_1(self, capsys, term, total):
        code, out, _ = run_cli(capsys, ["enumerate", "--n", "1..3", "--filter", term])
        assert code == 0
        assert records(out)[0]["total"] == total

    def test_bad_filter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["enumerate", "--n", "4", "--filter", "zeta=1"])
        assert code == 2
        assert "filter" in err

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["enumerate", "--n", "5..3"])
        assert code == 2

    @pytest.mark.parametrize("orders", ["0..2", "10", "9..10"])
    def test_unsupported_orders_exit_2(self, capsys, orders):
        code, out, err = run_cli(capsys, ["enumerate", "--n", orders])
        assert code == 2
        assert out == ""
        assert "1..9" in err

    def test_table_with_graph6_output_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["enumerate", "--n", "4", "--output", "graph6", "--table"]
        )
        assert code == 2
        assert out == ""
        assert "--table does not apply to --output graph6" in err

    def test_non_ascii_digits_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["enumerate", "--n", "4", "--filter", "eta=\u0662"])
        assert code == 2
        assert "filter" in err
        code, _, _ = run_cli(capsys, ["enumerate", "--n", "\u0663..5"])
        assert code == 2


class TestFamily:
    def test_wheel_verify(self, capsys):
        code, out, _ = run_cli(capsys, ["family", "wheel", "10", "--verify"])
        assert code == 0
        rec = records(out)[0]
        assert rec["verified"] is True
        assert rec["computed"] == {"beta": 4, "eta": 4, "gamma": 1, "lambda": 4}

    def test_geta_verify(self, capsys):
        code, out, _ = run_cli(capsys, ["family", "geta", "2", "--verify"])
        assert code == 0
        rec = records(out)[0]
        assert rec["n"] == 8 and rec["verified"] is True

    def test_spider_mixed_verify(self, capsys):
        # spider_mixed(r, k): r legs of 4 edges out of k legs total
        code, out, _ = run_cli(capsys, ["family", "spider-mixed", "1", "2", "--verify"])
        assert code == 0
        assert records(out)[0]["computed"] == {"eta": 3, "lambda": 4}
        code, out, _ = run_cli(capsys, ["family", "spider-mixed", "1", "3", "--verify"])
        assert code == 0
        assert records(out)[0]["computed"] == {"eta": 4, "lambda": 5}

    def test_emit_edgelist_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, ["family", "path", "4", "--emit", "edgelist"])
        assert code == 0
        assert out == "4\n0 1\n1 2\n2 3\n"

    def test_emit_graph6(self, capsys):
        code, out, _ = run_cli(capsys, ["family", "complete", "1", "--emit", "graph6"])
        assert code == 0
        assert out.strip() == "@"

    @pytest.mark.parametrize("emit", ["graph6", "edgelist"])
    def test_table_with_emit_alone_exits_2(self, capsys, emit):
        code, out, err = run_cli(capsys, ["family", "path", "4", "--emit", emit, "--table"])
        assert code == 2
        assert out == ""
        assert f"--table does not apply to --emit {emit} without --verify" in err

    def test_table_with_emit_and_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, ["family", "path", "4", "--emit", "graph6", "--verify", "--table"]
        )
        assert code == 0
        assert out.splitlines()[0] == write_graph6(path(4).graph).decode()
        assert "-> OK" in out

    def test_not_realizable_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["family", "realization", "2", "1", "3"])
        assert code == 3
        assert "not realizable" in err

    def test_claim_mismatch_exits_1(self, capsys, monkeypatch):
        import locdom.cli as cli_mod

        # force the brute-force re-check to disagree with the claims
        monkeypatch.setattr(cli_mod, "minimum_code", lambda g, p, **kw: (99, ()))
        code, out, _ = run_cli(capsys, ["family", "wheel", "10", "--verify"])
        assert code == 1
        assert records(out)[0]["verified"] is False

    def test_bad_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["family", "cycle", "2"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["family", "cycle", "x"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["family", "eta-extremal", "complete_bipartite", "1", "2"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["family", "cycle", "\u0665"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["family", "eta-extremal", "double_star", "\u0662", "2"])
        assert code == 2

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "moebius", "5"])
        assert exc.value.code == 2


class TestVerify:
    def test_prop1_small(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "prop1", "--n-max", "5"])
        assert code == 0
        rec = records(out)[0]
        assert rec["status"] == "holds" and "checked=30" in rec["reason"]

    def test_tree_bounds_holds_to_9(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "tree-bounds", "--n-max", "9"])
        assert code == 0
        assert records(out)[0]["status"] == "holds"

    def test_tree_bounds_counterexample_at_10(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "tree-bounds", "--n-max", "10"])
        assert code == 1
        rec = records(out)[0]
        assert rec["status"] == "fails"
        assert rec["counterexamples"][0]["graph6"] == "IsO_OGA?O"

    def test_verify_over_input_stream(self, capsys):
        blob = "\n".join(
            write_graph6(g).decode() for g in (path(6).graph, complete(4).graph)
        )
        code, out, _ = run_cli(capsys, ["verify", "prop1", "--input", "-"], stdin=blob)
        assert code == 0
        rec = records(out)[0]
        assert "checked=2" in rec["reason"]
        assert records(out)[-1]["manifest"]["input_sha256"]

    def test_prop1_at_n_max_6_checks_142_graphs(self, capsys):
        # 1 (K2) + 2 + 6 + 21 + 112 classes for n = 3..6
        code, out, _ = run_cli(capsys, ["verify", "prop1", "--n-max", "6"])
        assert code == 0
        assert "checked=142" in records(out)[0]["reason"]

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "flat-earth"])
        assert code == 2

    def test_non_ascii_n_max_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prop1", "--n-max", "\u0663"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "theorem, n_max, lowest",
        [
            ("prop1", "-1", 2),
            ("prop1", "0", 2),
            ("tree-bounds", "-1", 3),
            ("tree-bounds", "0", 3),
            ("tree-bounds", "2", 3),
            ("tree-realization", "2", 3),
        ],
    )
    def test_empty_sweep_exits_2(self, capsys, theorem, n_max, lowest):
        code, out, err = run_cli(capsys, ["verify", theorem, "--n-max", n_max])
        assert code == 2
        assert out == ""
        assert f"{theorem}: n_max = {n_max} is below its lowest order {lowest}" in err

    @pytest.mark.parametrize(
        "theorem, n_max, message",
        [
            ("prop1", "10", "prop1: n_max = 10 is beyond the supported orders 2..9"),
            ("tree-bounds", "19", "tree-bounds: n_max = 19 is beyond the supported orders 3..18"),
            ("all", "10", "prop1: n_max = 10 is beyond the supported orders 2..9"),
            (
                "eta2-membership", "9",
                "eta2-membership: n_max = 9 is beyond the supported orders 2..8",
            ),
            ("realization", "5", "realization: n_max = 5 is beyond the supported orders 1..4"),
            (
                "tree-realization", "9",
                "tree-realization: n_max = 9 is beyond the supported orders 3..6",
            ),
        ],
    )
    def test_order_beyond_the_enumerators_exits_2_at_once(
        self, capsys, monkeypatch, theorem, n_max, message
    ):
        import locdom.theorems as theorems_mod

        def never(n):
            raise AssertionError(f"enumerated order {n}")

        monkeypatch.setattr(theorems_mod, "connected_graphs", never)
        monkeypatch.setattr(theorems_mod, "tree_classes", never)
        code, out, err = run_cli(capsys, ["verify", theorem, "--n-max", n_max])
        assert code == 2
        assert out == ""
        assert message in err

    def test_all_lowers_n_max_to_each_theorem_s_largest_order(self, capsys, monkeypatch):
        import locdom.cli as cli_mod
        from locdom.theorems import Verdict

        asked = {}

        def fake(requests, graphs):
            asked.update(requests)
            return [Verdict(tid, "scope", "holds") for tid, _ in requests]

        monkeypatch.setattr(cli_mod, "_run_theorems", fake)
        code, out, _ = run_cli(capsys, ["verify", "all", "--n-max", "9"])
        assert code == 0
        assert asked == {
            "prop1": 9, "eta-bounds": 9, "lambda-bounds": 9, "tree-bounds": 9,
            "eta-lambda-conditions": 9, "eta2-membership": 8, "lambda-extremal": 9,
            "realization": 4, "tree-realization": 6,
        }

    def test_empty_sweep_under_all_exits_2_before_any_record(self, capsys):
        # prop1 and the other order-2 sweeps have n = 2 to check; tree-bounds
        # starts at 3
        code, out, err = run_cli(capsys, ["verify", "all", "--n-max", "2"])
        assert code == 2
        assert out == ""
        assert "tree-bounds: n_max = 2 is below its lowest order 3" in err

    @pytest.mark.parametrize(
        "theorem, g6, problem",
        [
            ("prop1", "@", "n >= 2"),
            ("lambda-bounds", "@", "n >= 2"),
            ("eta-lambda-conditions", "@", "n >= 2"),
            ("tree-bounds", "C?", "is disconnected"),
        ],
    )
    def test_input_without_parameters_exits_3(self, capsys, theorem, g6, problem):
        # the checked graph comes second, so the message must name line 2
        blob = f"{write_graph6(path(3).graph).decode()}\n{g6}\n"
        code, out, err = run_cli(capsys, ["verify", theorem, "--input", "-"], stdin=blob)
        assert code == 3
        assert out == ""
        assert "line 2" in err and problem in err

    def test_non_tree_input_to_tree_bounds_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "tree-bounds", "--input", "-"], stdin="Bw\n")
        assert code == 2
        assert out == ""
        assert "requires a tree" in err

    def test_all_skips_non_trees_in_the_tree_sweep(self, capsys):
        blob = "".join(write_graph6(g).decode() + "\n" for g in (path(4).graph, complete(4).graph))
        code, out, err = run_cli(capsys, ["verify", "all", "--input", "-"], stdin=blob)
        assert code == 0, err
        verdicts = {r["theorem"]: r for r in records(out) if r["type"] == "verdict"}
        assert all(v["status"] == "holds" for v in verdicts.values())
        assert verdicts["tree-bounds"]["reason"] == "checked=1 skipped=1"
        assert verdicts["inequality-chain"]["reason"] == "checked=2 skipped=0"

    def test_input_rejected_for_fixed_scope_theorems(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "realization", "--input", "-"], stdin="A_\n")
        assert code == 2
        assert "does not apply" in err

    def test_realization_ids(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "realization"])
        assert code == 0
        assert records(out)[0]["status"] == "holds"


class TestDeterminismAndManifest:
    def payload(self, out):
        recs = records(out)
        assert recs[-1]["type"] == "summary"
        return recs[:-1]

    def test_identical_payload_across_runs(self, capsys):
        argv = ["enumerate", "--n", "3..5", "--filter", "eta=2", "--output", "census"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert self.payload(out1) == self.payload(out2)

    def test_manifest_fields(self, capsys):
        _, out, _ = run_cli(capsys, ["enumerate", "--n", "3"])
        manifest = records(out)[-1]["manifest"]
        assert manifest["command"].startswith("locdom enumerate")
        assert manifest["version"]
        assert manifest["input_sha256"] is None
        assert manifest["wall_time_s"] >= 0

    def test_enumerate_wall_time_covers_the_census(self, capsys, monkeypatch):
        import time

        import locdom.cli as cli_mod

        def slow_filtered(*args):
            time.sleep(0.2)
            return filtered(*args)

        filtered = cli_mod._filtered
        monkeypatch.setattr(cli_mod, "_filtered", slow_filtered)
        _, out, _ = run_cli(capsys, ["enumerate", "--n", "3", "--output", "census"])
        assert records(out)[-1]["manifest"]["wall_time_s"] >= 0.2

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3", "--jobs", "1"])
        assert exc.value.code == 2

    def test_table_mode(self, capsys):
        code, out, _ = run_cli(capsys, ["compute", "-", "--table"], stdin=P6_EDGE_LIST)
        assert code == 0
        assert "gamma=2" in out and "records" in out

    def test_internal_invariant_violation_exits_4(self, capsys, monkeypatch):
        from locdom import InvariantViolation
        import locdom.cli as cli_mod

        def broken(_g):
            raise InvariantViolation("synthetic solver bug")

        monkeypatch.setattr(cli_mod, "full_report", broken)
        code, _, err = run_cli(capsys, ["compute", "-"], stdin=P6_EDGE_LIST)
        assert code == 4
        assert "internal error" in err


class TestClosedOutput:
    """A reader that closes standard output early, as ``| head`` does, ends
    the run with exit code 141 and no traceback."""

    def _popen(self, argv, stdout):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.Popen(
            [sys.executable, "-m", "locdom.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE, env=env,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "tree-realization", "--n-max", "6"],
            ["enumerate", "--n", "3..7", "--output", "graph6"],
        ],
        ids=["verify", "enumerate-graph6"],
    )
    def test_output_to_a_closed_pipe(self, argv):
        read, write = os.pipe()
        os.close(read)  # closed before the first write
        try:
            proc = self._popen(argv, write)
        finally:
            os.close(write)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141, err
        assert err == b""

    def test_reader_leaves_after_one_line(self, tmp_path):
        # 1500 records of about 200 bytes, more than a pipe holds
        source = tmp_path / "p3.g6"
        source.write_text("Bw\n" * 1500)
        proc = self._popen(["compute", str(source)], subprocess.PIPE)
        assert json.loads(proc.stdout.readline())["graph6"] == "Bw"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141, err
        assert b"Traceback" not in err and b"BrokenPipeError" not in err
