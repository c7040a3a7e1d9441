"""``locdom verify`` payload records, byte for byte.

``data/verify_payloads.jsonl`` holds the records (every line but the
summary) of the commands below, run in this order: every sweep capped at
n = 6, the tree sweep at n = 10 (it reports the spider counterexample) and
the two realization grids at their default scope.  A refactor of the
checkers must reproduce them exactly, and the outputs that the
benchmark's ``verify7`` and ``trees12`` workloads expect.  Two larger
runs, the connected order 8 and the tree orders 13 and 14, are pinned by
the SHA-256 of their payload lines.
"""

import hashlib
import json
from pathlib import Path

import pytest

from locdom.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_payloads.jsonl"
BENCH_EXPECTED = Path(__file__).parents[1] / "bench" / "expected"

COMMANDS = [
    ["verify", "prop1", "--n-max", "6"],
    ["verify", "eta-bounds", "--n-max", "6"],
    ["verify", "lambda-bounds", "--n-max", "6"],
    ["verify", "tree-bounds", "--n-max", "10"],
    ["verify", "eta-lambda-conditions", "--n-max", "6"],
    ["verify", "eta2-membership", "--n-max", "6"],
    ["verify", "lambda-extremal", "--n-max", "6"],
    ["verify", "realization"],
    ["verify", "tree-realization"],
]


def test_verify_payloads_match_the_recording(capsys):
    lines = []
    for argv in COMMANDS:
        main(argv)
        out = capsys.readouterr().out.splitlines()
        assert '"type": "summary"' in out[-1]
        lines += out[:-1]
    assert lines == GOLDEN.read_text(encoding="ascii").splitlines()


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("verify7", ["verify", "all", "--n-max", "7"], 0),
        ("trees12", ["verify", "tree-bounds", "--n-max", "12"], 1),
    ],
)
def test_verify_matches_the_benchmark_s_expected_output(capsys, name, argv, code):
    # as the benchmark compares them: payload lines byte for byte, and the
    # summary without its manifest, which holds the run's wall time
    assert main(argv) == code
    got = capsys.readouterr().out.splitlines()
    want = (BENCH_EXPECTED / f"{name}.jsonl").read_text(encoding="ascii").splitlines()
    assert got[:-1] == want[:-1]
    summaries = [json.loads(line) for line in (got[-1], want[-1])]
    for summary in summaries:
        del summary["manifest"]
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (
            ["verify", "all", "--n-max", "8"], 0,
            "fdad89a94d28973c6c914228b8ca2371c59142699ecf418dc59e84923eaf6031",
        ),
        (
            ["verify", "tree-bounds", "--n-max", "14"], 1,
            "34825095ff8dbeb8990133ad46391209beee04d0e630ddd454bd75266286a14d",
        ),
    ],
    ids=["all-8", "tree-bounds-14"],
)
def test_verify_payload_digests(capsys, argv, code, digest):
    # stdout without its summary line, as `head -n -1 | sha256sum` reads it
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert '"type": "summary"' in lines[-1]
    assert hashlib.sha256("".join(lines[:-1]).encode("ascii")).hexdigest() == digest
