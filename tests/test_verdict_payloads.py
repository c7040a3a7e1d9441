"""``locdom verify`` payload records, byte for byte.

``data/verify_payloads.jsonl`` holds the records (every line but the
summary) of the commands below, run in this order: every sweep capped at
n = 6, the tree sweep at n = 10 (it reports the spider counterexample) and
the two realization grids at their default scope.  A refactor of the
checkers must reproduce them exactly.
"""

from pathlib import Path

from locdom.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_payloads.jsonl"

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
