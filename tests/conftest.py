import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "locdom",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("locdom")

SRC = Path(__file__).resolve().parents[1] / "src"


def random_connected_graph(rng: random.Random, n: int):
    """Random connected graph: a random spanning tree plus random extra edges."""
    from locdom import Graph

    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], rng.choice(order[:i])))))
    extra = rng.randrange(0, n * (n - 1) // 2 - (n - 1) + 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for e in pairs:
        if len(edges) >= n - 1 + extra:
            break
        edges.add(e)
    return Graph(n, sorted(edges))


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail a test that leaves a child process unreaped, such as a forked
    enumeration or census worker."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid gave pid {pid}, status {status})")


def run_fresh(script: str, stdin: bytes = b"") -> str:
    """Standard output of script, run in a fresh interpreter on the
    sources under test."""
    done = subprocess.run(
        [sys.executable, "-c", script], input=stdin, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def built_keys(key):
    """Keys for ``enumeration._children`` that build each child and key it
    by ``key`` of the built graph: a level with no rule and no tables, whose
    keys are complete when ``key`` is."""
    from locdom import enumeration

    return lambda i, parent: lambda mask: key(enumeration._extend(parent, mask))


def loaded_modules(script: str, stdin: bytes = b"") -> set[str]:
    """The ``locdom`` modules, OpenSSL's ``_hashlib`` and ``dataclasses``,
    loaded in a fresh interpreter once it has run script, which may print
    to standard output."""
    report = (
        "import json, sys; print(json.dumps([m for m in sys.modules "
        "if m in ('locdom', '_hashlib', 'dataclasses') or m.startswith('locdom.')]))"
    )
    return set(json.loads(run_fresh(f"{script}\n{report}", stdin).splitlines()[-1]))
