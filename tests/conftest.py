import os
import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "locdom",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("locdom")


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
