"""graph6 codec against the bit-by-bit reference loops in ``_brute``."""

import random

import _brute
import pytest

from locdom import Graph, Graph6Error, read_graph6, write_graph6
from locdom.enumeration import connected_graphs
from locdom.graph6 import _bit_weights


def _random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.random()
    pairs = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
    return Graph(n, pairs)


def _agrees_with_reference(g: Graph) -> None:
    data = write_graph6(g)
    assert data == _brute.reference_write_graph6(g)
    assert read_graph6(data) == _brute.reference_read_graph6(data) == g


def test_every_connected_class_to_order_7():
    for n in range(1, 8):
        for g in connected_graphs(n):
            _agrees_with_reference(g)


def test_seeded_random_graphs_to_order_62():
    rng = random.Random(20261018)
    for n in range(1, 63):
        for _ in range(3):
            _agrees_with_reference(_random_graph(rng, n))


def test_order_63_is_rejected_before_any_weight_table():
    before = _bit_weights.cache_info().currsize
    with pytest.raises(Graph6Error, match="order 63 is above 62"):
        write_graph6(Graph(63, [(0, 62)]))
    assert _bit_weights.cache_info().currsize == before
