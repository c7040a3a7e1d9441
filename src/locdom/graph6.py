"""graph6 encoder/decoder (short form, n <= 62).

The format packs the upper triangle of the adjacency matrix column by
column: for columns j = 1..n-1 the bits x(0,j), x(1,j), ..., x(j-1,j) are
concatenated, split into 6-bit groups (most significant bit first, zero
padded), and each group is stored as one printable byte after adding 63.
Byte 0 is n + 63.  ``K1`` encodes to ``b"@"`` and ``P2`` to ``b"A_"``.

Streams are read line by line: blank and header-only lines are skipped,
and an error names its line.
"""

from __future__ import annotations

from functools import lru_cache
from typing import IO, Iterable, Iterator, Union

from .graph import Graph

__all__ = ["Graph6Error", "write_graph6", "read_graph6", "read_graph6_stream"]

_HEADER = b">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 bytes or an unsupported (long form) encoding."""


def _check_order(n: int) -> None:
    if n > 62:
        raise Graph6Error(f"order {n} is above 62, the largest that short graph6 encodes")


@lru_cache(maxsize=None)
def _bit_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """weights[i][j]: the value of the bit x(i,j) in the packed upper
    triangle of order n, which holds the bits x(0,j) .. x(j-1,j) of each
    column j = 1..n-1 in turn, the first most significant: the graph6
    body, in order."""
    top = n * (n - 1) // 2 - 1
    weights = [[0] * n for _ in range(n)]
    for j in range(1, n):
        for i in range(j):
            weights[i][j] = weights[j][i] = 1 << (top - j * (j - 1) // 2 - i)
    return tuple(map(tuple, weights))


def _encode(n: int, bits: int) -> bytes:
    """graph6 bytes of order n from its upper-triangle bits, column by
    column, as one integer (the first bit most significant)."""
    _check_order(n)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    bits <<= 6 * nbytes - n * (n - 1) // 2
    return bytes([n + 63] + [(bits >> s & 63) + 63 for s in range(6 * nbytes - 6, -6, -6)])


def write_graph6(g: Graph) -> bytes:
    """Encode a graph as short-form graph6 bytes (no trailing newline)."""
    if g._g6 is None:  # encoded once, then kept on the graph
        _check_order(g.n)  # before a weight table is built and cached
        weights = _bit_weights(g.n)
        g._g6 = _encode(g.n, sum([weights[u][v] for u, v in g.edges()]))
    return g._g6


def _ascii(text: str) -> bytes:
    # graph6 is pure ASCII; a replacement character such as "?" would be
    # a valid graph6 byte and silently decode to a different graph
    try:
        return text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {text[exc.start]!r} in graph6 value") from exc


def read_graph6(data: Union[bytes, str]) -> Graph:
    """Decode one short-form graph6 value (optionally header-prefixed)."""
    if isinstance(data, str):
        data = _ascii(data)
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if not data:
        raise Graph6Error("empty graph6 value")
    head = data[0]
    if head == 126:
        raise Graph6Error("long-form graph6 (n > 62) is not supported")
    n = head - 63
    if not 1 <= n <= 62:
        raise Graph6Error(f"invalid graph6 order byte {head!r}")
    nbits = n * (n - 1) // 2
    body = data[1:]
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {expected} for n={n}"
        )
    bits = 0
    for b in body:
        if not 63 <= b <= 126:
            raise Graph6Error(f"graph6 byte {b!r} outside printable range")
        bits = (bits << 6) | (b - 63)
    pad = 6 * expected - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits in graph6 value")
    bits >>= pad
    weights = _bit_weights(n)
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if bits & weights[i][j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._from_rows(rows)


def _numbered_graphs(lines: Iterable[Union[bytes, str]]) -> Iterator[tuple[int, Graph]]:
    """(line number from 1, graph) for each graph6 line but blank and
    header-only ones; a Graph6Error names the line."""
    for i, line in enumerate(lines, start=1):
        try:
            if isinstance(line, str):
                line = _ascii(line)
            line = line.strip()
            if not line or line == _HEADER:
                continue
            g = read_graph6(line)  # which drops a header prefixed to a value
        except Graph6Error as exc:
            raise Graph6Error(f"line {i}: {exc}") from exc
        yield i, g


def read_graph6_stream(source: Union[IO, Iterable, bytes, str]) -> Iterator[Graph]:
    """Decode newline-delimited graph6 values from a file-like object,
    an iterable of lines, or a single blob.  A blob's lines end at \\n,
    \\r\\n and \\r, whether it is bytes or str."""
    if isinstance(source, bytes):
        source = source.splitlines()
    elif isinstance(source, str):
        # str.splitlines would also end a line at \v, \f, \x1c-\x1e, \x85,
        # \u2028 and \u2029, and so shift the number of every later line
        source = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return (g for _, g in _numbered_graphs(source))
