"""graph6 encoder/decoder (short form, n <= 62).

The format packs the upper triangle of the adjacency matrix column by
column: for columns j = 1..n-1 the bits x(0,j), x(1,j), ..., x(j-1,j) are
concatenated, split into 6-bit groups (most significant bit first, zero
padded), and each group is stored as one printable byte after adding 63.
Byte 0 is n + 63.  ``K1`` encodes to ``b"@"`` and ``P2`` to ``b"A_"``.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator, Union

from .graph import Graph

__all__ = ["Graph6Error", "write_graph6", "read_graph6", "read_graph6_stream"]

_HEADER = b">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 bytes or an unsupported (long form) encoding."""


def _encode(n: int, bits: int) -> bytes:
    """graph6 bytes of order n from its upper-triangle bits, column by
    column, as one integer (the first bit most significant)."""
    if n > 62:
        raise Graph6Error(f"short graph6 supports n <= 62, got n={n}")
    nbytes = (n * (n - 1) // 2 + 5) // 6
    bits <<= 6 * nbytes - n * (n - 1) // 2
    return bytes([n + 63] + [(bits >> s & 63) + 63 for s in range(6 * nbytes - 6, -6, -6)])


def write_graph6(g: Graph) -> bytes:
    """Encode a graph as short-form graph6 bytes (no trailing newline)."""
    rows = g._rows
    bits = 0
    for j in range(1, g.n):
        rj = rows[j]
        for i in range(j):
            bits = (bits << 1) | (rj >> i & 1)
    return _encode(g.n, bits)


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
    rows = [0] * n
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._from_rows(rows)


def read_graph6_stream(source: Union[IO, Iterable, bytes, str]) -> Iterator[Graph]:
    """Decode newline-delimited graph6 values from a file-like object,
    an iterable of lines, or a single blob."""
    if isinstance(source, (bytes, str)):
        lines: Iterable = source.splitlines()
    else:
        lines = source
    for line in lines:
        if isinstance(line, str):
            line = _ascii(line)
        line = line.strip()
        if line.startswith(_HEADER):
            line = line[len(_HEADER):]
        if not line:
            continue
        yield read_graph6(line)
