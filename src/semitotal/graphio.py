"""Graph parsing and emission: simple edge lists and the graph6 encoding."""

from __future__ import annotations

import enum

from .errors import CapacityError
from .graph import Graph, WORD_BITS


class GraphFormat(enum.Enum):
    EDGE_LIST = "edgelist"
    GRAPH6 = "graph6"


def parse_graph(text: str, fmt: GraphFormat) -> Graph:
    if fmt is GraphFormat.EDGE_LIST:
        return parse_edge_list(text)
    return parse_graph6(text)


def emit_graph(g: Graph, fmt: GraphFormat) -> str:
    if fmt is GraphFormat.EDGE_LIST:
        return emit_edge_list(g)
    return emit_graph6(g)


def parse_edge_list(text: str) -> Graph:
    """First meaningful line is the vertex count, then one ``u v`` pair per line.

    '#' starts a comment (full-line or trailing); duplicate edges collapse;
    self-loops and out-of-range endpoints are rejected with the line number.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: expected the vertex count, got {raw!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count is not an integer: {raw!r}") from None
            if n < 0:
                raise ValueError(f"line {lineno}: vertex count must be nonnegative")
            if n > WORD_BITS:
                raise CapacityError(f"line {lineno}: {n} vertices exceeds the word budget {WORD_BITS}")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints are not integers: {raw!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u},{v}) out of range for n={n}")
        edges.append((u, v))
    if n is None:
        raise ValueError("empty input: no vertex count line")
    return Graph.from_edges(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode the printable graph6 encoding.

    Sizes up to 62 take one byte; 63 and 64 take the long form, ``~``
    followed by three 6-bit bytes.  A long form of a size below 63 is
    malformed (``ValueError``); larger sizes exceed the word budget
    (``CapacityError``).
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= b <= 63 for b in data):
        raise ValueError("graph6 input contains characters outside chr(63)..chr(126)")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("graph6 long size form needs three bytes after '~'")
        n = data[1] << 12 | data[2] << 6 | data[3]
        if n < 63:
            raise ValueError(f"graph6 long-form size {n} is malformed: sizes up to 62 take one byte")
        if n > WORD_BITS:
            raise CapacityError(f"graph6 long-form size must be 63..{WORD_BITS}")
        body = data[4:]
    else:
        n, body = data[0], data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} groups, expected {need} for n={n}")
    bits = []
    for b in body:
        bits += [(b >> k) & 1 for k in range(5, -1, -1)]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


def emit_graph6(g: Graph) -> str:
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.adj[i] >> j & 1 else 0)
    while len(bits) % 6:
        bits.append(0)
    if g.n <= 62:
        out = [chr(g.n + 63)]
    else:
        out = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)
