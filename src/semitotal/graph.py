"""Immutable small-graph representation on top of integer bit masks.

Vertex sets are plain Python ints used as bit masks: bit ``v`` set means
vertex ``v`` is in the set.  All neighborhood and coverage computations are
word-parallel bitwise operations, which is what makes the exhaustive
subset-enumeration solvers in :mod:`semitotal.domination` practical.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import CapacityError

#: Fixed word budget: graphs may have at most this many vertices.
WORD_BITS = 64


def mask_from(vertices: Iterable[int]) -> int:
    """Bit mask containing the given vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    """Set bit positions of ``mask`` as a sorted list."""
    return list(iter_bits(mask))


class Graph:
    """Simple undirected graph with adjacency stored as per-vertex bit masks.

    Instances are immutable after construction and safe to share between
    concurrent workers.  The public constructor validates symmetry,
    irreflexivity and the word budget.  Graphs the package derives (edge
    lists through ``from_edges``, induced subgraphs, enumerated trees) are
    valid by construction and skip those checks through ``_derived``.
    """

    __slots__ = ("n", "adj", "name", "_closed", "_ball2", "_sphere2")

    def __init__(self, n: int, adj: Iterable[int], name: str | None = None):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > WORD_BITS:
            raise CapacityError(f"graph has {n} vertices, word budget is {WORD_BITS}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for {n} vertices")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row < 0:
                raise ValueError(f"adjacency of vertex {v} is negative: {row}")
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in iter_bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")
        self.n = n
        self.adj = adj
        self.name = name
        self._closed: tuple[int, ...] | None = None
        self._ball2: tuple[int, ...] | None = None
        self._sphere2: tuple[int, ...] | None = None

    @classmethod
    def _derived(cls, n: int, adj: Iterable[int], name: str | None = None) -> "Graph":
        """The graph on rows that are symmetric, irreflexive and inside the n
        vertices by construction, with n within the word budget; unchecked."""
        g = cls.__new__(cls)
        g.n, g.adj, g.name = n, tuple(adj), name
        g._closed = g._ball2 = g._sphere2 = None
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        """Build a graph from an edge list (duplicates collapsed)."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > WORD_BITS:
            raise CapacityError(f"graph has {n} vertices, word budget is {WORD_BITS}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._derived(n, rows, name)

    # -- basic queries ------------------------------------------------

    @property
    def full_mask(self) -> int:
        """Mask with all ``n`` vertex bits set."""
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) pairs with u < v."""
        out = []
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if u > v:
                    out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for graph on {self.n} vertices")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n}{label}, m={self.edge_count()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    # -- neighborhoods ------------------------------------------------

    def closed_neighborhood(self, v: int) -> int:
        """N[v]: the open neighborhood of ``v`` together with ``v`` itself."""
        self._check_vertex(v)
        return self.adj[v] | 1 << v

    @property
    def closed(self) -> tuple[int, ...]:
        """Closed neighborhood masks for every vertex."""
        if self._closed is None:
            self._closed = tuple([row | 1 << v for v, row in enumerate(self.adj)])
        return self._closed

    def ball_within_two(self, v: int) -> int:
        """Vertices u != v at distance at most 2 from ``v``."""
        self._check_vertex(v)
        return self._ball2_all()[v]

    def sphere_exactly_two(self, v: int) -> int:
        """Vertices at distance exactly 2 from ``v``."""
        self._check_vertex(v)
        return self._sphere2_all()[v]

    def _ball2_all(self) -> tuple[int, ...]:
        if self._ball2 is None:
            adj, out = self.adj, []
            for v, row in enumerate(adj):
                reach = rest = row
                while rest:
                    low = rest & -rest
                    reach |= adj[low.bit_length() - 1]
                    rest ^= low
                out.append(reach & ~(1 << v))
            self._ball2 = tuple(out)
        return self._ball2

    def _sphere2_all(self) -> tuple[int, ...]:
        if self._sphere2 is None:
            ball = self._ball2_all()
            self._sphere2 = tuple(ball[v] & ~self.adj[v] for v in range(self.n))
        return self._sphere2

    # -- distances ----------------------------------------------------

    def distance(self, u: int, v: int) -> int | float:
        """Shortest-path distance by breadth-first layering.

        Returns ``math.inf`` for vertices in different components.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        frontier = 1 << u
        seen = frontier
        d = 0
        while frontier:
            nxt = 0
            for w in iter_bits(frontier):
                nxt |= self.adj[w]
            nxt &= ~seen
            d += 1
            if nxt >> v & 1:
                return d
            seen |= nxt
            frontier = nxt
        return math.inf

    def component_of(self, v: int) -> int:
        """Mask of the connected component containing ``v``."""
        self._check_vertex(v)
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            for w in iter_bits(frontier):
                nxt |= self.adj[w]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return self.component_of(0) == self.full_mask

    # -- structure predicates ------------------------------------------

    def is_isolate_free(self) -> bool:
        """True iff the graph is nonempty and every vertex has a neighbor."""
        return self.n >= 1 and all(self.adj)

    def is_complete(self) -> bool:
        """True iff every pair of distinct vertices is adjacent (n <= 1 included)."""
        # no row holds its own vertex, so n - 1 bits in every row is the only way
        return sum(map(int.bit_count, self.adj)) == self.n * (self.n - 1)

    # -- vertex deletion ------------------------------------------------

    def delete_vertices(self, remove: int) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on the vertices outside ``remove``.

        Remaining vertices are re-indexed in increasing original order; the
        returned dict maps old indices to new ones.
        """
        if remove & ~self.full_mask:
            raise ValueError("removal set contains vertices outside the graph")
        rows = self.adj
        for v in reversed(bits_list(remove)):
            rows = _without(rows, v)
        keep = iter_bits(self.full_mask & ~remove)
        return Graph._derived(len(rows), rows, self.name), {v: i for i, v in enumerate(keep)}


def _without(rows: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The rows of a graph without vertex p: row p goes, and every bit above
    p moves down one place, so the vertices left keep their order."""
    low = (1 << p) - 1
    return tuple([r & low | r >> 1 & ~low for r in rows[:p] + rows[p + 1:]])


def _twin_classes(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Each v's twin class as a mask: v and every u with N(u) - v = N(v) - u.

    Such u and v are false twins, N(u) = N(v), or true twins, N[u] = N[v].
    A vertex v with a true twin u has no false twin w: w would be a neighbour
    of u, so of v, and false twins are never adjacent.  So one pass groups
    the vertices by open and by closed row, and v's class is the union of
    its two groups, one of which is just v.
    """
    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v, row in enumerate(adj):
        by_open[row] = by_open.get(row, 0) | 1 << v
        by_closed[row | 1 << v] = by_closed.get(row | 1 << v, 0) | 1 << v
    return tuple([by_open[row] | by_closed[row | 1 << v] for v, row in enumerate(adj)])
