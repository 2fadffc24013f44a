"""Graph compositions: corona, Cartesian product, join, rooted identification.

Like the family builders, each composition hands its edges to
``Graph.from_edges`` as a generator, so an order beyond the word budget
raises ``CapacityError`` before any edge of the result is made.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .graph import Graph


def _shifted(g: Graph, off: int) -> Iterator[tuple[int, int]]:
    return ((u + off, v + off) for u, v in g.edges())


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union with g's vertices first."""
    edges = chain(g.edges(), _shifted(h, g.n))
    return Graph.from_edges(g.n + h.n, edges, f"({g.name or 'G'})+({h.name or 'H'})")


def corona(g: Graph, h: Graph) -> Graph:
    """One copy of h per vertex of g, each g-vertex joined to its whole copy.

    Layout: g's vertices first, then the copies in g-vertex order, so copy i
    occupies indices g.n + i*h.n .. g.n + (i+1)*h.n - 1.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("corona factors must be nonempty")

    def edges():
        yield from g.edges()
        copy = h.edges()
        for i in range(g.n):
            off = g.n + i * h.n
            yield from ((u + off, v + off) for u, v in copy)
            yield from ((i, off + t) for t in range(h.n))

    return Graph.from_edges(g.n * (1 + h.n), edges(), f"({g.name or 'G'})o({h.name or 'H'})")


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a,b)~(a',b') iff a=a' and bb' in E(h), or aa' in E(g) and b=b'.

    Vertex (a, b) sits at index a*h.n + b.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")

    def edges():
        fibre = h.edges()
        for a in range(g.n):
            off = a * h.n
            yield from ((u + off, v + off) for u, v in fibre)
        for u, v in g.edges():
            yield from ((u * h.n + b, v * h.n + b) for b in range(h.n))

    return Graph.from_edges(g.n * h.n, edges(), f"({g.name or 'G'})x({h.name or 'H'})")


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts; g's vertices first."""
    across = ((a, g.n + b) for a in range(g.n) for b in range(h.n))
    edges = chain(g.edges(), _shifted(h, g.n), across)
    return Graph.from_edges(g.n + h.n, edges, f"({g.name or 'G'})v({h.name or 'H'})")


def rooted_product(g: Graph, h: Graph, root: int = 0) -> Graph:
    """Per vertex of g, a fresh copy of h with its root vertex merged into it.

    Layout: g's vertices first (each serving as the root of its copy), then
    the non-root vertices of the copies in g-vertex order.  The root defaults
    to 0; for vertex-transitive h the choice is immaterial.
    """
    if h.n == 0:
        raise ValueError("copy factor must be nonempty")
    h._check_vertex(root)
    others = [v for v in range(h.n) if v != root]

    def edges():
        yield from g.edges()
        copy = h.edges()
        for i in range(g.n):
            off = g.n + i * (h.n - 1)
            to_new = {root: i}
            to_new.update({v: off + t for t, v in enumerate(others)})
            yield from ((to_new[u], to_new[v]) for u, v in copy)

    return Graph.from_edges(g.n * h.n, edges(), f"({g.name or 'G'})*({h.name or 'H'})")
