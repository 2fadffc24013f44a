"""Deterministic generators for the named graph families under study.

Builders hand their edges to ``Graph.from_edges`` as generators, so an order
beyond the word budget raises ``CapacityError`` before any edge is made.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Sequence

from .errors import ResampleBudgetError
from .graph import Graph


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)), f"P{n}")


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edge (n-1, 0) closing the path."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = chain(((i, i + 1) for i in range(n - 1)), [(n - 1, 0)])
    return Graph.from_edges(n, edges, f"C{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    edges = ((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph.from_edges(n, edges, f"K{n}")


def star(leaves: int) -> Graph:
    """Star K_{1,leaves} with the hub at vertex 0."""
    if leaves < 1:
        raise ValueError(f"star needs at least 1 leaf, got {leaves}")
    return Graph.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)), f"K1,{leaves}")


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with parts {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ValueError(f"complete bipartite needs both parts >= 1, got ({m},{n})")
    edges = ((i, m + j) for i in range(m) for j in range(n))
    return Graph.from_edges(m + n, edges, f"K{m},{n}")


def wheel(n: int) -> Graph:
    """Wheel of total order n: hub 0 adjacent to the (n-1)-cycle 1..n-1.

    "Order n" is read as hub plus an (n-1)-cycle; the rim-count reading would
    shift every closed-form value by one.
    """
    if n < 4:
        raise ValueError(f"wheel needs order >= 4, got {n}")
    spokes = ((0, i) for i in range(1, n))
    rim = ((i, i + 1) for i in range(1, n - 1))
    return Graph.from_edges(n, chain(spokes, rim, [(n - 1, 1)]), f"W{n}")


def friendship(n: int) -> Graph:
    """n triangles sharing the center vertex 0; triangle i uses (2i-1, 2i)."""
    if n < 1:
        raise ValueError(f"friendship graph needs n >= 1 triangles, got {n}")
    edges = (e for a in range(1, 2 * n, 2) for e in ((0, a), (0, a + 1), (a, a + 1)))
    return Graph.from_edges(2 * n + 1, edges, f"F{n}")


def book(n: int) -> Graph:
    """Book graph B_n, built exactly as the Cartesian product K_{1,n} x P_2."""
    if n < 1:
        raise ValueError(f"book graph needs n >= 1 pages, got {n}")
    from .products import cartesian

    g = cartesian(star(n), path(2))
    return Graph._derived(g.n, g.adj, f"B{n}")


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i-(i+5)."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return Graph.from_edges(10, edges, "Petersen")


class Attach(enum.Enum):
    """Pendant path attached at a base-tree vertex: one or three new vertices."""

    P2 = 2
    P4 = 4


def pendant_path_tree(base: Graph, choices: Sequence[Attach]) -> Graph:
    """Attach a pendant P2 or P4 at every vertex of a nontrivial base tree.

    Vertex v of the base is identified with one end of a fresh path of 2 or 4
    vertices, so v gains 1 or 3 new vertices hanging off it.  Base vertices
    keep their indices; the new vertices are appended in base-vertex order.
    """
    h = base.n
    if h < 2 or not base.is_connected() or base.edge_count() != h - 1:
        raise ValueError("base must be a tree with at least 2 vertices")
    if len(choices) != h:
        raise ValueError(f"need one attachment choice per base vertex ({h}), got {len(choices)}")
    edges = base.edges()
    nxt = h
    for v, choice in enumerate(choices):
        extra = choice.value - 1
        prev = v
        for _ in range(extra):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    tag = "".join("2" if c is Attach.P2 else "4" for c in choices)
    return Graph.from_edges(nxt, edges, f"T[{base.name or 'H'};{tag}]")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _unit_float(seed: int, counter: int) -> float:
    # counter-based generator: same (seed, counter) gives the same value
    # on every platform, which keeps seeded instances reproducible.
    return (_splitmix64(seed * 0x100000001 + counter) >> 11) * 2.0**-53


def random_split_graph(
    clique_size: int,
    independent_size: int,
    edge_probability: float,
    seed: int,
    max_retries: int = 1000,
) -> Graph:
    """Seeded split graph: a clique 0..clique_size-1 plus an independent set.

    Each clique-independent pair becomes an edge with the given probability.
    Resamples (deterministically, by advancing the counter) until the result
    is connected and isolate-free.
    """
    if clique_size < 2 or independent_size < 1:
        raise ValueError("need clique_size >= 2 and independent_size >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {edge_probability}")
    total = clique_size + independent_size
    counter = 0
    for _ in range(max_retries):
        edges = [(i, j) for i in range(clique_size) for j in range(i + 1, clique_size)]
        for i in range(clique_size):
            for j in range(clique_size, total):
                if _unit_float(seed, counter) < edge_probability:
                    edges.append((i, j))
                counter += 1
        g = Graph.from_edges(total, edges, f"split({clique_size},{independent_size},s={seed})")
        if g.is_connected() and g.is_isolate_free():
            return g
    raise ResampleBudgetError(
        f"no connected isolate-free split graph after {max_retries} samples"
    )


def has_dominating_vertex(g: Graph) -> bool:
    """True iff some closed neighborhood covers the whole vertex set."""
    full = g.full_mask
    return any(g.closed[v] == full for v in range(g.n))


def disjoint_copies(g: Graph, copies: int) -> Graph:
    """Disjoint union of ``copies`` copies of ``g``."""
    if copies < 1:
        raise ValueError(f"need at least 1 copy, got {copies}")
    base = g.edges()
    edges = ((u + c * g.n, v + c * g.n) for c in range(copies) for u, v in base)
    return Graph.from_edges(copies * g.n, edges, f"{copies}x{g.name or 'G'}")
