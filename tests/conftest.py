import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import strategies as st

from semitotal import Graph


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, f in zip(pairs, flags) if f])


@pytest.fixture
def rng():
    return random.Random(20240811)


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """Copy of g with vertex v renamed to perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def to_nx(g: Graph) -> nx.Graph:
    """The same graph as a networkx graph, for the independent oracles."""
    t = nx.Graph()
    t.add_nodes_from(range(g.n))
    t.add_edges_from(g.edges())
    return t
