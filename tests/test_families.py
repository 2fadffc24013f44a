import tracemalloc

import networkx as nx
import pytest

from semitotal import (
    Attach,
    CapacityError,
    Graph,
    ResampleBudgetError,
    book,
    cartesian,
    complete,
    complete_bipartite,
    cycle,
    disjoint_copies,
    friendship,
    has_dominating_vertex,
    join,
    path,
    pendant_path_tree,
    petersen,
    random_split_graph,
    star,
    wheel,
)

from conftest import to_nx
from corpus import family_corpus


def iso(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_nx(g), to_nx(h))


def test_canonical_labelings():
    assert path(3).edges() == [(0, 1), (1, 2)]
    assert star(3).edges() == [(0, 1), (0, 2), (0, 3)]
    assert complete_bipartite(2, 3).edge_count() == 6
    assert cycle(4).has_edge(3, 0)


def test_parameter_bounds():
    for bad in (lambda: path(0), lambda: cycle(2), lambda: complete(0), lambda: star(0),
                lambda: complete_bipartite(0, 2), lambda: wheel(3), lambda: friendship(0),
                lambda: book(0)):
        with pytest.raises(ValueError):
            bad()


def test_wheel_structure():
    assert iso(wheel(4), complete(4))
    degs = sorted(wheel(5).degree(v) for v in range(5))
    assert degs == [3, 3, 3, 3, 4]
    assert wheel(7).degree(0) == 6


def test_friendship_structure():
    f2 = friendship(2)
    assert (f2.n, f2.edge_count()) == (5, 6)
    assert f2.degree(0) == 4
    for n in range(1, 6):
        n_k2 = disjoint_copies(complete(2), n)
        assert iso(friendship(n), join(complete(1), n_k2))


def test_book_structure():
    assert iso(book(1), cycle(4))
    for n in range(1, 6):
        assert iso(book(n), cartesian(star(n), path(2)))


def test_petersen_structure():
    p = petersen()
    assert p.n == 10
    assert all(p.degree(v) == 3 for v in range(10))
    assert nx.girth(to_nx(p)) == 5


def test_pendant_path_tree_examples():
    t = pendant_path_tree(complete(2), [Attach.P2, Attach.P2])
    assert iso(t, path(4))
    t = pendant_path_tree(complete(2), [Attach.P4, Attach.P4])
    assert t.n == 8
    assert iso(t, path(8))


def test_pendant_path_tree_even_order_and_tree():
    base = path(3)
    for choices in [(Attach.P2,) * 3, (Attach.P4,) * 3, (Attach.P2, Attach.P4, Attach.P2)]:
        t = pendant_path_tree(base, list(choices))
        assert t.n % 2 == 0
        assert t.is_connected()
        assert t.edge_count() == t.n - 1


def test_pendant_path_tree_rejects_non_trees():
    with pytest.raises(ValueError):
        pendant_path_tree(cycle(3), [Attach.P2] * 3)
    with pytest.raises(ValueError):
        pendant_path_tree(complete(1), [Attach.P2])
    with pytest.raises(ValueError):
        pendant_path_tree(complete(2), [Attach.P2])


def test_random_split_graph_p1_is_complete_split():
    g = random_split_graph(3, 2, 1.0, seed=7)
    for i in range(3):
        for j in range(i + 1, 3):
            assert g.has_edge(i, j)
    for j in range(3, 5):
        assert not any(g.has_edge(j, k) for k in range(3, 5) if k != j)
        assert all(g.has_edge(i, j) for i in range(3))


def test_random_split_graph_smallest_case_is_triangle():
    g = random_split_graph(2, 1, 1.0, seed=3)
    assert g.n == 3 and g.edge_count() == 3
    assert g.has_edge(0, 2) and g.has_edge(1, 2)


def test_random_split_graph_deterministic():
    a = random_split_graph(4, 3, 0.55, seed=123)
    b = random_split_graph(4, 3, 0.55, seed=123)
    assert a.adj == b.adj


def test_random_split_graph_resample_budget():
    with pytest.raises(ResampleBudgetError):
        random_split_graph(2, 2, 0.0, seed=1, max_retries=5)


def test_has_dominating_vertex():
    assert has_dominating_vertex(star(3))
    assert not has_dominating_vertex(cycle(5))
    assert has_dominating_vertex(wheel(6))


def test_family_corpus_members_are_valid():
    for g in family_corpus(14):
        assert g.n <= 14
        assert g.is_isolate_free() or g.n == 1
        for v in range(g.n):
            assert not g.adj[v] >> v & 1


def test_disjoint_copies_fails_before_building_edges():
    g = cycle(5)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            disjoint_copies(g, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
