import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    Attach,
    CapacityError,
    Graph,
    bits_list,
    complete,
    complete_bipartite,
    cycle,
    disjoint_copies,
    disjoint_union,
    mask_from,
    path,
    pendant_path_tree,
    petersen,
    random_split_graph,
    star,
)
from semitotal.claims import _all_trees
from semitotal.graph import _without

from conftest import graphs
from corpus import full_corpus


def test_constructor_rejects_asymmetry():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, [0b10, 0b00])


def test_constructor_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, [0b1])


def test_constructor_rejects_out_of_range_bits():
    with pytest.raises(ValueError, match="references vertices"):
        Graph(2, [0b100, 0b000])


def test_constructor_rejects_negative_rows():
    with pytest.raises(ValueError, match="adjacency of vertex 0 is negative"):
        Graph(2, [-1, 0])


def test_capacity_limit():
    with pytest.raises(CapacityError):
        Graph(65, [0] * 65)
    with pytest.raises(CapacityError):
        Graph.from_edges(70, [])


def test_empty_graph_is_representable():
    g = Graph(0, [])
    assert g.n == 0
    assert not g.is_isolate_free()
    assert g.is_complete()


def test_closed_neighborhood():
    assert path(3).closed_neighborhood(1) == mask_from([0, 1, 2])
    assert complete(1).closed_neighborhood(0) == mask_from([0])
    assert cycle(4).closed_neighborhood(0) == mask_from([3, 0, 1])
    with pytest.raises(ValueError):
        path(3).closed_neighborhood(3)


def test_distance():
    p4 = path(4)
    assert p4.distance(0, 3) == 3
    assert p4.distance(2, 2) == 0
    two_k2 = disjoint_copies(complete(2), 2)
    assert two_k2.distance(0, 2) == math.inf
    with pytest.raises(ValueError):
        p4.distance(0, 4)


def test_sphere_exactly_two():
    assert cycle(4).sphere_exactly_two(0) == mask_from([2])
    assert complete(5).sphere_exactly_two(2) == 0
    assert star(3).sphere_exactly_two(1) == mask_from([2, 3])


def test_ball_within_two():
    assert complete(4).ball_within_two(0) == mask_from([1, 2, 3])
    assert path(5).ball_within_two(0) == mask_from([1, 2])
    pet = petersen()
    for v in range(10):
        ball = pet.ball_within_two(v)
        assert ball == pet.full_mask & ~(1 << v)
        assert ball.bit_count() == 9


def test_delete_vertices_cycle_to_path():
    residue, mapping = cycle(5).delete_vertices(mask_from([0]))
    assert residue == path(4)
    assert mapping == {1: 0, 2: 1, 3: 2, 4: 3}


def test_delete_nothing_is_identity():
    g = petersen()
    residue, mapping = g.delete_vertices(0)
    assert residue.adj == g.adj
    assert mapping == {v: v for v in range(10)}


def test_delete_bipartite_small_side():
    residue, _ = complete_bipartite(2, 3).delete_vertices(mask_from([0]))
    assert residue == star(3)


def test_delete_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        path(3).delete_vertices(mask_from([5]))


def test_is_isolate_free():
    assert complete(2).is_isolate_free()
    assert not complete(1).is_isolate_free()
    k2_plus_k1 = Graph.from_edges(3, [(0, 1)])
    assert not k2_plus_k1.is_isolate_free()


def test_is_complete():
    assert complete(4).is_complete()
    assert not cycle(4).is_complete()
    assert complete(1).is_complete()


@given(graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_sphere_is_ball_minus_neighbors(g):
    for v in range(g.n):
        ball = g.ball_within_two(v)
        sphere = g.sphere_exactly_two(v)
        assert sphere == ball & ~g.adj[v]
        assert not sphere >> v & 1
        assert not ball >> v & 1


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_distance_symmetric_and_triangular(g):
    n = g.n
    dist = [[g.distance(u, v) for v in range(n)] for u in range(n)]
    for u in range(n):
        assert dist[u][u] == 0
        for v in range(n):
            assert dist[u][v] == dist[v][u]
            for w in range(n):
                assert dist[u][w] <= dist[u][v] + dist[v][w]


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_distance_matches_sphere_and_ball(g):
    for v in range(g.n):
        for u in range(g.n):
            d = g.distance(u, v)
            assert (g.sphere_exactly_two(v) >> u & 1) == (d == 2)
            assert (g.ball_within_two(v) >> u & 1) == (0 < d <= 2)


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=40, deadline=None)
def test_delete_composes(g):
    full = g.full_mask
    for s1 in (1, full & 0b101, full >> 1):
        s1 &= full
        g1, map1 = g.delete_vertices(s1)
        if g1.n == 0:
            continue
        s2_old = [v for v in bits_list(full & ~s1)][: g1.n // 2]
        s2_new = mask_from(map1[v] for v in s2_old)
        g2, map2 = g1.delete_vertices(s2_new)
        direct, map_direct = g.delete_vertices(s1 | mask_from(s2_old))
        assert g2.adj == direct.adj
        composed = {v: map2[map1[v]] for v in map1 if map1[v] in map2}
        assert composed == map_direct


# -- deletion against an independent oracle --------------------------------


def relabelled_induced(g, remove):
    """g - remove and its old-to-new map, built from the relabelled induced
    edge list and not by moving bits."""
    old_to_new = {v: i for i, v in enumerate(v for v in range(g.n) if not remove >> v & 1)}
    edges = [(old_to_new[u], old_to_new[v]) for u, v in g.edges() if u in old_to_new and v in old_to_new]
    return Graph.from_edges(len(old_to_new), edges), old_to_new


@st.composite
def graphs_and_removals(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    full = (1 << n) - 1
    remove = draw(st.one_of(
        st.just(0),
        vertex.map(lambda v: full & ~(1 << v)),  # all but one vertex
        st.integers(min_value=0, max_value=full),
    ))
    return Graph.from_edges(n, edges), remove


def assert_deletion_matches_oracle(g, remove):
    assert g.delete_vertices(remove) == relabelled_induced(g, remove)


@given(graphs_and_removals())
@settings(max_examples=150, deadline=None)
def test_delete_vertices_matches_the_relabelled_edge_list(case):
    assert_deletion_matches_oracle(*case)


@given(graphs(max_n=12))
@settings(max_examples=60, deadline=None)
def test_without_drops_the_first_and_the_last_vertex(g):
    for p in (0, g.n - 1):
        assert _without(g.adj, p) == relabelled_induced(g, 1 << p)[0].adj


def test_deletion_reaches_bit_63():
    rng = random.Random(64)
    g = Graph.from_edges(64, [(u, v) for u in range(64) for v in range(u + 1, 64) if rng.random() < 0.3])
    full = g.full_mask
    for remove in (0, 1, 1 << 63, full >> 1, full & ~1, full & ~(1 << 63), rng.getrandbits(64)):
        assert_deletion_matches_oracle(g, remove)
    for p in (0, 31, 62, 63):
        assert _without(g.adj, p) == relabelled_induced(g, 1 << p)[0].adj


# -- graphs built without the constructor's checks ---------------------------


def assert_passes_public_checks(g):
    assert isinstance(g.adj, tuple)
    assert Graph(g.n, g.adj, g.name) == g


@given(graphs(max_n=10), st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_deleted_residues_pass_public_checks(g, remove):
    residue, _ = g.delete_vertices(remove & g.full_mask)
    assert_passes_public_checks(residue)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=3 * n))


@given(edge_lists())
@settings(max_examples=80, deadline=None)
def test_edge_list_graphs_pass_public_checks(case):
    n, edges = case
    assert_passes_public_checks(Graph.from_edges(n, edges))


def test_enumerated_trees_pass_public_checks():
    for n in range(1, 11):
        for t in _all_trees(n):
            assert_passes_public_checks(t)


def test_family_and_product_builders_pass_public_checks():
    built = full_corpus(10) + [
        pendant_path_tree(path(3), [Attach.P2, Attach.P4, Attach.P2]),
        random_split_graph(3, 4, 0.5, seed=7),
        disjoint_copies(cycle(4), 2),
        disjoint_union(path(3), star(2)),
    ]
    for g in built:
        assert_passes_public_checks(g)
