import tracemalloc

import networkx as nx
import pytest

from semitotal import (
    CapacityError,
    Graph,
    book,
    cartesian,
    complete,
    complete_bipartite,
    corona,
    cycle,
    disjoint_copies,
    disjoint_union,
    friendship,
    join,
    path,
    rooted_product,
    star,
    wheel,
)

from conftest import to_nx


def iso(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_nx(g), to_nx(h))


def test_corona_size_and_small_cases():
    for g, h in [(path(3), complete(2)), (cycle(4), complete(1))]:
        assert corona(g, h).n == g.n * (1 + h.n)
    assert iso(corona(complete(1), complete(2)), complete(3))
    assert iso(corona(path(2), complete(1)), path(4))


def test_corona_copy_vertex_degrees():
    g, h = path(3), complete(2)
    big = corona(g, h)
    for i in range(g.n):
        off = g.n + i * h.n
        for t in range(h.n):
            assert big.degree(off + t) == h.degree(t) + 1


def test_cartesian_small_cases():
    assert iso(cartesian(path(2), path(2)), cycle(4))
    assert cartesian(path(3), cycle(4)).n == 12
    for n in range(1, 5):
        assert iso(cartesian(star(n), path(2)), book(n))


def test_join_small_cases():
    for n in range(4, 8):
        assert iso(join(complete(1), cycle(n - 1)), wheel(n))
    assert iso(join(complete(1), disjoint_copies(complete(2), 2)),
               friendship(2))
    e3 = Graph(3, [0, 0, 0])
    e2 = Graph(2, [0, 0])
    assert iso(join(e2, e3), complete_bipartite(2, 3))


def test_join_degrees():
    g, h = path(3), cycle(4)
    big = join(g, h)
    for u in range(g.n):
        assert big.degree(u) == g.degree(u) + h.n
    for v in range(h.n):
        assert big.degree(g.n + v) == h.degree(v) + g.n


def test_commutativity_up_to_isomorphism():
    pairs = [(path(3), cycle(4)), (complete(2), path(4)), (star(2), cycle(3))]
    for g, h in pairs:
        assert iso(join(g, h), join(h, g))
        assert iso(cartesian(g, h), cartesian(h, g))


def test_rooted_product_identity_cases():
    g = cycle(5)
    assert rooted_product(g, complete(1), 0).adj == g.adj
    h = path(4)
    assert iso(rooted_product(complete(1), h, 2), h)


def test_rooted_product_structure():
    big = rooted_product(path(5), cycle(4), 0)
    assert big.n == 20
    # every original path vertex lies on its own 4-cycle
    nxg = to_nx(big)
    for v in range(5):
        assert nxg.degree(v) == path(5).degree(v) + 2
    basis = nx.cycle_basis(nxg)
    assert sorted(len(c) for c in basis) == [4, 4, 4, 4, 4]


def test_rooted_product_anchor_out_of_range():
    with pytest.raises(ValueError):
        rooted_product(path(3), cycle(4), 4)


def test_products_reject_empty_factors():
    empty = Graph(0, [])
    with pytest.raises(ValueError):
        corona(empty, path(2))
    with pytest.raises(ValueError):
        cartesian(path(2), empty)


def test_disjoint_union_layout():
    g = disjoint_union(complete(2), complete(2))
    assert g.edges() == [(0, 1), (2, 3)]


@pytest.mark.parametrize("compose", [cartesian, corona, rooted_product, join, disjoint_union],
                         ids=lambda f: f.__name__)
def test_oversized_product_fails_before_building_edges(compose):
    k64 = complete(64)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            compose(k64, k64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
