import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    CapacityError,
    GraphFormat,
    complete,
    cycle,
    emit_graph,
    parse_graph,
    path,
    petersen,
    star,
)
from semitotal.graphio import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6

from conftest import graphs
from corpus import family_corpus


def test_parse_edge_list_cycle():
    g = parse_graph("4\n0 1\n1 2\n2 3\n3 0\n", GraphFormat.EDGE_LIST)
    assert g.adj == cycle(4).adj


def test_parse_edge_list_comments_and_blanks():
    text = "# a square\n4\n\n0 1  # first edge\n1 2\n2 3\n3 0\n"
    assert parse_edge_list(text).adj == cycle(4).adj


def test_parse_edge_list_collapses_duplicates():
    g = parse_edge_list("3\n0 1\n1 0\n1 2\n")
    assert g.edge_count() == 2


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2.*self-loop"):
        parse_edge_list("2\n0 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("2\n0 1\n0 7\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_edge_list("# sizes\n3\n0 1\nnot an edge\n")
    with pytest.raises(ValueError, match="vertex count"):
        parse_edge_list("x\n")
    with pytest.raises(ValueError, match="no vertex count"):
        parse_edge_list("# nothing\n")
    with pytest.raises(CapacityError):
        parse_edge_list("70\n")


def test_emit_edge_list_is_sorted_and_zero_based():
    text = emit_edge_list(cycle(4))
    assert text == "4\n0 1\n0 3\n1 2\n2 3\n"


def test_graph6_known_value():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
    assert emit_graph6(g) == "D?{"


def test_graph6_header_is_accepted():
    assert parse_graph6(">>graph6<<D?{").adj == parse_graph6("D?{").adj


def test_graph6_rejects_bad_input():
    with pytest.raises(ValueError, match="outside"):
        parse_graph6("D?\x01")
    with pytest.raises(ValueError, match="groups"):
        parse_graph6("D?")
    with pytest.raises(CapacityError):
        parse_graph6("~?@@???")  # 65 vertices in the long form
    # sizes below 63 take one byte, so a long form of one is malformed, not too large
    for text in (chr(63 + 63) + "???", "~??I~~~~~~~w"):  # 0 vertices, and K10
        with pytest.raises(ValueError, match="malformed") as caught:
            parse_graph6(text)
        assert not isinstance(caught.value, CapacityError)
    with pytest.raises(ValueError, match="empty"):
        parse_graph6("   ")


def test_round_trip_family_graphs_both_formats():
    for g in family_corpus(8):
        for fmt in GraphFormat:
            assert parse_graph(emit_graph(g, fmt), fmt).adj == g.adj


def test_round_trip_petersen():
    for fmt in GraphFormat:
        assert parse_graph(emit_graph(petersen(), fmt), fmt).adj == petersen().adj


@given(graphs(min_n=0, max_n=64))
@settings(max_examples=80, deadline=None)
def test_round_trip_random(g):
    for fmt in GraphFormat:
        assert parse_graph(emit_graph(g, fmt), fmt).adj == g.adj


_GRAPH6_BYTES = st.characters(min_codepoint=63, max_codepoint=126)


@given(st.one_of(st.text(), st.text(alphabet="0123456789 -#\n"), st.text(alphabet=_GRAPH6_BYTES)),
       st.sampled_from(list(GraphFormat)))
@settings(max_examples=200, deadline=None)
def test_parse_graph_raises_only_value_errors(text, fmt):
    try:
        g = parse_graph(text, fmt)
    except ValueError:
        return
    assert 0 <= g.n <= 64


def test_round_trip_at_graph6_size_limit():
    for n in (62, 63, 64):
        for g in (complete(n), cycle(n)):
            assert parse_graph6(emit_graph6(g)).adj == g.adj
    # sizes 63 and 64 take the long form: '~' then the size in three 6-bit bytes
    assert emit_graph6(complete(63)).startswith("~??~")
    assert emit_graph6(complete(64)).startswith("~?@?")
    with pytest.raises(ValueError, match="three bytes"):
        parse_graph6("~?")


def test_all_five_vertex_graphs_round_trip():
    from itertools import combinations

    from semitotal import Graph

    pairs = list(combinations(range(5), 2))
    for bits in range(1 << len(pairs)):
        g = Graph.from_edges(5, [p for i, p in enumerate(pairs) if bits >> i & 1])
        assert parse_graph6(emit_graph6(g)).adj == g.adj
