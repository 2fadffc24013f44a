import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    BudgetExceededError,
    Conventions,
    EmptyGraphError,
    Graph,
    IsolatesError,
    RemovalPolicy,
    WitnessRule,
    bits_list,
    book,
    complete,
    complete_bipartite,
    cycle,
    domination_number,
    friendship,
    join,
    mask_from,
    path,
    semitotal,
    semitotal_stability,
    stability_witness,
    star,
    wheel,
)

from semitotal import domination, stability
from semitotal.domination import _solved_once
from semitotal.graph import _twin_classes as twin_class_masks
from semitotal.stability import _removal_sets

from conftest import graphs, relabeled
from corpus import full_corpus

EXACT = WitnessRule.EXACTLY_TWO
WITHIN = WitnessRule.WITHIN_TWO


def test_path6_example():
    assert stability_witness(path(6), EXACT) == (1, mask_from([0]))


def test_star_example():
    assert semitotal_stability(star(5), EXACT) == 1


def test_cycle10_example():
    assert semitotal_stability(cycle(10), EXACT) == 3


def test_friendship3_matches_its_table_value():
    k, witness = stability_witness(friendship(3), EXACT)
    assert k == 2
    assert bits_list(witness) == [1, 2]


def test_k55_example():
    k, witness = stability_witness(complete_bipartite(5, 5), EXACT)
    assert (k, bits_list(witness)) == (2, [0, 1])


def test_wheel8_is_one_via_rim_removal():
    k, witness = stability_witness(wheel(8), EXACT)
    assert k == 1
    # removing any rim vertex turns the rim into a path and drops the value
    assert bits_list(witness) == [1]


def test_policy_difference_on_p4():
    assert stability_witness(path(4), EXACT, policy=RemovalPolicy.SKIP_SET) == (2, mask_from([0, 1]))
    assert stability_witness(path(4), EXACT, policy=RemovalPolicy.COUNT_AS_CHANGED) == (1, mask_from([1]))


def test_unknown_policy_is_refused_before_any_work():
    # a policy code is not a policy; the empty graph shows nothing is checked first
    for search in (semitotal_stability, stability_witness):
        for g in (path(4), Graph(0, [])):
            with pytest.raises(ValueError, match="unknown removal policy"):
                search(g, EXACT, Conventions(), "changed")


def test_undefined_residues_are_skipped_not_counted():
    # deleting vertex 2 of P_7 leaves P_2 + P_4 whose exact-rule value is
    # undefined; SKIP_SET must pass over it and find the change at vertex 3.
    assert stability_witness(path(7), EXACT) == (1, mask_from([3]))
    assert stability_witness(path(7), EXACT, policy=RemovalPolicy.COUNT_AS_CHANGED) == (1, mask_from([1]))


def test_no_change_returns_none():
    # C_3 = K_3 with the convention: every proper residue is K_2 or skipped,
    # and gamma_t2 stays 1 throughout.
    assert semitotal_stability(cycle(3), EXACT) is None


def test_preconditions():
    with pytest.raises(EmptyGraphError):
        semitotal_stability(complete(1), EXACT)
    with pytest.raises(IsolatesError):
        semitotal_stability(Graph.from_edges(3, [(0, 1)]), EXACT)
    # no vertex count is refused as such
    assert semitotal_stability(path(17), EXACT) is not None


def test_search_is_self_consistent():
    # every smaller removal set leaves the value unchanged or is skipped
    for g in (path(9), cycle(8), complete_bipartite(3, 4)):
        base = domination_number(g, semitotal(EXACT))
        k, _ = stability_witness(g, EXACT)
        for size in range(1, k):
            for combo in combinations(range(g.n), size):
                residue, _ = g.delete_vertices(mask_from(combo))
                if residue.n == 0 or not residue.is_isolate_free():
                    continue
                value = domination_number(residue, semitotal(EXACT))
                if value is None:
                    continue
                assert value == base, (g.name, combo)


def test_invariant_under_relabeling(rng):
    for g in (path(8), cycle(9), wheel(7), complete_bipartite(2, 4)):
        base = semitotal_stability(g, EXACT)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert semitotal_stability(relabeled(g, perm), EXACT) == base


def test_within_rule_also_supported():
    # the wheel keeps value 2 under within-2 until the hub trick breaks
    assert semitotal_stability(wheel(9), WITHIN) == 1
    assert semitotal_stability(path(6), WITHIN) == 1


def test_convention_matters_for_tiny_residues():
    # C_4 -> P_2 residue is complete: value 1 under the convention (changed),
    # undefined without it (skipped), which shifts the witness search.
    on = stability_witness(cycle(4), EXACT, Conventions(True))
    off = stability_witness(cycle(4), EXACT, Conventions(False))
    assert on == (2, mask_from([0, 1]))
    assert off is None


def _reference_search(g, rule, conv, policy):
    """The search as first written: every removal set builds its residue graph."""
    if g.n < 2:
        raise EmptyGraphError("stability needs a graph on at least 2 vertices")
    if not g.is_isolate_free():
        raise IsolatesError("stability requires an isolate-free graph")
    base = domination_number(g, semitotal(rule), conv)
    cache = {}
    for k in range(1, g.n):
        for combo in combinations(range(g.n), k):
            removed = mask_from(combo)
            residue, _ = g.delete_vertices(removed)
            value = None
            if residue.n and residue.is_isolate_free():
                key = (residue.n, residue.adj)
                if key not in cache:
                    cache[key] = domination_number(residue, semitotal(rule), conv)
                value = cache[key]
            if value is None:
                if policy is RemovalPolicy.COUNT_AS_CHANGED:
                    return k, removed
            elif value != base:
                return k, removed
    return None


def _outcome(search, *args):
    try:
        return search(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _without_isolates(g):
    """g plus an edge from every isolated vertex to the next vertex."""
    extra = [(v, (v + 1) % g.n) for v in range(g.n) if not g.adj[v]]
    return Graph.from_edges(g.n, g.edges() + extra)


@given(
    graphs(min_n=2, max_n=9).map(_without_isolates),
    st.sampled_from(list(WitnessRule)),
    st.sampled_from(list(RemovalPolicy)),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_search_matches_reference_random(g, rule, policy, singleton):
    conv = Conventions(singleton)
    expected = _outcome(_reference_search, g, rule, conv, policy)
    assert _outcome(stability_witness, g, rule, conv, policy) == expected


@st.composite
def blown_up_graphs(draw):
    """A base graph on 2-5 vertices with each vertex replaced by a twin class.

    Each class has 1-3 vertices, pairwise adjacent (true twins) or not (false
    twins); the vertices are shuffled so that classes are not index runs.
    """
    base = draw(graphs(min_n=2, max_n=5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=base.n, max_size=base.n).filter(lambda s: sum(s) <= 10))
    cliques = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    classes, at = [], 0
    for size in sizes:
        classes.append(order[at:at + size])
        at += size
    edges = [(u, v) for c, clique in zip(classes, cliques) if clique for u, v in combinations(c, 2)]
    edges += [(u, v) for a, b in base.edges() for u in classes[a] for v in classes[b]]
    return _without_isolates(Graph.from_edges(n, edges))


@given(
    blown_up_graphs(),
    st.sampled_from(list(WitnessRule)),
    st.sampled_from(list(RemovalPolicy)),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_search_matches_reference_on_twin_rich_graphs(g, rule, policy, singleton):
    conv = Conventions(singleton)
    expected = _outcome(_reference_search, g, rule, conv, policy)
    assert _outcome(stability_witness, g, rule, conv, policy) == expected


def _twin_classes(g):
    """Classes of N(u) - v = N(v) - u, found pair by pair."""
    classes = []
    for v in range(g.n):
        for c in classes:
            u = c[0]
            if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def _twin_class_masks_by_definition(adj):
    """Each v's class as a mask, v and every twin u, testing every pair: O(n^2)."""
    return tuple(mask_from(u for u in range(len(adj)) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
                 for v in range(len(adj)))


@given(st.one_of(graphs(min_n=1, max_n=10), blown_up_graphs()))
@settings(max_examples=150, deadline=None)
def test_twin_classes_match_the_pairwise_definition(g):
    assert twin_class_masks(g.adj) == _twin_class_masks_by_definition(g.adj)


def test_twin_classes_match_the_pairwise_definition_on_the_corpus():
    for g in full_corpus():
        assert twin_class_masks(g.adj) == _twin_class_masks_by_definition(g.adj), g.name


@given(st.one_of(graphs(min_n=2, max_n=8), blown_up_graphs().filter(lambda g: g.n <= 8)))
@settings(max_examples=100, deadline=None)
def test_pruned_sets_are_least_in_their_twin_orbits(g):
    # Twin swaps fix every class, so a set's orbit is every set that meets
    # each class in as many vertices; the least combination stands for it.
    classes = _twin_classes(g)
    for k in range(1, g.n):
        least = {}
        for combo in combinations(range(g.n), k):
            least.setdefault(tuple(len(set(c) & set(combo)) for c in classes), combo)
        sets = [mask for mask, _ in _removal_sets(g.adj, twin_class_masks(g.adj), k)]
        assert sets == [mask_from(c) for c in sorted(least.values())]


@pytest.mark.parametrize("m,n", [(1, 2), (1, 6), (2, 2), (3, 5), (4, 4), (6, 7)])
def test_kmn_scans_one_set_per_class_profile(m, n):
    g = complete_bipartite(m, n)
    twins = twin_class_masks(g.adj)
    assert sum(1 for k in range(1, g.n) for _ in _removal_sets(g.adj, twins, k)) == (m + 1) * (n + 1) - 2


def test_kmn_past_the_full_scan_reach():
    assert stability_witness(complete_bipartite(10, 10), WITHIN) == (18, 523775)


def test_scan_is_refused_past_the_set_bound(monkeypatch):
    # C10 has no twins, and under exact2 its base is 4, so no certificate
    # cuts the scan: its hit at k = 3 is the 56th set scanned
    g = cycle(10)
    monkeypatch.setattr("semitotal.stability._MAX_SETS", 56)
    assert stability_witness(g, EXACT) == (3, 7)
    monkeypatch.setattr("semitotal.stability._MAX_SETS", 55)
    with pytest.raises(BudgetExceededError, match="passed 55 removal sets at size 3"):
        stability_witness(g, EXACT)
    with pytest.raises(BudgetExceededError):
        semitotal_stability(g, EXACT)


def test_certificates_cut_the_twin_free_join_scan(monkeypatch):
    # P7 v P7 has no twins, and without certificates its hit at k = 7 is the
    # 6,476th set scanned; every pair of one vertex from each side dominates.
    monkeypatch.setattr("semitotal.stability._MAX_SETS", 382)
    assert stability_witness(join(path(7), path(7)), WITHIN) == (7, 127)


# The removal sets stability_witness scans, within2 then exact2, with the
# hits they end at.  K4,7 under within2 scans 35 when certificates are lifted
# to the bottom of their twin classes in place of the top.
SCANNED = [
    (join(path(6), path(7)), (172, (6, 63)), (1, (1, 2))),
    (join(path(8), path(9)), (298, (8, 255)), (18, (2, 3))),
    (complete_bipartite(4, 7), (9, (9, 1015)), (1, (1, 1))),
    (friendship(5), (1, (1, 1)), (12, (2, 6))),
    (book(5), (1, (1, 1)), (1, (1, 1))),
    (cycle(12), (13, (2, 3)), (13, (2, 3))),
]


@pytest.mark.parametrize("g,within,exact", SCANNED, ids=[g.name for g, _, _ in SCANNED])
def test_scan_visits_no_more_removal_sets_than_recorded(monkeypatch, g, within, exact):
    # the twin rule and the certificate cut must keep the same hit while
    # scanning at most as many sets
    scan, scanned = stability._removal_sets, []

    def counting(key, twins, k, certs=(), removed=0, depth=0, first=0):
        for item in scan(key, twins, k, certs, removed, depth, first):
            scanned[-1] += depth == 0
            yield item

    monkeypatch.setattr(stability, "_removal_sets", counting)
    for rule, (most, hit) in zip((WITHIN, EXACT), (within, exact)):
        scanned.append(0)
        assert stability_witness(g, rule) == hit, (g.name, rule)
        assert scanned[-1] <= most, (g.name, rule)


@st.composite
def joins(draw):
    """The join of two graphs on 1-5 vertices each, its vertices shuffled."""
    g = join(draw(graphs(min_n=1, max_n=5)), draw(graphs(min_n=1, max_n=5)))
    return relabeled(g, draw(st.permutations(range(g.n))))


@given(
    st.one_of(joins(), blown_up_graphs()),
    st.sampled_from(list(WitnessRule)),
    st.sampled_from(list(RemovalPolicy)),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_certificate_cut_matches_reference(g, rule, policy, singleton):
    # Joins are where pairs that dominate the whole graph abound; blown-up
    # graphs are where certificates are lifted through twin classes.
    conv = Conventions(singleton)
    expected = _outcome(_reference_search, g, rule, conv, policy)
    assert _outcome(stability_witness, g, rule, conv, policy) == expected


@pytest.mark.parametrize("g", [path(7), cycle(8), complete_bipartite(3, 4), wheel(7)], ids=lambda g: g.name)
def test_incremental_keys_match_deleted_residues(g):
    for k in range(1, g.n):
        sets = list(_removal_sets(g.adj, tuple(1 << v for v in range(g.n)), k))
        assert [mask for mask, _ in sets] == [mask_from(c) for c in combinations(range(g.n), k)]
        for mask, key in sets:
            assert key == g.delete_vertices(mask)[0].adj, (g.name, bits_list(mask))


@pytest.mark.parametrize("g", [complete_bipartite(3, 4), star(6), friendship(3)], ids=lambda g: g.name)
def test_twin_pruned_keys_match_deleted_residues(g):
    # Skipped branches must not shift the keys of the sets that are kept.
    twins = twin_class_masks(g.adj)
    for k in range(1, g.n):
        for mask, key in _removal_sets(g.adj, twins, k):
            assert key == g.delete_vertices(mask)[0].adj, (g.name, bits_list(mask))


def _search_peak(g):
    tracemalloc.start()
    try:
        hit = stability_witness(g, WITHIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit is not None
    return peak


def test_search_memory_stays_small():
    # Keys are built one path at a time, never a whole size level at once.
    # K7,7 has two twin classes of 7, so at most 8 * 8 - 2 = 62 removal sets
    # are scanned.
    peak = _search_peak(complete_bipartite(7, 7))
    assert peak < 1 << 19, peak


def test_twin_free_search_memory_stays_small():
    # No twins: 202 removal sets are scanned before the hit at k = 7.
    peak = _search_peak(join(path(7), path(7)))
    assert peak < 1 << 19, peak


def _agrees_with_reference(g):
    for rule in WitnessRule:
        for policy in RemovalPolicy:
            for singleton in (True, False):
                args = (g, rule, Conventions(singleton), policy)
                assert _outcome(stability_witness, *args) == _outcome(_reference_search, *args), args[1:4]


_SOLVE = domination._solve


def _number_only(g, variant):
    # as when the number comes from the dynamic program, which finds no set
    return _SOLVE(g, variant)[0], None


@given(st.one_of(graphs(min_n=2, max_n=8).map(_without_isolates), blown_up_graphs().filter(lambda g: g.n <= 8)))
@settings(max_examples=30, deadline=None)
def test_search_with_a_run_table_matches_reference(g):
    # One table serves every rule, policy and convention, as in a run; it
    # holds raw numbers, so the complete-graph gate must come first.
    combos = [(g, rule, Conventions(singleton), policy)
              for rule in WitnessRule for policy in RemovalPolicy for singleton in (True, False)]
    expected = [_outcome(_reference_search, *args) for args in combos]
    assert [_outcome(stability_witness, *args) for args in combos] == expected
    with _solved_once():
        for _ in range(2):  # the second pass finds every solved residue in the table
            assert [_outcome(stability_witness, *args) for args in combos] == expected
    with _solved_once(), mock.patch.object(domination, "_solve", _number_only):
        # the reference stores a number without a set for every residue it solves
        assert [_outcome(_reference_search, *args) for args in combos] == expected
        assert [_outcome(stability_witness, *args) for args in combos] == expected


def test_screen_leaves_complete_residues_to_the_gate():
    # A triangle with a pendant vertex at two of its corners.  Removing both
    # pendants leaves K3: its value is 1 by the convention, although the
    # base optimum {0, 2} is still a valid pair there.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3)])
    assert stability_witness(g, WITHIN, Conventions(True)) == (2, mask_from([3, 4]))
    assert stability_witness(g, WITHIN, Conventions(False)) is None
    _agrees_with_reference(g)


def test_screen_needs_the_exact2_common_neighbour_left_in_place():
    # A triangle 1-2-3 with the path 3-4-0.  The optimum of the residue
    # without 0 is {1, 4}, a pair at distance 2 only through 3.  Removing 3
    # leaves two K2 components, which have no exact2 set, so COUNT_AS_CHANGED
    # stops there.
    g = Graph.from_edges(5, [(0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
    for singleton in (True, False):
        assert stability_witness(g, EXACT, Conventions(singleton), RemovalPolicy.COUNT_AS_CHANGED) == (1, 1 << 3)
    assert domination_number(g.delete_vertices(1 << 3)[0], semitotal(EXACT)) is None
    _agrees_with_reference(g)


def test_screen_needs_the_within2_common_neighbour_left_in_place():
    g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3)])  # the path 3-2-1-0-4
    _agrees_with_reference(g)


def test_screen_needs_the_packing_bound():
    # P6: a base-size pool set survives removals that lower the value.
    _agrees_with_reference(Graph.from_edges(6, [(0, 1), (0, 5), (2, 3), (3, 4), (4, 5)]))


@pytest.mark.parametrize("g", [path(7), path(9), star(4), friendship(3), wheel(6),
                               Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])],
                         ids=lambda g: g.name or "two-triangles")
def test_count_as_changed_with_residues_outside_the_domain(g):
    # Each graph has residues with isolated vertices or without any exact2
    # set, and under COUNT_AS_CHANGED the first hit is one of them (for W6
    # only at k = 3, after many screened residues).
    hit = stability_witness(g, EXACT, policy=RemovalPolicy.COUNT_AS_CHANGED)
    residue = g.delete_vertices(hit[1])[0]
    assert not residue.is_isolate_free() or domination_number(residue, semitotal(EXACT)) is None
    _agrees_with_reference(g)


def test_screen_settles_most_join_residues(monkeypatch):
    # Every residue of P7 v P7 with both sides left has the base value 2;
    # building each one took 850 residue graphs.
    calls = []
    original = Graph.delete_vertices

    def counted(self, remove):
        calls.append(remove)
        return original(self, remove)

    monkeypatch.setattr(Graph, "delete_vertices", counted)
    assert stability_witness(join(path(7), path(7)), WITHIN) == (7, 127)
    assert 0 < len(calls) <= 50, len(calls)


@pytest.mark.parametrize("search", [stability_witness, semitotal_stability])
def test_base_graph_is_searched_once(monkeypatch, search):
    # The base number's level already finds C7's optimal set under exact2;
    # the pool takes that set from the table instead of searching the level again.
    calls = []
    levels = domination._levels

    def counted(g, variant, start=None):
        calls.append((g.n, start))
        return levels(g, variant, start)

    monkeypatch.setattr(domination, "_levels", counted)
    search(cycle(7), EXACT)
    assert [call for call in calls if call[0] == 7] == [(7, None)]
    assert domination._solved.get() is None


def test_search_fills_an_enclosing_table():
    # Inside a run's table the search adds to that table rather than to its own.
    with _solved_once():
        stability_witness(cycle(7), EXACT)
        table = domination._solved.get()
        assert (cycle(7).adj, semitotal(EXACT)) in table
        assert (path(6).adj, semitotal(EXACT)) in table  # C7 less one vertex
