import json
import random
import time
import tracemalloc
from functools import reduce
from itertools import combinations, islice
from math import comb
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitotal import (
    BudgetExceededError,
    Conventions,
    CountPolynomial,
    EmptyGraphError,
    Graph,
    IsolatesError,
    PLAIN,
    SEMITOTAL_EXACT,
    SEMITOTAL_WITHIN,
    TOTAL,
    Variant,
    WitnessRule,
    bits_list,
    book,
    brute_force_number,
    cartesian,
    complete,
    complete_bipartite,
    count_by_size,
    cycle,
    disjoint_copies,
    domination_number,
    friendship,
    is_dominating,
    is_semitotal,
    is_total_dominating,
    mask_from,
    minimum_sets,
    path,
    petersen,
    semitotal,
    star,
    wheel,
)
import semitotal.domination as domination
from semitotal.domination import (
    _allowed,
    _counting_bound,
    _cover,
    _gate_applies,
    _is_valid,
    _least_size,
    _masks,
    _minimum_set,
    _solved_once,
    _valid_sets,
)

from conftest import graphs, relabeled, to_nx
from corpus import family_corpus, full_corpus

ALL_VARIANTS = (PLAIN, TOTAL, SEMITOTAL_WITHIN, SEMITOTAL_EXACT)
# the variant names of the benchmark's expected-value files
VARIANT_NAMES = {"plain": PLAIN, "total": TOTAL, "within2": SEMITOTAL_WITHIN, "exact2": SEMITOTAL_EXACT}
EXPECTED_DIR = Path(__file__).parents[1] / "perfbench/expected"
OFF = Conventions(complete_singleton=False)


def valid_masks(g, variant):
    """Independent reference enumeration using only the membership predicates."""
    out = []
    for m in range(1, 1 << g.n):
        if variant.kind == "plain":
            ok = is_dominating(g, m)
        elif variant.kind == "total":
            ok = is_total_dominating(g, m)
        else:
            ok = is_semitotal(g, m, variant.rule)
        if ok:
            out.append(m)
    return out


# -- predicates -----------------------------------------------------------


def test_is_dominating_examples():
    assert is_dominating(cycle(4), mask_from([0, 2]))
    assert is_dominating(path(5), mask_from([1, 3]))
    assert not is_dominating(path(3), 0)
    with pytest.raises(EmptyGraphError):
        is_dominating(Graph(0, []), 0)


def test_is_total_dominating_examples():
    assert is_total_dominating(path(4), mask_from([1, 2]))
    assert not is_total_dominating(cycle(4), mask_from([0, 2]))
    assert not is_total_dominating(complete(2), mask_from([0]))
    with pytest.raises(IsolatesError):
        is_total_dominating(Graph.from_edges(3, [(0, 1)]), 0b111)
    # the empty graph is refused as empty, as by every other entry point
    with pytest.raises(EmptyGraphError):
        is_total_dominating(Graph(0, []), 0)


def test_semitotal_shares_one_variant_per_rule():
    assert semitotal() is SEMITOTAL_WITHIN
    assert semitotal(WitnessRule.WITHIN_TWO) is SEMITOTAL_WITHIN
    assert semitotal(WitnessRule.EXACTLY_TWO) is SEMITOTAL_EXACT
    for rule in (None, "within2"):
        with pytest.raises(ValueError, match="unknown witness rule"):
            semitotal(rule)
    # the four codes of the CLI and the benchmark, and no other
    for code, variant in VARIANT_NAMES.items():
        assert Variant(code) is variant
        assert variant.rule is (None if code in ("plain", "total") else WitnessRule(code))
        assert variant.kind == (code if variant.rule is None else "semitotal")
        assert hash(variant) == object.__hash__(variant)
    assert set(Variant) == set(ALL_VARIANTS)
    for code in ("semitotal", "bogus"):
        with pytest.raises(ValueError):
            Variant(code)


def test_masks_match_the_distances():
    for g in full_corpus(10):
        near = [[g.distance(u, v) for v in range(g.n)] for u in range(g.n)]
        closed = [mask_from(v for v in range(g.n) if near[u][v] <= 1) for u in range(g.n)]
        open_ = [row & ~(1 << u) for u, row in enumerate(closed)]
        within = [mask_from(v for v in range(g.n) if 1 <= near[u][v] <= 2) for u in range(g.n)]
        exact = [mask_from(v for v in range(g.n) if near[u][v] == 2) for u in range(g.n)]
        expected = {PLAIN: (closed, None), TOTAL: (open_, None),
                    SEMITOTAL_WITHIN: (closed, within), SEMITOTAL_EXACT: (closed, exact)}
        for variant, (cover, witness) in expected.items():
            got = _masks(g, variant)
            assert list(got[0]) == cover
            assert (got[1] if got[1] is None else list(got[1])) == witness


@given(graphs(min_n=1, max_n=10), st.data())
@settings(max_examples=150, deadline=None)
def test_is_valid_less_a_removal_set_matches_the_residue(g, data):
    # The stability screen tests a set in g - R without building the residue:
    # the answer must be the residue's, on its re-indexed members.
    for variant in ALL_VARIANTS:
        removed = data.draw(st.integers(0, g.full_mask))
        drawn = data.draw(st.integers(0, g.full_mask))
        if drawn & removed:
            assert not _is_valid(g, variant, drawn, removed)
        residue, old_to_new = g.delete_vertices(removed)
        members = drawn & ~removed
        image = mask_from(old_to_new[v] for v in bits_list(members))
        assert _is_valid(g, variant, members, removed) == _is_valid(residue, variant, image), \
            (g.edges(), variant, members, removed)


def test_is_valid_finds_no_witness_through_a_removed_vertex():
    # in P3 the ends witness each other only through the middle vertex
    ends, middle = mask_from([0, 2]), mask_from([1])
    for variant in (SEMITOTAL_WITHIN, SEMITOTAL_EXACT):
        assert _is_valid(path(3), variant, ends)
        assert not _is_valid(path(3), variant, ends, middle)
    assert _is_valid(path(3), PLAIN, ends, middle)


def test_is_semitotal_examples():
    c4 = cycle(4)
    pair = mask_from([0, 1])
    assert is_semitotal(c4, pair, WitnessRule.WITHIN_TWO)
    assert not is_semitotal(c4, pair, WitnessRule.EXACTLY_TWO)
    leaves = mask_from([1, 2, 3])
    assert is_semitotal(star(3), leaves, WitnessRule.EXACTLY_TWO)
    for rule in WitnessRule:
        with pytest.raises(EmptyGraphError):
            is_semitotal(Graph(0, []), 0, rule)


@pytest.mark.parametrize("rule", list(WitnessRule), ids=lambda rule: rule.value)
def test_semitotal_predicate_builds_no_witness_masks(rule):
    # _is_valid finds witnesses from g.adj, so the distance-2 masks that only
    # the engines read stay unbuilt, for two dominating sets, whose witnesses
    # are looked for (one has none under exact2), and for one that is not
    for members in (mask_from([0, 1]), mask_from([0, 3]), mask_from([0])):
        g = cycle(4)
        is_semitotal(g, members, rule)
        assert g._ball2 is None and g._sphere2 is None, bits_list(members)
        _is_valid(g, semitotal(rule), members, mask_from([2]))
        assert g._ball2 is None and g._sphere2 is None, bits_list(members)


def test_singletons_never_semitotal_via_predicate():
    for rule in WitnessRule:
        assert not is_semitotal(complete(3), mask_from([0]), rule)


@pytest.mark.parametrize("predicate", [
    is_dominating,
    is_total_dominating,
    lambda g, members: is_semitotal(g, members, WitnessRule.WITHIN_TWO),
], ids=["dominating", "total", "semitotal"])
@pytest.mark.parametrize("members", [0b1000, 0b1001, -1])
def test_predicates_reject_members_outside_the_graph(predicate, members):
    with pytest.raises(ValueError, match="outside the graph"):
        predicate(path(3), members)


# -- numbers --------------------------------------------------------------


def test_number_examples():
    for rule in WitnessRule:
        assert domination_number(path(5), semitotal(rule)) == 2
    assert domination_number(complete(5), SEMITOTAL_EXACT) == 1
    assert domination_number(complete(5), SEMITOTAL_EXACT, OFF) is None
    assert domination_number(complete_bipartite(2, 3), SEMITOTAL_EXACT) == 2
    assert domination_number(path(10), PLAIN) == 4
    for rule in WitnessRule:
        assert domination_number(path(10), semitotal(rule)) == 4


def test_brute_force_examples():
    assert brute_force_number(petersen(), PLAIN) == 3
    assert brute_force_number(petersen(), SEMITOTAL_EXACT) == 3
    assert brute_force_number(cycle(6), SEMITOTAL_WITHIN) == 3


def test_brute_force_budget():
    # no vertex count is refused as such: the 880,969 nonempty subsets of P23
    # of size at most 8 stay within _MAX_SETS
    assert brute_force_number(path(23), PLAIN) == 8


def test_brute_force_refuses_before_the_size_past_the_bound(monkeypatch):
    # P6 has 6 singletons and 15 pairs, and its plain number is 2
    monkeypatch.setattr(domination, "_MAX_SETS", 21)
    assert brute_force_number(path(6), PLAIN) == 2
    monkeypatch.setattr(domination, "_MAX_SETS", 20)
    sizes = []
    valid = domination._is_valid
    monkeypatch.setattr(domination, "_is_valid", lambda g, v, m: sizes.append(m.bit_count()) or valid(g, v, m))
    with pytest.raises(BudgetExceededError, match="15 candidate sets of size 2"):
        brute_force_number(path(6), PLAIN)
    assert sizes == [1] * 6


def test_brute_force_applies_the_convention_before_its_bound():
    # 2^30 subsets would pass _MAX_SETS, but K30 has the conventional value
    assert domination_number(complete(30), SEMITOTAL_WITHIN) == 1
    assert brute_force_number(complete(30), SEMITOTAL_WITHIN) == 1


def test_empty_and_isolate_errors():
    empty = Graph(0, [])
    for op in (domination_number, brute_force_number):
        with pytest.raises(EmptyGraphError):
            op(empty, PLAIN)
    lonely = Graph.from_edges(3, [(0, 1)])
    for variant in (TOTAL, SEMITOTAL_WITHIN, SEMITOTAL_EXACT):
        with pytest.raises(IsolatesError):
            domination_number(lonely, variant)
    assert domination_number(lonely, PLAIN) == 2


def test_complete_gate_precedes_isolate_check():
    # K1 is complete: the convention applies even though it has no neighbor.
    assert domination_number(complete(1), SEMITOTAL_WITHIN) == 1
    with pytest.raises(IsolatesError):
        domination_number(complete(1), SEMITOTAL_WITHIN, OFF)


def test_disconnected_complete_component_is_undefined_under_exact_rule():
    two_k2 = disjoint_copies(complete(2), 2)
    assert domination_number(two_k2, SEMITOTAL_EXACT) is None
    assert brute_force_number(two_k2, SEMITOTAL_EXACT) is None
    # witnesses never cross components, so within-2 needs both whole copies
    assert domination_number(two_k2, SEMITOTAL_WITHIN) == 4


def test_minimum_sets_examples():
    assert minimum_sets(star(3), SEMITOTAL_EXACT) == [mask_from([1, 2, 3])]
    assert [bits_list(m) for m in minimum_sets(cycle(4), SEMITOTAL_EXACT)] == [[0, 2], [1, 3]]
    assert minimum_sets(path(3), PLAIN) == [mask_from([1])]
    assert minimum_sets(complete(4), SEMITOTAL_EXACT, limit=2) == [0b1, 0b10]
    assert minimum_sets(complete(3), SEMITOTAL_EXACT, OFF) == []


def test_minimum_sets_refuses_an_unbounded_enumeration():
    # C(28, 12) = 30,421,755 candidate sets of the optimal size pass 2^22
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="candidate sets of size 12"):
        minimum_sets(path(28), SEMITOTAL_WITHIN, limit=1)
    assert time.perf_counter() - start < 0.1


def test_minimum_sets_rejects_a_negative_limit():
    # the convention decides K4, not P5; both are refused alike
    for g in (path(5), complete(4)):
        with pytest.raises(ValueError, match="limit must be at least 0, got -1"):
            minimum_sets(g, SEMITOTAL_WITHIN, limit=-1)


def test_minimum_sets_of_p20_are_the_lexicographically_first():
    g = path(20)
    first = (mask_from(c) for c in combinations(range(20), 8))
    expected = list(islice((m for m in first if is_semitotal(g, m, WitnessRule.WITHIN_TWO)), 5))
    assert minimum_sets(g, SEMITOTAL_WITHIN, limit=5) == expected


def test_minimum_sets_are_valid_and_optimal():
    for g in (path(7), cycle(8), complete_bipartite(3, 4), friendship(3)):
        for variant in ALL_VARIANTS:
            opt = domination_number(g, variant)
            sets = minimum_sets(g, variant, limit=50)
            valid = set(valid_masks(g, variant))
            assert sets, (g.name, variant)
            for m in sets:
                assert m.bit_count() == opt
                assert m in valid


# -- oracle agreement -----------------------------------------------------


@given(graphs(min_n=1, max_n=11))
@settings(max_examples=80, deadline=None)
def test_solver_matches_brute_force_random(g):
    for variant in ALL_VARIANTS:
        for conv in (Conventions(), OFF):
            try:
                expected = brute_force_number(g, variant, conv)
            except IsolatesError:
                with pytest.raises(IsolatesError):
                    domination_number(g, variant, conv)
                continue
            assert domination_number(g, variant, conv) == expected


@given(graphs(min_n=1, max_n=10))
@settings(max_examples=150, deadline=None)
def test_minimum_set_is_valid_and_optimal_random(g):
    # domination_number counts the set _minimum_set returns; the convention
    # only puts the complete-graph gate in front of it.
    for variant in ALL_VARIANTS:
        for conv in (Conventions(), OFF):
            try:
                expected = brute_force_number(g, variant, conv)
            except IsolatesError:
                continue  # _minimum_set runs only after the precondition
            if _gate_applies(g, variant, conv):
                assert expected == domination_number(g, variant, conv) == 1
                continue
            best = _minimum_set(g, variant)
            if expected is None:
                assert best is None, (g.edges(), variant)
            else:
                assert best is not None and _is_valid(g, variant, best), (g.edges(), variant)
                assert best.bit_count() == expected, (g.edges(), variant)


def _set_at_level(g, variant, number):
    """``_minimum_set`` with the number, and no set, in the run's table."""
    with _solved_once():
        domination._solved.get()[g.adj, variant] = (number, None)
        return _minimum_set(g, variant)


@given(graphs(min_n=1, max_n=9))
@settings(max_examples=100, deadline=None)
def test_minimum_set_is_the_same_from_a_known_number_and_from_a_run_table(g):
    # A number in the run table makes the deepening search only that level,
    # the call the full deepening ends with.  The number may come without a
    # set, as from the dynamic program; the set is then searched at that level.
    for variant in ALL_VARIANTS:
        if variant is not PLAIN and not g.is_isolate_free():
            continue
        best = _minimum_set(g, variant)
        number = None if best is None else best.bit_count()
        if number is not None:
            assert _set_at_level(g, variant, number) == best
        with _solved_once():
            for _ in range(2):  # solved, then found in the table
                assert domination_number(g, variant, OFF) == number
                assert _minimum_set(g, variant) == best
        with _solved_once(), mock.patch.object(domination, "_solve", lambda h, v: (number, None)):
            assert domination_number(g, variant, OFF) == number
            assert _minimum_set(g, variant) == best
            assert domination._solved.get()[g.adj, variant] == (number, best)


def test_solver_matches_brute_force_sixteen_vertices():
    from semitotal import join

    big = [path(16), cycle(16), complete_bipartite(8, 8), wheel(16),
           friendship(7), join(path(7), path(9))]
    for g in big:
        for variant in ALL_VARIANTS:
            assert domination_number(g, variant) == brute_force_number(g, variant)


def test_solver_is_label_invariant_on_paper_families():
    # the branching order depends on vertex labels; the value must not
    for g in (path(30), cycle(30), cartesian(path(4), path(9))):
        for variant in (SEMITOTAL_WITHIN, SEMITOTAL_EXACT):
            natural = domination_number(g, variant)
            for seed in range(4):
                perm = list(range(g.n))
                random.Random(seed).shuffle(perm)
                assert domination_number(relabeled(g, perm), variant) == natural, (g.n, variant, seed)


def test_paths_and_cycles_beyond_oracle_range():
    # up to the 64-vertex word limit, P45 and P50 included
    for n in range(16, 65):
        expected = -(-2 * n // 5)
        for rule in WitnessRule:
            assert domination_number(path(n), semitotal(rule)) == expected, (n, rule)
            assert domination_number(cycle(n), semitotal(rule)) == expected, (n, rule)


def test_solve_workload_values_match_committed_values():
    # The benchmark's solve gate on its natural instances, run here so that
    # tier-1 sees it too.
    expected = json.loads((EXPECTED_DIR / "solve.json").read_text())
    instances = {
        "P16": path(16), "C16": cycle(16), "P4xP4": cartesian(path(4), path(4)),
        "P35": path(35), "P40": path(40), "C35": cycle(35), "C40": cycle(40),
        "P6xP6": cartesian(path(6), path(6)), "P7xP7": cartesian(path(7), path(7)),
    }
    for label, g in instances.items():
        for name, variant in VARIANT_NAMES.items():
            assert domination_number(g, variant) == expected[label][name], (label, name)


# -- the branch and bound past the oracle's range --------------------------


@pytest.mark.parametrize("a, b, expected", [
    (5, 10, {"plain": 13, "total": 16, "within2": 14, "exact2": 14}),
    (8, 8, {"plain": 16, "total": 20, "within2": 18}),
])
def test_search_matches_the_lowest_count_on_large_grids(a, b, expected):
    # Far beyond the brute-force oracle, the counting program is the second
    # exact method: the deepening's set must be valid and as small as the
    # lowest size with a nonzero count.
    g = cartesian(path(a), path(b))
    for name, number in expected.items():
        variant = VARIANT_NAMES[name]
        best = next(filter(None, domination._levels(g, variant)))
        assert _is_valid(g, variant, best), name
        counts = count_by_size(g, variant, OFF)
        assert best.bit_count() == next(k for k in range(g.n + 1) if counts[k]) == number, name


def test_set_at_the_known_level_matches_the_full_deepening():
    # Each deepening level is searched on its own, so the level of the known
    # number gives the set the full deepening ends with.  The relabelled
    # P4xP9 take the permutations of the benchmark's solve workload (seed 801).
    expected = json.loads((EXPECTED_DIR / "solve.json").read_text())
    cases = [("P6xP6", cartesian(path(6), path(6))), ("P7xP7", cartesian(path(7), path(7)))]
    grid = cartesian(path(4), path(9))
    for k in range(3):
        perm = list(range(grid.n))
        random.Random(f"801:P4xP9:{k}").shuffle(perm)
        cases.append(("P4xP9", relabeled(grid, perm)))
    for label, g in cases:
        for name in ("within2", "exact2"):
            variant, number = VARIANT_NAMES[name], expected[label][name]
            best = next(filter(None, domination._levels(g, variant)))
            assert _is_valid(g, variant, best) and best.bit_count() == number, (label, name)
            assert _set_at_level(g, variant, number) == best, (label, name)


# -- the counting bound ---------------------------------------------------


@given(graphs(min_n=1, max_n=10))
@settings(max_examples=150, deadline=None)
def test_counting_bound_never_exceeds_the_oracle(g):
    for variant in ALL_VARIANTS:
        try:
            expected = brute_force_number(g, variant, OFF)
        except IsolatesError:
            continue
        if expected is not None:
            assert _counting_bound(g, variant)[g.n] <= expected, (g.edges(), variant)


def test_counting_bound_is_tight_on_paths_and_cycles():
    # ceil(2n/5) from n = 4 on; below that P2 (largest closed neighbourhood
    # 2) gives 2 and C3 has no exact2 witness at all.
    for n in range(4, 65):
        for rule in WitnessRule:
            for g in (path(n), cycle(n)):
                assert _counting_bound(g, semitotal(rule))[n] == -(-2 * n // 5), (g.name, rule)


def assert_root_bound_needs_a_witness(g):
    # when every vertex has a candidate, the counting bound alone starts the
    # deepening at 2 or more under semitotal, where a singleton has no witness
    for variant in ALL_VARIANTS:
        allowed = _allowed(g, variant)
        if all(row & allowed for row in _cover(g, variant)):
            least = 1 if variant.rule is None else 2
            assert _counting_bound(g, variant)[g.n] >= least, (g.name, g.edges(), variant)


def test_root_bound_needs_a_witness_on_the_corpus():
    for g in full_corpus():
        assert_root_bound_needs_a_witness(g)


@given(graphs(min_n=1, max_n=12))
@settings(max_examples=150, deadline=None)
def test_root_bound_needs_a_witness_random(g):
    assert_root_bound_needs_a_witness(g)


def test_minimum_set_on_near_tight_graphs():
    grids = [cartesian(path(a), path(b)) for a in range(2, 5) for b in range(a, 9) if a * b <= 16]
    hypercube = reduce(cartesian, [path(2)] * 4)
    for g in grids + [cartesian(cycle(3), cycle(4)), hypercube, petersen()]:
        for variant in ALL_VARIANTS:
            best = _minimum_set(g, variant)
            assert best is not None and _is_valid(g, variant, best), (g.name, variant)
            assert best.bit_count() == brute_force_number(g, variant, OFF), (g.name, variant)


def test_solver_matches_reference_enumeration_small():
    for g in (path(5), cycle(5), star(4), complete_bipartite(2, 3), friendship(2)):
        for variant in ALL_VARIANTS:
            ref = valid_masks(g, variant)
            expected = min((m.bit_count() for m in ref), default=None)
            assert domination_number(g, variant, OFF) == expected


# -- the number from the frontier dynamic program ------------------------

# the grids of the benchmark's solve workload
SOLVE_GRIDS = {"P4xP9": (4, 9), "P6xP6": (6, 6), "P7xP7": (7, 7)}


@given(graphs(min_n=1, max_n=12))
@settings(max_examples=120, deadline=None)
def test_least_size_matches_brute_force_random(g):
    for variant in ALL_VARIANTS:
        if variant.kind != "plain" and not g.is_isolate_free():
            continue
        assert _least_size(g, variant) == brute_force_number(g, variant, OFF), (g.edges(), variant)


def test_least_size_is_the_lowest_count():
    for g in full_corpus(12):
        for variant in ALL_VARIANTS:
            if variant.kind != "plain" and not g.is_isolate_free():
                continue
            counts = count_by_size(g, variant, OFF)
            lowest = next((k for k in range(g.n + 1) if counts[k]), None)
            assert _least_size(g, variant) == lowest, (g.name, variant)


def _least_size_runs(g, variant):
    """``_least_size`` with a beam of one state and with no beam bound (a
    beam of none), each also told when the deepening refuted its first level."""
    refuted = next(domination._levels(g, variant), 0) is None
    answers = []
    for width in (1, 0):
        with mock.patch.object(domination, "_BEAM_WIDTH", width):
            answers.append(_least_size(g, variant))
            if refuted:
                answers.append(_least_size(g, variant, True))
    return answers


@given(graphs(min_n=1, max_n=12))
@settings(max_examples=120, deadline=None)
def test_least_size_is_exact_whatever_the_beam_finds_random(g):
    # The decision pass alone makes the answer exact.  A beam of one state
    # often ends above the number or finds no set, so this catches a bound one
    # too large, ``<=`` for ``<`` on the member branch and a return of the
    # beam's size without the decision pass.
    for variant in ALL_VARIANTS:
        if variant.kind != "plain" and not g.is_isolate_free():
            continue
        expected = brute_force_number(g, variant, OFF)
        assert set(_least_size_runs(g, variant)) == {expected}, (g.edges(), variant)


def test_least_size_is_exact_whatever_the_beam_finds_on_the_corpus():
    for g in full_corpus(12):
        for variant in ALL_VARIANTS:
            if variant.kind != "plain" and not g.is_isolate_free():
                continue
            counts = count_by_size(g, variant, OFF)
            lowest = next((k for k in range(g.n + 1) if counts[k]), None)
            assert set(_least_size_runs(g, variant)) == {lowest}, (g.name, variant)


def test_least_size_of_relabelled_grids_matches_committed_values():
    expected = json.loads((EXPECTED_DIR / "solve.json").read_text())
    for label, (a, b) in SOLVE_GRIDS.items():
        g = cartesian(path(a), path(b))
        for seed in range(4):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            h = relabeled(g, perm)
            for name, variant in VARIANT_NAMES.items():
                assert _least_size(h, variant) == expected[label][name], (label, seed, name)


def test_number_dispatch_reaches_the_dp_only_past_sixteen_vertices(monkeypatch):
    calls = []
    least = domination._least_size
    monkeypatch.setattr(domination, "_least_size", lambda g, v, refuted: calls.append(g.n) or least(g, v, refuted))
    # the root level settles P35 and P7xP7 under total; the grids under
    # within2 need the program, and 16 vertices never reach it
    assert domination_number(path(35), SEMITOTAL_WITHIN) == 14
    assert domination_number(cartesian(path(7), path(7)), TOTAL) == 15
    assert domination_number(cartesian(path(4), path(4)), SEMITOTAL_WITHIN) == 5
    assert calls == []
    assert domination_number(cartesian(path(7), path(7)), SEMITOTAL_WITHIN) == 14
    assert calls == [49]


def test_number_falls_back_to_the_deepening_when_the_dp_refuses(monkeypatch):
    monkeypatch.setattr(domination, "_MAX_NUMBER_STATES", 8)
    refused, deepenings = [], []
    least, levels = domination._least_size, domination._levels

    def counted_least(g, variant, refuted):
        try:
            return least(g, variant, refuted)
        except BudgetExceededError:
            refused.append(g.n)
            raise

    monkeypatch.setattr(domination, "_least_size", counted_least)
    monkeypatch.setattr(domination, "_levels", lambda g, v: deepenings.append(g.n) or levels(g, v))
    expected = json.loads((EXPECTED_DIR / "solve.json").read_text())
    for label, (a, b) in SOLVE_GRIDS.items():
        g = cartesian(path(a), path(b))
        for name, variant in VARIANT_NAMES.items():
            refused.clear()
            deepenings.clear()
            assert domination_number(g, variant) == expected[label][name], (label, name)
            assert len(deepenings) == 1, (label, name)  # one deepening, continued
        assert refused == [g.n], label  # exact2 reached the program and was refused


def _answer_or_refusal(solve):
    """(answer, None), or (None, the vertices decided) when refused."""
    try:
        return solve(), None
    except BudgetExceededError as exc:
        return None, int(str(exc).split(" with ")[1].split()[0])


def test_number_is_refused_only_where_the_counts_are(monkeypatch):
    # The number's decision pass keeps, at every step over the step list of
    # ``_frontier``, a subset of the states the counts keep (those that can
    # still finish below the beam's size), so under one cap it is refused only
    # where the counts are, and no earlier; where both answer they agree.
    graphs = [complete_bipartite(4, 6), friendship(5), wheel(9), book(5),
              cartesian(path(4), path(5)), cartesian(path(5), path(6))]
    counted_refusals = []
    for cap in (8, 64, 512):
        monkeypatch.setattr(domination, "_MAX_STATES", cap)
        monkeypatch.setattr(domination, "_MAX_NUMBER_STATES", cap)
        for g in graphs:
            for variant in ALL_VARIANTS:
                counts, counted = _answer_or_refusal(lambda: count_by_size(g, variant, OFF))
                least, refused = _answer_or_refusal(lambda: _least_size(g, variant))
                counted_refusals.append(counted)
                if refused is not None:
                    assert counted is not None and refused >= counted, (cap, g.name, variant)
                elif counted is None:
                    lowest = next((k for k in range(g.n + 1) if counts[k]), None)
                    assert least == lowest, (cap, g.name, variant)
    assert None in counted_refusals and any(counted_refusals)


def test_number_of_exact2_p7xp7_fits_the_numbers_cap(monkeypatch):
    # The whole min-plus table of exact2 P7xP7 needs 18,003 states; the
    # decision pass below the beam's 14 keeps far fewer, within the 2^12 cap.
    g = cartesian(path(7), path(7))
    assert _least_size(g, SEMITOTAL_EXACT) == 14
    monkeypatch.setattr(domination, "_MAX_NUMBER_STATES", 512)
    with pytest.raises(BudgetExceededError):
        _least_size(g, SEMITOTAL_EXACT)


def test_number_of_wide_graphs_is_fast():
    start = time.perf_counter()
    for g in (complete_bipartite(30, 34), wheel(40), friendship(20)):
        for variant in ALL_VARIANTS:
            assert domination_number(g, variant) is not None, (g.name, variant)
    assert time.perf_counter() - start < 0.5


# -- structural properties ------------------------------------------------


def test_sandwich_property_on_families():
    for g in family_corpus(12):
        if not g.is_isolate_free() or g.is_complete():
            continue
        gamma = domination_number(g, PLAIN)
        within = domination_number(g, SEMITOTAL_WITHIN)
        total = domination_number(g, TOTAL)
        assert gamma <= within <= total, g.name


def test_half_bound_on_connected_families():
    for g in family_corpus(14):
        if g.n < 4 or not g.is_connected() or g.is_complete():
            continue
        within = domination_number(g, SEMITOTAL_WITHIN)
        assert 2 * within <= g.n, g.name


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_within_rule_is_superset_monotone(g):
    if not g.is_isolate_free():
        return
    for m in valid_masks(g, SEMITOTAL_WITHIN):
        for w in range(g.n):
            assert is_semitotal(g, m | 1 << w, WitnessRule.WITHIN_TWO)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_exact_rule_supersets_keep_domination_and_old_witnesses(g):
    if not g.is_isolate_free():
        return
    sphere = [g.sphere_exactly_two(v) for v in range(g.n)]
    for m in valid_masks(g, SEMITOTAL_EXACT):
        for w in range(g.n):
            bigger = m | 1 << w
            assert is_dominating(g, bigger)
            for v in bits_list(m):
                assert bigger & sphere[v]


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=40, deadline=None)
def test_semitotal_predicate_against_networkx_distances(g):
    # independent oracle: recompute the witness condition with networkx BFS
    # distances instead of the package's distance-2 masks
    if not g.is_isolate_free():
        return
    nxg = to_nx(g)
    lengths = dict(nx.all_pairs_shortest_path_length(nxg))

    def reference(members, rule):
        vs = bits_list(members)
        covered = set()
        for v in vs:
            covered |= {v} | set(nxg[v])
        if covered != set(range(g.n)):
            return False
        for v in vs:
            good = False
            for u in vs:
                if u == v or u not in lengths[v]:
                    continue
                d = lengths[v][u]
                if d == 2 or (rule is WitnessRule.WITHIN_TWO and d <= 2):
                    good = True
                    break
            if not good:
                return False
        return True

    for m in range(1 << g.n):
        for rule in WitnessRule:
            assert is_semitotal(g, m, rule) == reference(m, rule), (g.edges(), m, rule)


# -- counting -------------------------------------------------------------


def test_count_examples():
    assert count_by_size(star(3), SEMITOTAL_EXACT).coeffs == (0, 0, 0, 1, 0)
    assert count_by_size(cycle(4), SEMITOTAL_WITHIN)[2] == 6
    assert count_by_size(cycle(4), SEMITOTAL_EXACT)[2] == 2


def test_count_matches_reference_enumeration():
    for g in (path(6), cycle(5), star(4), complete_bipartite(2, 3), complete(4)):
        for variant in ALL_VARIANTS:
            counts = count_by_size(g, variant, OFF)
            ref = valid_masks(g, variant)
            for i in range(g.n + 1):
                assert counts[i] == sum(m.bit_count() == i for m in ref)


def with_conventions(counter, g, variant, conv):
    """``counter(g, variant)``'s coefficients with the complete-graph gate and
    the isolate precondition restated from their definitions."""
    gated = variant.kind == "semitotal" and conv.complete_singleton and g.is_complete()
    if variant.kind != "plain" and not gated and not g.is_isolate_free():
        raise IsolatesError("reference: graph has an isolated vertex")
    coeffs = counter(g, variant)
    if gated:
        coeffs[1] += g.n
    return CountPolynomial(coeffs)


def tallied_counts(g, variant):
    """By-size tally of the combination enumerator behind brute_force_number."""
    coeffs = [0] * (g.n + 1)
    for m in _valid_sets(g, variant, range(1, g.n + 1)):
        coeffs[m.bit_count()] += 1
    return coeffs


def bit_sliced_counts(g, variant):
    """By-size counts of the 2^n bit-sliced enumeration count_by_size used
    before its dynamic program: subset m is bit m of a 2^n-bit int, so each
    clause is checked for all subsets at once.  member[v] has bit m set iff
    subset m contains v, so an OR of members is "contains one of them" and
    an AND with it keeps the subsets that do.  The masks come from the
    graph's own neighbourhood methods."""
    n = g.n
    span = 1 << n
    member = []
    for v in range(n):
        # 2^v zeros, then 2^v ones, repeated up to 2^n bits by doubling
        pattern, width = ((1 << (1 << v)) - 1) << (1 << v), 2 << v
        while width < span:
            pattern |= pattern << width
            width <<= 1
        member.append(pattern)
    cover = g.adj if variant.kind == "total" else g.closed
    witness = None
    if variant.kind == "semitotal":
        near = g.ball_within_two if variant.rule is WitnessRule.WITHIN_TWO else g.sphere_exactly_two
        witness = [near(v) for v in range(n)]
    valid = (1 << span) - 1
    for v in range(n):
        hit = 0
        for u in bits_list(cover[v]):
            hit |= member[u]
        valid &= hit
        if witness is not None:
            # drop the subsets that contain v but none of its witnesses
            lonely = valid & member[v]
            for w in bits_list(witness[v]):
                lonely ^= lonely & member[w]
            valid ^= lonely
    # size[k] has bit m set iff subset m has k members; adding vertex v
    # lifts every subset of size k - 1 to size k
    size = [1] + [0] * n
    for v in range(n):
        for k in range(v + 1, 0, -1):
            size[k] |= size[k - 1] << (1 << v)
    return [(valid & s).bit_count() for s in size]


def assert_counts_match(counter, g):
    for variant in ALL_VARIANTS:
        for conv in (Conventions(), OFF):
            try:
                expected = with_conventions(counter, g, variant, conv)
            except IsolatesError:
                with pytest.raises(IsolatesError):
                    count_by_size(g, variant, conv)
                continue
            assert count_by_size(g, variant, conv) == expected, (g.edges(), variant, conv)


@given(graphs(min_n=1, max_n=10))
@settings(max_examples=200, deadline=None)
def test_count_matches_valid_set_tally_random(g):
    assert_counts_match(tallied_counts, g)


@given(graphs(min_n=1, max_n=16))
@settings(max_examples=150, deadline=None)
def test_count_matches_bit_sliced_enumeration_random(g):
    assert_counts_match(bit_sliced_counts, g)


def test_count_is_label_invariant(rng):
    # the vertex order of the dynamic program follows the labels; the
    # coefficients must not
    chorded = []
    for _ in range(3):
        pairs = [(u, v) for u in range(14) for v in range(u + 2, 14) if rng.random() < 0.2]
        chorded.append(Graph.from_edges(14, cycle(14).edges() + pairs))
    for g in [cartesian(path(4), path(5)), cycle(18), complete_bipartite(3, 4)] + chorded:
        for variant in ALL_VARIANTS:
            natural = count_by_size(g, variant)
            assert list(natural.coeffs) == bit_sliced_counts(g, variant), (g.edges(), variant)
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert count_by_size(relabeled(g, perm), variant) == natural, (g.edges(), variant, perm)


def test_count_workload_values_match_committed_values():
    # The benchmark's count gate on its instances, natural and relabelled,
    # run here so that tier-1 sees it too.
    expected = json.loads((EXPECTED_DIR / "count.json").read_text())
    instances = {"C18": cycle(18), "P4xP5": cartesian(path(4), path(5)), "C22": cycle(22)}
    plan = {"C18": tuple(VARIANT_NAMES), "P4xP5": tuple(VARIANT_NAMES), "C22": ("within2",)}
    for label, g in instances.items():
        perm = list(range(g.n))
        random.Random(label).shuffle(perm)
        for name in plan[label]:
            for h in (g, relabeled(g, perm)):
                assert list(count_by_size(h, VARIANT_NAMES[name]).coeffs) == expected[label][name], (label, name)


def test_count_memory_follows_the_frontier():
    # the 2^24 subsets of C24 pass through a table of a few dozen states
    g = cycle(24)
    tracemalloc.start()
    try:
        count_by_size(g, SEMITOTAL_WITHIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# Domination polynomials of P1-P3 and of C3-C5, by their first order.
PATH_SEEDS = (1, ([0, 1], [0, 2, 1], [0, 1, 3, 1]))
CYCLE_SEEDS = (3, ([0, 3, 3, 1], [0, 0, 6, 4, 1], [0, 0, 5, 10, 5, 1]))


def alikhani_peng(seeds, last):
    """Domination polynomials by order, from the seeds up to order ``last``,
    by the Alikhani-Peng recurrence D(G_n) = x (D(G_{n-1}) + D(G_{n-2}) +
    D(G_{n-3}))."""
    first, polys = seeds[0], list(seeds[1])
    while first + len(polys) <= last:
        width = max(map(len, polys[-3:]))
        pad = [p + [0] * (width - len(p)) for p in polys[-3:]]
        polys.append([0] + [x + y + z for x, y, z in zip(*pad)])
    return dict(enumerate(polys, start=first))


def test_plain_counts_follow_path_and_cycle_recurrence():
    for builder, seeds in ((path, PATH_SEEDS), (cycle, CYCLE_SEEDS)):
        for n, expected in alikhani_peng(seeds, 24).items():
            if n >= 3:
                assert count_by_size(builder(n), PLAIN) == CountPolynomial(expected), (builder, n)
    counts = count_by_size(cycle(24), SEMITOTAL_WITHIN)
    assert next(i for i in range(25) if counts[i]) == -(-48 // 5)


def test_count_reaches_64_vertices():
    for builder, seeds in ((path, PATH_SEEDS), (cycle, CYCLE_SEEDS)):
        expected = CountPolynomial(alikhani_peng(seeds, 64)[64])
        assert count_by_size(builder(64), PLAIN) == expected, builder
        counts = count_by_size(builder(64), SEMITOTAL_WITHIN)
        assert next(i for i in range(65) if counts[i]) == -(-128 // 5), builder
    # a plain dominating set of K_{m,n} meets both sides or is a whole side
    m, n = 14, 15
    expected = [comb(m + n, k) - comb(m, k) - comb(n, k) + (k == m) + (k == n) for k in range(m + n + 1)]
    expected[0] = 0
    assert count_by_size(complete_bipartite(m, n), PLAIN) == CountPolynomial(expected)


def test_count_budget_error():
    # wide graphs pass the state cap and are refused within a small working set
    six_regular = Graph.from_edges(64, nx.random_regular_graph(6, 64, seed=1).edges())
    for g in (complete_bipartite(30, 34), six_regular):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="states"):
                count_by_size(g, PLAIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak


def test_count_refuses_oversized_working_set_before_allocating(monkeypatch):
    monkeypatch.setattr("semitotal.domination._MAX_STATES", 64)
    g = cartesian(path(4), path(5))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"more than 64 states with \d+ of 20 vertices decided"):
            count_by_size(g, SEMITOTAL_WITHIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_count_convention_gate_adds_singletons():
    with_gate = count_by_size(complete(4), SEMITOTAL_EXACT)
    without = count_by_size(complete(4), SEMITOTAL_EXACT, OFF)
    assert with_gate[1] == 4
    assert without[1] == 0
    assert with_gate.coeffs[2:] == without.coeffs[2:]


def test_count_coefficients_vanish_below_optimum():
    for g in (path(7), cycle(6), complete_bipartite(3, 3)):
        for variant in ALL_VARIANTS:
            counts = count_by_size(g, variant)
            opt = domination_number(g, variant)
            assert counts[opt] >= 1
            assert all(counts[i] == 0 for i in range(opt))


def test_plain_count_complement_identity():
    for g in (path(6), cycle(6), star(5)):
        counts = count_by_size(g, PLAIN)
        non_dominating = sum(1 for m in range(1 << g.n) if not is_dominating(g, m))
        assert counts.evaluate(1) + non_dominating == 1 << g.n


def test_counting_is_deterministic():
    a = count_by_size(friendship(3), SEMITOTAL_EXACT)
    b = count_by_size(friendship(3), SEMITOTAL_EXACT)
    assert a.coeffs == b.coeffs


def test_full_corpus_is_desk_scale():
    corpus = full_corpus(14)
    assert len(corpus) >= 150
    assert all(g.n <= 14 for g in corpus)
