import tracemalloc
from itertools import combinations

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
    complete,
    complete_bipartite,
    cycle,
    domination_number,
    friendship,
    mask_from,
    path,
    semitotal,
    semitotal_stability,
    stability_witness,
    star,
    wheel,
)

from semitotal.stability import _removal_sets

from conftest import graphs, relabeled

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
    with pytest.raises(BudgetExceededError):
        semitotal_stability(path(17), EXACT)
    assert semitotal_stability(path(17), EXACT, budget=17) is not None


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


def _reference_search(g, rule, conv, policy, budget):
    """The search as first written: every removal set builds its residue graph."""
    if g.n < 2:
        raise EmptyGraphError("stability needs a graph on at least 2 vertices")
    if not g.is_isolate_free():
        raise IsolatesError("stability requires an isolate-free graph")
    if g.n > budget:
        raise BudgetExceededError(f"graph has {g.n} vertices, stability budget is {budget}")
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
    st.sampled_from([8, 16]),
)
@settings(max_examples=150, deadline=None)
def test_search_matches_reference_random(g, rule, policy, singleton, budget):
    conv = Conventions(singleton)
    expected = _outcome(_reference_search, g, rule, conv, policy, budget)
    assert _outcome(stability_witness, g, rule, conv, policy, budget) == expected


@pytest.mark.parametrize("g", [path(7), cycle(8), complete_bipartite(3, 4), wheel(7)], ids=lambda g: g.name)
def test_incremental_keys_match_deleted_residues(g):
    for k in range(1, g.n):
        sets = list(_removal_sets(g.adj, k))
        assert [mask for mask, _ in sets] == [mask_from(c) for c in combinations(range(g.n), k)]
        for mask, key in sets:
            assert key == g.delete_vertices(mask)[0].adj, (g.name, bits_list(mask))


def test_search_memory_stays_small():
    # About 2^14 removal sets are scanned; their keys are built one path at a
    # time, never a whole size level at once.
    g = complete_bipartite(7, 7)
    tracemalloc.start()
    try:
        hit = stability_witness(g, WITHIN, budget=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit is not None
    assert peak < 1 << 19, peak
