"""Machine-checked registry of closed-form identities about semitotal domination.

Each claim pairs a closed-form prediction with an exact oracle (search or
counting) over a deterministic desk-scale instance set.  The oracle is
authoritative: a FAIL row records that the stated formula disagrees with it
on that instance, which is a finding, not an error.  Claims are evaluated
under both witness rules, and the per-claim summary names the rule when a
claim holds under exactly one of them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fnmatch import fnmatch
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, TypeVar

from .domination import (
    Conventions,
    DEFAULT_CONVENTIONS,
    PLAIN,
    TOTAL,
    WitnessRule,
    count_by_size,
    domination_number,
    semitotal,
)
from .errors import COMPUTATION_ERRORS, CapacityError
from .families import (
    Attach,
    book,
    complete,
    complete_bipartite,
    cycle,
    friendship,
    has_dominating_vertex,
    path,
    pendant_path_tree,
    petersen,
    random_split_graph,
    star,
    wheel,
)
from .graph import Graph, WORD_BITS, bits_list, iter_bits
from .polynomial import CountPolynomial, closed_form
from .products import cartesian, corona, join, rooted_product
from .stability import RemovalPolicy, stability_witness

_BARE = Conventions(complete_singleton=False)


def __getattr__(name: str):
    # The benchmark tracer (perfbench/spans.py) proxies ``claims.nx``.  This
    # module calls no networkx, so it is imported on the first read of that
    # name only and untraced runs never load it.  Delete this together with
    # the tracer's networkx proxy.
    if name == "nx":
        import networkx

        globals()["nx"] = networkx
        return networkx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _show(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, CountPolynomial):
        return value.format()
    return str(value)


@dataclass(frozen=True)
class ClaimRow:
    """One (claim, instance, rule) comparison."""

    claim: str
    instance: str
    rule: str
    predicted: str
    oracle: str
    verdict: str  # PASS | FAIL | N/A | UNDEFINED
    note: str = ""
    details: tuple[tuple[str, str], ...] = ()

    def detail(self, key: str) -> str | None:
        for k, v in self.details:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class Claim:
    """A registered identity: id, statement, row builder (run once per witness rule)."""

    id: str
    description: str
    builder: Callable[[int, WitnessRule, Conventions], list[ClaimRow]]


_R = TypeVar("_R")


def _guarded(claim: str, instance: str, rule: str, predicted: str, build: Callable[[], _R],
             note: str = "") -> _R | ClaimRow:
    """Run ``build``; a typed computation error becomes one UNDEFINED row.

    Any other exception is a programming error and propagates.
    """
    try:
        return build()
    except COMPUTATION_ERRORS as exc:
        reason = f"{type(exc).__name__}: {exc}"
        full = f"{note}; {reason}" if note else reason
        return ClaimRow(claim, instance, rule, predicted, "error", "UNDEFINED", full)


def _value_row(claim: str, instance: str, rule: str, predicted, compute: Callable[[], object],
               note: str = "") -> ClaimRow:
    """Compare ``compute()`` with ``predicted``; a None prediction gives an N/A row."""
    shown = "none" if predicted is None else _show(predicted)

    def build() -> ClaimRow:
        actual = compute()
        if predicted is None:
            verdict = "N/A"
        else:
            verdict = "PASS" if actual == predicted else "FAIL"
        return ClaimRow(claim, instance, rule, shown, _show(actual), verdict, note)

    return _guarded(claim, instance, rule, shown, build, note)


# -- shared oracles -------------------------------------------------------


def _gt2(g: Graph, rule: WitnessRule, conv: Conventions) -> int | None:
    return domination_number(g, semitotal(rule), conv)


def _gamma(g: Graph) -> int:
    value = domination_number(g, PLAIN)
    assert value is not None
    return value


def _difference(g: Graph, rule: WitnessRule, conv: Conventions) -> int | None:
    t2 = _gt2(g, rule, conv)
    if t2 is None:
        return None
    return t2 - _gamma(g)


def _isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some vertex bijection maps g's edges onto h's; tries all n!,
    which is 24 for the 4-vertex graphs it is called on."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    edges = g.edges()
    return any(all(h.adj[p[u]] >> p[v] & 1 for u, v in edges) for p in permutations(range(g.n)))


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
    """Successor of a canonical level sequence (Beyer & Hedetniemi 1980)."""
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = list(levels)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_tree(levels: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree without it, as level sequences."""
    # levels[1] == 1 opens the first subtree; the next 1 closes it
    m = next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))
    return [x - 1 for x in levels[1:m]], [0] + levels[m:]


def _next_tree(levels: list[int]) -> list[int]:
    """The first level sequence from ``levels`` on that is the centre-rooted
    canonical form of a free tree (Wright, Richmond, Odlyzko & McKay 1986)."""
    left, rest = _split_tree(levels)
    # free-tree canonical: the first subtree is no higher than the rest, and
    # at equal heights no larger, then no later lexicographically
    if (max(left), len(left), left) <= (max(rest), len(rest), rest):
        return levels
    p = len(left)
    out = _next_rooted_tree(levels, p)
    if levels[p] > 2:
        height = max(_split_tree(out)[0])
        out[-(height + 1):] = range(1, height + 2)
    return out


@lru_cache(maxsize=None)
def _all_trees(n: int) -> tuple[Graph, ...]:
    """All nonisomorphic trees on n vertices, in the order networkx's
    ``nonisomorphic_trees`` yields them, which runs the same algorithm.

    A tree is a level sequence: the depths of its vertices in preorder, so
    that the parent of vertex i is the last vertex before it one level up.
    """
    if n == 1:
        return (Graph(1, [0], "K1"),)
    out = []
    # the path, rooted at its centre, is the first sequence
    levels: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _next_tree(levels)
        rows = [0] * n
        stack: list[int] = []
        for i, level in enumerate(levels):
            while stack and levels[stack[-1]] >= level:
                stack.pop()
            if stack:
                rows[i] |= 1 << stack[-1]
                rows[stack[-1]] |= 1 << i
            stack.append(i)
        out.append(Graph(n, rows, f"tree{n}"))
        levels = _next_rooted_tree(levels)
    return tuple(out)


def _tree_code(t: Graph) -> str:
    """Canonical string of a tree: equal for two trees iff they are isomorphic.

    The tree is rooted at its centre, found by stripping leaves layer by
    layer, and encoded by the AHU string (Aho, Hopcroft & Ullman 1974): a
    vertex is "(" + its children's strings in sorted order + ")".  A tree
    with two centres takes the lesser of its two strings.
    """
    degree = [row.bit_count() for row in t.adj]
    alive = t.full_mask
    leaves = [v for v in range(t.n) if degree[v] <= 1]
    while alive.bit_count() > 2:
        stripped = []
        for v in leaves:
            alive &= ~(1 << v)
            for u in iter_bits(t.adj[v] & alive):
                degree[u] -= 1
                if degree[u] == 1:
                    stripped.append(u)
        leaves = stripped

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(u, 1 << v) for u in iter_bits(t.adj[v] & ~parent))) + ")"

    return min(code(c, 0) for c in iter_bits(alive))


@lru_cache(maxsize=None)
def _pendant_family_members(n: int) -> tuple[tuple[str, Graph], ...]:
    """Distinct pendant-path trees of order n, labeled by base and choices."""
    if n % 2:
        return ()
    out: list[tuple[str, Graph]] = []
    codes: set[str] = set()
    for h in range(2, n // 2 + 1):
        extra = n - 2 * h
        if extra < 0 or extra % 2:
            continue
        long_count = extra // 2
        if long_count > h:
            continue
        for b_idx, base in enumerate(_all_trees(h)):
            for long_at in combinations(range(h), long_count):
                choices = [Attach.P4 if v in long_at else Attach.P2 for v in range(h)]
                t = pendant_path_tree(base, choices)
                code = _tree_code(t)
                if code in codes:
                    continue
                codes.add(code)
                tag = ",".join("P4" if c is Attach.P4 else "P2" for c in choices)
                out.append((f"base=tree{h}#{b_idx};attach={tag};n={n}", t))
    return tuple(out)


@lru_cache(maxsize=None)
def _pendant_family_codes(n: int) -> frozenset[str]:
    return frozenset(_tree_code(t) for _, t in _pendant_family_members(n))


# -- instance sweeps ------------------------------------------------------
#
# One generator per family, in report order, holding the family's in-budget
# range.  The parametrized families yield their parameters and then the graph,
# which is built only when its entry is reached.

_TREE_CAP = 12  # largest tree order enumerated; 551 trees at n = 12


def _wheels(budget: int, lo: int = 4) -> Iterator[tuple[int, Graph]]:
    return ((n, wheel(n)) for n in range(lo, budget + 1))


def _friendships(budget: int, lo: int = 2) -> Iterator[tuple[int, Graph]]:
    return ((n, friendship(n)) for n in range(lo, (budget - 1) // 2 + 1))


def _books(budget: int) -> Iterator[tuple[int, Graph]]:
    return ((n, book(n)) for n in range(1, (budget - 2) // 2 + 1))


def _stars(budget: int, lo: int = 3) -> Iterator[tuple[int, Graph]]:
    return ((n, star(n)) for n in range(lo, budget))


def _kmns(budget: int, lo: int = 2, hi: int | None = None) -> Iterator[tuple[int, int, Graph]]:
    """K_{m,n} with lo <= m < hi, m <= n and m + n <= budget, by m and then n."""
    return ((m, n, complete_bipartite(m, n)) for m in range(lo, hi or budget) for n in range(m, budget - m + 1))


def _grids(budget: int) -> Iterator[tuple[int, int, Graph]]:
    return ((n, m, cartesian(path(n), path(m))) for n in range(2, 5) for m in range(2, 5) if n * m <= budget)


def _diamonds(budget: int) -> Iterator[Graph]:
    """Rooted 4-cycle products H*C4 within the budget."""
    return (rooted_product(h, cycle(4)) for h in (complete(1), complete(2), path(3), complete(3))
            if 4 * h.n <= budget)


def _pendant_trees(budget: int) -> Iterator[tuple[str, Graph]]:
    for n in range(4, min(budget, _TREE_CAP) + 1, 2):
        yield from _pendant_family_members(n)


# -- swept claims ---------------------------------------------------------
#
# A swept claim compares one oracle with a closed form over a family sweep.
# Its entries yield (instance, graph, prediction, note) in report order, and
# its check turns one entry into its rows under one rule.

_Entry = tuple[str, Graph, object, str]
_Check = Callable[[str, str, WitnessRule, Conventions, Graph, object, str], list[ClaimRow]]


def _swept(cid: str, description: str, check: _Check, entries: Callable[[int], Iterable[_Entry]]) -> Claim:
    def builder(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
        return [row for instance, g, predicted, note in entries(budget)
                for row in check(cid, instance, rule, conv, g, predicted, note)]

    return Claim(cid, description, builder)


def _oracle_check(oracle: Callable[[Graph, WitnessRule, Conventions], int | None]) -> _Check:
    def check(claim, instance, rule, conv, g, predicted, note):
        return [_value_row(claim, instance, rule.value, predicted, lambda: oracle(g, rule, conv), note)]

    return check


_value_check = _oracle_check(_gt2)
_difference_check = _oracle_check(_difference)


def _stability_check(claim, instance, rule, conv, g, predicted, note):
    return [_stab_value_row(claim, instance, rule, conv, g, predicted, note)]


def _count_check(claim, instance, rule, conv, g, predicted, note):
    return _count_compare_rows(claim, instance, rule, conv, g, predicted)


_C3_NOTE = ("C3 = K3: the singleton convention (or, bare, the lack of distance-2 "
            "pairs) keeps the formula value 2 unattainable")


def _t1_i_entries(budget: int) -> Iterator[_Entry]:
    for n in range(3, budget + 1):
        yield f"P{n}", path(n), _ceil(2 * n, 5), ""
        yield f"C{n}", cycle(n), _ceil(2 * n, 5), _C3_NOTE if n == 3 else ""


def _t1_v_entries(budget: int) -> Iterator[_Entry]:
    for m, n, g in _kmns(budget):
        if n <= 4:
            yield g.name, g, m, ""
        elif m >= 5:
            yield g.name, g, 4, ""
        else:
            yield g.name, g, None, "parameters outside the stated cases (m <= 4 < n)"


def _stab_kmn_entries(budget: int) -> Iterator[_Entry]:
    for m, n, g in _kmns(budget):
        if m == 2:
            yield g.name, g, 0, "stated value 0 has no meaning under the definition; row is anomalous"
        else:
            yield g.name, g, 1 if m <= 4 else m - 3, ""


def _mod5_stability(n: int) -> int:
    r = n % 5
    if r in (1, 3):
        return 1
    if r in (2, 4):
        return 2
    return 3


def _joinpaths_entries(budget: int) -> Iterator[_Entry]:
    for n in range(5, budget + 1):
        for m in range(n + 1 if n <= 10 else n, budget - n + 1):
            yield f"(P{n})v(P{m})", join(path(n), path(m)), _mod5_stability(n) if n <= 10 else n - 7, ""


def _fbs_entries(budget: int) -> Iterator[_Entry]:
    for n, g in _friendships(budget):
        yield g.name, g, 2, ""
    for n, g in _books(budget):
        yield f"B{n} (statement)", g, 1, "statement value"
        yield f"B{n} (derivation)", g, 2, "value implied by the shrink-one-page derivation"
    for n, g in _stars(budget, 2):
        yield g.name, g, 1, ""


def _grid_prediction(n: int, m: int) -> int:
    a = _ceil(2 * n, 5)
    return a * _ceil(m, 3) + (m // 3) * (n - a)


# -- bespoke claim builders -----------------------------------------------


def _path_difference_prediction(n: int):
    """Table row for ceil(2n/5) - ceil(n/3) on paths: ('eq', v), ('ge', 6) or None."""
    if n in (4, 5, 7, 10):
        return ("eq", 0)
    if 6 <= n <= 22 and n not in (7, 10, 18, 21):
        return ("eq", 1)
    if 23 <= n <= 37 and n not in (25, 33, 36):
        return ("eq", 2)
    if 38 <= n <= 52 and n not in (40, 48, 51):
        return ("eq", 3)
    if 53 <= n <= 67 and n not in (55, 63, 66):
        return ("eq", 4)
    if 68 <= n <= 82 and n not in (70, 78, 81):
        return ("eq", 5)
    if n >= 83 and n != 85:
        return ("ge", 6)
    return None


def _rows_t22_i(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    # The table's explicit rows stop at n = 82 plus an open-ended row from 83;
    # the arithmetic side costs nothing, so it always covers n <= 90, and the
    # solver side checks every "eq" row up to the budget.
    rows = []
    for n in range(4, 91):
        pred = _path_difference_prediction(n)
        diff = _ceil(2 * n, 5) - _ceil(n, 3)
        if pred is None:
            rows.append(
                ClaimRow("T2.2.i", f"arith n={n}", rule.value, "none", str(diff), "N/A",
                         "no table row covers this n")
            )
        elif pred[0] == "eq":
            verdict = "PASS" if diff == pred[1] else "FAIL"
            rows.append(ClaimRow("T2.2.i", f"arith n={n}", rule.value, str(pred[1]), str(diff), verdict))
        else:
            verdict = "PASS" if diff >= pred[1] else "FAIL"
            rows.append(ClaimRow("T2.2.i", f"arith n={n}", rule.value, f">= {pred[1]}", str(diff), verdict))
    for n in range(4, budget + 1):
        pred = _path_difference_prediction(n)
        if pred is None or pred[0] != "eq":
            continue
        g = path(n)
        rows.append(
            _value_row("T2.2.i", f"solver n={n}", rule.value, pred[1],
                       lambda g=g: _difference(g, rule, conv))
        )
    return rows


def _rows_t22_ii(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    if budget < 10:
        return []
    g = petersen()
    gamma = _guarded("T2.2.ii", "Petersen", rule.value, "domination number", lambda: _gamma(g))
    if isinstance(gamma, ClaimRow):
        return [gamma]
    return [_value_row("T2.2.ii", "Petersen", rule.value, gamma, lambda: _gt2(g, rule, conv))]


def corona_bound_check(
    g: Graph,
    h: Graph,
    conv: Conventions = DEFAULT_CONVENTIONS,
    rule: WitnessRule = WitnessRule.WITHIN_TWO,
) -> ClaimRow:
    """Check the corona upper bound, with equality required for complete h.

    The bound is gt2(g) + gt2(h) * (|V(g)| - gt2(g)); gt2 of a complete h
    comes from the singleton convention carried by ``conv``.
    """
    instance = f"({g.name or 'G'})o({h.name or 'H'})"

    def build() -> ClaimRow:
        gv = _gt2(g, rule, conv)
        hv = _gt2(h, rule, conv)
        if gv is None or hv is None:
            return ClaimRow("T-corona", instance, rule.value, "bound", "undefined", "UNDEFINED",
                            "a factor's semitotal number is undefined under this rule")
        bound = gv + hv * (g.n - gv)
        actual = _gt2(corona(g, h), rule, conv)
        if actual is None:
            return ClaimRow("T-corona", instance, rule.value, f"<= {bound}", "undefined", "UNDEFINED",
                            "corona value undefined under this rule")
        if h.is_complete():
            verdict = "PASS" if actual == bound else "FAIL"
            return ClaimRow("T-corona", instance, rule.value, f"= {bound}", str(actual), verdict,
                            "equality required: the copy factor is complete")
        verdict = "PASS" if actual <= bound else "FAIL"
        return ClaimRow("T-corona", instance, rule.value, f"<= {bound}", str(actual), verdict)

    return _guarded("T-corona", instance, rule.value, "bound", build)


def _rows_corona(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    firsts = [path(2), path(3), path(4), cycle(3), cycle(4), cycle(5), star(3)]
    seconds = [complete(1), complete(2), complete(3), path(3), star(3)]
    rows = []
    for g in firsts:
        for h in seconds:
            if g.n * (1 + h.n) <= budget:
                rows.append(corona_bound_check(g, h, conv, rule))
    return rows


def _noncomplete_catalog() -> list[Graph]:
    return [path(3), path(4), path(5), path(6), path(7), cycle(4), cycle(5), cycle(6), star(3)]


def _rows_join(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    cat = _noncomplete_catalog()
    rows = []
    for i, g in enumerate(cat):
        for h in cat[i:]:
            if g.n + h.n > budget:
                continue
            instance = f"({g.name})v({h.name})"
            factors = _guarded("T-join", instance, rule.value, "min",
                               lambda g=g, h=h: (_gt2(g, rule, conv), _gt2(h, rule, conv)))
            if isinstance(factors, ClaimRow):
                rows.append(factors)
                continue
            gv, hv = factors
            if gv is None or hv is None:
                rows.append(ClaimRow("T-join", instance, rule.value, "min", "skipped", "UNDEFINED",
                                     "a factor's semitotal number is undefined under this rule"))
                continue
            rows.append(_value_row("T-join", instance, rule.value, min(gv, hv, 4),
                                   lambda g=g, h=h: _gt2(join(g, h), rule, conv)))
    return rows


def _rows_join_complete(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    rows = []
    for k in (1, 2, 3):
        g = complete(k)
        for h in _noncomplete_catalog():
            if g.n + h.n > budget:
                continue
            instance = f"({g.name})v({h.name})"
            hv = _guarded("T-joinK", instance, rule.value, "H's value", lambda h=h: _gt2(h, rule, conv))
            if isinstance(hv, ClaimRow):
                rows.append(hv)
                continue
            if hv is None:
                rows.append(ClaimRow("T-joinK", instance, rule.value, "undefined", "skipped", "UNDEFINED",
                                     "the non-complete factor's value is undefined under this rule"))
                continue
            rows.append(_value_row("T-joinK", instance, rule.value, hv,
                                   lambda g=g, h=h: _gt2(join(g, h), rule, conv)))
    return rows


def _count_compare_rows(
    claim: str,
    instance: str,
    rule: WitnessRule,
    conv: Conventions,
    g: Graph,
    predicted: CountPolynomial,
) -> list[ClaimRow]:
    def build() -> list[ClaimRow]:
        oracle = count_by_size(g, semitotal(rule), conv)
        rows = []
        for i in range(1, g.n + 1):
            pred = predicted[i] if i < len(predicted) else 0
            verdict = "PASS" if pred == oracle[i] else "FAIL"
            note = "predicted count is negative" if pred < 0 else ""
            rows.append(ClaimRow(claim, f"{instance} i={i}", rule.value, str(pred), str(oracle[i]), verdict, note))
        return rows

    rows = _guarded(claim, instance, rule.value, predicted.format(), build)
    return rows if isinstance(rows, list) else [rows]


def _connected_catalog(budget: int) -> Iterator[Graph]:
    yield from map(path, range(4, budget + 1))
    yield from map(cycle, range(4, budget + 1))
    for sweep in (_stars(budget), _kmns(budget), _wheels(budget), _friendships(budget), _books(budget)):
        yield from (entry[-1] for entry in sweep)
    yield from map(complete, range(4, budget + 1))
    if budget >= 10:
        yield petersen()


def _half_bound_row(g: Graph, rule: WitnessRule, conv: Conventions) -> ClaimRow:
    value = _gt2(g, rule, conv)
    if value is None:
        return ClaimRow("L-half", g.name, rule.value, f"<= {g.n}/2", "undefined", "UNDEFINED",
                        "no semitotal dominating set under this rule")
    verdict = "PASS" if 2 * value <= g.n else "FAIL"
    return ClaimRow("L-half", g.name, rule.value, f"<= {g.n}/2", str(value), verdict)


def _rows_half_bound(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    return [_guarded("L-half", g.name, rule.value, f"<= {g.n}/2", lambda g=g: _half_bound_row(g, rule, conv))
            for g in _connected_catalog(budget)]


_NEGATIVE_NOTE = "cycles outside the family must not attain half order"


def _negative_cycle_row(n: int, rule: WitnessRule, conv: Conventions) -> ClaimRow:
    value = _gt2(cycle(n), rule, conv)
    verdict = "PASS" if value is not None and 2 * value != n else "FAIL"
    return ClaimRow("T-halfgraph", f"negative C{n}", rule.value, f"!= {n}/2", _show(value), verdict, _NEGATIVE_NOTE)


@lru_cache(maxsize=None)
def _half_rows(budget: int, rule: WitnessRule, claim: str) -> tuple[ClaimRow, ...]:
    """Rows of the half-order characterization ``claim``, T-half or
    T-halfgraph (bare conventions); each claim computes only its own rows."""
    return tuple(_HALF_ROW_BUILDERS[claim](budget, rule))


def _tree_half_rows(budget: int, rule: WitnessRule) -> list[ClaimRow]:
    """Forward: every pendant-path tree attains half order.  Reverse (trees
    only): every tree attaining half order is a pendant-path tree or the
    3-leaf star."""
    conv = _BARE
    rows: list[ClaimRow] = []
    for label, t in _pendant_trees(budget):
        rows.append(_value_row("T-half", f"forward {label}", rule.value, t.n // 2,
                               lambda t=t: _gt2(t, rule, conv)))
    for n in range(4, min(budget, _TREE_CAP) + 1):
        for idx, t in enumerate(_all_trees(n)):
            instance, predicted = f"reverse tree{n}#{idx}", "pendant-path family or K1,3"
            value = _guarded("T-half", instance, rule.value, predicted, lambda t=t: _gt2(t, rule, conv))
            if isinstance(value, ClaimRow):
                rows.append(value)
                continue
            if value is None or 2 * value != n:
                continue
            code = _tree_code(t)
            member = code in _pendant_family_codes(n) or code == _tree_code(star(3))
            verdict = "PASS" if member else "FAIL"
            rows.append(ClaimRow("T-half", instance, rule.value, predicted, "attains n/2", verdict,
                                 "" if member else "tree attains half order but is outside the family"))
    return rows


def _graph_half_rows(budget: int, rule: WitnessRule) -> list[ClaimRow]:
    """The named members attain half order: C6, C8, the K4 spanning subgraphs
    and the rooted 4-cycle products; as negative checks, even cycles outside
    the family do not."""
    conv = _BARE
    rows: list[ClaimRow] = []
    for n in (6, 8):
        if n <= budget:
            rows.append(_value_row("T-halfgraph", f"C{n}", rule.value, n // 2,
                                   lambda n=n: _gt2(cycle(n), rule, conv)))
    if budget >= 4:
        seen: list[Graph] = []
        for bits in range(64):
            pairs = list(combinations(range(4), 2))
            edges = [pairs[i] for i in range(6) if bits >> i & 1]
            g = Graph.from_edges(4, edges)
            if not g.is_connected() or min(g.degree(v) for v in range(4)) < 2:
                continue
            if any(_isomorphic(g, s) for s in seen):
                continue
            seen.append(g)
            rows.append(_value_row("T-halfgraph", f"K4 spanning subgraph m={g.edge_count()}",
                                   rule.value, 2, lambda g=g: _gt2(g, rule, conv),
                                   note="convention gate disabled" if g.is_complete() else ""))
    for big in _diamonds(budget):
        rows.append(_value_row("T-halfgraph", big.name, rule.value, big.n // 2,
                               lambda big=big: _gt2(big, rule, conv)))
    for n in range(4, budget + 1, 2):
        if n in (4, 6, 8):
            continue
        rows.append(_guarded("T-halfgraph", f"negative C{n}", rule.value, f"!= {n}/2",
                             lambda n=n: _negative_cycle_row(n, rule, conv), _NEGATIVE_NOTE))
    return rows


_HALF_ROW_BUILDERS = {"T-half": _tree_half_rows, "T-halfgraph": _graph_half_rows}


def half_order_characterization_check(
    budget: int = 12,
    rules: tuple[WitnessRule, ...] = (WitnessRule.WITHIN_TWO,),
) -> "VerificationReport":
    """Standalone run of the half-order characterization claims."""
    rows: list[ClaimRow] = []
    for rule in rules:
        for claim in _HALF_ROW_BUILDERS:
            rows.extend(_half_rows(budget, rule, claim))
    return VerificationReport(rows, ["T-half", "T-halfgraph"], "T-half*", budget, _BARE)


def _rows_t_half(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    return list(_half_rows(budget, rule, "T-half"))


def _rows_t_halfgraph(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    return list(_half_rows(budget, rule, "T-halfgraph"))


def _poly_equality_row(
    claim: str,
    instance: str,
    rule: WitnessRule,
    conv: Conventions,
    g: Graph,
) -> ClaimRow:
    def build() -> ClaimRow:
        d_plain = count_by_size(g, PLAIN, conv)
        d_semi = count_by_size(g, semitotal(rule), conv)
        gt2 = _gt2(g, rule, conv)
        fd = d_plain.first_difference(d_semi)
        verdict = "PASS" if fd is None else "FAIL"
        if gt2 is None:
            restricted = "undefined"
        else:
            restricted = str(all(d_plain[i] == d_semi[i] for i in range(gt2, g.n + 1)))
        details = (
            ("first_difference", "none" if fd is None else str(fd)),
            ("gamma_t2", _show(gt2)),
            ("equal_from_gamma_t2", restricted),
        )
        return ClaimRow(claim, instance, rule.value, d_plain.format(), d_semi.format(), verdict,
                        "literal claim is full equality; details give the restricted comparison", details)

    return _guarded(claim, instance, rule.value, "equal polynomials", build)


def _rows_poly_trees(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    return [_poly_equality_row("T-poly-T", label, rule, conv, t) for label, t in _pendant_trees(budget)]


def _rows_poly_diamond(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    return [_poly_equality_row("T-poly-diamond", big.name, rule, conv, big) for big in _diamonds(budget)]


_SPLIT_PARAMS = (
    (3, 2, 0.7, 126),
    (3, 3, 0.6, 104),
    (3, 4, 0.6, 102),
    (4, 3, 0.5, 101),
    (4, 4, 0.6, 102),
    (4, 5, 0.5, 100),
    (5, 4, 0.5, 100),
    (5, 5, 0.4, 100),
)


def _split_row(instance: str, rule: WitnessRule, conv: Conventions, g: Graph) -> ClaimRow:
    d_plain = count_by_size(g, PLAIN, conv)
    d_total = count_by_size(g, TOTAL, conv)
    d_semi = count_by_size(g, semitotal(rule), conv)
    fd_t = d_plain.first_difference(d_total)
    fd_s = d_plain.first_difference(d_semi)
    verdict = "PASS" if fd_t is None and fd_s is None else "FAIL"
    details = (
        ("first_difference_plain_vs_semitotal", "none" if fd_s is None else str(fd_s)),
        ("first_difference_plain_vs_total", "none" if fd_t is None else str(fd_t)),
    )
    return ClaimRow("T-split", instance, rule.value, d_plain.format(), d_semi.format(),
                    verdict, "compares plain, total and semitotal counts", details)


def _rows_split(budget: int, rule: WitnessRule, conv: Conventions) -> list[ClaimRow]:
    rows = []
    for c, i, p, seed in _SPLIT_PARAMS:
        if c + i > budget:
            continue
        g = random_split_graph(c, i, p, seed)
        instance = f"split({c},{i},p={p},seed={seed})"
        if has_dominating_vertex(g):
            rows.append(ClaimRow("T-split", instance, rule.value, "equal polynomials", "skipped",
                                 "N/A", "instance has a dominating vertex"))
            continue
        rows.append(_guarded("T-split", instance, rule.value, "equal polynomials",
                             lambda g=g, instance=instance: _split_row(instance, rule, conv, g)))
    return rows


def _stab_value_row(
    claim: str,
    instance: str,
    rule: WitnessRule,
    conv: Conventions,
    g: Graph,
    predicted: int,
    note: str = "",
) -> ClaimRow:
    def build() -> ClaimRow:
        hit = stability_witness(g, rule, conv, RemovalPolicy.SKIP_SET, budget=g.n)
        if hit is None:
            return ClaimRow(claim, instance, rule.value, _show(predicted), "undefined", "FAIL",
                            (note + "; " if note else "") + "no removal changes the value")
        k, witness = hit
        verdict = "PASS" if k == predicted else "FAIL"
        details = (("witness", str(bits_list(witness))),)
        return ClaimRow(claim, instance, rule.value, _show(predicted), str(k), verdict, note, details)

    return _guarded(claim, instance, rule.value, _show(predicted), build, note)


# -- registry and runner --------------------------------------------------


REGISTRY: dict[str, Claim] = {
    c.id: c
    for c in (
        _swept("T1.i", "paths and cycles: semitotal number equals ceil(2n/5)", _value_check, _t1_i_entries),
        _swept("T1.ii", "wheel of order n: semitotal number equals ceil((n-1)/3)", _value_check,
               lambda b: ((g.name, g, _ceil(n - 1, 3),
                           "W4 = K4: the value rests on the complete-graph convention" if n == 4 else "")
                          for n, g in _wheels(b))),
        _swept("T1.iii", "friendship graph with n triangles: semitotal number equals n", _value_check,
               lambda b: ((g.name, g, n, "") for n, g in _friendships(b))),
        _swept("T1.iv", "book graph with n pages: semitotal number equals n+1", _value_check,
               lambda b: ((g.name, g, n + 1, "") for n, g in _books(b))),
        _swept("T1.v", "complete bipartite: min(m,n) for 2<=m,n<=4; 4 for m,n>=5", _value_check, _t1_v_entries),
        Claim("T2.2.i", "paths: semitotal minus plain follows a piecewise range table", _rows_t22_i),
        Claim("T2.2.ii", "Petersen graph: semitotal number equals domination number", _rows_t22_ii),
        _swept("T2.2.iii", "books: semitotal number exceeds domination number by n-1", _difference_check,
               lambda b: ((g.name, g, n - 1, "") for n, g in _books(b))),
        _swept("T2.2.iv", "friendship graphs: semitotal minus domination equals n-1", _difference_check,
               lambda b: ((g.name, g, n - 1, "F1 = K3: rests on the complete-graph convention" if n == 1 else "")
                          for n, g in _friendships(b, 1))),
        _swept("T2.2.v", "stars: semitotal minus domination equals n-1", _difference_check,
               lambda b: ((g.name, g, n - 1, "K_{1,1} = K2: rests on the complete-graph convention" if n == 1 else "")
                          for n, g in _stars(b, 1))),
        _swept("T2.2.vi", "wheels: semitotal minus domination equals ceil((n-1)/3)-1", _difference_check,
               lambda b: ((g.name, g, _ceil(n - 1, 3) - 1,
                           "W4 = K4: rests on the complete-graph convention" if n == 4 else "")
                          for n, g in _wheels(b))),
        _swept("T2.2.vii", "complete bipartite: difference is m-2 for m<=4, else 2", _difference_check,
               lambda b: ((g.name, g, m - 2 if m <= 4 else 2, "") for m, n, g in _kmns(b))),
        Claim("T-corona", "corona: value at most gt2(G)+gt2(H)(|G|-gt2(G)), sharp for complete H", _rows_corona),
        Claim("T-join", "join of non-complete graphs of order >=3: min of factor values and 4", _rows_join),
        Claim("T-joinK", "complete graph joined to non-complete H: value equals H's value", _rows_join_complete),
        _swept("T-grid", "path grid: ceil(2n/5)*ceil(m/3) + floor(m/3)*(n-ceil(2n/5))", _value_check,
               lambda b: ((f"P{n} x P{m}", g, _grid_prediction(n, m), "") for n, m, g in _grids(b))),
        _swept("C-COUNT-star", "stars: the n leaves form the only semitotal dominating set", _count_check,
               lambda b: ((g.name, g, closed_form("star", n=n), "") for n, g in _stars(b))),
        _swept("C-COUNT-Kmn-small", "complete bipartite counts via binomials, small part 2..3", _count_check,
               lambda b: ((g.name, g, closed_form("complete_bipartite_small", m=m, n=n), "")
                          for m, n, g in _kmns(b, hi=4))),
        _swept("C-COUNT-Kmn-large", "complete bipartite counts via binomials, small part >=4", _count_check,
               lambda b: ((g.name, g, closed_form("complete_bipartite_large", m=m, n=n), "")
                          for m, n, g in _kmns(b, lo=4))),
        _swept("C-COUNT-Fn", "friendship counts: 2^n * C(n, i-n) sets of size i", _count_check,
               lambda b: ((g.name, g, closed_form("friendship", n=n), "") for n, g in _friendships(b))),
        Claim("L-half", "connected graphs on n>=4 vertices: semitotal number at most n/2", _rows_half_bound),
        Claim("T-half", "trees attaining half order: pendant-path family or the 3-leaf star", _rows_t_half),
        Claim("T-halfgraph", "min-degree-2 graphs attaining half order: C6, C8, K4 spanning subgraphs, "
              "rooted 4-cycle products", _rows_t_halfgraph),
        Claim("T-poly-T", "pendant-path trees: semitotal count polynomial equals the plain one", _rows_poly_trees),
        Claim("T-poly-diamond", "rooted 4-cycle products: semitotal count polynomial equals the plain one",
              _rows_poly_diamond),
        Claim("T-split", "connected split graphs without a dominating vertex: plain, total and semitotal "
              "counts coincide", _rows_split),
        _swept("T4-stab-Kmn", "complete bipartite stability: 0 / 1 / m-3 by small-part size", _stability_check,
               _stab_kmn_entries),
        _swept("T4-stab-path", "path stability by n mod 5: 1, 2 or 3", _stability_check,
               lambda b: ((f"P{n}", path(n), _mod5_stability(n), "") for n in range(4, b + 1))),
        _swept("T4-stab-cycle", "cycle stability by n mod 5: 1, 2 or 3", _stability_check,
               lambda b: ((f"C{n}", cycle(n), _mod5_stability(n), "") for n in range(4, b + 1))),
        _swept("T4-stab-wheel", "wheel stability by n mod 3: 1, 2 or 3", _stability_check,
               lambda b: ((g.name, g, (2, 3, 1)[n % 3], "") for n, g in _wheels(b, 5))),
        _swept("T4-stab-joinpaths", "join of two paths: path stability table, n-7 beyond n=10", _stability_check,
               _joinpaths_entries),
        _swept("T4-stab-grid", "path grid stability equals ceil(2n/5)", _stability_check,
               lambda b: ((f"P{n} x P{m}", g, _ceil(2 * n, 5), "") for n, m, g in _grids(b))),
        _swept("T4-stab-FBS", "stability of friendship (2), book (1; derivation gives 2) and star (1)",
               _stability_check, _fbs_entries),
    )
}


def claim_ids() -> list[str]:
    return list(REGISTRY)


class VerificationReport:
    """Ordered comparison rows plus per-claim summaries."""

    def __init__(
        self,
        rows: list[ClaimRow],
        claim_order: list[str],
        pattern: str,
        budget: int,
        conv: Conventions,
    ):
        self.rows = list(rows)
        self.claim_order = list(claim_order)
        self.pattern = pattern
        self.budget = budget
        self.conventions = conv

    def rows_for(self, claim: str) -> list[ClaimRow]:
        return [r for r in self.rows if r.claim == claim]

    def summary(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for cid in self.claim_order:
            rows = self.rows_for(cid)
            rules = sorted({r.rule for r in rows})
            per_rule = {}
            for rule in rules:
                sub = [r for r in rows if r.rule == rule]
                per_rule[rule] = {
                    "pass": sum(r.verdict == "PASS" for r in sub),
                    "fail": sum(r.verdict == "FAIL" for r in sub),
                    "na": sum(r.verdict == "N/A" for r in sub),
                    "undefined": sum(r.verdict == "UNDEFINED" for r in sub),
                }
            clean = [rule for rule, c in per_rule.items() if c["fail"] == 0 and c["pass"] > 0]
            passing_rule = None
            if len(per_rule) > 1 and len(clean) == 1:
                passing_rule = clean[0]
            out[cid] = {
                "instances": len(rows),
                "rules": per_rule,
                "passing_rule": passing_rule,
                "status": "N/A" if not rows else ("PASS" if all(
                    r.verdict in ("PASS", "N/A") for r in rows) else "HAS-FINDINGS"),
            }
        return out

    def to_json(self) -> str:
        payload = {
            "pattern": self.pattern,
            "budget": self.budget,
            "conventions": {"complete_singleton": self.conventions.complete_singleton},
            "report": [
                {
                    "claim": r.claim,
                    "instance": r.instance,
                    "rule": r.rule,
                    "predicted": r.predicted,
                    "oracle": r.oracle,
                    "verdict": r.verdict,
                    "note": r.note,
                    "details": dict(r.details),
                }
                for r in self.rows
            ],
            "summary": self.summary(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim", "instance", "rule", "predicted", "oracle", "verdict", "note"])
        for r in self.rows:
            note = r.note
            if r.details:
                extra = "; ".join(f"{k}={v}" for k, v in r.details)
                note = f"{note}; {extra}" if note else extra
            writer.writerow([r.claim, r.instance, r.rule, r.predicted, r.oracle, r.verdict, note])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"claims matching {self.pattern!r}, budget {self.budget}"]
        summary = self.summary()
        header = f"{'claim':<20} {'rule':<8} {'pass':>5} {'fail':>5} {'n/a':>5} {'undef':>5}"
        lines.append(header)
        lines.append("-" * len(header))
        for cid in self.claim_order:
            info = summary[cid]
            if not info["rules"]:
                lines.append(f"{cid:<20} {'-':<8} {'-':>5} {'-':>5} {'-':>5} {'-':>5}  (no instances within budget)")
                continue
            for rule, c in info["rules"].items():
                lines.append(
                    f"{cid:<20} {rule:<8} {c['pass']:>5} {c['fail']:>5} {c['na']:>5} {c['undefined']:>5}"
                )
            if info["passing_rule"]:
                lines.append(f"{'':<20} passes only under rule {info['passing_rule']}")
        findings = [r for r in self.rows if r.verdict == "FAIL"]
        if findings:
            lines.append("")
            lines.append(f"findings ({len(findings)} rows where the formula disagrees with the oracle):")
            for r in findings:
                lines.append(f"  {r.claim} | {r.instance} | {r.rule}: predicted {r.predicted}, oracle {r.oracle}")
        return "\n".join(lines) + "\n"


def run_claims(
    pattern: str = "*",
    budget: int = 12,
    conv: Conventions = DEFAULT_CONVENTIONS,
) -> VerificationReport:
    """Evaluate every registered claim whose id matches the glob pattern."""
    if budget > WORD_BITS:
        raise CapacityError(f"budget {budget} is above the word budget of {WORD_BITS} vertices")
    selected = [c for cid, c in REGISTRY.items() if fnmatch(cid, pattern)]
    rows: list[ClaimRow] = []
    for claim in selected:
        for rule in WitnessRule:
            rows.extend(claim.builder(budget, rule, conv))
    return VerificationReport(rows, [c.id for c in selected], pattern, budget, conv)
