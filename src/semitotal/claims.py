"""Machine-checked registry of closed-form identities about semitotal domination.

Each claim pairs a closed-form prediction with an exact oracle (search or
counting) over a deterministic desk-scale instance set.  The oracle is
authoritative: a FAIL row records that the stated formula disagrees with it
on that instance, which is a finding, not an error.  Claims are evaluated
under both witness rules, and the per-claim summary names the rule when a
claim holds under exactly one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .domination import (
    Conventions,
    DEFAULT_CONVENTIONS,
    PLAIN,
    TOTAL,
    WitnessRule,
    _levels,
    _solved_once,
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
from .report import ClaimRow, VerificationReport
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
class Claim:
    """A registered identity: id, statement, row builder (run once per witness rule)."""

    id: str
    description: str
    builder: Callable[[int, WitnessRule, Conventions], list[ClaimRow]]


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
        return (Graph._derived(1, (0,), "K1"),)
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
        out.append(Graph._derived(n, rows, f"tree{n}"))
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


# -- sweeps ---------------------------------------------------------------
#
# Every claim is a sweep, or two run one after the other.  A sweep's entries
# yield (instance, subject, prediction, note) in report order, where the
# subject is what the check computes on (a graph, a pair of factors, an
# order), and its check turns one entry into its rows under one rule.

_Entry = tuple[str, object, object, str]
_Check = Callable[[str, str, WitnessRule, Conventions, object, object, str], list[ClaimRow]]
_Entries = Callable[[int], Iterable[_Entry]]
_Sweep = tuple[_Check, _Entries]


def _noted(note: str, text: str) -> str:
    return f"{note}; {text}" if note else text


def _or_none(value) -> str:
    return "none" if value is None else _show(value)


def _sweep_rows(cid: str, check: _Check, entries: Iterable[_Entry], rule: WitnessRule,
                conv: Conventions) -> list[ClaimRow]:
    """The rows of ``check`` over ``entries``; a typed computation error
    becomes one UNDEFINED row for its entry.

    This is the one place that catches; any other exception is a
    programming error and propagates.
    """
    rows: list[ClaimRow] = []
    for instance, subject, predicted, note in entries:
        try:
            rows.extend(check(cid, instance, rule, conv, subject, predicted, note))
        except COMPUTATION_ERRORS as exc:
            rows.append(ClaimRow(cid, instance, rule.value, _or_none(predicted), "error", "UNDEFINED",
                                 _noted(note, f"{type(exc).__name__}: {exc}")))
    return rows


def _sweeps_rows(cid: str, sweeps: tuple[_Sweep, ...], budget: int, rule: WitnessRule,
                 conv: Conventions) -> list[ClaimRow]:
    return [row for check, entries in sweeps for row in _sweep_rows(cid, check, entries(budget), rule, conv)]


def _swept(cid: str, description: str, check: _Check, entries: _Entries, *more: _Sweep) -> Claim:
    """A claim of one sweep, or of several whose rows follow one another."""
    sweeps = ((check, entries), *more)
    return Claim(cid, description, lambda budget, rule, conv: _sweeps_rows(cid, sweeps, budget, rule, conv))


# -- checks ---------------------------------------------------------------


def _compared(claim: str, instance: str, rule: WitnessRule, predicted, actual, note: str) -> list[ClaimRow]:
    """One row comparing ``actual`` with ``predicted``; a None prediction gives N/A."""
    if predicted is None:
        verdict = "N/A"
    else:
        verdict = "PASS" if actual == predicted else "FAIL"
    return [ClaimRow(claim, instance, rule.value, _or_none(predicted), _show(actual), verdict, note)]


def _value_check(claim, instance, rule, conv, g, predicted, note):
    return _compared(claim, instance, rule, predicted, _gt2(g, rule, conv), note)


def _difference_check(claim, instance, rule, conv, g, predicted, note):
    return _compared(claim, instance, rule, predicted, _difference(g, rule, conv), note)


def _arith_check(claim, instance, rule, conv, n, predicted, note):
    """ceil(2n/5) - ceil(n/3) against a table row ('eq', v) or ('ge', v); None is no row."""
    diff = _ceil(2 * n, 5) - _ceil(n, 3)
    if predicted is None:
        return _compared(claim, instance, rule, None, diff, "no table row covers this n")
    kind, bound = predicted
    if kind == "eq":
        return _compared(claim, instance, rule, bound, diff, note)
    verdict = "PASS" if diff >= bound else "FAIL"
    return [ClaimRow(claim, instance, rule.value, f">= {bound}", str(diff), verdict, note)]


def _gamma_check(claim, instance, rule, conv, g, predicted, note):
    return _compared(claim, instance, rule, _gamma(g), _gt2(g, rule, conv), note)


def _corona_check(claim, instance, rule, conv, factors, predicted, note):
    g, h = factors
    gv = _gt2(g, rule, conv)
    hv = _gt2(h, rule, conv)
    if gv is None or hv is None:
        return [ClaimRow(claim, instance, rule.value, predicted, "undefined", "UNDEFINED",
                         "a factor's semitotal number is undefined under this rule")]
    bound = gv + hv * (g.n - gv)
    actual = _gt2(corona(g, h), rule, conv)
    if actual is None:
        return [ClaimRow(claim, instance, rule.value, f"<= {bound}", "undefined", "UNDEFINED",
                         "corona value undefined under this rule")]
    if h.is_complete():
        verdict = "PASS" if actual == bound else "FAIL"
        return [ClaimRow(claim, instance, rule.value, f"= {bound}", str(actual), verdict,
                         "equality required: the copy factor is complete")]
    verdict = "PASS" if actual <= bound else "FAIL"
    return [ClaimRow(claim, instance, rule.value, f"<= {bound}", str(actual), verdict)]


def _join_check(claim, instance, rule, conv, factors, predicted, note):
    g, h = factors
    gv, hv = _gt2(g, rule, conv), _gt2(h, rule, conv)
    if gv is None or hv is None:
        return [ClaimRow(claim, instance, rule.value, predicted, "skipped", "UNDEFINED",
                         "a factor's semitotal number is undefined under this rule")]
    return _compared(claim, instance, rule, min(gv, hv, 4), _gt2(join(g, h), rule, conv), note)


def _join_complete_check(claim, instance, rule, conv, factors, predicted, note):
    g, h = factors
    hv = _gt2(h, rule, conv)
    if hv is None:
        return [ClaimRow(claim, instance, rule.value, "undefined", "skipped", "UNDEFINED",
                         "the non-complete factor's value is undefined under this rule")]
    return _compared(claim, instance, rule, hv, _gt2(join(g, h), rule, conv), note)


def _count_check(claim, instance, rule, conv, g, predicted, note):
    oracle = count_by_size(g, semitotal(rule), conv)
    rows = []
    for i in range(1, g.n + 1):
        pred = predicted[i] if i < len(predicted) else 0
        verdict = "PASS" if pred == oracle[i] else "FAIL"
        negative = "predicted count is negative" if pred < 0 else ""
        rows.append(ClaimRow(claim, f"{instance} i={i}", rule.value, str(pred), str(oracle[i]), verdict, negative))
    return rows


def _half_bound_check(claim, instance, rule, conv, g, predicted, note):
    value = _gt2(g, rule, conv)
    if value is None:
        return [ClaimRow(claim, instance, rule.value, predicted, "undefined", "UNDEFINED",
                         "no semitotal dominating set under this rule")]
    verdict = "PASS" if 2 * value <= g.n else "FAIL"
    return [ClaimRow(claim, instance, rule.value, predicted, str(value), verdict)]


def _half_tree_check(claim, instance, rule, conv, t, predicted, note):
    """A tree attaining half order must be a pendant-path tree or K1,3.  It
    attains n/2 when the deepening from level n/2 - 1 finds no set there, then
    one; a tree that does not attains gives no row."""
    levels = _levels(t, semitotal(rule), t.n // 2 - 1)
    if not (next(levels, 0) is None and next(levels) is not None):
        return []
    code = _tree_code(t)
    member = code in _pendant_family_codes(t.n) or code == _tree_code(star(3))
    verdict = "PASS" if member else "FAIL"
    return [ClaimRow(claim, instance, rule.value, predicted, "attains n/2", verdict,
                     "" if member else "tree attains half order but is outside the family")]


def _negative_cycle_check(claim, instance, rule, conv, g, predicted, note):
    value = _gt2(g, rule, conv)
    verdict = "PASS" if value is not None and 2 * value != g.n else "FAIL"
    return [ClaimRow(claim, instance, rule.value, predicted, _show(value), verdict, note)]


def _poly_check(claim, instance, rule, conv, g, predicted, note):
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
        ("first_difference", _or_none(fd)),
        ("gamma_t2", _show(gt2)),
        ("equal_from_gamma_t2", restricted),
    )
    return [ClaimRow(claim, instance, rule.value, d_plain.format(), d_semi.format(), verdict,
                     "literal claim is full equality; details give the restricted comparison", details)]


def _split_check(claim, instance, rule, conv, g, predicted, note):
    if has_dominating_vertex(g):
        return [ClaimRow(claim, instance, rule.value, predicted, "skipped", "N/A",
                         "instance has a dominating vertex")]
    d_plain = count_by_size(g, PLAIN, conv)
    d_total = count_by_size(g, TOTAL, conv)
    d_semi = count_by_size(g, semitotal(rule), conv)
    fd_t = d_plain.first_difference(d_total)
    fd_s = d_plain.first_difference(d_semi)
    verdict = "PASS" if fd_t is None and fd_s is None else "FAIL"
    details = (
        ("first_difference_plain_vs_semitotal", _or_none(fd_s)),
        ("first_difference_plain_vs_total", _or_none(fd_t)),
    )
    return [ClaimRow(claim, instance, rule.value, d_plain.format(), d_semi.format(),
                     verdict, "compares plain, total and semitotal counts", details)]


def _stability_check(claim, instance, rule, conv, g, predicted, note):
    hit = stability_witness(g, rule, conv, RemovalPolicy.SKIP_SET)
    if hit is None:
        return [ClaimRow(claim, instance, rule.value, _show(predicted), "undefined", "FAIL",
                         _noted(note, "no removal changes the value"))]
    k, witness = hit
    verdict = "PASS" if k == predicted else "FAIL"
    details = (("witness", str(bits_list(witness))),)
    return [ClaimRow(claim, instance, rule.value, _show(predicted), str(k), verdict, note, details)]


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
    entry = (f"({g.name or 'G'})o({h.name or 'H'})", (g, h), "bound", "")
    return _sweep_rows("T-corona", _corona_check, [entry], rule, conv)[0]


# -- entries --------------------------------------------------------------


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


# The table's explicit rows stop at n = 82 plus an open-ended row from 83;
# the arithmetic side costs nothing, so it always covers n <= 90, and the
# solver side checks every "eq" row up to the budget.
def _t22_i_arith_entries(budget: int) -> Iterator[_Entry]:
    return ((f"arith n={n}", n, _path_difference_prediction(n), "") for n in range(4, 91))


def _t22_i_solver_entries(budget: int) -> Iterator[_Entry]:
    for n in range(4, budget + 1):
        pred = _path_difference_prediction(n)
        if pred is not None and pred[0] == "eq":
            yield f"solver n={n}", path(n), pred[1], ""


def _corona_entries(budget: int) -> Iterator[_Entry]:
    firsts = [path(2), path(3), path(4), cycle(3), cycle(4), cycle(5), star(3)]
    seconds = [complete(1), complete(2), complete(3), path(3), star(3)]
    return ((f"({g.name})o({h.name})", (g, h), "bound", "")
            for g in firsts for h in seconds if g.n * (1 + h.n) <= budget)


def _noncomplete_catalog() -> list[Graph]:
    return [path(3), path(4), path(5), path(6), path(7), cycle(4), cycle(5), cycle(6), star(3)]


def _join_entries(budget: int) -> Iterator[_Entry]:
    cat = _noncomplete_catalog()
    return ((f"({g.name})v({h.name})", (g, h), "min", "")
            for i, g in enumerate(cat) for h in cat[i:] if g.n + h.n <= budget)


def _join_complete_entries(budget: int) -> Iterator[_Entry]:
    return ((f"({g.name})v({h.name})", (g, h), "H's value", "")
            for g in map(complete, (1, 2, 3)) for h in _noncomplete_catalog() if g.n + h.n <= budget)


def _grid_prediction(n: int, m: int) -> int:
    a = _ceil(2 * n, 5)
    return a * _ceil(m, 3) + (m // 3) * (n - a)


def _connected_catalog(budget: int) -> Iterator[Graph]:
    yield from map(path, range(4, budget + 1))
    yield from map(cycle, range(4, budget + 1))
    for sweep in (_stars(budget), _kmns(budget), _wheels(budget), _friendships(budget), _books(budget)):
        yield from (entry[-1] for entry in sweep)
    yield from map(complete, range(4, budget + 1))
    if budget >= 10:
        yield petersen()


def _forward_tree_entries(budget: int) -> Iterator[_Entry]:
    """Every pendant-path tree attains half order."""
    return ((f"forward {label}", t, t.n // 2, "") for label, t in _pendant_trees(budget))


def _reverse_tree_entries(budget: int) -> Iterator[_Entry]:
    # An odd order is never twice a value, so only even orders give rows.
    return ((f"reverse tree{n}#{idx}", t, "pendant-path family or K1,3", "")
            for n in range(4, min(budget, _TREE_CAP) + 1, 2) for idx, t in enumerate(_all_trees(n)))


def _half_graph_entries(budget: int) -> Iterator[_Entry]:
    """The named members of the family: C6, C8, the K4 spanning subgraphs of
    minimum degree 2 and the rooted 4-cycle products.  Up to isomorphism
    those subgraphs are C4, K4 - e and K4, one per edge count, so the first
    of each edge count stands for its class."""
    for n in (6, 8):
        if n <= budget:
            yield f"C{n}", cycle(n), n // 2, ""
    if budget >= 4:
        seen: set[int] = set()
        pairs = list(combinations(range(4), 2))
        for bits in range(64):
            g = Graph.from_edges(4, [pairs[i] for i in range(6) if bits >> i & 1])
            if not g.is_connected() or min(g.degree(v) for v in range(4)) < 2 or g.edge_count() in seen:
                continue
            seen.add(g.edge_count())
            yield (f"K4 spanning subgraph m={g.edge_count()}", g, 2,
                   "convention gate disabled" if g.is_complete() else "")
    for big in _diamonds(budget):
        yield big.name, big, big.n // 2, ""


def _negative_cycle_entries(budget: int) -> Iterator[_Entry]:
    return ((f"negative C{n}", cycle(n), f"!= {n}/2", "cycles outside the family must not attain half order")
            for n in range(10, budget + 1, 2))


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


def _split_entries(budget: int) -> Iterator[_Entry]:
    return ((f"split({c},{i},p={p},seed={seed})", random_split_graph(c, i, p, seed), "equal polynomials", "")
            for c, i, p, seed in _SPLIT_PARAMS if c + i <= budget)


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


# -- half-order characterizations -------------------------------------------


_HALF_SWEEPS: dict[str, tuple[_Sweep, ...]] = {
    "T-half": ((_value_check, _forward_tree_entries), (_half_tree_check, _reverse_tree_entries)),
    "T-halfgraph": ((_value_check, _half_graph_entries), (_negative_cycle_check, _negative_cycle_entries)),
}


@lru_cache(maxsize=None)
def _half_rows(budget: int, rule: WitnessRule, claim: str) -> tuple[ClaimRow, ...]:
    """Rows of the half-order characterization ``claim``, T-half or
    T-halfgraph (bare conventions); each claim computes only its own rows."""
    return tuple(_sweeps_rows(claim, _HALF_SWEEPS[claim], budget, rule, _BARE))


def _half_claim(cid: str, description: str) -> Claim:
    return Claim(cid, description, lambda budget, rule, conv: list(_half_rows(budget, rule, cid)))


def half_order_characterization_check(
    budget: int = 12,
    rules: tuple[WitnessRule, ...] = (WitnessRule.WITHIN_TWO,),
) -> "VerificationReport":
    """Standalone run of the half-order characterization claims."""
    _check_budget(budget)
    rows = [row for rule in rules for claim in _HALF_SWEEPS for row in _half_rows(budget, rule, claim)]
    return VerificationReport(rows, ["T-half", "T-halfgraph"], "T-half*", budget, _BARE)


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
        _swept("T2.2.i", "paths: semitotal minus plain follows a piecewise range table", _arith_check,
               _t22_i_arith_entries, (_difference_check, _t22_i_solver_entries)),
        _swept("T2.2.ii", "Petersen graph: semitotal number equals domination number", _gamma_check,
               lambda b: [("Petersen", petersen(), "domination number", "")] if b >= 10 else []),
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
        _swept("T-corona", "corona: value at most gt2(G)+gt2(H)(|G|-gt2(G)), sharp for complete H", _corona_check,
               _corona_entries),
        _swept("T-join", "join of non-complete graphs of order >=3: min of factor values and 4", _join_check,
               _join_entries),
        _swept("T-joinK", "complete graph joined to non-complete H: value equals H's value", _join_complete_check,
               _join_complete_entries),
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
        _swept("L-half", "connected graphs on n>=4 vertices: semitotal number at most n/2", _half_bound_check,
               lambda b: ((g.name, g, f"<= {g.n}/2", "") for g in _connected_catalog(b))),
        _half_claim("T-half", "trees attaining half order: pendant-path family or the 3-leaf star"),
        _half_claim("T-halfgraph", "min-degree-2 graphs attaining half order: C6, C8, K4 spanning subgraphs, "
                    "rooted 4-cycle products"),
        _swept("T-poly-T", "pendant-path trees: semitotal count polynomial equals the plain one", _poly_check,
               lambda b: ((label, t, "equal polynomials", "") for label, t in _pendant_trees(b))),
        _swept("T-poly-diamond", "rooted 4-cycle products: semitotal count polynomial equals the plain one",
               _poly_check, lambda b: ((big.name, big, "equal polynomials", "") for big in _diamonds(b))),
        _swept("T-split", "connected split graphs without a dominating vertex: plain, total and semitotal "
               "counts coincide", _split_check, _split_entries),
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


def _check_budget(budget: int) -> None:
    """A negative budget raises ValueError, one above the word budget CapacityError."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if budget > WORD_BITS:
        raise CapacityError(f"budget {budget} is above the word budget of {WORD_BITS} vertices")


def run_claims(
    pattern: str = "*",
    budget: int = 12,
    conv: Conventions = DEFAULT_CONVENTIONS,
) -> VerificationReport:
    """Evaluate every registered claim whose id matches the glob pattern.

    Each graph is solved at most once per variant in one run: the solvers
    share a table of results (``domination._solved_once``) that lives only
    for the length of the call.
    """
    _check_budget(budget)
    selected = [c for cid, c in REGISTRY.items() if fnmatch(cid, pattern)]
    rows: list[ClaimRow] = []
    with _solved_once():
        for claim in selected:
            for rule in WitnessRule:
                rows.extend(claim.builder(budget, rule, conv))
    return VerificationReport(rows, [c.id for c in selected], pattern, budget, conv)
