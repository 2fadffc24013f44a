"""Exact domination solvers: membership tests, optimization, and counting.

Three variants are supported: plain domination (closed-neighborhood cover),
total domination (open-neighborhood cover) and semitotal domination
(dominating set in which every member has a distance witness).  Semitotal
takes the witness rule explicitly, because the two readings of "within
distance 2" (at most 2 versus exactly 2) give different values on many
families; every caller must say which one it means.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import combinations, compress, islice
from math import comb
from typing import Iterable, Iterator

from .errors import BudgetExceededError, EmptyGraphError, IsolatesError
from .graph import Graph, iter_bits, mask_from
from .polynomial import CountPolynomial


class WitnessRule(enum.Enum):
    """Distance predicate a member's witness must satisfy."""

    WITHIN_TWO = "within2"
    EXACTLY_TWO = "exact2"


class Variant(enum.Enum):
    """The four domination variants, by code: ``Variant("exact2")`` is
    SEMITOTAL_EXACT, and any other code is refused with ``ValueError``.
    ``kind`` is "plain", "total" or "semitotal", and ``rule`` is the
    semitotal witness rule, None for the other two."""

    PLAIN = "plain"
    TOTAL = "total"
    SEMITOTAL_WITHIN = "within2"
    SEMITOTAL_EXACT = "exact2"

    # by identity: the inherited Enum.__hash__ runs Python code on every run-table lookup
    __hash__ = object.__hash__

    def __init__(self, code: str) -> None:
        self.rule = next((rule for rule in WitnessRule if rule.value == code), None)
        self.kind = code if self.rule is None else "semitotal"


PLAIN, TOTAL, SEMITOTAL_WITHIN, SEMITOTAL_EXACT = Variant


def semitotal(rule: WitnessRule = WitnessRule.WITHIN_TWO) -> Variant:
    """The semitotal variant under ``rule``: one shared instance per rule."""
    if rule is WitnessRule.WITHIN_TWO:
        return SEMITOTAL_WITHIN
    if rule is WitnessRule.EXACTLY_TWO:
        return SEMITOTAL_EXACT
    raise ValueError(f"unknown witness rule {rule!r}")


@dataclass(frozen=True)
class Conventions:
    """Value conventions applied by the number/count operations only.

    ``complete_singleton``: treat single vertices of a complete graph as
    semitotal dominating sets, so the semitotal number of a complete graph
    is 1.  The bare membership predicates never apply this.
    """

    complete_singleton: bool = True


DEFAULT_CONVENTIONS = Conventions()


# -- membership predicates ---------------------------------------------


def _validate(g: Graph, variant: Variant) -> None:
    if g.n == 0:
        raise EmptyGraphError("domination is undefined on the empty graph")
    if variant is not PLAIN and not g.is_isolate_free():
        raise IsolatesError("operation requires an isolate-free graph")


def _member_test(g: Graph, variant: Variant, members: int) -> bool:
    """``_is_valid`` behind the checks of the public predicates: the graph
    by ``_validate``, then the members against the graph's vertices."""
    _validate(g, variant)
    if members & ~g.full_mask:
        raise ValueError("member set contains vertices outside the graph")
    return _is_valid(g, variant, members)


def is_dominating(g: Graph, members: int) -> bool:
    """True iff the closed neighborhoods of the members cover every vertex."""
    return _member_test(g, PLAIN, members)


def is_total_dominating(g: Graph, members: int) -> bool:
    """True iff every vertex (members included) has a neighbor in the set."""
    return _member_test(g, TOTAL, members)


def is_semitotal(g: Graph, members: int, rule: WitnessRule) -> bool:
    """Dominating, and every member has another member as distance witness.

    A singleton never satisfies the witness clause; the complete-graph
    convention is applied only by the number/count operations, never here.
    """
    return _member_test(g, semitotal(rule), members)


def _cover(g: Graph, variant: Variant) -> tuple[int, ...]:
    """The variant's cover masks by vertex: open rows under total, else closed."""
    return g.adj if variant is TOTAL else g.closed


def _masks(g: Graph, variant: Variant) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """The variant's cover masks by vertex, and its witness masks by vertex
    under semitotal, else None."""
    cover = _cover(g, variant)
    if variant is SEMITOTAL_WITHIN:
        return cover, g._ball2_all()
    if variant is SEMITOTAL_EXACT:
        return cover, g._sphere2_all()
    return cover, None


def _gate_applies(g: Graph, variant: Variant, conv: Conventions) -> bool:
    # Checked before the isolate-free precondition so that complete graphs,
    # K_1 included, get the conventional value 1 (the corona sharpness
    # checks need a semitotal number for K_1).
    return (
        variant.rule is not None
        and conv.complete_singleton
        and g.n >= 1
        and g.is_complete()
    )


def _allowed(g: Graph, variant: Variant) -> int:
    """The vertices that can belong to some valid set, as a mask: every
    vertex, or for semitotal those with a vertex to witness them."""
    witness = _masks(g, variant)[1]
    return g.full_mask if witness is None else mask_from(compress(range(g.n), witness))


def _is_valid(g: Graph, variant: Variant, members: int, removed: int = 0) -> bool:
    """True iff the members are a valid set of g - ``removed``, read in g's
    indices: they miss ``removed``, cover every other vertex and, for
    semitotal, each has another member as witness, adjacent (within2 only) or
    through a common neighbour outside ``removed`` (exact2: and not adjacent).
    The witness is found from ``g.adj``, not from the witness masks."""
    if members & removed:
        return False
    cover = _cover(g, variant)
    cov = removed
    for v in iter_bits(members):
        cov |= cover[v]
    if variant.rule is None or cov != g.full_mask:
        return cov == g.full_mask
    adj = g.adj
    for v in iter_bits(members):
        if variant is SEMITOTAL_WITHIN and adj[v] & members:
            continue
        # a neighbour of v outside ``removed`` next to a member that is not next to v
        far, rest = members & ~adj[v] & ~(1 << v), adj[v] & ~removed
        while rest and not adj[(rest & -rest).bit_length() - 1] & far:
            rest &= rest - 1
        if not rest:
            return False
    return True


def _valid_sets(g: Graph, variant: Variant, sizes: Iterable[int]) -> Iterator[int]:
    """Valid sets over the feasible members, size by size in the given order,
    lexicographic in vertex order within one size.  Refused before a size
    that takes the sets visited past ``_MAX_SETS``."""
    pool = [1 << v for v in iter_bits(_allowed(g, variant))]
    total = 0
    for k in sizes:
        candidates = comb(len(pool), k)
        total += candidates
        if total > _MAX_SETS:
            raise BudgetExceededError(f"{candidates} candidate sets of size {k} take the total past {_MAX_SETS} sets")
        for combo in combinations(pool, k):
            m = sum(combo)
            if _is_valid(g, variant, m):
                yield m


# -- exact optimization -------------------------------------------------

# The most sets an exhaustive enumeration may visit: candidate sets in
# ``_valid_sets``, removal sets in the stability scan.  Below 23 vertices it never binds.
_MAX_SETS = 1 << 22


def brute_force_number(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
) -> int | None:
    """Minimum size by enumerating subsets in increasing cardinality.

    The oracle the branch-and-bound solver is checked against.  Returns None
    when no valid set of any size exists (possible under the exact-distance
    witness rule).  Refused with ``BudgetExceededError`` before the size that
    takes the subsets visited past ``_MAX_SETS``, after up to about 11 s.
    """
    if _gate_applies(g, variant, conv):
        return 1
    _validate(g, variant)
    first = next(_valid_sets(g, variant, range(1, g.n + 1)), None)
    return None if first is None else first.bit_count()


# Results solved during one claim-harness run or one stability search:
# (number, optimal set) by (adjacency, variant), raw, with no convention
# applied.  The set is None when no valid set exists or none has been
# searched for yet (the number came from ``_least_size``).  ``_solved_once``
# installs a table for the length of the outermost such call; outside it
# there is none and nothing is stored.
_solved: ContextVar[dict[tuple[tuple[int, ...], Variant], tuple[int | None, int | None]] | None] = \
    ContextVar("_solved", default=None)


@contextmanager
def _solved_once() -> Iterator[None]:
    """Solve each (graph, variant) at most once inside the block, in this
    thread; a block inside another shares the outer block's table."""
    if _solved.get() is not None:
        yield
        return
    token = _solved.set({})
    try:
        yield
    finally:
        _solved.reset(token)


def _stored(adj: tuple[int, ...], variant: Variant) -> tuple[int | None, int | None] | None:
    """The (number, set) the run's table holds for the graph with adjacency
    ``adj``, or None when it holds none or there is no table."""
    table = _solved.get()
    return None if table is None else table.get((adj, variant))


def domination_number(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
) -> int | None:
    """Minimum size of a valid set.

    The first deepening level of ``_minimum_set``'s branch and bound runs
    first; it is cheap and settles every graph whose root bound is already
    the number (paths and cycles among them).  When it finds no set on a
    graph with more subsets than ``_least_size`` may take state steps
    (2^n > ``_MAX_NUMBER_STATES`` * n, from 17 vertices), the number comes
    from that dynamic program instead: its beam pass finds a valid set, and
    its decision pass, told that the first level is refuted, looks for a
    smaller one.  When the decision pass passes its state cap, the deepening
    continues from the next level.  Returns None when no valid set exists.
    Inside ``_solved_once`` the raw number (and the set, when one was found)
    is looked up in and stored to the run's table after the convention gate.
    """
    if _gate_applies(g, variant, conv):
        return 1
    _validate(g, variant)
    table = _solved.get()
    if table is None:
        return _solve(g, variant)[0]
    key = (g.adj, variant)
    solved = table.get(key)
    if solved is None:
        solved = table[key] = _solve(g, variant)
    return solved[0]


def _solve(g: Graph, variant: Variant) -> tuple[int | None, int | None]:
    """The number by the strategy of ``domination_number``, with the optimal
    set the deepening found, or None when the number came from ``_least_size``."""
    levels = _levels(g, variant)
    first = next(levels, 0)  # a valid set is never empty, so 0 means none exists
    if first is not None:
        return (first.bit_count(), first) if first else (None, None)
    if 1 << g.n > _MAX_NUMBER_STATES * g.n:
        try:
            return _least_size(g, variant, True), None
        except BudgetExceededError:
            pass
    best = next(filter(None, levels))
    return best.bit_count(), best


def _packing(reqs: list[int]) -> tuple[int, int]:
    """Union and size of a greedy packing of pairwise disjoint candidate
    masks: each one needs its own member, so this many are still needed."""
    used = size = 0
    for cands in reqs:
        if not cands & used:
            used |= cands
            size += 1
    return used, size


def _counting_bound(g: Graph, variant: Variant) -> list[int]:
    """Members still needed to cover U uncovered vertices, by U from 0 to n.

    With g the largest cover mask of an allowed vertex, each new member
    covers at most g new vertices: ceil(U / g).  Under semitotal a member
    and its witness are within distance 2, so their closed neighbourhoods
    share a vertex.  Root a spanning forest of the witness relation on the
    new members: each non-root member, and each root witnessed by an earlier
    member, covers at most g - 1 new vertices, and every other root heads a
    component of at least two, so U <= t (2g - 1) / 2 for t new members.
    On P_n and C_n this gives ceil(2n / 5), the semitotal number.
    """
    cover, witness = _masks(g, variant)
    if witness is not None:
        reach = max(map(int.bit_count, compress(cover, witness)))
        return [-(-2 * uncovered // (2 * reach - 1)) for uncovered in range(g.n + 1)]
    reach = max(map(int.bit_count, cover))
    return [-(-uncovered // reach) for uncovered in range(g.n + 1)]


def _minimum_set(g: Graph, variant: Variant) -> int | None:
    """An optimal valid set as a mask, from the deepening of ``_levels``.

    Deterministic.  Returns None when no valid set exists.  Applies no
    convention and assumes ``_validate`` passed.  Finding the graph's number
    in the table of ``_solved_once``, the deepening searches only that level,
    which is the call the full deepening ends with, so the set is the same.
    Inside ``_solved_once`` the set is looked up in and stored to the run's
    table.
    """
    table = _solved.get()
    key = (g.adj, variant)
    number = None
    solved = None if table is None else table.get(key)
    if solved is not None:
        number, best = solved
        if best is not None or number is None:
            return best
    best = next(filter(None, _levels(g, variant, number)), None)
    if table is not None:
        table[key] = (None if best is None else best.bit_count()), best
    return best


def _levels(g: Graph, variant: Variant, start: int | None = None) -> Iterator[int | None]:
    """The levels of an iterative-deepening branch and bound, one per item:
    None for a level with no valid set, then the first set found, as a mask.
    Yields nothing when no valid set exists.  The deepening begins at the
    root bound, or at level ``start`` when one is given, so that the first
    item tells whether a valid set of at most ``start`` members exists.

    A search node lists its open requirements: each uncovered vertex, whose
    candidates are the free (allowed, unchosen, unbanned) vertices covering
    it, and, for semitotal, each member without a witness, whose candidates
    are the free vertices able to witness it.  The search branches on the
    requirement with the fewest candidates and bans each candidate once its
    branch fails.  Both relations are symmetric, so a child's list is its
    parent's less the requirements the new member w meets, masked with the
    child's free set, plus w's witness requirement when no earlier member
    witnesses it; an empty mask prunes the child.  Requirements with pairwise
    disjoint candidate sets each need their own new member, so a greedy
    packing of them bounds the members still needed, as does
    ``_counting_bound``; both set the first deepening level and prune each
    child before it is searched, the counting bound before its list is built.
    When the packing is as large as the members left, each of them needs its
    own packed requirement, so the node and its whole subtree choose only
    among the packed candidates.  The search stays deterministic and searches
    each level on its own; this cut changes ties in the sort, so its set can
    differ from the one found without it.
    """
    cover, witness = _masks(g, variant)
    n = g.n
    allowed = _allowed(g, variant)

    def search(chosen: int, covered: int, free: int, reqs: list[int], budget: int, used: int, size: int) -> int | None:
        if size == budget:
            free &= used  # every member still to be chosen sits in its own packed requirement
        budget -= 1  # what is left for the children
        rest = reqs[0]
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            free &= ~bit  # w is chosen in this branch and banned in the later ones
            grown = covered | cover[w]
            if need[n - grown.bit_count()] > budget:
                continue
            child = [cands & free for cands in reqs if not cands & bit]
            if witness is not None and not chosen & witness[w]:
                child.append(witness[w] & free)
            if not child:
                return chosen | bit
            child.sort(key=int.bit_count)
            if not child[0]:
                continue
            packed = _packing(child)
            if packed[1] <= budget:
                found = search(chosen | bit, grown, free, child, budget, *packed)
                if found is not None:
                    return found
        return None

    # Without candidates at the root some vertex cannot be covered at all.
    # Otherwise the whole allowed set is valid (each allowed vertex has a
    # witness, which is itself allowed), so the deepening below terminates.
    # A semitotal set has at least two members: a singleton has no witness.
    reqs = sorted([row & allowed for row in cover], key=int.bit_count)
    if not reqs[0]:
        return
    need = _counting_bound(g, variant)
    packed = _packing(reqs)
    k = max(packed[1], need[n], 1 if witness is None else 2) if start is None else start
    while (found := search(0, 0, allowed, reqs, k, *packed)) is None:
        yield None
        k += 1
    yield found


def minimum_sets(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
    limit: int = 16,
) -> list[int]:
    """Up to ``limit`` optimal sets as bit masks, in lexicographic vertex order.

    The sets are enumerated among all candidate sets of the optimal size, so
    a graph with more than ``_MAX_SETS`` of them is refused with
    ``BudgetExceededError`` before any is visited.
    """
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if _gate_applies(g, variant, conv):
        return [1 << v for v in range(min(limit, g.n))]
    opt = domination_number(g, variant, conv)
    if opt is None:
        return []
    return list(islice(_valid_sets(g, variant, (opt,)), limit))


# -- exact counting ------------------------------------------------------

# The state caps of the two ``_frontier`` kernels.  A step at most doubles
# the table, so it never holds more than twice its cap.  Counting has no
# other way to its answer, so its cap is wide: P8xP8 under exact2 peaks at
# 77,776 states and K13,14 at 8,192, while K30,34 passes the cap with 18 of
# its 64 vertices decided.
_MAX_STATES = 1 << 17

# The number has the branch and bound to fall back on, so its cap is narrow:
# a refused decision pass costs a few milliseconds before the deepening takes
# over.  That pass keeps only the states that can still finish below the
# beam's size, so exact2 P7xP7 fits at a peak of about 1,200 states, where
# its whole min-plus table needs 18,003 (2.5 MiB).  P8xP8 under both rules
# still passes the cap and stays on the branch and bound.
_MAX_NUMBER_STATES = 1 << 12


def _bfs_order(g: Graph) -> list[int]:
    """The vertices breadth first, each component from a vertex of least degree."""
    adj = g.adj
    order: list[int] = []
    seen = 0
    for root in sorted(range(g.n), key=lambda v: adj[v].bit_count()):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        start = len(order)
        order.append(root)
        for v in islice(order, start, None):  # reads what it appends
            fresh = adj[v] & ~seen
            seen |= fresh
            order.extend(iter_bits(fresh))
    return order


def _frontier(g: Graph, variant: Variant) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """A vertex order and the steps of a dynamic program over it, one per vertex.

    Every requirement is a clause.  Cover clause u (bit u) asks for a member
    in ``cover[u]``.  Under semitotal, witness clause v (bit n + v) asks that
    v be no member or that some vertex of ``witness[v]`` be one.  Both
    relations are symmetric, so a member v meets the clauses in ``member =
    cover[v] | witness[v] << n``, and an outsider v meets ``out``, its own
    witness clause.  Vertices are decided in ``_bfs_order``, and a state is
    the set of clauses the decided vertices meet.  A clause not met when its
    last vertex is decided can no longer be met, so the state is dropped
    there: a state goes on as an outsider only if it holds ``need_out``, the
    closing clauses v does not meet as one, and as a member only if it holds
    ``need_in``.  Every kept state thus holds all closed clauses and none
    that no decided vertex touches, so states differ only in the open
    clauses: the table follows the frontier width of the order, not 2^n.
    The step of v is ``(out, member, need_out, need_in)``; the one state left
    after the last step, if any, has every clause met.
    """
    n = g.n
    cover, witness = _masks(g, variant)
    met = [(0, row) for row in cover] if witness is None else \
        [(1 << n + v, cover[v] | witness[v] << n) for v in range(n)]
    order = _bfs_order(g)
    steps, seen = [], 0
    for v in reversed(order):
        out, member = met[v]
        last = (out | member) & ~seen
        seen |= out | member
        steps.append((out, member, last & ~out, last & ~member))
    steps.reverse()
    return order, steps


def _too_many_states(cap: int, decided: int, n: int) -> BudgetExceededError:
    return BudgetExceededError(f"counting needs more than {cap} states with {decided} of {n} vertices decided")


# The states the beam pass of ``_least_size`` keeps after each step.  With
# 16 the beam ends at 15 on relabelled exact2 P7xP7, whose number is 14, and
# the decision pass below 15 then needs about 11,500 states.
_BEAM_WIDTH = 48


def _least_size(g: Graph, variant: Variant, refuted: bool = False) -> int | None:
    """Least size of a valid set, by two passes over the steps of
    ``_frontier`` over min-plus: a state's value is the least number of
    members of a partial set that reaches it, a member adds 1, and two values
    that reach one state keep the smaller.

    Both passes drop a state once its size plus a lower bound on the members
    it still needs passes a limit.  The bound is the larger of a greedy
    packing of the cover clauses no decided vertex touches (one number per
    step) and ``_counting_bound`` of the cover clauses the state has not met.
    The beam pass keeps the ``_BEAM_WIDTH`` states of least size after each
    step, ties to fewer uncovered vertices, so its final state, if any, is a
    valid set of ub members.  The decision pass keeps every state that can
    still finish below ub, and its least size, or ub when it finds none, is
    the answer whatever the beam found.  It is skipped when ub is the bound
    at the first step, or one more when ``refuted`` says the caller found no
    valid set of that many members (the first level of ``_levels``, which is
    at least that bound).  Returns None when no valid set exists.  Applies no
    convention.  Raises ``BudgetExceededError`` once a step of the decision
    pass leaves more than ``_MAX_NUMBER_STATES`` states."""
    cap, n, full = _MAX_NUMBER_STATES, g.n, g.full_mask
    top = n + 1  # above every size and every count of covered vertices
    allowed = _allowed(g, variant)
    cands = sorted([row & allowed for row in _masks(g, variant)[0]], key=int.bit_count)
    if not cands[0]:
        return None  # some vertex has no candidate to cover it
    need = _counting_bound(g, variant)
    order, steps = _frontier(g, variant)
    floor = [_packing(cands)[1]]  # by the vertices decided, in the order of the steps
    for v in order:
        cands = [c for c in cands if not c >> v & 1]
        floor.append(_packing(cands)[1])

    def final_size(ub: int, width: int | None) -> int | None:
        limit, table = ub - 1, {0: 0}
        for decided, (out, member, need_out, need_in) in enumerate(steps, 1):
            room = limit - floor[decided]  # the most members a state may hold after this step
            nxt: dict[int, int] = {}
            get = nxt.get
            for state, size in table.items():
                if room < size:
                    continue
                if state & need_out == need_out:
                    key = state | out
                    if get(key, ub) > size:
                        nxt[key] = size
                if state & need_in == need_in:
                    key = state | member
                    size += 1
                    if room < size or limit < size + need[n - (key & full).bit_count()]:
                        continue
                    if get(key, ub) > size:
                        nxt[key] = size
            if width is None:
                if len(nxt) > cap:
                    raise _too_many_states(cap, decided, n)
            elif len(nxt) > width:
                nxt = dict(sorted(nxt.items(), key=lambda item: item[1] * top - (item[0] & full).bit_count())[:width])
            table = nxt
        return next(iter(table.values()), None)

    best = final_size(top, _BEAM_WIDTH)
    ub = top if best is None else best
    if ub > max(floor[0], need[n]) + refuted:
        found = final_size(ub, None)
        if found is not None:
            return found
    return best


def count_by_size(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
) -> CountPolynomial:
    """Number of valid sets of every cardinality, by the steps of ``_frontier``
    over addition.

    Exact: the dynamic program counts every subset once, by the clauses
    alone; no closed form is ever consulted, so the result can serve as the
    oracle for the counting claims.  A state's value packs the counts of the
    partial sets that reach it by size, in lanes of n + 1 bits, wide enough
    for any count up to 2^n: a member shifts it by one lane, and two values
    that reach one state add.  The count of size k is lane k of the value
    left at the end.  The complete-graph convention adds the singletons as
    valid sets.  No vertex budget applies: the table follows the frontier
    width of the vertex order, so paths, cycles and narrow grids count up to
    64 vertices, and a graph whose table would pass ``_MAX_STATES`` states
    is refused with ``BudgetExceededError`` instead.
    """
    gated = _gate_applies(g, variant, conv)
    if not gated:
        _validate(g, variant)
    cap, n = _MAX_STATES, g.n
    lane = n + 1
    table = {0: 1}
    for decided, (out, member, need_out, need_in) in enumerate(_frontier(g, variant)[1], 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, value in table.items():
            if state & need_out == need_out:
                key = state | out
                nxt[key] = get(key, 0) + value
            if state & need_in == need_in:
                key = state | member
                nxt[key] = get(key, 0) + (value << lane)
        if len(nxt) > cap:
            raise _too_many_states(cap, decided, n)
        table = nxt
    packed = next(iter(table.values()), 0)
    coeffs = [packed >> k * lane & (1 << lane) - 1 for k in range(g.n + 1)]
    if gated:
        coeffs[1] += g.n
    return CountPolynomial(coeffs)
