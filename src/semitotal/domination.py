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
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceededError, EmptyGraphError, IsolatesError
from .graph import Graph, iter_bits, mask_from
from .polynomial import CountPolynomial


class WitnessRule(enum.Enum):
    """Distance predicate a member's witness must satisfy."""

    WITHIN_TWO = "within2"
    EXACTLY_TWO = "exact2"


@dataclass(frozen=True)
class Variant:
    """Domination variant; semitotal carries its witness rule."""

    kind: str
    rule: WitnessRule | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("plain", "total", "semitotal"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "semitotal" and self.rule is None:
            raise ValueError("semitotal variant needs a witness rule")
        if self.kind != "semitotal" and self.rule is not None:
            raise ValueError(f"{self.kind} variant takes no witness rule")


PLAIN = Variant("plain")
TOTAL = Variant("total")


def semitotal(rule: WitnessRule = WitnessRule.WITHIN_TWO) -> Variant:
    return Variant("semitotal", rule)


SEMITOTAL_WITHIN = semitotal(WitnessRule.WITHIN_TWO)
SEMITOTAL_EXACT = semitotal(WitnessRule.EXACTLY_TWO)


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


def _require_isolate_free(g: Graph) -> None:
    if not g.is_isolate_free():
        raise IsolatesError("operation requires an isolate-free graph")


def _require_members(g: Graph, members: int) -> None:
    if members & ~g.full_mask:
        raise ValueError("member set contains vertices outside the graph")


def is_dominating(g: Graph, members: int) -> bool:
    """True iff the closed neighborhoods of the members cover every vertex."""
    if g.n == 0:
        raise EmptyGraphError("domination is undefined on the empty graph")
    _require_members(g, members)
    return _is_valid(g, PLAIN, members)


def is_total_dominating(g: Graph, members: int) -> bool:
    """True iff every vertex (members included) has a neighbor in the set."""
    _require_isolate_free(g)
    _require_members(g, members)
    return _is_valid(g, TOTAL, members)


def is_semitotal(g: Graph, members: int, rule: WitnessRule) -> bool:
    """Dominating, and every member has another member as distance witness.

    A singleton never satisfies the witness clause; the complete-graph
    convention is applied only by the number/count operations, never here.
    """
    _require_isolate_free(g)
    _require_members(g, members)
    return _is_valid(g, semitotal(rule), members)


def _witness_masks(g: Graph, rule: WitnessRule) -> tuple[int, ...]:
    if rule is WitnessRule.WITHIN_TWO:
        return g._ball2_all()
    return g._sphere2_all()


def _cover_masks(g: Graph, variant: Variant) -> tuple[int, ...]:
    return g.adj if variant.kind == "total" else g.closed


def _validate(g: Graph, variant: Variant) -> None:
    if g.n == 0:
        raise EmptyGraphError("domination is undefined on the empty graph")
    if variant.kind != "plain":
        _require_isolate_free(g)


def _gate_applies(g: Graph, variant: Variant, conv: Conventions) -> bool:
    # Checked before the isolate-free precondition so that complete graphs,
    # K_1 included, get the conventional value 1 (the corona sharpness
    # checks need a semitotal number for K_1).
    return (
        variant.kind == "semitotal"
        and conv.complete_singleton
        and g.n >= 1
        and g.is_complete()
    )


def _feasible_members(g: Graph, variant: Variant) -> list[int]:
    """Vertices that can belong to some valid set (witnessable, for semitotal)."""
    if variant.kind != "semitotal":
        return list(range(g.n))
    witness = _witness_masks(g, variant.rule)
    return [v for v in range(g.n) if witness[v]]


def _is_valid(g: Graph, variant: Variant, members: int) -> bool:
    """True iff the members cover every vertex and, for semitotal, each member
    has another member as witness."""
    cover = _cover_masks(g, variant)
    cov = 0
    for v in iter_bits(members):
        cov |= cover[v]
    if cov != g.full_mask:
        return False
    if variant.kind != "semitotal":
        return True
    witness = _witness_masks(g, variant.rule)
    return all(members & witness[v] for v in iter_bits(members))


def _valid_sets(g: Graph, variant: Variant, sizes: Iterable[int]) -> Iterator[int]:
    """Valid sets over the feasible members, size by size in the given order,
    lexicographic in vertex order within one size."""
    pool = [1 << v for v in _feasible_members(g, variant)]
    for k in sizes:
        for combo in combinations(pool, k):
            m = sum(combo)
            if _is_valid(g, variant, m):
                yield m


# -- exact optimization -------------------------------------------------


def brute_force_number(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
    budget: int = 22,
) -> int | None:
    """Minimum size by enumerating subsets in increasing cardinality.

    The oracle the branch-and-bound solver is checked against.  Returns None
    when no valid set of any size exists (possible under the exact-distance
    witness rule).
    """
    if g.n > budget:
        raise BudgetExceededError(f"graph has {g.n} vertices, oracle budget is {budget}")
    if _gate_applies(g, variant, conv):
        return 1
    _validate(g, variant)
    first = next(_valid_sets(g, variant, range(1, g.n + 1)), None)
    return None if first is None else first.bit_count()


def domination_number(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
) -> int | None:
    """Minimum size of a valid set by the branch and bound of ``_minimum_set``.

    Returns None when no valid set exists.
    """
    if _gate_applies(g, variant, conv):
        return 1
    _validate(g, variant)
    best = _minimum_set(g, variant)
    return None if best is None else best.bit_count()


def _packing(reqs: list[int]) -> int:
    """Size of a greedy packing of pairwise disjoint candidate masks: each one
    needs its own member, so this many members are still needed."""
    used = size = 0
    for cands in reqs:
        if not cands & used:
            used |= cands
            size += 1
    return size


def _counting_bound(g: Graph, variant: Variant) -> Callable[[int], int]:
    """Members still needed to cover ``uncovered`` vertices, as a function.

    With g the largest cover mask of an allowed vertex, each new member
    covers at most g new vertices: ceil(U / g).  Under semitotal a member
    and its witness are within distance 2, so their closed neighbourhoods
    share a vertex.  Root a spanning forest of the witness relation on the
    new members: each non-root member, and each root witnessed by an earlier
    member, covers at most g - 1 new vertices, and every other root heads a
    component of at least two, so U <= t (2g - 1) / 2 for t new members.
    On P_n and C_n this gives ceil(2n / 5), the semitotal number.
    """
    cover = _cover_masks(g, variant)
    reach = max(cover[v].bit_count() for v in _feasible_members(g, variant))
    if variant.kind == "semitotal":
        return lambda uncovered: -(-2 * uncovered // (2 * reach - 1))
    return lambda uncovered: -(-uncovered // reach)


def _minimum_set(g: Graph, variant: Variant) -> int | None:
    """An optimal valid set as a mask, by iterative-deepening branch and bound.

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
    ``_counting_bound``; both prune nodes and set the first deepening level.
    Deterministic.  Returns None when no valid set exists.  Applies no
    convention and assumes ``_validate`` passed.
    """
    cover = _cover_masks(g, variant)
    witness = _witness_masks(g, variant.rule) if variant.kind == "semitotal" else None
    n = g.n
    allowed = mask_from(_feasible_members(g, variant))

    def search(chosen: int, covered: int, free: int, reqs: list[int], budget: int) -> int | None:
        if not reqs:
            return chosen
        if need(n - covered.bit_count()) > budget or _packing(reqs) > budget:
            return None
        for w in iter_bits(reqs[0]):
            bit = 1 << w
            free &= ~bit  # w is chosen in this branch and banned in the later ones
            child = [cands & free for cands in reqs if not cands & bit]
            if witness is not None and not chosen & witness[w]:
                child.append(witness[w] & free)
            if all(child):
                child.sort(key=int.bit_count)
                found = search(chosen | bit, covered | cover[w], free, child, budget - 1)
                if found is not None:
                    return found
        return None

    # Without candidates at the root some vertex cannot be covered at all.
    # Otherwise the whole allowed set is valid (each allowed vertex has a
    # witness, which is itself allowed), so the deepening below terminates.
    # A semitotal set has at least two members: a singleton has no witness.
    reqs = sorted((cover[v] & allowed for v in range(n)), key=int.bit_count)
    if not reqs[0]:
        return None
    need = _counting_bound(g, variant)
    k = max(_packing(reqs), need(n), 1 if witness is None else 2)
    while (found := search(0, 0, allowed, reqs, k)) is None:
        k += 1
    return found


def minimum_sets(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
    limit: int = 16,
) -> list[int]:
    """Up to ``limit`` optimal sets as bit masks, in lexicographic vertex order."""
    if _gate_applies(g, variant, conv):
        return [1 << v for v in range(min(limit, g.n))]
    opt = domination_number(g, variant, conv)
    if opt is None:
        return []
    return list(islice(_valid_sets(g, variant, (opt,)), limit))


# -- exhaustive counting -------------------------------------------------

# Largest working set count_by_size may hold.  Subset m of the n vertices is
# bit m of a 2^n-bit int, which Python stores at 4 bytes per 30 bits, so
# 2^(n+1)/15 bytes.  At most n + 5 such ints are alive at once: the n
# membership patterns, the valid subsets and four temporaries while the
# witness clause is applied; fewer while the size classes are counted.  With
# one more for the small objects around them, the working set is at most
# (n + 6) * 2^(n+1) / 15 bytes from n = 16 on (below that the small objects
# dominate, a few KiB): room for n <= 27.
_MAX_TABLE_BYTES = 1 << 30


def _table_bytes(n: int) -> int:
    return ((n + 6) << (n + 1)) // 15


def _valid_subsets(g: Graph, variant: Variant) -> int:
    """Bit m set iff subset m is a valid set.

    Each clause is checked for all 2^n subsets at once: member[v] has bit m
    set iff subset m contains v, so an OR of members is "contains one of
    them" and an AND with it keeps the subsets that do.
    """
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
    cover = _cover_masks(g, variant)
    witness = _witness_masks(g, variant.rule) if variant.kind == "semitotal" else None
    valid = (1 << span) - 1
    for v in range(n):
        hit = 0
        for u in iter_bits(cover[v]):
            hit |= member[u]
        valid &= hit
        if witness is not None:
            # drop the subsets that contain v but none of its witnesses
            lonely = valid & member[v]
            for w in iter_bits(witness[v]):
                lonely ^= lonely & member[w]
            valid ^= lonely
    return valid


def _size_classes(n: int) -> list[int]:
    """size[k] has bit m set iff subset m of the n vertices has k members."""
    size = [1] + [0] * n
    for v in range(n):
        # adding vertex v lifts every subset of size k - 1 to size k
        for k in range(v + 1, 0, -1):
            size[k] |= size[k - 1] << (1 << v)
    return size


def count_by_size(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
    budget: int = 24,
) -> CountPolynomial:
    """Number of valid sets of every cardinality, by full 2^n enumeration.

    Pure enumeration, bit-sliced: every clause is checked for all subsets at
    once with big-int bitwise operations; no closed form is ever consulted,
    so the result can serve as the oracle for the counting claims.  The
    complete-graph convention adds the singletons as valid sets.
    """
    gated = _gate_applies(g, variant, conv)
    if not gated:
        _validate(g, variant)
    if g.n > budget:
        raise BudgetExceededError(f"graph has {g.n} vertices, counting budget is {budget}")
    table_bytes = _table_bytes(g.n)
    if table_bytes > _MAX_TABLE_BYTES:
        raise BudgetExceededError(f"counting {g.n} vertices needs a {table_bytes}-byte table, "
                                  f"the limit is {_MAX_TABLE_BYTES}")

    valid = _valid_subsets(g, variant)
    coeffs = [(valid & size).bit_count() for size in _size_classes(g.n)]
    if gated:
        coeffs[1] += g.n
    return CountPolynomial(coeffs)
