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
from array import array
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator

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

    def label(self) -> str:
        if self.kind == "semitotal":
            return f"semitotal[{self.rule.value}]"
        return self.kind


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


def is_dominating(g: Graph, members: int) -> bool:
    """True iff the closed neighborhoods of the members cover every vertex."""
    if g.n == 0:
        raise EmptyGraphError("domination is undefined on the empty graph")
    return _is_valid(g, PLAIN, members)


def is_total_dominating(g: Graph, members: int) -> bool:
    """True iff every vertex (members included) has a neighbor in the set."""
    _require_isolate_free(g)
    return _is_valid(g, TOTAL, members)


def is_semitotal(g: Graph, members: int, rule: WitnessRule) -> bool:
    """Dominating, and every member has another member as distance witness.

    A singleton never satisfies the witness clause; the complete-graph
    convention is applied only by the number/count operations, never here.
    """
    _require_isolate_free(g)
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
    """Minimum size of a valid set by iterative-deepening branch and bound.

    A search node lists its open requirements: each uncovered vertex, whose
    candidates are the allowed vertices covering it, and, for semitotal, each
    member without a witness, whose candidates are the vertices able to
    witness it.  Both relations are symmetric, so these are exactly the
    vertices a valid extension can add to meet the requirement.  A
    requirement without candidates prunes the node; otherwise the search
    branches on the requirement with the fewest candidates and bans each
    candidate once its branch fails.  Requirements with pairwise disjoint
    candidate sets each need their own new member, so a greedy packing of
    them bounds the members still needed: it prunes nodes and sets the first
    deepening level.  Deterministic by construction.  Returns None when no
    valid set exists.
    """
    if _gate_applies(g, variant, conv):
        return 1
    _validate(g, variant)

    cover = _cover_masks(g, variant)
    witness = _witness_masks(g, variant.rule) if variant.kind == "semitotal" else None
    full = g.full_mask
    allowed = mask_from(_feasible_members(g, variant))

    def requirements(chosen: int, covered: int, banned: int) -> list[int] | None:
        """Candidate masks of the open requirements, fewest candidates first;
        None when some requirement has no candidate left."""
        free = allowed & ~banned
        out = []
        rest = full & ~covered
        while rest:
            low = rest & -rest
            cands = cover[low.bit_length() - 1] & free
            if not cands:
                return None
            out.append(cands)
            rest ^= low
        if witness is not None:
            free &= ~chosen
            for v in iter_bits(chosen):
                if not chosen & witness[v]:
                    cands = witness[v] & free
                    if not cands:
                        return None
                    out.append(cands)
        out.sort(key=int.bit_count)
        return out

    def packing(reqs: list[int]) -> int:
        used = size = 0
        for cands in reqs:
            if not cands & used:
                used |= cands
                size += 1
        return size

    def search(chosen: int, covered: int, banned: int, budget: int) -> bool:
        reqs = requirements(chosen, covered, banned)
        if reqs is None:
            return False
        if not reqs:
            return True
        if packing(reqs) > budget:
            return False
        ban = banned
        for w in iter_bits(reqs[0]):
            if search(chosen | 1 << w, covered | cover[w], ban, budget - 1):
                return True
            ban |= 1 << w
        return False

    # Without candidates at the root some vertex cannot be covered at all.
    # Otherwise the whole allowed set is valid (each allowed vertex has a
    # witness, which is itself allowed), so the deepening below terminates.
    # A semitotal set has at least two members: a singleton has no witness.
    reqs = requirements(0, 0, 0)
    if reqs is None:
        return None
    k = max(packing(reqs), 1 if witness is None else 2)
    while not search(0, 0, 0, k):
        k += 1
    return k


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

# Largest coverage table count_by_size allocates, 8 bytes per subset: room
# for n <= 27, above the 128 MiB that the default budget of 24 needs.
_MAX_TABLE_BYTES = 1 << 30


def count_by_size(
    g: Graph,
    variant: Variant,
    conv: Conventions = DEFAULT_CONVENTIONS,
    budget: int = 24,
) -> CountPolynomial:
    """Number of valid sets of every cardinality, by full 2^n enumeration.

    Pure enumeration with word-parallel feasibility tests; no closed form is
    ever consulted, so the result can serve as the oracle for the counting
    claims.  The complete-graph convention adds the singletons as valid sets.
    """
    gated = _gate_applies(g, variant, conv)
    if not gated:
        _validate(g, variant)
    if g.n > budget:
        raise BudgetExceededError(f"graph has {g.n} vertices, counting budget is {budget}")
    table_bytes = array("Q").itemsize << g.n
    if table_bytes > _MAX_TABLE_BYTES:
        raise BudgetExceededError(f"counting {g.n} vertices needs a {table_bytes}-byte table, "
                                  f"the limit is {_MAX_TABLE_BYTES}")

    n = g.n
    full = g.full_mask
    cover = _cover_masks(g, variant)
    witness = _witness_masks(g, variant.rule) if variant.kind == "semitotal" else None
    coeffs = [0] * (n + 1)

    covered = array("Q", [0]) * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        v = low.bit_length() - 1
        cov = covered[m ^ low] | cover[v]
        covered[m] = cov
        if cov != full:
            continue
        if witness is not None:
            rest = m
            ok = True
            while rest:
                b = rest & -rest
                if not m & witness[b.bit_length() - 1]:
                    ok = False
                    break
                rest ^= b
            if not ok:
                continue
        coeffs[m.bit_count()] += 1

    if gated:
        coeffs[1] += n
    return CountPolynomial(coeffs)
