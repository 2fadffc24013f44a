"""Semitotal domination stability by exhaustive minimal-removal search."""

from __future__ import annotations

import enum
from typing import Iterator

from .errors import BudgetExceededError, EmptyGraphError, IsolatesError
from .graph import Graph, iter_bits, mask_from
from .domination import (
    Conventions,
    DEFAULT_CONVENTIONS,
    WitnessRule,
    _MAX_SETS,
    _gate_applies,
    _minimum_set,
    _packing,
    _solved_once,
    _stored,
    domination_number,
    semitotal,
)


class RemovalPolicy(enum.Enum):
    """What a removal set counts for when the residue leaves the domain.

    A residue is out of domain when it is empty, has isolated vertices, or
    has no semitotal dominating set at all under the chosen rule (possible
    under the exact-distance rule, e.g. a complete component in a residue).
    SKIP_SET drops such removal sets from consideration; COUNT_AS_CHANGED
    treats them as changing the number.
    """

    SKIP_SET = "skip"
    COUNT_AS_CHANGED = "changed"


def _lower_twins(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Bit of each v's nearest lower twin u, where N(u) - v = N(v) - u; 0 if it has none."""
    return tuple(max((1 << u for u in range(v) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)), default=0)
                 for v in range(len(adj)))


def _removal_sets(
    key: tuple[int, ...], prev: tuple[int, ...], k: int, removed: int = 0, depth: int = 0, first: int = 0
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Removal sets of size k, lexicographically, each with its residue's key.

    ``key`` is the re-indexed adjacency of the residue left by ``removed``
    (``depth`` vertices).  Sets are extended depth-first by a vertex v above
    every removed one, so v sits at residue index p = v - depth >= ``first``:
    its row is dropped and the gap is closed in the others.

    ``prev[v]`` is the bit of v's nearest lower twin (0 if none), and v is
    taken only after that twin, so each twin class loses a prefix.  Nothing
    is lost: swapping twins is an automorphism, so trading a removed v for an
    unremoved lower twin gives a lexicographically smaller set whose residue
    is isomorphic, with the same value and domain status.  The first hit in
    lexicographic order is therefore always a prefix set.
    """
    for p in range(first, len(key) - k + depth + 1):
        if prev[p + depth] & ~removed:
            continue
        low = (1 << p) - 1
        high = ~low
        child = tuple([r & low | r >> 1 & high for r in key[:p] + key[p + 1:]])
        mask = removed | 1 << p + depth
        if depth + 1 == k:
            yield mask, child
        else:
            yield from _removal_sets(child, prev, k, mask, depth + 1, p)


@_solved_once()  # the base graph's set, stored by domination_number, seeds the pool
def _stability_search(
    g: Graph,
    rule: WitnessRule,
    conv: Conventions,
    policy: RemovalPolicy,
) -> tuple[int, int] | None:
    if g.n < 2:
        raise EmptyGraphError("stability needs a graph on at least 2 vertices")
    if not g.is_isolate_free():
        raise IsolatesError("stability requires an isolate-free graph")
    variant = semitotal(rule)
    base = domination_number(g, variant, conv)
    out_of_domain = policy is RemovalPolicy.COUNT_AS_CHANGED
    adj, closed, full = g.adj, g.closed, g.full_mask
    exact = rule is WitnessRule.EXACTLY_TWO
    # Valid sets of size base, in original indices: the optimum of g, then of
    # every residue solved or found in the run's table with the value base.
    # There are none when base is None or the gate's 1, and then every
    # residue is solved.
    pool = [] if base is None or _gate_applies(g, variant, conv) else [_minimum_set(g, variant, base)]

    def still_valid(members: int, removed: int) -> bool:
        """True iff ``members`` (disjoint from ``removed``) is valid in g - removed."""
        cov = removed
        for v in iter_bits(members):
            cov |= closed[v]
        if cov != full:
            return False
        for v in iter_bits(members):
            others = members & ~(1 << v)
            if not exact and adj[v] & others:
                continue
            # a witness at distance 2 needs a common neighbour that is still there
            near = 0
            for w in iter_bits(adj[v] & ~removed):
                near |= adj[w]
            if not (near & ~adj[v] if exact else near) & others:
                return False
        return True

    def unchanged(removed: int, key: tuple[int, ...]) -> bool:
        """True when the residue's value is certified to be base without building it:
        a pool set still valid there gives at most base, a packing at least base."""
        if not pool:
            return False
        # pairwise disjoint closed neighbourhoods each need their own member,
        # and a semitotal set has at least two
        if base > 2 and _packing(sorted([r | 1 << i for i, r in enumerate(key)], key=int.bit_count)) < base:
            return False
        return any(not members & removed and still_valid(members, removed) for members in reversed(pool))

    def value_of(removed: int, key: tuple[int, ...]) -> int | None:
        """The residue's value: from the convention gate when it is complete,
        from the run's table (see ``_solved_once``) when that holds it, from
        the screen when it certifies base, and only then from its graph."""
        last = len(key) - 1
        if conv.complete_singleton and all(r.bit_count() == last for r in key):
            return 1
        stored = _stored(key, variant)
        if stored is None:
            if unchanged(removed, key):
                return base
            best = _minimum_set(g.delete_vertices(removed)[0], variant)
            stored = (None if best is None else best.bit_count()), best
        number, best = stored
        if best is not None and number == base:
            # residue index i is the i-th vertex left after the removal
            pool.append(mask_from(v for i, v in enumerate(iter_bits(full & ~removed)) if best >> i & 1))
        return number

    # Residue values by residue key; only a residue that neither the table nor the screen settles is built.
    cache: dict[tuple[int, ...], int | None] = {}
    prev = _lower_twins(g.adj)
    scanned = 0
    for k in range(1, g.n):
        for removed, key in _removal_sets(g.adj, prev, k):
            scanned += 1
            if scanned > _MAX_SETS:
                raise BudgetExceededError(f"the stability scan passed {_MAX_SETS} removal sets at size {k}")
            if 0 in key:
                value = None
            elif key in cache:
                value = cache[key]
            else:
                value = cache[key] = value_of(removed, key)
            if out_of_domain if value is None else value != base:
                return k, removed
    return None


def semitotal_stability(
    g: Graph,
    rule: WitnessRule = WitnessRule.WITHIN_TWO,
    conv: Conventions = DEFAULT_CONVENTIONS,
    policy: RemovalPolicy = RemovalPolicy.SKIP_SET,
) -> int | None:
    """Least k such that removing some k vertices changes the semitotal number.

    Subsets are scanned in increasing size, so by construction every smaller
    removal set either leaves the number unchanged or is handled by the
    policy.  Returns None when no removal of fewer than n vertices changes
    the number under SKIP_SET.  Refused with ``BudgetExceededError`` once the
    scan passes ``_MAX_SETS`` removal sets, which can take 40 s.
    """
    hit = _stability_search(g, rule, conv, policy)
    return None if hit is None else hit[0]


def stability_witness(
    g: Graph,
    rule: WitnessRule = WitnessRule.WITHIN_TWO,
    conv: Conventions = DEFAULT_CONVENTIONS,
    policy: RemovalPolicy = RemovalPolicy.SKIP_SET,
) -> tuple[int, int] | None:
    """Minimal change-achieving removal set, lexicographically least.

    Returns (k, removal mask), or None when no removal changes the number.
    Refused as ``semitotal_stability`` is.
    """
    return _stability_search(g, rule, conv, policy)
