"""Semitotal domination stability by exhaustive minimal-removal search."""

from __future__ import annotations

import enum
from typing import Iterator, Sequence

from .errors import BudgetExceededError, EmptyGraphError, IsolatesError
from .graph import Graph, _twin_classes, iter_bits, mask_from
from .domination import (
    Conventions,
    DEFAULT_CONVENTIONS,
    WitnessRule,
    _MAX_SETS,
    _gate_applies,
    _is_valid,
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


def _removal_sets(
    key: tuple[int, ...],
    twins: tuple[int, ...],
    k: int,
    certs: Sequence[tuple[int, int, tuple[int, ...]]] = (),
    removed: int = 0,
    depth: int = 0,
    first: int = 0,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Removal sets of size k, lexicographically, each with its residue's key.

    ``key`` is the re-indexed adjacency of the residue left by ``removed``
    (``depth`` vertices).  Sets are extended depth-first by a vertex v above
    every removed one, so v sits at residue index p = v - depth >= ``first``:
    its row is dropped and the gap is closed in the others.

    ``twins[v]`` is v's twin class, and v is taken only once its lower twins
    are removed, so each twin class loses a prefix.  Nothing is lost:
    swapping twins is an automorphism, so trading a removed v for an
    unremoved lower twin gives a lexicographically smaller set whose residue
    is isomorphic, with the same value and domain status.  The first hit in
    lexicographic order is therefore always a prefix set.

    ``certs`` holds certificates, each the largest size it serves, its
    vertices, and each vertex with its lower twins.  A set of a size it
    serves that misses a certificate is no hit, so no candidate is taken
    after which the set can no longer meet one that ``removed`` misses.  The
    set can still take a vertex of it when the r vertices of its twin prefix
    not yet removed fit in the k - depth picks left and the lowest of them,
    y, is not passed: y itself is the candidate when r = k - depth, and any
    candidate up to y will do when r is smaller.  The certificates are read
    at every node, so one added during the scan cuts from the next node on.
    """
    left = k - depth
    # vertices v = p + depth for p from first to len(key) - left
    candidates = (1 << len(key) + depth - left + 1) - (1 << first + depth)
    for limit, members, needs in certs:
        if k > limit or members & removed:
            continue  # the set already meets the certificate, or is too large for it
        takeable = 0
        for need in needs:
            rest = need & ~removed
            lowest = rest & -rest
            if rest.bit_count() < left:
                takeable |= (lowest << 1) - 1
            elif rest.bit_count() == left:
                takeable |= lowest
        candidates &= takeable
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        v = bit.bit_length() - 1
        if twins[v] & (bit - 1) & ~removed:
            continue  # a lower twin of v is still in the graph
        p = v - depth
        low = (1 << p) - 1
        high = ~low
        child = tuple([r & low | r >> 1 & high for r in key[:p] + key[p + 1:]])
        mask = removed | bit
        if depth + 1 == k:
            yield mask, child
        else:
            yield from _removal_sets(child, twins, k, certs, mask, depth + 1, p)


@_solved_once()  # the base graph's set, stored by domination_number, seeds the pool
def _stability_search(
    g: Graph,
    rule: WitnessRule,
    conv: Conventions,
    policy: RemovalPolicy,
) -> tuple[int, int] | None:
    if not isinstance(policy, RemovalPolicy):
        raise ValueError(f"unknown removal policy {policy!r}")
    if g.n < 2:
        raise EmptyGraphError("stability needs a graph on at least 2 vertices")
    if not g.is_isolate_free():
        raise IsolatesError("stability requires an isolate-free graph")
    variant = semitotal(rule)
    base = domination_number(g, variant, conv)
    out_of_domain = policy is RemovalPolicy.COUNT_AS_CHANGED
    adj, closed, full = g.adj, g.closed, g.full_mask
    twins = _twin_classes(adj)
    # Valid sets of size base, in original indices: the optimum of g, then of
    # every residue solved or found in the run's table with the value base.
    # There are none when base is None or the gate's 1, and then every
    # residue is solved.  Those that dominate g give the certificates.
    pool: list[int] = []
    certs: list[tuple[int, int, tuple[int, ...]]] = []

    def keep(members: int) -> None:
        """Add a valid set of size base to the pool.  A pair {u, v} that
        dominates g, with a common neighbour w when u and v are not adjacent,
        stays valid in g - R for every R that misses it: it still dominates,
        leaves no isolate, and u and v stay within (or, under exact2, at)
        distance 2.  So g - R has the value 2 = base unless it is complete
        under the convention, which puts all its n - k vertices in both N[u]
        and N[v]; at smaller k the pair is a certificate for ``_removal_sets``.
        It is lifted to the top of its twin classes by a twin swap, an
        automorphism, since the scan takes each class from the bottom."""
        pool.append(members)
        if base != 2:
            return
        u, v = iter_bits(members)
        if closed[u] | closed[v] != full:
            return
        if not adj[u] >> v & 1:
            members |= 1 << (adj[u] & adj[v]).bit_length() - 1
        lifted = 0
        for x in iter_bits(members):
            lifted |= 1 << (twins[x] & ~lifted).bit_length() - 1
        cert = (g.n - 1 - (closed[u] & closed[v]).bit_count(), lifted,
                tuple(twins[x] & (2 << x) - 1 for x in iter_bits(lifted)))
        if cert not in certs:
            certs.append(cert)

    if base is not None and not _gate_applies(g, variant, conv):
        keep(_minimum_set(g, variant))

    def unchanged(removed: int, key: tuple[int, ...]) -> bool:
        """True when the residue's value is certified to be base without building it:
        a pool set still valid there gives at most base, a packing at least base."""
        if not pool:
            return False
        # pairwise disjoint closed neighbourhoods each need their own member,
        # and a semitotal set has at least two
        if base > 2 and _packing(sorted([r | 1 << i for i, r in enumerate(key)], key=int.bit_count))[1] < base:
            return False
        return any(_is_valid(g, variant, members, removed) for members in reversed(pool))

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
            keep(mask_from(v for i, v in enumerate(iter_bits(full & ~removed)) if best >> i & 1))
        return number

    # Residue values by residue key; only a residue that neither the table nor the screen settles is built.
    cache: dict[tuple[int, ...], int | None] = {}
    scanned = 0
    for k in range(1, g.n):
        for removed, key in _removal_sets(adj, twins, k, certs):
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
    scan passes ``_MAX_SETS`` removal sets, which can take 40 s, and with
    ``ValueError`` before any work when ``policy`` is not a ``RemovalPolicy``.
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
