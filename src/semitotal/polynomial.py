"""Exact integer coefficient sequences for set-counting generating functions.

Coefficient ``i`` counts the valid vertex sets of cardinality ``i``.
Enumeration always produces nonnegative coefficients; the closed-form
predictions may carry negative values, which are preserved (not clamped) so
a verification run can flag an impossible predicted count.
"""

from __future__ import annotations

from math import comb
from typing import Sequence


class CountPolynomial:
    """Coefficient sequence of a counting polynomial, index = set size."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = tuple(int(c) for c in coeffs)
        self.coeffs = cs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def _stripped(self) -> tuple[int, ...]:
        cs = self.coeffs
        end = len(cs)
        while end > 0 and cs[end - 1] == 0:
            end -= 1
        return cs[:end]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountPolynomial):
            return NotImplemented
        return self._stripped() == other._stripped()

    def __hash__(self) -> int:
        return hash(self._stripped())

    def first_difference(self, other: "CountPolynomial") -> int | None:
        """Least index where the coefficients differ, or None if equal."""
        a, b = self.coeffs, other.coeffs
        for i in range(max(len(a), len(b))):
            ca = a[i] if i < len(a) else 0
            cb = b[i] if i < len(b) else 0
            if ca != cb:
                return i
        return None

    def evaluate(self, x: int) -> int:
        """Horner evaluation at an integer point; evaluate(1) = total count."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def format(self) -> str:
        """Canonical ascending-power text, e.g. ``2x + x^2``; zero is ``0``."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                power = "x" if i == 1 else f"x^{i}"
                body = power if mag == 1 else f"{mag}{power}"
            terms.append((c < 0, body))
        if not terms:
            return "0"
        out = ("-" if terms[0][0] else "") + terms[0][1]
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"CountPolynomial({list(self.coeffs)!r})"


def closed_form(family: str, **params: int) -> CountPolynomial:
    """Predicted coefficient sequence from a family's closed-form count.

    Families: ``star`` (n), ``friendship`` (n), ``complete_bipartite_small``
    (m, n with 2 <= m <= 3 <= ... <= n), ``complete_bipartite_large``
    (m, n with 4 <= m <= n).  Negative predictions are kept as-is.
    """
    if family == "star":
        n = params["n"]
        if n < 3:
            raise ValueError(f"star count formula stated for n >= 3, got {n}")
        coeffs = [0] * (n + 2)
        coeffs[n] = 1
        return CountPolynomial(coeffs)

    if family == "friendship":
        n = params["n"]
        if n < 2:
            raise ValueError(f"friendship count formula stated for n >= 2, got {n}")
        order = 2 * n + 1
        coeffs = [0] * (order + 1)
        for i in range(n, order + 1):
            coeffs[i] = 2**n * comb(n, i - n)
        return CountPolynomial(coeffs)

    if family in ("complete_bipartite_small", "complete_bipartite_large"):
        m, n = params["m"], params["n"]
        if m > n:
            raise ValueError(f"formula needs m <= n, got ({m},{n})")
        small = family == "complete_bipartite_small"
        if small and not 2 <= m <= 3:
            raise ValueError(f"small-part formula needs 2 <= m <= 3, got m={m}")
        if not small and m < 4:
            raise ValueError(f"large-part formula needs m >= 4, got m={m}")
        zero_below = m if small else 4
        coeffs = [0] * (m + n + 1)
        for i in range(m + n + 1):
            if i <= zero_below - 1:
                coeffs[i] = 0
            elif i == m:
                coeffs[i] = comb(m + n, m) - comb(n, m) - m * comb(n, m - 1)
            elif i != n:
                coeffs[i] = comb(m + n, i) - comb(n, i) - m * comb(n, i - 1) - n * comb(m, i - 1)
            else:
                coeffs[i] = comb(m + n, n) - m * n - n * comb(m, n - 1)
        return CountPolynomial(coeffs)

    raise ValueError(f"unknown closed-form family {family!r}")
