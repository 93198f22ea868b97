"""Exact rational arithmetic: Bernoulli numbers and zeta values at negative odd integers.

All mass and class-number formulas downstream are products of rationals of the
form zeta(1-2k) = -B_{2k}/(2k), so everything here is computed exactly with
``fractions.Fraction`` (arbitrary-precision, always in lowest terms with a
positive denominator).  No floating point enters at any stage.

Bernoulli numbers follow the convention B_1 = -1/2, which is the one forced by
the recurrence

    sum_{j=0}^{m} C(m+1, j) * B_j = 0     for every m >= 1,

with B_0 = 1.  Values are memoized in a fill-once table that is safe to read
from multiple threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

# Carrier type for every exact quantity in the package (masses, zeta values,
# orbital terms).  Fraction already maintains the canonical-form invariants:
# denominator > 0 and gcd(|num|, den) = 1.
BigRational = Fraction


def frac_dict(q: Fraction) -> dict:
    """JSON form of an exact rational: numerator and denominator as decimal strings."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


class BernoulliTable:
    """Lazily extended table of Bernoulli numbers B_0, B_1, B_2, ...

    Entries are computed by the defining recurrence and cached.  The table is
    append-only under an internal lock; values are immutable Fractions, so
    concurrent readers always observe a consistent table.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
        self._lock = threading.Lock()

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"Bernoulli index must be non-negative, got {n}")
        if n > 1 and n % 2 == 1:
            return Fraction(0)
        with self._lock:
            self._extend(n)
            return self._values[n]

    def _extend(self, n: int) -> None:
        # B_m = -(1 / C(m+1, m)) * sum_{j<m} C(m+1, j) B_j, from the recurrence.
        while len(self._values) <= n:
            m = len(self._values)
            if m % 2 == 1:
                self._values.append(Fraction(0))
                continue
            acc = sum(comb(m + 1, j) * self._values[j] for j in range(m))
            self._values.append(Fraction(-acc, m + 1))


_TABLE = BernoulliTable()


def bernoulli(n: int) -> Fraction:
    """Return the Bernoulli number B_n (convention B_1 = -1/2)."""
    return _TABLE.value(n)


def zeta_negative(k: int) -> Fraction:
    """Return zeta(1-2k) = -B_{2k}/(2k) for a positive integer k.

    k = 0 would be zeta(1), which diverges, and is rejected.
    """
    if k < 1:
        raise ValueError(f"zeta_negative requires k >= 1, got {k}")
    return Fraction(-bernoulli(2 * k), 2 * k)
