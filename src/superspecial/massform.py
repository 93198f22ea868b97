"""Arithmetic side: symplectic-similitude group orders, masses, and class numbers.

The principal-genus mass at dimension g and characteristic p is

    M(g, p) = ((-1)^(g(g+1)/2) / 2^g) * prod_{k=1..g} zeta(1-2k)
                                      * prod_{k=1..g} (p^k + (-1)^k),

always a positive rational.  Adding a level-N structure (N >= 3, coprime to p)
rigidifies automorphisms, and the class number becomes the integer

    H_N = |GSp_2g(Z/N)| * M(g, p).

The non-principal genus (g = 2d even, polarization kernel the Frobenius
kernel) replaces the (p^k + (-1)^k) factors by prod_{k=1..d} (p^(4k-2) - 1).

Each genus rule has one home: principal_mass refuses g < 1, nonprincipal_mass
refuses all but even g >= 2, and the level-N functions take their mass from
those two, so they refuse the same genera.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .exactnum import zeta_negative


class IntegralityError(Exception):
    """A class-number formula came out non-integral; this breaks the build."""


NONPRINCIPAL_CAVEAT = (
    "formula value; the lattice-count interpretation additionally requires a "
    "base object with polarization kernel equal to the Frobenius kernel, "
    "which exists e.g. when p = 1 mod 4 or 4 | g"
)


# Largest genus `superspecial mass` accepts.  Every value it accepts must
# print in full, and Python writes no int of more than 4300 digits as text.
# At p = 2^31 - 1 (ffield.MAX_PRIME bounds p) and N = 999999999989 (the
# largest prime below LEVEL_MAX) the largest value, the class number, has 3652
# digits at g = 11 and 4332 at g = 12.  The formulas themselves have no
# ceiling; the CLI refuses g above it.
GENUS_MAX = 11


# gsp_order factorizes N by trial division (about sqrt(N) steps); this
# ceiling keeps that near half a second.
LEVEL_MAX = 10**12


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def gsp_order(g: int, N: int) -> int:
    """Order of GSp_2g(Z/N), multiplicative over prime powers.

    For N = l^a the order is
        l^((a-1)(2g^2+g+1)) * (l-1) * l^(g^2) * prod_{i=1..g} (l^(2i) - 1):
    the prime case is the similitude extension of Sp_2g(F_l), and each extra
    power of l contributes l^dim with dim GSp_2g = 2g^2 + g + 1.
    """
    if g < 1 or N < 1:
        raise ValueError("gsp_order requires g >= 1 and N >= 1")
    if N > LEVEL_MAX:
        raise ValueError(f"level N = {N} is above the factorization ceiling {LEVEL_MAX}")
    order = 1
    for ell, a in _factorize(N):
        local = ell ** ((a - 1) * (2 * g * g + g + 1)) * (ell - 1) * ell ** (g * g)
        for i in range(1, g + 1):
            local *= ell ** (2 * i) - 1
        order *= local
    return order


@lru_cache(maxsize=None)
def _zeta_factor(g: int) -> Fraction:
    """(-1)^(g(g+1)/2) / 2^g * prod_{k=1..g} zeta(1-2k): the part of a genus's
    mass that does not depend on p, formed once per g."""
    value = Fraction((-1) ** (g * (g + 1) // 2), 2**g)
    for k in range(1, g + 1):
        value *= zeta_negative(k)
    return value


def principal_mass(g: int, p: int) -> Fraction:
    """The exact mass M(g, p) of the principal genus; positive for all inputs."""
    if g < 1:
        raise ValueError("g must be positive")
    return _zeta_factor(g) * prod(p**k + (-1) ** k for k in range(1, g + 1))


def nonprincipal_mass(g: int, p: int) -> Fraction:
    """The exact mass of the non-principal genus; g = 2d must be even and positive."""
    if g < 2 or g % 2 != 0:
        raise ValueError(f"non-principal genus requires even g >= 2, got g={g}")
    return _zeta_factor(g) * prod(p ** (4 * k - 2) - 1 for k in range(1, g // 2 + 1))


def _level_class_number(g: int, p: int, N: int, mass: Fraction, what: str) -> int:
    """|GSp_2g(Z/N)| * mass at a rigid level N; checked to be a positive integer."""
    if N < 3:
        raise ValueError(
            f"the class-number formula needs N >= 3 (level rigidity), got N={N}"
        )
    if gcd(N, p) != 1:
        raise ValueError(f"level N={N} must be coprime to p={p}")
    value = gsp_order(g, N) * mass
    if value.denominator != 1 or value < 1:
        raise IntegralityError(
            f"{what}(g={g}, p={p}, N={N}) = {value} is not a positive integer")
    return int(value)


def class_number_level(g: int, p: int, N: int) -> int:
    """H_N = |GSp_2g(Z/N)| * M(g, p); guaranteed (and checked) to be a positive integer."""
    return _level_class_number(g, p, N, principal_mass(g, p), "H_N")


def nonprincipal_class_number_level(g: int, p: int, N: int) -> int:
    """H'_N for the non-principal genus (g = 2d even); checked integral."""
    return _level_class_number(g, p, N, nonprincipal_mass(g, p), "H'_N")

