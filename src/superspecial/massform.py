"""Arithmetic side: symplectic-similitude group orders, masses, and class numbers.

The principal-genus mass at dimension g and characteristic p is

    M(g, p) = ((-1)^(g(g+1)/2) / 2^g) * prod_{k=1..g} zeta(1-2k)
                                      * prod_{k=1..g} (p^k + (-1)^k),

always a positive rational.  Adding a level-N structure (N >= 3, coprime to p)
rigidifies automorphisms, and the class number becomes the integer

    H_N = |GSp_2g(Z/N)| * M(g, p).

The non-principal genus (g = 2d even, polarization kernel the Frobenius
kernel) replaces the (p^k + (-1)^k) factors by prod_{k=1..d} (p^(4k-2) - 1).

Type numbers are recovered from a supplied trace via T = (H + trace)/2, the
inverse of trace = 2T - H.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, prod

from .exactnum import zeta_negative


class GenusKind(Enum):
    PRINCIPAL = "principal"
    NON_PRINCIPAL = "non-principal"


class IntegralityError(Exception):
    """A class-number formula came out non-integral; this breaks the build."""


NONPRINCIPAL_CAVEAT = (
    "formula value; the lattice-count interpretation additionally requires a "
    "base object with polarization kernel equal to the Frobenius kernel, "
    "which exists e.g. when p = 1 mod 4 or 4 | g"
)


@dataclass(frozen=True)
class MassParams:
    g: int
    p: int
    N: int
    genus_kind: GenusKind = GenusKind.PRINCIPAL

    def __post_init__(self) -> None:
        if self.genus_kind is GenusKind.NON_PRINCIPAL and self.g % 2 != 0:
            raise ValueError("non-principal genus requires even g")


@dataclass(frozen=True)
class MassResult:
    params: MassParams
    mass: Fraction
    gsp_order: int
    class_number: int | None
    note: str = ""


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


def _mass(g: int, local: int) -> Fraction:
    """(-1)^(g(g+1)/2) / 2^g * prod_{k=1..g} zeta(1-2k), times the local factor."""
    value = Fraction((-1) ** (g * (g + 1) // 2), 2**g)
    for k in range(1, g + 1):
        value *= zeta_negative(k)
    return value * local


def principal_mass(g: int, p: int) -> Fraction:
    """The exact mass M(g, p) of the principal genus; positive for all inputs."""
    if g < 1:
        raise ValueError("g must be positive")
    return _mass(g, prod(p**k + (-1) ** k for k in range(1, g + 1)))


def _nonprincipal_mass(g: int, p: int) -> Fraction:
    return _mass(g, prod(p ** (4 * k - 2) - 1 for k in range(1, g // 2 + 1)))


def _check_level(p: int, N: int) -> None:
    if N < 3:
        raise ValueError(
            f"the class-number formula needs N >= 3 (level rigidity), got N={N}"
        )
    if gcd(N, p) != 1:
        raise ValueError(f"level N={N} must be coprime to p={p}")


def _level_class_number(g: int, p: int, N: int, mass: Fraction, what: str) -> int:
    """|GSp_2g(Z/N)| * mass at a rigid level N; checked to be a positive integer."""
    _check_level(p, N)
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
    if g % 2 != 0:
        raise ValueError("non-principal genus requires even g = 2d")
    return _level_class_number(g, p, N, _nonprincipal_mass(g, p), "H'_N")


def recover_type_number(H: int, trace: int) -> int:
    """Solve trace = 2T - H for the type number T = (H + trace)/2."""
    if not 0 <= trace <= H:
        raise ValueError(f"trace {trace} outside [0, H={H}]")
    if (H + trace) % 2 != 0:
        raise ValueError(f"H={H} and trace={trace} have mixed parity")
    return (H + trace) // 2


def component_genus(g: int) -> GenusKind:
    """Which genus counts the irreducible components of the supersingular locus.

    Metadata only: odd g is counted by the principal class number, even g by
    the non-principal one.  The N = 1 class numbers themselves are not
    computed here for g > 1.
    """
    if g < 1:
        raise ValueError("g must be positive")
    return GenusKind.PRINCIPAL if g % 2 == 1 else GenusKind.NON_PRINCIPAL


def evaluate(params: MassParams) -> MassResult:
    """Bundle mass, group order, and (when N >= 3) the class number."""
    g, p, N = params.g, params.p, params.N
    if params.genus_kind is GenusKind.PRINCIPAL:
        mass = principal_mass(g, p)
        note = ""
    else:
        mass = _nonprincipal_mass(g, p)
        note = NONPRINCIPAL_CAVEAT
    order = gsp_order(g, N)
    class_number = _level_class_number(g, p, N, mass, "class number ") if N >= 3 else None
    return MassResult(params=params, mass=mass, gsp_order=order,
                      class_number=class_number, note=note)
