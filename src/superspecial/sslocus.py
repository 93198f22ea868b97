"""The g = 1 superspecial census: j-invariants, Galois involution, and (H, F, T).

For p >= 5 the supersingular j-invariants are the images of the roots of the
Legendre supersingularity polynomial under the 6-to-1 map lambda -> j; every
one of them lies in F_{p^2}, and the arithmetic Frobenius acts on them by
j -> j^p.  The census records

    H = number of points,
    F = number of Frobenius-fixed points (the F_p-rational ones),
    T = number of Frobenius orbits,

which satisfy F = 2T - H: each orbit has size 1 or 2, so H = F + 2(T - F).
F doubles as the trace of the Atkin-Lehner translation operator on the class
space, and T as the type number; the identity is the counting shadow of
"trace = 2 * type number - class number".

p = 2 and p = 3 fall outside the Legendre parametrization (and outside the
6/4/2 automorphism-order rule); their censuses are hard-coded constants:
the single supersingular point j = 0 with H = F = T = 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .ffield import Fp2Element, Fp2Field, frobenius, is_prime, lambda_to_j
from .fppoly import hasse_poly, roots_in_fp2

# Automorphism group orders of supersingular curves for p > 3: the two special
# j-invariants have extra automorphisms, every other curve has only +-1.
_AUT_SPECIAL_ZERO = 6
_AUT_SPECIAL_1728 = 4
_AUT_GENERIC = 2

# Largest prime census() accepts.  hasse_poly(p) allocates (p-1)/2 + 1 int64
# coefficients and root finding works in degree (p-1)/2, so a prime that
# passes the word-size bound of ffield (p < 2^31) can still ask for gigabytes
# and hours; beyond this ceiling the census is refused up front.
CENSUS_MAX_PRIME = 10**6

# True automorphism orders at the hard-coded small primes (j = 0 is the unique
# supersingular point; the 6/4/2 rule does not apply in characteristic 2, 3).
_SMALL_AUT = {2: 24, 3: 12}


class CensusInvariantError(Exception):
    """A census violated one of its defining identities (corrupt cache or bug)."""


@dataclass(frozen=True)
class Census:
    """The superspecial locus at a prime together with its involution data."""

    p: int
    j_points: tuple[Fp2Element, ...]
    involution: tuple[int, ...]  # index permutation realizing j -> j^p
    H: int
    F: int
    T: int
    aut_orders: tuple[int, ...]

    def validate(self) -> None:
        p = self.p
        if self.H != len(self.j_points) or self.H != len(self.involution):
            raise CensusInvariantError(f"p={p}: field lengths disagree")
        if len(set(self.j_points)) != self.H:
            raise CensusInvariantError(f"p={p}: duplicate j-invariants")
        fixed = 0
        for i, j in enumerate(self.j_points):
            conj = frobenius(j)
            if frobenius(conj) != j:  # j^(p^2) = j in this model of F_p2
                raise CensusInvariantError(f"p={p}: point not F_p2-rational")
            k = self.involution[i]
            if self.j_points[k] != conj:
                raise CensusInvariantError(f"p={p}: involution does not realize j -> j^p")
            if self.involution[k] != i:
                raise CensusInvariantError(f"p={p}: involution is not self-inverse")
            if k == i:
                fixed += 1
        if fixed != self.F:
            raise CensusInvariantError(f"p={p}: F != number of fixed points")
        if (self.H + self.F) % 2 != 0 or self.T != (self.H + self.F) // 2:
            raise CensusInvariantError(f"p={p}: T != (H + F)/2")
        if self.F != 2 * self.T - self.H:
            raise CensusInvariantError(f"p={p}: F != 2T - H")
        if p > 3 and not class_number_crosscheck(self):
            raise CensusInvariantError(f"p={p}: H fails the class-number formula")


def _aut_orders(field: Fp2Field, js) -> tuple[int, ...]:
    """|Aut(E_j)| for each j at p > 3, by the 6/4/2 rule."""
    j1728 = field.elem(1728)
    zero = field.zero()
    return tuple(_AUT_SPECIAL_ZERO if j == zero
                 else _AUT_SPECIAL_1728 if j == j1728
                 else _AUT_GENERIC
                 for j in js)


def _small_census(p: int) -> Census:
    field = Fp2Field(p, 2 if p == 3 else 1)
    j0 = field.elem(0)
    return Census(p=p, j_points=(j0,), involution=(0,), H=1, F=1, T=1,
                  aut_orders=(_SMALL_AUT[p],))


def check_census_cost(p: int) -> None:
    """Refuse a census (or a sweep up to p) above CENSUS_MAX_PRIME."""
    if p > CENSUS_MAX_PRIME:
        raise ValueError(f"p = {p} is above the census ceiling {CENSUS_MAX_PRIME}")


def census(p: int) -> Census:
    """Enumerate the supersingular locus at p with its Galois involution."""
    if not is_prime(p):
        raise ValueError(f"census requires a prime, got {p}")
    check_census_cost(p)
    if p <= 3:
        return _small_census(p)
    field = Fp2Field.of(p)
    lambdas = roots_in_fp2(hasse_poly(p), field)
    if len(lambdas) != (p - 1) // 2:
        # The Legendre supersingularity polynomial is squarefree with every
        # root in F_{p^2}; anything else is a root-finder regression.
        raise CensusInvariantError(
            f"p={p}: found {len(lambdas)} Legendre parameters, expected {(p - 1) // 2}")
    js = sorted({lambda_to_j(lam) for lam in lambdas}, key=Fp2Element.sort_key)
    index = {j: i for i, j in enumerate(js)}
    involution = tuple(index[frobenius(j)] for j in js)
    H = len(js)
    F = sum(1 for i, k in enumerate(involution) if i == k)
    T = (H + F) // 2
    result = Census(p=p, j_points=tuple(js), involution=involution,
                    H=H, F=F, T=T, aut_orders=_aut_orders(field, js))
    result.validate()
    return result


def trace_R_pi0(c: Census) -> int:
    """Trace of the Atkin-Lehner translation = number of F_p-rational points."""
    return c.F


def type_number(c: Census) -> int:
    """Number of Galois orbits on the locus (= closed points = type number)."""
    return c.T


def class_number_crosscheck(c: Census) -> bool:
    """Independent oracle: H must equal floor(p/12) + eps(p mod 12).

    This is the classical count of supersingular j-invariants, with
    eps = 0, 1, 1, 2 at residues 1, 5, 7, 11.
    """
    if c.p <= 3:
        raise ValueError("crosscheck formula is only valid for p > 3")
    eps = {1: 0, 5: 1, 7: 1, 11: 2}[c.p % 12]
    return c.H == c.p // 12 + eps


def eichler_mass(c: Census) -> Fraction:
    """Automorphism-weighted count sum_j 1/|Aut(E_j)|; equals (p-1)/24."""
    if c.p <= 3:
        raise ValueError("mass via the 6/4/2 rule is only valid for p > 3")
    return sum((Fraction(1, a) for a in c.aut_orders), Fraction(0))


# ---------------------------------------------------------------------------
# Census cache: one line per prime, "p;j1,j2,...;F;T", append-only writes.
# Entries are revalidated against the census invariants when read back.
# ---------------------------------------------------------------------------

ENV_CACHE_DIR = "SUPERSPECIAL_CACHE_DIR"
_CACHE_FILENAME = "census.cache"


def default_cache_path() -> Path | None:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env) / _CACHE_FILENAME
    return None


def encode_census(c: Census) -> str:
    return f"{c.p};{','.join(str(j) for j in c.j_points)};{c.F};{c.T}"


def decode_census(line: str) -> Census:
    try:
        p_str, j_str, f_str, t_str = line.strip().split(";")
        p = int(p_str)
    except ValueError as exc:
        raise CensusInvariantError(f"malformed cache line: {line!r}") from exc
    if p <= 3:
        c = _small_census(p)
    else:
        field = Fp2Field.of(p)
        try:
            js = tuple(field.parse(tok) for tok in j_str.split(","))
        except ValueError as exc:
            raise CensusInvariantError(f"p={p}: unparsable j-invariant: {exc}") from exc
        index = {j: i for i, j in enumerate(js)}
        try:
            involution = tuple(index[frobenius(j)] for j in js)
        except KeyError as exc:
            raise CensusInvariantError(f"p={p}: cached set not Frobenius-stable") from exc
        c = Census(p=p, j_points=js, involution=involution, H=len(js),
                   F=int(f_str), T=int(t_str), aut_orders=_aut_orders(field, js))
    if (c.F, c.T) != (int(f_str), int(t_str)):
        raise CensusInvariantError(f"p={p}: cached F/T disagree with recomputation")
    c.validate()
    return c


class CensusCache:
    """Read-through, append-only census store keyed by prime."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[int, Census] = {}
        if self.path.exists():
            try:
                text = self.path.read_text()
            except OSError as exc:
                raise OSError(f"cannot read census cache {self.path}: {exc}") from exc
            for line in text.splitlines():
                if not line.strip():
                    continue
                c = decode_census(line)
                self._entries[c.p] = c

    def __contains__(self, p: int) -> bool:
        return p in self._entries

    def get(self, p: int) -> Census:
        c = self._entries.get(p)
        if c is None:
            c = census(p)
            self.put(c)
        return c

    def put(self, c: Census) -> None:
        if c.p in self._entries:
            return
        self._entries[c.p] = c
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(encode_census(c) + "\n")
