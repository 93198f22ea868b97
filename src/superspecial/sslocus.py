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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .ffield import Fp2Element, Fp2Field, frobenius_pair, is_prime, lambda_to_j
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
        """Raise CensusInvariantError unless, with each point j = a + b t read
        as its raw residue pair (a, b) and visited once:

        - H, j_points, involution and aut_orders have one length, and it is not 0;
        - the pairs are distinct;
        - 0 <= a, b < p (j is F_p2-rational, i.e. j^(p^2) = j);
        - every point lies in one field model, that of the census's prime p;
        - involution[i] lies in [0, H) and is the index of frobenius_pair(a, b, p)
          = (a, -b mod p), the pair of j^p, and involution is its own inverse;
        - aut_orders is _aut_orders(p, pairs): 6/4/2 at p > 3, _SMALL_AUT else;
        - F is the number of fixed points and T = (H + F)/2 (so F = 2T - H);
        - for p > 3, H = class_number_formula(p).
        """
        p, js, inv, H = self.p, self.j_points, self.involution, self.H
        if not H == len(js) == len(inv) == len(self.aut_orders):
            raise CensusInvariantError(f"p={p}: field lengths disagree")
        if not js:
            raise CensusInvariantError(f"p={p}: empty j-set")
        pairs = [(j.a, j.b) for j in js]
        if len(set(pairs)) != H:
            raise CensusInvariantError(f"p={p}: duplicate j-invariants")
        field = js[0].field
        fixed = 0
        for i, (j, (a, b)) in enumerate(zip(js, pairs)):
            if not (0 <= a < p and 0 <= b < p):
                raise CensusInvariantError(f"p={p}: point not F_p2-rational")
            if j.field != field or field.p != p:
                raise CensusInvariantError(f"p={p}: point outside the census's field")
            k = inv[i]
            if not 0 <= k < H:
                raise CensusInvariantError(f"p={p}: involution index out of range")
            if pairs[k] != frobenius_pair(a, b, p):
                raise CensusInvariantError(f"p={p}: involution does not realize j -> j^p")
            if inv[k] != i:
                raise CensusInvariantError(f"p={p}: involution is not self-inverse")
            fixed += k == i
        if self.aut_orders != _aut_orders(p, pairs):
            raise CensusInvariantError(f"p={p}: aut_orders disagree with the j-invariants")
        if fixed != self.F:
            raise CensusInvariantError(f"p={p}: F != number of fixed points")
        if (H + self.F) % 2 != 0 or self.T != (H + self.F) // 2:
            raise CensusInvariantError(f"p={p}: T != (H + F)/2")
        if p > 3 and not class_number_crosscheck(self):
            raise CensusInvariantError(f"p={p}: H fails the class-number formula")


def _aut_orders(p: int, pairs) -> tuple[int, ...]:
    """|Aut(E_j)| for each j, given by its raw pair (a, b): _SMALL_AUT at p <= 3,
    else the 6/4/2 rule (6 at j = 0, 4 at j = 1728, 2 elsewhere)."""
    if p in _SMALL_AUT:
        return (_SMALL_AUT[p],) * len(pairs)
    special = {(0, 0): _AUT_SPECIAL_ZERO, (1728 % p, 0): _AUT_SPECIAL_1728}
    return tuple(special.get(pair, _AUT_GENERIC) for pair in pairs)


def _assemble(field: Fp2Field, js: tuple[Fp2Element, ...]) -> Census:
    """The census of the j-set js at p > 3: involution, F, T and aut orders.

    Raises KeyError when js is not Frobenius-stable.
    """
    p = field.p
    pairs = [(j.a, j.b) for j in js]
    index = {pair: i for i, pair in enumerate(pairs)}
    involution = tuple(index[frobenius_pair(a, b, p)] for a, b in pairs)
    H = len(js)
    F = sum(1 for i, k in enumerate(involution) if i == k)
    return Census(p=p, j_points=js, involution=involution, H=H, F=F,
                  T=(H + F) // 2, aut_orders=_aut_orders(p, pairs))


def _small_census(p: int) -> Census:
    field = Fp2Field(p, 2 if p == 3 else 1)
    j0 = field.elem(0)
    return Census(p=p, j_points=(j0,), involution=(0,), H=1, F=1, T=1,
                  aut_orders=_aut_orders(p, [(0, 0)]))


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
        result = _small_census(p)
    else:
        field = Fp2Field.of(p)
        lambdas = roots_in_fp2(hasse_poly(p), field)
        if len(lambdas) != (p - 1) // 2:
            # The Legendre supersingularity polynomial is squarefree with every
            # root in F_{p^2}; anything else is a root-finder regression.
            raise CensusInvariantError(
                f"p={p}: found {len(lambdas)} Legendre parameters, expected {(p - 1) // 2}")
        js = sorted({lambda_to_j(lam) for lam in lambdas}, key=Fp2Element.sort_key)
        result = _assemble(field, tuple(js))
    result.validate()
    return result


def trace_R_pi0(c: Census) -> int:
    """Trace of the Atkin-Lehner translation = number of F_p-rational points."""
    return c.F


def type_number(c: Census) -> int:
    """Number of Galois orbits on the locus (= closed points = type number)."""
    return c.T


def class_number_formula(p: int) -> int:
    """floor(p/12) + eps(p mod 12), the classical count of supersingular
    j-invariants at a prime p > 3, with eps = 0, 1, 1, 2 at residues 1, 5, 7, 11."""
    if p <= 3:
        raise ValueError("crosscheck formula is only valid for p > 3")
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def class_number_crosscheck(c: Census) -> bool:
    """Independent oracle: H must equal class_number_formula(p)."""
    return c.H == class_number_formula(c.p)


def eichler_mass(c: Census) -> Fraction:
    """Automorphism-weighted count sum_j 1/|Aut(E_j)|; equals (p-1)/24."""
    if c.p <= 3:
        raise ValueError("mass via the 6/4/2 rule is only valid for p > 3")
    return sum((Fraction(n, a) for a, n in Counter(c.aut_orders).items()), Fraction(0))


# ---------------------------------------------------------------------------
# Census cache: one line per prime, "p;j1,j2,...;F;T", append-only writes.
# Entries are revalidated when read back: _assemble recomputes the involution,
# F, T and aut orders from the cached j-set, and Census.validate checks them.
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
    """Parse and revalidate one cache line; any fault raises CensusInvariantError."""
    try:
        p_str, j_str, f_str, t_str = line.strip().split(";")
        p, cached = int(p_str), (int(f_str), int(t_str))
        # Fp2Field.of refuses a p that is not prime or beyond the word size.
        field = None if p in _SMALL_AUT else Fp2Field.of(p)
    except ValueError as exc:
        raise CensusInvariantError(f"malformed cache line: {line!r}") from exc
    if field is None:
        c = _small_census(p)
        if j_str != encode_census(c).split(";")[1]:
            raise CensusInvariantError(f"p={p}: cached j-set differs from the hard-coded census")
    else:
        try:
            js = tuple(field.parse(tok) for tok in j_str.split(","))
        except ValueError as exc:
            raise CensusInvariantError(f"p={p}: unparsable j-invariant: {exc}") from exc
        try:
            c = _assemble(field, js)
        except KeyError as exc:
            raise CensusInvariantError(f"p={p}: cached set not Frobenius-stable") from exc
    if (c.F, c.T) != cached:
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
