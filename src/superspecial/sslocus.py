"""The g = 1 superspecial census: j-invariants, Galois involution, and (H, F, T).

For p >= 5 the supersingular j-invariants are the images of the roots of the
Legendre supersingularity polynomial under the 6-to-1 map lambda -> j; every
one of them lies in F_{p^2}, and the arithmetic Frobenius acts on them by
j -> j^p.  A census is the prime p and its sorted j-set, each point
j = a + b t carried as its residue pair (a, b); from these it derives

    H = number of points,
    F = number of Frobenius-fixed points (the F_p-rational ones, b = 0),
    T = number of Frobenius orbits = F + (H - F)/2,

so F = 2T - H, as each orbit has size 1 or 2.  F doubles as the trace of the
Atkin-Lehner translation operator on the class space, and T as the type
number; the identity is the counting shadow of "trace = 2 * type number -
class number".  Census(...) raises CensusInvariantError unless its j-set
passes Census.validate.

On residue pairs Frobenius is (a, b) -> (a, -b mod p) (ffield.frobenius), so
it maps each run of equal a in the sorted j-set to itself: it fixes the run's
b = 0 point, which comes first if present, and reverses the others, whose b's
pair first-with-last into sums p.  Census.validate reads the involution off
these runs in the same scan that checks the j-set, with F, T and the
automorphism orders (only a fixed point can be j = 0 or j = 1728).

p = 2 and p = 3 fall outside the Legendre parametrization (and outside the
6/4/2 automorphism-order rule); their census is the single supersingular
point j = 0, with H = F = T = 1.

The Legendre roots come from fppoly.roots_in_fp2, whose first splitting
steps (large powmods and gcds) dominate at large p: on a 2-vCPU VM (best of 3
in three alternating rounds) census(997) takes 0.04 s, census(4999)
0.76-0.90 s and census(10007) 3.1-3.3 s; README "Scale limits" has the
ceilings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path

from .ffield import Fp2Field, format_pair, is_prime, lambda_to_j, parse_pairs
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

# True automorphism orders at p = 2, 3, where j = 0 is the unique
# supersingular point (the 6/4/2 rule does not apply in characteristic 2, 3).
_SMALL_AUT = {2: 24, 3: 12}


class CensusInvariantError(Exception):
    """A census violated one of its defining identities (corrupt cache or bug)."""


@dataclass(frozen=True)
class Census:
    """The superspecial locus at a prime together with its involution data.

    Built from p and the sorted residue pairs (a, b) of its j-invariants
    j = a + b t; the other fields are derived from those two, so they cannot
    disagree with them.  Census(...) runs validate, which raises
    CensusInvariantError unless the j-set is a census's and otherwise stores
    every other field, all read off the runs of equal a in one scan (j -> j^p
    must map the j-set to itself), so every Census that exists is valid.
    """

    p: int
    j_points: tuple[tuple[int, int], ...]
    involution: tuple[int, ...] = field(init=False)  # index permutation realizing j -> j^p
    H: int = field(init=False)
    F: int = field(init=False)
    T: int = field(init=False)
    aut_orders: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise CensusInvariantError unless j_points is the j-set of a census,
        else store what its scan reads off it: the Frobenius involution, H, F
        (the runs' fixed points, whose aut_orders it sets) and T = (H + F)/2.
        The checks, in this order:

        - p is prime;
        - the j-set is not empty;
        - one scan of the j-set, which closes each run of equal a as it leaves
          it, and reports the first fault it meets:
          - the pairs strictly increase, so they are sorted and distinct;
          - each run is Frobenius-stable: its b = 0 point, first if present,
            is fixed, and its other b's pair first-with-last into sums p;
          - 0 <= a < p and 0 <= b for the first pair (a, b) of each run, so,
            with the sums p, 0 <= a, b < p for all its pairs (j is
            F_p2-rational, j^(p^2) = j);
        - at p <= 3 it is {0}, at p > 3 its size H is class_number_formula(p).
        """
        p, js = self.p, self.j_points
        if not is_prime(p):
            raise CensusInvariantError(f"p={p}: not a prime")
        if not js:
            raise CensusInvariantError(f"p={p}: empty j-set")
        H = len(js)
        inv, F = list(range(H)), 0
        aut_orders = [_AUT_GENERIC] * H
        special = ({0: _SMALL_AUT[p]} if p in _SMALL_AUT
                   else {0: _AUT_SPECIAL_ZERO, 1728 % p: _AUT_SPECIAL_1728})
        start = 0  # first index of the current run of equal a
        for i in range(1, H + 1):
            if i < H:
                if js[i] <= js[i - 1]:
                    raise CensusInvariantError(f"p={p}: duplicate or unsorted j-invariants")
                if js[i][0] == js[start][0]:
                    continue
            a, b = js[start]  # the run js[start:i] ends here
            lo, hi = start + (b == 0), i - 1
            while lo < hi:
                if js[lo][1] + js[hi][1] != p:
                    break
                inv[lo], inv[hi] = hi, lo
                lo, hi = lo + 1, hi - 1
            if lo <= hi:
                raise CensusInvariantError(f"p={p}: j-set not Frobenius-stable")
            if not (0 <= a < p and b >= 0):
                raise CensusInvariantError(f"p={p}: point not F_p2-rational")
            if b == 0:  # the run's fixed, F_p-rational point
                F += 1
                aut_orders[start] = special.get(a, _AUT_GENERIC)
            start = i
        if p <= 3:
            if js != ((0, 0),):
                raise CensusInvariantError(f"p={p}: j-set differs from the hard-coded {{0}}")
        elif H != class_number_formula(p):
            raise CensusInvariantError(f"p={p}: H fails the class-number formula")
        for name, value in (("involution", tuple(inv)), ("H", H), ("F", F),
                            ("T", (H + F) // 2), ("aut_orders", tuple(aut_orders))):
            object.__setattr__(self, name, value)


def involution_census(inv) -> tuple[int, int, int]:
    """(H, F, T) = (points, fixed points, orbits) of the involution i -> inv[i]
    of range(len(inv)); CensusInvariantError unless inv is one and F = 2T - H."""
    H, F, T = len(inv), 0, 0
    for i, k in enumerate(inv):
        if not (0 <= k < H and inv[k] == i):
            raise CensusInvariantError(f"map is not an involution at index {i}")
        F += i == k
        T += i <= k  # one point of each orbit {i, inv[i]}
    if F != 2 * T - H:
        raise CensusInvariantError("involution census failed F = 2T - H")
    return H, F, T


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
        js = {(0, 0)}
    else:
        field = Fp2Field.of(p)
        lambdas = roots_in_fp2(hasse_poly(p), field)
        if len(lambdas) != (p - 1) // 2:
            # The Legendre supersingularity polynomial is squarefree with every
            # root in F_{p^2}; anything else is a root-finder regression.
            raise CensusInvariantError(
                f"p={p}: found {len(lambdas)} Legendre parameters, expected {(p - 1) // 2}")
        # The roots are closed under lam -> 1 - lam, and j(lam) = j(1 - lam):
        # map only the lexicographically smaller of each pair (lam = 1/2 is
        # its own partner).
        js = {lambda_to_j(lam, field) for lam in lambdas
              if lam <= ((1 - lam[0]) % p, -lam[1] % p)}
    return Census(p, tuple(sorted(js)))


def class_number_formula(p: int) -> int:
    """floor(p/12) + eps(p mod 12), the classical count of supersingular
    j-invariants at a prime p > 3, with eps = 0, 1, 1, 2 at residues 1, 5, 7, 11."""
    if p <= 3:
        raise ValueError("crosscheck formula is only valid for p > 3")
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def eichler_mass(c: Census) -> Fraction:
    """Automorphism-weighted count sum_j 1/|Aut(E_j)|; equals (p-1)/24 at every prime.

    One Fraction over the lcm L of the orders present, counting the points of
    each order: sum_a (L / a) * #{j : |Aut(E_j)| = a} / L."""
    orders = set(c.aut_orders)
    L = lcm(*orders)
    return Fraction(sum(L // a * c.aut_orders.count(a) for a in orders), L)


# ---------------------------------------------------------------------------
# Census cache: one line per prime, "p;j1,j2,...;F;T", append-only writes.
# A line is read back only in the exact bytes encode_census writes, "\n" included
# ("\r", spaces and non-UTF-8 bytes are malformed); its Census checks the j-set
# and derives F and T, which must match the cached ones.  A cache on no file
# lives in memory, so the CLI reads every census through CensusCache.get.
# ---------------------------------------------------------------------------

ENV_CACHE_DIR = "SUPERSPECIAL_CACHE_DIR"
_CACHE_FILENAME = "census.cache"


def default_cache_path() -> Path | None:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env) / _CACHE_FILENAME
    return None


def encode_census(c: Census) -> str:
    return f"{c.p};{','.join(format_pair(a, b) for a, b in c.j_points)};{c.F};{c.T}"


def _canonical_count(text: str) -> int:
    """int(text) if str() writes a count as text, else ValueError ('+1', '01', '1_0')."""
    n = int(text)
    if n < 0 or str(n) != text:
        raise ValueError(f"not a count: {text!r}")
    return n


def decode_census(line: str) -> Census:
    """Parse and revalidate one cache line; any fault raises CensusInvariantError."""
    try:
        p_str, j_str, f_str, t_str = line.removesuffix("\n").split(";")
        p, f, t = (_canonical_count(s) for s in (p_str, f_str, t_str))
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        check_census_cost(p)
        js = parse_pairs(j_str, p)
    except ValueError as exc:
        raise CensusInvariantError(f"malformed cache line: {line!r}") from exc
    c = Census(p, js)
    if (c.F, c.T) != (f, t):
        raise CensusInvariantError(f"p={p}: cached F/T disagree with recomputation")
    return c


class CensusCache:
    """Read-through, append-only census store keyed by prime; with path None
    it holds its censuses in memory and reads and writes no file."""

    def __init__(self, path: str | Path | None = None):
        self.path = None if path is None else Path(path)
        self._entries: dict[int, Census] = {}
        if self.path is not None and self.path.exists():
            try:
                text = self.path.read_bytes().decode(errors="surrogateescape")  # as written
            except OSError as exc:
                raise OSError(f"cannot read census cache {self.path}: {exc}") from exc
            lines = text.split("\n")
            if lines[-1]:  # a writer died inside its line; the next put would extend it
                raise CensusInvariantError(
                    f"census cache {self.path}: final line is unterminated: {lines[-1]!r}")
            for line in lines:
                if line:
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
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One write on an O_APPEND descriptor: concurrent writers cannot
        # interleave inside a line.
        line = (encode_census(c) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(f"short write to census cache {self.path}: {written} of {len(line)} bytes")
