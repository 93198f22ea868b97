"""Arithmetic in F_p and F_{p^2} for word-size odd primes.

Prime-field elements are carried as canonical int residues in [0, p); the
quadratic extension is modelled as F_p[t]/(t^2 - d) where d is the *smallest*
quadratic non-residue mod p, so that element encodings and cache files are
stable across runs.  An element a + b t of F_{p^2} is carried as its residue
pair (a, b), written "a" or "a+b*t" (format_pair; parse_pairs reads a
comma-separated list of them, parse_pair one); Fp2Field is the checked
descriptor (p, d).  Primes are restricted to p < 2^31: double-word products
then stay exact in machine arithmetic, which the polynomial layer exploits.

is_prime is exact on n < psi_13 = 3317044064679887385961981 and refuses
larger n.  It runs Miller-Rabin only on bases proven to decide primality in
n's range: psi_k, the least strong pseudoprime to the first k primes, is
psi_2 = 1373653 and psi_4 = 3215031751 (Pomerance, Selfridge and Wagstaff,
as tabulated by Jaeschke, Math. Comp. 61, 1993) and psi_13 as above
(Sorenson and Webster, Math. Comp. 86, 2017), so below psi_k the first k
primes suffice.

The Frobenius x -> x^p on F_{p^2} is (a + b t) -> (a - b t), since
t^p = t * (t^2)^((p-1)/2) = t * d^((p-1)/2) = -t.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

MAX_PRIME = 1 << 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# An n with no prime factor <= 37 is prime when n < 41^2.
_TRIAL_LIMIT = 41 * 41

# (bound, bases): below bound, n is prime iff it is a strong probable prime to
# every base; the bounds are psi_2, psi_4 and psi_13.
_MR_BASES = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES + (41,)),
)
PRIMALITY_LIMIT = _MR_BASES[-1][0]


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly, for n < PRIMALITY_LIMIT = psi_13; raises
    ValueError for larger n.  Trial division by the primes <= 37 settles
    every n < 41^2; beyond, Miller-Rabin on the smallest base set proven for
    n's range: {2, 3} below psi_2 = 1373653, {2, 3, 5, 7} below
    psi_4 = 3215031751 (Jaeschke, Math. Comp. 61, 1993), the primes 2..41
    below psi_13 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality is proven only below psi_13 = {PRIMALITY_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < _TRIAL_LIMIT:
        return True
    bases = next(bases for bound, bases in _MR_BASES if n < bound)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("p = 2 is not supported by the quadratic-residue model")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the word-size bound 2^31")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def canonical_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p (deterministic)."""
    _check_odd_prime(p)
    d = 2
    while legendre(d, p) != -1:
        d += 1
    return d


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod p (Tonelli-Shanks); raises if a is a non-residue.

    Returns the smaller of the two roots so the result is deterministic.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    return _tonelli_shanks(a, p, None if p % 4 == 3 else canonical_nonresidue(p))


def _tonelli_shanks(a: int, p: int, z: int | None) -> int:
    """The smaller square root of the non-zero residue a mod the odd prime p,
    given a non-residue z (read only when p = 1 mod 4); raises ValueError
    if the result does not square to a."""
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Write p-1 = q * 2^s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            if i >= m:  # a is a non-residue, or z is not one
                break
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    if r * r % p != a % p:
        raise ValueError(f"Tonelli-Shanks found no square root of {a} mod {p}")
    return min(r, p - r)


@dataclass(frozen=True)
class Fp2Field:
    """Descriptor (p, d) for the model F_p[t]/(t^2 - d)."""

    p: int
    d: int

    @classmethod
    def of(cls, p: int) -> "Fp2Field":
        return cls(p, canonical_nonresidue(p))

    def __post_init__(self) -> None:
        _check_odd_prime(self.p)
        if legendre(self.d, self.p) != -1:
            raise ValueError(f"d = {self.d} is a square mod {self.p}")

    def parse(self, text: str) -> tuple[int, int]:
        """The residue pair of the literal "a" or "a+b*t" (see parse_pair)."""
        return parse_pair(text, self.p)


def format_pair(a: int, b: int) -> str:
    """The literal of a + b*t: "a" when b = 0, else "a+b*t"."""
    return str(a) if b == 0 else f"{a}+{b}*t"


# The grammar of format_pair's literals, in ASCII digits without leading
# zeros or "+0*t", and of a comma-separated list of them.
_LITERAL = r"(?:0|[1-9][0-9]*)(?:\+[1-9][0-9]*\*t)?"
_LITERALS = re.compile(f"{_LITERAL}(?:,{_LITERAL})*")


def parse_pairs(text: str, p: int) -> tuple[tuple[int, int], ...]:
    """Inverse of ",".join(format_pair(a, b) ...) on residues mod p: accepts
    exactly what that writes for 0 <= a, b < p (no sign, space, '_', empty
    literal, non-ASCII digit, leading zero or "+0*t"), else raises ValueError."""
    if _LITERALS.fullmatch(text):
        # One JSON list of every a and b: each literal gets ",0" appended, which
        # "*t,0" takes off again after "a+b*t", and "+" separates a from b.
        flat = json.loads(
            "[" + (text.replace(",", ",0,") + ",0").replace("*t,0", "").replace("+", ",") + "]")
        if max(flat) < p:
            return tuple(zip(flat[::2], flat[1::2]))
    raise ValueError(f"malformed F_p2 literal mod {p}: {text!r}")


def parse_pair(text: str, p: int) -> tuple[int, int]:
    """Inverse of format_pair on residues mod p: parse_pairs on one literal."""
    if "," in text:
        raise ValueError(f"malformed F_p2 literal mod {p}: {text!r}")
    return parse_pairs(text, p)[0]


def frobenius(a: int, b: int, p: int) -> tuple[int, int]:
    """The field automorphism x -> x^p on a residue pair: (a, b) -> (a, -b mod p)."""
    return a, -b % p


def _mul_pair(x: tuple[int, int], y: tuple[int, int], p: int, d: int) -> tuple[int, int]:
    """(x0 + x1 t)(y0 + y1 t) on raw residue pairs, with t^2 = d."""
    return ((x[0] * y[0] + x[1] * y[1] * d) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def lambda_to_j(lam: tuple[int, int], field: Fp2Field) -> tuple[int, int]:
    """Map the residue pair of a Legendre parameter to that of its j-invariant.

    j = 2^8 (lam^2 - lam + 1)^3 / (lam^2 (lam - 1)^2); the six parameters
    {lam, 1-lam, 1/lam, 1/(1-lam), lam/(lam-1), (lam-1)/lam} all map to the
    same value.  lam in {0, 1} is the degenerate curve and is rejected.
    The arithmetic uses a single norm inversion.
    """
    p, d = field.p, field.d
    a, b = lam[0] % p, lam[1] % p
    if b == 0 and a in (0, 1):
        raise ValueError("lambda in {0, 1} does not define a curve")
    lam2 = _mul_pair((a, b), (a, b), p, d)
    u = (lam2[0] - a + 1, lam2[1] - b)  # lam^2 - lam + 1
    num = _mul_pair(_mul_pair(u, u, p, d), u, p, d)
    den = _mul_pair(lam2, _mul_pair((a - 1, b), (a - 1, b), p, d), p, d)
    # 1/(x + y t) = (x - y t) / (x^2 - d y^2); the norm vanishes only at 0.
    scale = 256 * pow((den[0] * den[0] - d * den[1] * den[1]) % p, p - 2, p)
    return _mul_pair(num, (den[0] * scale, -den[1] * scale), p, d)
