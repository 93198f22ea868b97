"""Arithmetic in F_p and F_{p^2} for word-size odd primes.

Prime-field elements are carried as canonical int residues in [0, p); the
quadratic extension is modelled as F_p[t]/(t^2 - d) where d is the *smallest*
quadratic non-residue mod p, so that element encodings and cache files are
stable across runs.  Primes are restricted to p < 2^31: double-word products
then stay exact in machine arithmetic, which the polynomial layer exploits.

The Frobenius x -> x^p on F_{p^2} is (a + b t) -> (a - b t), since
t^p = t * (t^2)^((p-1)/2) = t * d^((p-1)/2) = -t.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_PRIME = 1 << 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for all n < 3.3e24)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks: write p-1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = canonical_nonresidue(p)
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
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
        if self.p == 2:
            # Degenerate constant used only by the hard-coded p=2 census,
            # where every stored element lies in the prime field (b = 0).
            return
        _check_odd_prime(self.p)
        if legendre(self.d, self.p) != -1:
            raise ValueError(f"d = {self.d} is a square mod {self.p}")

    def elem(self, a: int, b: int = 0) -> "Fp2Element":
        return Fp2Element(a % self.p, b % self.p, self)

    def zero(self) -> "Fp2Element":
        return self.elem(0)

    def one(self) -> "Fp2Element":
        return self.elem(1)

    def gen(self) -> "Fp2Element":
        """The generator t with t^2 = d."""
        return self.elem(0, 1)

    def parse(self, text: str) -> "Fp2Element":
        """Inverse of str(): accepts "a" or "a+b*t"."""
        text = text.strip()
        if "t" in text:
            head, sep, tail = text.partition("*t")
            a_str, _, b_str = head.rpartition("+")
            if not a_str or not sep or tail:
                raise ValueError(f"malformed F_p2 literal: {text!r}")
            return self.elem(int(a_str), int(b_str))
        return self.elem(int(text))


@dataclass(frozen=True)
class Fp2Element:
    """Element a + b*t of F_{p^2}; equality includes the field descriptor."""

    a: int
    b: int
    field: Fp2Field

    def _need(self, other: "Fp2Element") -> None:
        if self.field != other.field:
            raise ValueError("elements live in different field models")

    @property
    def p(self) -> int:
        return self.field.p

    def in_prime_field(self) -> bool:
        return self.b == 0

    def __add__(self, other: "Fp2Element") -> "Fp2Element":
        self._need(other)
        return self.field.elem(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Fp2Element") -> "Fp2Element":
        self._need(other)
        return self.field.elem(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Fp2Element":
        return self.field.elem(-self.a, -self.b)

    def __mul__(self, other: "Fp2Element") -> "Fp2Element":
        self._need(other)
        p, d = self.field.p, self.field.d
        a, b, c, e = self.a, self.b, other.a, other.b
        return self.field.elem((a * c + b * e % p * d) % p, (a * e + b * c) % p)

    def inverse(self) -> "Fp2Element":
        p, d = self.field.p, self.field.d
        norm = (self.a * self.a - d * self.b % p * self.b) % p
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in F_p2")
        ninv = pow(norm, p - 2, p)
        return self.field.elem(self.a * ninv, -self.b * ninv)

    def __truediv__(self, other: "Fp2Element") -> "Fp2Element":
        return self * other.inverse()

    def __pow__(self, e: int) -> "Fp2Element":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*t"

    def sort_key(self) -> tuple[int, int]:
        return (self.a, self.b)


def frobenius_pair(a: int, b: int, p: int) -> tuple[int, int]:
    """frobenius on a raw residue pair: (a, b) -> (a, -b mod p)."""
    return a, -b % p


def frobenius(x: Fp2Element) -> Fp2Element:
    """The field automorphism x -> x^p, i.e. (a + b t) -> (a - b t)."""
    a, b = frobenius_pair(x.a, x.b, x.field.p)
    return x.field.elem(a, b)


def _mul_pair(x: tuple[int, int], y: tuple[int, int], p: int, d: int) -> tuple[int, int]:
    """(x0 + x1 t)(y0 + y1 t) on raw residue pairs, with t^2 = d."""
    return ((x[0] * y[0] + x[1] * y[1] * d) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def lambda_to_j(lam: Fp2Element) -> Fp2Element:
    """Map a Legendre parameter to its j-invariant.

    j = 2^8 (lam^2 - lam + 1)^3 / (lam^2 (lam - 1)^2); the six parameters
    {lam, 1-lam, 1/lam, 1/(1-lam), lam/(lam-1), (lam-1)/lam} all map to the
    same value.  lam in {0, 1} is the degenerate curve and is rejected.
    The arithmetic runs on raw (a, b) pairs with a single norm inversion.
    """
    field = lam.field
    p, d = field.p, field.d
    a, b = lam.a, lam.b
    if b == 0 and a in (0, 1):
        raise ValueError("lambda in {0, 1} does not define a curve")
    lam2 = _mul_pair((a, b), (a, b), p, d)
    u = (lam2[0] - a + 1, lam2[1] - b)  # lam^2 - lam + 1
    num = _mul_pair(_mul_pair(u, u, p, d), u, p, d)
    den = _mul_pair(lam2, _mul_pair((a - 1, b), (a - 1, b), p, d), p, d)
    # 1/(x + y t) = (x - y t) / (x^2 - d y^2); the norm vanishes only at 0.
    scale = 256 * pow((den[0] * den[0] - d * den[1] * den[1]) % p, p - 2, p)
    j = _mul_pair(num, (den[0] * scale, -den[1] * scale), p, d)
    return Fp2Element(j[0], j[1], field)
