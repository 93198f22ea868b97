"""Dense polynomial arithmetic over F_p and root extraction in F_{p^2}.

A polynomial is its coefficient vector: a numpy int64 array, low degree
first, trimmed so the leading coefficient is non-zero (the empty array is the
zero polynomial).  Roots in F_{p^2} are returned as residue pairs (a, b) for
a + b t, as everywhere in ffield.
Exactness: a product convolution is done in int64 only when
min(len_a, len_b) * (p-1)^2 fits safely below 2^63; otherwise it falls back to
an object (big-int) convolution, so no modulus is ever silently wrong.  A
fixed-modulus context makes that decision once, from its degree.

Root finding follows a gcd-with-Frobenius strategy:

  1. g = gcd(f, x^(p^2) - x) carries every root of f in F_{p^2}, each once:
     x^(p^2) - x is the product of all monic linear factors over F_{p^2}, so
     g is squarefree by construction whatever the multiplicities in f.
  2. g splits into its linear part g1 = gcd(g, x^p - x), whose roots lie in
     F_p and are extracted by a vectorized scan of the prime field
     (roots_in_prime_field, refused for p above PRIME_SCAN_MAX), and
     g2 = g / g1, a product of distinct irreducible quadratics.  g2 is
     split by the Legendre ladder gcd(g2, (x+c)^((p^2-1)/2) - 1) for
     c = 0, 1, 2, ...; conjugate root pairs share the norm (x+c)(x^p+c), so
     they stay together and the ladder separates distinct quadratic factors.
     A node of two factors is finished in closed form instead: x + x^p and
     x * x^p are the pairs (trace, norm) of the two factors, read off by
     solving one quadratic over F_p.  So the ladder runs only on nodes of
     three or more factors (a character-sum bound guarantees a separating c
     for p >= 11, and at p = 5 and 7 no two irreducible quadratics agree on
     every rung).
  3. Each quadratic x^2 - s x + n is solved by descending to F_p: its
     discriminant is d times a square, so the root is (s + t*sqrt(disc/d))/2
     with a Tonelli-Shanks square root in the prime field.

Reductions inside a fixed modulus use a Newton-inverted reciprocal of the
reversed modulus, which keeps the hot loop inside C-speed convolutions.
"""

from __future__ import annotations

import numpy as np

from .ffield import Fp2Field, is_prime, sqrt_mod

_INT64_SAFE = (1 << 62)

# Largest prime whose field roots_in_prime_field scans: the scan holds two
# int64 arrays of length p.  Not below sslocus.CENSUS_MAX_PRIME, so every
# census it admits can be scanned.
PRIME_SCAN_MAX = 10**6


def _trim(c: np.ndarray) -> np.ndarray:
    # A product of trimmed polynomials over a field keeps a non-zero leading
    # coefficient, so the scan is needed only after cancellation.
    if len(c) == 0 or c[-1]:
        return c
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return c[:0]
    return c[: nz[-1] + 1]


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The product a * b mod p, exact for every p."""
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    if min(len(a), len(b)) * (p - 1) * (p - 1) < _INT64_SAFE:
        return _trim(np.convolve(a, b) % p)
    return _trim((np.convolve(a.astype(object), b.astype(object)) % p).astype(np.int64))


def _sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return _trim(out)


def _divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Schoolbook division; fine for gcd chains where the modulus keeps changing."""
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return a[:0], a.copy()
    r = a.copy()
    db = len(b) - 1
    inv_lc = pow(int(b[-1]), p - 2, p)
    q = np.zeros(len(a) - db, dtype=np.int64)
    for i in range(len(a) - db - 1, -1, -1):
        coef = int(r[i + db]) * inv_lc % p
        if coef:
            q[i] = coef
            seg = r[i : i + db + 1]
            seg -= coef * b
            seg %= p
    return _trim(q), _trim(r[:db])


def _rem(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a mod b by schoolbook division, without forming the quotient."""
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return a
    r = a.copy()
    inv_lc = pow(int(b[-1]), p - 2, p)
    for i in range(len(a) - 1, db - 1, -1):
        coef = int(r[i]) * inv_lc % p
        if coef:
            seg = r[i - db : i + 1]
            seg -= coef * b
            seg %= p
    return _trim(r[:db])


def _gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    while len(b):
        a, b = b, _rem(a, b, p)
    if len(a):
        a = a * pow(int(a[-1]), p - 2, p) % p
    return a


def _newton_inverse(f: np.ndarray, k: int, p: int) -> np.ndarray:
    """Inverse of f modulo x^k (requires f[0] != 0)."""
    g = np.array([pow(int(f[0]), p - 2, p)], dtype=np.int64)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        fg = _mul(f[:prec], g, p)[:prec]
        t = (-fg) % p
        if len(t) == 0:
            t = np.zeros(1, dtype=np.int64)
        t[0] = (t[0] + 2) % p
        g = _mul(g, _trim(t), p)[:prec]
    return g


class _Modulus:
    """Fixed-modulus reduction context with a precomputed Newton reciprocal."""

    def __init__(self, m: np.ndarray, p: int):
        if len(m) == 0:
            raise ZeroDivisionError("zero modulus")
        inv_lc = pow(int(m[-1]), p - 2, p)
        self.m = m * inv_lc % p
        self.p = p
        self.n = len(m) - 1
        # Reduction targets are products of two residues: degree <= 2n - 2,
        # so quotient degree <= n - 2 and precision n - 1 suffices.
        self._prec = max(self.n, 1)
        # Every convolution below has a factor of length at most n, so one
        # bound decides int64 exactness for the context's life; past it the
        # stored factors are Python integers and so is every convolution.
        self._wide = self.n * (p - 1) * (p - 1) >= _INT64_SAFE
        if self.n >= 1:
            rinv = _newton_inverse(self.m[::-1].copy(), self._prec, p)
            # m is monic, so the low n coefficients of q*m are those of q*m_low.
            m_low = self.m[:-1]
            if self._wide:
                rinv, m_low = rinv.astype(object), m_low.astype(object)
            self._rinv, self._m_low = rinv, m_low

    def reduce(self, a: np.ndarray) -> np.ndarray:
        n, p = self.n, self.p
        if n == 0:
            return a[:0]
        if len(a) <= n:
            return a
        dq = len(a) - 1 - n
        if dq + 1 > self._prec:
            # Foreign input of unusually high degree: schoolbook is exact.
            return _rem(a, self.m, p)
        # The reversed quotient is rev(a) * rinv mod x^(dq+1); read it back
        # reversed, then r = a - q*m, of which only the low n coefficients live.
        q = np.convolve(a[: n - 1 : -1], self._rinv[: dq + 1])[dq::-1] % p
        r = (a[:n] - np.convolve(q, self._m_low)[:n]) % p
        if self._wide:
            r = r.astype(np.int64)
        return r if r[-1] else _trim(r)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b mod m for residues a, b (each of length at most n)."""
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        if self._wide:
            return self.reduce((np.convolve(a.astype(object), b) % self.p).astype(np.int64))
        return self.reduce(np.convolve(a, b) % self.p)

    def powmod(self, base: np.ndarray, e: int) -> np.ndarray:
        """base^e mod m by left-to-right square-and-multiply."""
        if e == 0:
            return self.reduce(np.ones(1, dtype=np.int64))
        base = self.reduce(base)
        result = base
        for bit in bin(e)[3:]:
            result = self.mulmod(result, result)
            if bit == "1":
                result = self.mulmod(result, base)
        return result


def roots_in_prime_field(f: np.ndarray, p: int) -> list[int]:
    """All roots in F_p of the non-zero f by scanning the prime field (vectorized Horner)."""
    if p > PRIME_SCAN_MAX:
        raise ValueError(f"p = {p} is above the prime-field scan ceiling {PRIME_SCAN_MAX}")
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in f[::-1]:
        acc = (acc * xs + int(c)) % p
    return [int(r) for r in xs[acc == 0]]


def hasse_poly(p: int) -> np.ndarray:
    """Coefficients of the supersingularity polynomial sum_i C(m,i)^2 x^i, m = (p-1)/2.

    Its roots are exactly the Legendre parameters of supersingular curves.
    Only p >= 5 (the small primes are handled by hard-coded censuses).
    """
    if p < 5:
        raise ValueError("hasse_poly requires p >= 5")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = (p - 1) // 2
    # Binomial row mod p via C(m,i+1) = C(m,i)(m-i)/(i+1); i+1 <= m < p is a unit.
    inv = np.zeros(m + 1, dtype=np.int64)
    if m >= 1:
        inv[1] = 1
        for i in range(2, m + 1):
            inv[i] = (p - (p // i)) * inv[p % i] % p
    row = np.zeros(m + 1, dtype=np.int64)
    row[0] = 1
    for i in range(m):
        row[i + 1] = row[i] * ((m - i) % p) % p * inv[i + 1] % p
    return row * row % p  # leading coefficient C(m,m)^2 = 1: already trimmed


def _quadratic_roots(B: int, C: int, field: Fp2Field) -> list[tuple[int, int]]:
    """Roots in F_{p^2} of the irreducible monic quadratic x^2 + B x + C over F_p."""
    p, d = field.p, field.d
    disc = (B * B - 4 * C) % p
    # Irreducible means disc is a non-residue, so disc/d is a square in F_p.
    w = sqrt_mod(disc * pow(d, p - 2, p) % p, p)
    inv2 = pow(2, p - 2, p)
    a = (-B) * inv2 % p
    b = w * inv2 % p
    return [(a, b), (a, -b % p)]


def _split_pair(h: np.ndarray, xp_h: np.ndarray, p: int) -> list[tuple[int, int]]:
    """The factors (B, C) of a product h of two distinct irreducible quadratics
    x^2 + B x + C, in closed form from xp_h = x^p mod h.

    Modulo h = q1 q2 with q_i = x^2 - s_i x + n_i, S = x + x^p is the pair
    (s1, s2) and N = x * x^p the pair (n1, n2): each root and its conjugate
    sum to s_i and multiply to n_i.  Distinct factors differ in s or in n, so
    one of S, N is not constant; call it E = (e1, e2).  It is a root of
    y^2 - sigma1 y + sigma2 with sigma1 = e1 + e2 and sigma2 = e1 e2, read off
    from E^2 = sigma1 E - sigma2, so e1 and e2 are one square root in F_p
    apart.  The other element is alpha + beta E, which pairs each e_i with its
    partner.  The factors are checked to multiply back to h.
    """
    inv_lc = pow(int(h[-1]), p - 2, p)
    h0, h1, h2, h3 = (int(c) * inv_lc % p for c in h[:4])
    xp = [int(c) for c in xp_h] + [0] * (4 - len(xp_h))
    S = [xp[0], (xp[1] + 1) % p, xp[2], xp[3]]
    # x * x^p: shift up, then one reduction step by the monic h.
    top = xp[3]
    N = [-top * h0 % p, (xp[0] - top * h1) % p, (xp[1] - top * h2) % p,
         (xp[2] - top * h3) % p]
    E, F = (S, N) if any(S[1:]) else (N, S)
    sq = [0] * 7
    for i, ei in enumerate(E):
        for j, ej in enumerate(E):
            sq[i + j] += ei * ej
    # E^2 mod h, from the top: x^k = -x^(k-4) (h0 + h1 x + h2 x^2 + h3 x^3) mod h.
    for k in (6, 5, 4):
        t = sq[k] % p
        sq[k - 4] -= t * h0
        sq[k - 3] -= t * h1
        sq[k - 2] -= t * h2
        sq[k - 1] -= t * h3
    k = next(i for i in (1, 2, 3) if E[i])
    inv_ek = pow(E[k], p - 2, p)
    sigma1 = sq[k] * inv_ek % p
    sigma2 = (sigma1 * E[0] - sq[0]) % p
    root = sqrt_mod(sigma1 * sigma1 - 4 * sigma2, p)
    inv2 = pow(2, p - 2, p)
    e1, e2 = (sigma1 + root) * inv2 % p, (sigma1 - root) * inv2 % p
    beta = F[k] * inv_ek % p
    alpha = F[0] - beta * E[0]
    f1, f2 = (alpha + beta * e1) % p, (alpha + beta * e2) % p
    (s1, n1), (s2, n2) = ((e1, f1), (e2, f2)) if E is S else ((f1, e1), (f2, e2))
    if ((s1 + s2 + h3) % p or (n1 + n2 + s1 * s2 - h2) % p
            or (s1 * n2 + s2 * n1 + h1) % p or (n1 * n2 - h0) % p):
        raise RuntimeError(
            f"closed-form split failed: (x^2 - {s1}x + {n1})(x^2 - {s2}x + {n2}) "
            f"is not the node {[h0, h1, h2, h3, 1]} mod {p}")
    return [(-s1 % p, n1), (-s2 % p, n2)]


def _split_quadratics(h: np.ndarray, xp_h: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Split a squarefree product of irreducible quadratics into (B, C) pairs.

    Nodes of one or two factors are finished directly (_split_pair).  Larger
    ones take the Legendre ladder, splitting on norms: (x+c)^(p+1) =
    (x^p+c)(x+c) = x^(p+1) + c(x^p + x) + c^2, so with x^p carried down the
    tree and x^(p+1) formed once per node, each ladder step costs a scaled
    vector sum plus a (p-1)/2 power.  Conjugate roots share the norm, so
    gcd(h, ((x^p+c)(x+c))^((p-1)/2) - 1) groups whole quadratic factors; a
    character-sum bound guarantees some c separates distinct factors for
    p >= 11 (at p = 5 and 7 no two irreducible quadratics agree on every
    rung), and children resume the ladder past the c their ancestors used.
    """
    out: list[tuple[int, int]] = []
    stack = [(h, xp_h, 0)]
    half = (p - 1) // 2
    one = np.array([1], dtype=np.int64)
    while stack:
        cur, xp_cur, c0 = stack.pop()
        deg = len(cur) - 1
        if deg <= 0:
            continue
        if deg == 2:
            inv_lc = pow(int(cur[-1]), p - 2, p)
            out.append((int(cur[1]) * inv_lc % p, int(cur[0]) * inv_lc % p))
            continue
        if deg == 4:
            out.extend(_split_pair(cur, xp_cur, p))
            continue
        ctx = _Modulus(cur, p)
        # The rung-c norm is N + c*S + c^2 with N = x^(p+1) and S = x^p + x
        # mod cur, both padded to length deg.  N is x^p shifted up and reduced
        # once by the monic ctx.m.  Every term is reduced below p first, so
        # each entry of c*S + N + c^2 stays below p^2 < 2^62.
        norm_n = np.zeros(deg + 1, dtype=np.int64)
        norm_n[1 : len(xp_cur) + 1] = xp_cur
        norm_n = (norm_n[:deg] - norm_n[deg] * ctx.m[:deg]) % p
        norm_s = np.zeros(deg, dtype=np.int64)
        norm_s[: len(xp_cur)] = xp_cur
        norm_s[1] = (norm_s[1] + 1) % p
        for c in range(c0, c0 + p):
            cp = c % p
            v = cp * norm_s
            v += norm_n
            v[0] += cp * cp % p
            v %= p
            w = ctx.powmod(_trim(v), half)
            g = _gcd(cur, _sub(w, one, p), p)
            if 0 < len(g) - 1 < deg:
                q, _ = _divmod(cur, g, p)
                stack.append((g, _rem(xp_cur, g, p), c + 1))
                stack.append((q, _rem(xp_cur, q, p), c + 1))
                break
        else:
            raise RuntimeError("Legendre ladder exhausted on a squarefree quadratic product")
    return out


def roots_in_fp2(f: np.ndarray, field: Fp2Field) -> set[tuple[int, int]]:
    """Exact set of roots of f in F_{p^2} as residue pairs (multiplicity ignored).

    f is a coefficient vector, low degree first; it is reduced mod p and
    trimmed here, so any integer coefficients are accepted.
    """
    p = field.p
    f = _trim(np.asarray(f, dtype=np.int64) % p)
    if len(f) == 0:
        raise ValueError("zero polynomial has every root")
    roots: set[tuple[int, int]] = set()
    if len(f) == 1:
        return roots

    ctx = _Modulus(f, p)
    x_arr = np.array([0, 1], dtype=np.int64)
    xp = ctx.powmod(x_arr, p)  # x^p mod f
    g = _gcd(ctx.m, _sub(ctx.powmod(xp, p), x_arr, p), p)
    if len(g) - 1 < 1:
        return roots
    # g divides f, so x^p mod g is (x^p mod f) mod g.
    g1 = _gcd(g, _sub(_rem(xp, g, p), x_arr, p), p)
    g2 = g
    if len(g1) - 1 >= 1:
        roots.update((r, 0) for r in roots_in_prime_field(g1, p))
        g2 = _divmod(g, g1, p)[0]
    if len(g2) - 1 >= 1:
        for B, C in _split_quadratics(g2, _rem(xp, g2, p), p):
            roots.update(_quadratic_roots(B, C, field))
    return roots
