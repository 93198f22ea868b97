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
  2. g splits into its linear part g1, whose roots lie in F_p, and g2 = g / g1,
     a product of m distinct irreducible quadratics x^2 - s_i x + n_i.  For
     p <= PRIME_SCAN_MAX a blocked scan of the prime field (roots_in_prime_field:
     a power table, one int64 matrix product and Horner in x^B, about
     2 sqrt(deg g) vector steps) evaluates g itself, g1 is the product of the
     x - r over the roots r it finds, and g2 is a Newton quotient checked to
     multiply back to g.  Above the ceiling the scan is refused, and only
     g1 = gcd(g, x^p - x) is taken: a g with roots in F_p is refused too, and
     otherwise g2 = g.  Modulo g2, x + x^p takes the trace s_i and x * x^p
     the norm n_i on the i-th factor, so the trace form gives the power sums
     sum_i s_i^j n_i^l; the moment solve reads every factor off them in one
     pass (baby-step/giant-step power projection, Newton's identities, the same
     scan of F_p for the distinct traces and a transposed Vandermonde solve for
     each trace's multiplicity and sum of norms), with no gcd tree, and checks
     that the factors multiply back.  The first norm moments settle every
     trace of one factor; each higher norm power is solved only on the traces
     shared by several factors, once the settled traces' terms are taken off.
     It runs when m < p (Newton's identities divide by 1..m),
     m <= MOMENT_MAX_FACTORS and p <= MOMENT_MAX_PRIME, the measured
     crossovers.  A larger node takes a step of the Legendre ladder
     gcd(g2, (x+c)^((p^2-1)/2) - 1) for c = 0, 1, 2, ... first; conjugate
     root pairs share the norm (x+c)(x^p+c), so they stay together and the
     ladder separates distinct quadratic factors.  Nodes with m >= p, and
     every node at p above MOMENT_MAX_PRIME, take the ladder down to single
     factors (a character-sum bound guarantees a separating c for p >= 11,
     and at p = 5 and 7 no two irreducible quadratics agree on every rung).
  3. Each quadratic x^2 - s x + n is solved by descending to F_p: its
     discriminant is d times a square, so the root is (s + t*sqrt(disc/d))/2
     with a Tonelli-Shanks square root in the prime field.

Reductions inside a fixed modulus use a Newton-inverted reciprocal of the
reversed modulus, which keeps the hot loop inside C-speed convolutions.  The
moment solve's trace series needs the same reciprocal to twice the precision,
and continues the context's Newton doubling for it.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .ffield import Fp2Field, _tonelli_shanks, is_prime, legendre

_INT64_SAFE = (1 << 62)

# Largest prime whose field roots_in_prime_field scans.  The scan goes over
# F_p in chunks of PRIME_SCAN_MAX // (B + 1) residues for its block length B,
# so its power table and block values each hold at most PRIME_SCAN_MAX int64
# entries (8 MB), whatever the degree.  Not below sslocus.CENSUS_MAX_PRIME, so
# every census it admits can be scanned.
PRIME_SCAN_MAX = 10**6

# Largest node, in irreducible quadratic factors, that _split_quadratics
# finishes by the moment solve; a larger node takes a ladder step first.
# Measured crossover (random products of m distinct irreducible quadratics,
# best of 3, 2-vCPU Xeon VM, Python 3.11, numpy 2.4; moment solve at once
# against one ladder step and moment solves of the children), p = 997, 4999,
# 10007: m = 128 took 15.5 / 20.3 / 20.3 ms against 17.2 / 21.8 / 25.7 ms,
# m = 160 took 28.4 / 31.4 / 30.8 ms against 25.8 / 29.5 / 35.5 ms, and
# m = 256 took 80 / 69 / 83 ms against 57 / 56 / 69 ms.  The ladder alone
# took 74 / 95 / 91 ms at m = 128.
MOMENT_MAX_FACTORS = 128

# Largest prime at which _split_quadratics uses the moment solve.  It scans
# F_p for the traces, a pass over p residues per degree, so at large p the
# ladder wins.  Measured as above, moment solve against the ladder alone,
# m = 2, 4, 8, 32, 64, 128: at p = 20011 1.2 / 1.5 / 2.4 / 6.9 / 14 / 36 ms
# against 1.7 / 1.3 / 4.4 / 21 / 46 / 90 ms; at p = 49999 1.9 / 2.4 / 3.8 /
# 11 / 18 / 45 ms against 0.4 / 1.4 / 3.8 / 19 / 34 / 89 ms; at p = 99991
# 4.0 / 5.0 / 7.0 / 20 / 38 / 73 ms against 1.0 / 2.1 / 4.9 / 23 / 49 / 53 ms;
# at p = 199999, m = 16 and 128, 25 and 157 ms against 10 and 84 ms.  Below
# PRIME_SCAN_MAX, so every scan it asks for is allowed.
MOMENT_MAX_PRIME = 50_000


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


def _newton_inverse(f: np.ndarray, k: int, p: int, g: np.ndarray | None = None) -> np.ndarray:
    """Inverse of f modulo x^k (requires f[0] != 0).

    Given g, an inverse of f modulo x^len(g), the doubling continues from it.
    """
    if g is None:
        g = np.array([pow(int(f[0]), p - 2, p)], dtype=np.int64)
    prec = len(g)
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


def _scan_layout(n: int) -> tuple[int, int]:
    """(B, rows) for a prime-field scan of a polynomial of n >= 1 coefficients:
    the block length B = isqrt(n - 1) + 1 and the residues per chunk.

    A chunk's power table has B + 1 rows and its block values at most B
    (ceil(n / B) <= B, as B^2 > n - 1), so with PRIME_SCAN_MAX // (B + 1)
    residues per chunk each holds at most PRIME_SCAN_MAX entries.
    """
    B = isqrt(n - 1) + 1
    return B, PRIME_SCAN_MAX // (B + 1)


def roots_in_prime_field(f: np.ndarray, p: int) -> list[int]:
    """All roots in F_p of f, whose coefficients are residues, in increasing
    order, by evaluating f on the whole prime field (every residue for the
    zero polynomial).

    Blocked Horner (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973): f is
    sum_k F_k(x) x^(B k) over blocks F_k of B coefficients.  On a chunk of the
    grid a table of x^0..x^B and one int64 matrix product give every F_k(x),
    and Horner in x^B runs over the blocks, so the scan takes about
    2 sqrt(deg f) vector steps instead of deg f.
    """
    if p > PRIME_SCAN_MAX:
        raise ValueError(f"p = {p} is above the prime-field scan ceiling {PRIME_SCAN_MAX}")
    if len(f) == 0:
        return list(range(p))
    B, rows = _scan_layout(len(f))
    # A block value sums B products of residues and each Horner step adds one
    # more: exact in int64, which for p <= PRIME_SCAN_MAX holds up to degrees
    # far beyond any array that fits in memory.
    assert (B + 1) * (p - 1) * (p - 1) < (1 << 63)
    blocks = np.zeros(-(-len(f) // B) * B, dtype=np.int64)
    blocks[: len(f)] = f
    blocks = blocks.reshape(-1, B)
    # Both buffers are reused by every chunk, so the peak holds one of each.
    table = np.empty((B + 1, min(rows, p)), dtype=np.int64)
    table[0] = 1
    values = np.empty((len(blocks), table.shape[1]), dtype=np.int64)
    roots: list[int] = []
    for start in range(0, p, rows):
        xs = np.arange(start, min(start + rows, p), dtype=np.int64)
        powers, block_values = table[:, : len(xs)], values[:, : len(xs)]
        for b in range(1, B + 1):
            np.multiply(powers[b - 1], xs, out=powers[b])
            powers[b] %= p
        np.matmul(blocks, powers[:B], out=block_values)
        acc = block_values[-1] % p
        for v in block_values[-2::-1]:
            acc *= powers[B]
            acc += v
            acc %= p
        roots.extend(xs[acc == 0].tolist())
    return roots


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
    w = _tonelli_shanks(disc * pow(d, p - 2, p) % p, p, d)
    inv2 = pow(2, p - 2, p)
    a = (-B) * inv2 % p
    b = w * inv2 % p
    return [(a, b), (a, -b % p)]


def _trace_and_norm(ctx: _Modulus, xp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S = x + x^p and N = x^(p+1) mod ctx.m, both padded to length ctx.n >= 2,
    from xp = x^p mod ctx.m.

    On a factor x^2 - s x + n of the modulus, whose roots are a conjugate
    pair, S is the trace s and N the norm n.  N is x^p shifted up and reduced
    once by the monic ctx.m.
    """
    n, p = ctx.n, ctx.p
    shifted = np.zeros(n + 1, dtype=np.int64)
    shifted[1 : len(xp) + 1] = xp
    norm = (shifted[:n] - shifted[n] * ctx.m[:n]) % p
    trace = np.zeros(n, dtype=np.int64)
    trace[: len(xp)] = xp
    trace[1] = (trace[1] + 1) % p
    return trace, norm


def _from_power_sums(P: np.ndarray, p: int) -> np.ndarray:
    """The monic polynomial whose k = len(P) - 1 roots have power sums P[1..k]
    (P[0] is not read).

    With Q(y) = prod (1 - r y), -y Q'/Q = sum_{j >= 1} P_j y^j gives Newton's
    identities j q_j = -sum_{i=1..j} P_i q_{j-i}; they divide by j <= k, so
    k < p.  The monic polynomial is Q reversed.
    """
    k = len(P) - 1
    q = np.zeros(k + 1, dtype=np.int64)
    q[0] = 1
    for j in range(1, k + 1):
        q[j] = -int(np.dot(P[1 : j + 1], q[j - 1 :: -1])) * pow(j, p - 2, p) % p
    return q[::-1].copy()


def _vandermonde_inverse(xs: np.ndarray, p: int) -> np.ndarray:
    """The matrix that takes (sum_k x_k^j u_k for j < D) to (u_k) for D distinct
    residues x_k: the transposed Vandermonde system, solved in O(D^2).

    Row k holds the coefficients of M / (y - x_k), M = prod (y - x), divided by
    M'(x_k): that quotient vanishes at every other x and is M'(x_k) at x_k.
    """
    D = len(xs)
    M = np.ones(1, dtype=np.int64)
    for x in xs.tolist():
        M = np.convolve(M, (-x % p, 1)) % p
    # Synthetic division of M by every (y - x_k) at once, from the top.
    Q = np.zeros((D, D), dtype=np.int64)
    Q[:, D - 1] = 1
    for j in range(D - 1, 0, -1):
        Q[:, j - 1] = (M[j] + xs * Q[:, j]) % p
    deriv = np.ones(D, dtype=np.int64)
    for j in range(D - 2, -1, -1):
        deriv = (deriv * xs + Q[:, j]) % p
    inv = np.array([pow(int(v), p - 2, p) for v in deriv], dtype=np.int64)
    return Q * inv[:, None] % p


def _split_by_moments(h: np.ndarray, xp_h: np.ndarray, p: int) -> list[tuple[int, int]]:
    """The factors (B, C) of a product h of m distinct irreducible quadratics
    x^2 + B x + C, from the power sums of their traces and norms; m < p.

    Modulo h, S = x + x^p and N = x x^p take the trace s_i and the norm n_i
    on the i-th factor, so the trace form gives Tr(S^j N^l) = 2 sum_i s_i^j n_i^l.
    Tr(A) is the dot product of A's coefficients with the power sums tau_t of
    the roots of h (-y R'/R = sum_{t >= 1} tau_t y^t for R = h reversed), so
    the moments come from baby steps S^b (b < r ~ sqrt(m + 1), one
    functional t -> Tr(S^b x^t) each), giant steps W G^i (G = S^r, weight
    W = N^l) and one matrix product.  The power sums tau_t for t < 2n - 1 need
    R^-1 mod x^(2n - 1); the modulus context already holds R^-1 mod x^n, and
    one more Newton step doubles it.  Newton's identities on sum_i s_i^j
    (j <= m) give prod (y - s_i), whose D distinct roots s are read off F_p; a
    transposed Vandermonde solve on them gives each trace's multiplicity and,
    from the moments with l = 1, the sum of its norms: the norm itself for a
    trace of one factor.  For l >= 2 only the D_open shared traces are open:
    the single traces' known terms s^j n^l are taken off the moments for
    j < D_open, which cost one mulmod for N^l and ceil(D_open / r) - 1 giant
    steps, and a Vandermonde solve on the open traces gives the power sums of
    their norms, whose roots one more Newton polynomial gives.  The factors
    are checked: m of them, multiplying back to h, each irreducible.
    """
    ctx = _Modulus(h, p)
    n, node = ctx.n, ctx.m
    m = n // 2
    # Every correlation and matrix product below sums n products of residues.
    assert n * (p - 1) * (p - 1) < (1 << 63)
    S, N = (_trim(v) for v in _trace_and_norm(ctx, xp_h))
    rev = node[::-1].copy()
    # ctx holds rev^-1 mod x^n; one more Newton step takes it to x^(2n - 1).
    series = _mul(_trim(-rev * np.arange(n + 1) % p),
                  _newton_inverse(rev, 2 * n - 1, p, ctx._rinv), p)[: 2 * n - 1]
    tau = np.zeros(2 * n - 1, dtype=np.int64)
    tau[: len(series)] = series
    tau[0] = n % p

    r = isqrt(m) + 1
    powers = [np.ones(1, dtype=np.int64), S]
    while len(powers) <= r:
        powers.append(ctx.mulmod(powers[-1], S))
    giant = powers.pop()
    functionals = np.zeros((r, n), dtype=np.int64)
    for b, sb in enumerate(powers):
        if len(sb):
            functionals[b] = np.correlate(tau[: n + len(sb) - 1], sb, "valid") % p
    half = (p + 1) // 2

    def moments(weight: np.ndarray, count: int) -> np.ndarray:
        """sum_i s_i^j w_i for j < count, where weight takes w_i on factor i."""
        rows = np.zeros((-(-count // r), n), dtype=np.int64)
        for i in range(len(rows)):
            if i:
                weight = ctx.mulmod(weight, giant)
            rows[i, : len(weight)] = weight
        return (rows @ functionals.T % p).ravel()[:count] * half % p

    def failed(what: str) -> RuntimeError:
        return RuntimeError(f"moment solve failed on the node {node.tolist()} mod {p}: {what}")

    power_sums = moments(np.ones(1, dtype=np.int64), m + 1)
    traces = np.array(roots_in_prime_field(_from_power_sums(power_sums, p), p), dtype=np.int64)
    solve = _vandermonde_inverse(traces, p)
    mult = solve @ power_sums[: len(traces)] % p
    if int(mult.sum()) != m:
        raise failed(f"{int(mult.sum())} factors counted by trace, expected {m}")
    # norms[k] is the sum of the norms of trace k's factors.  Column l - 1 of
    # columns holds the power sums n^l over each open (shared) trace's norms;
    # for l >= 2 they are solved from the moments j < D_open, less the single
    # traces' known terms s^j n^l.
    norms = solve @ moments(N, len(traces)) % p
    shared = mult != 1
    open_traces, single, single_norms = traces[shared], traces[~shared], norms[~shared]
    columns = [norms[shared]]
    if len(open_traces):
        open_solve = _vandermonde_inverse(open_traces, p)
        single_powers = np.ones((len(open_traces), len(single)), dtype=np.int64)
        for j in range(1, len(open_traces)):
            single_powers[j] = single_powers[j - 1] * single % p
        norm_power, known = N, single_norms
        for _ in range(2, int(mult.max()) + 1):
            norm_power = ctx.mulmod(norm_power, N)
            known = known * single_norms % p
            open_moments = moments(norm_power, len(open_traces)) - single_powers @ known
            columns.append(open_solve @ (open_moments % p) % p)
    open_sums = iter(np.column_stack(columns).tolist())

    pairs = []
    for s, mu, nrm in zip(traces.tolist(), mult.tolist(), norms.tolist()):
        if mu == 1:
            pairs.append((s, nrm))
        else:
            sums = next(open_sums)
            norm_poly = _from_power_sums(np.array([mu] + sums[:mu], dtype=np.int64), p)
            pairs.extend((s, root) for root in roots_in_prime_field(norm_poly, p))
    if len(pairs) != m:
        raise failed(f"{len(pairs)} factors found, expected {m}")
    product = np.ones(1, dtype=np.int64)
    for s, nrm in pairs:
        product = _mul(product, np.array([nrm, -s % p, 1], dtype=np.int64), p)
    if not np.array_equal(product, node):
        raise failed("the factors found do not multiply back to it")
    for s, nrm in pairs:
        if legendre(s * s - 4 * nrm, p) != -1:
            raise failed(f"the factor x^2 - {s}x + {nrm} is reducible")
    return [(-s % p, nrm) for s, nrm in pairs]


def _split_quadratics(h: np.ndarray, xp_h: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Split a squarefree product of irreducible quadratics into (B, C) pairs.

    A node of m factors is finished by the moment solve (_split_by_moments)
    when m < p, m <= MOMENT_MAX_FACTORS and p <= MOMENT_MAX_PRIME.  Any other
    node of two or more factors takes one step of the Legendre ladder,
    splitting on norms: (x+c)^(p+1) = (x^p+c)(x+c) = x^(p+1) + c(x^p + x) + c^2,
    so with x^p carried down the tree and x^(p+1) formed once per node, each
    ladder step costs a scaled vector sum plus a (p-1)/2 power.  Conjugate
    roots share the norm, so gcd(h, ((x^p+c)(x+c))^((p-1)/2) - 1) groups whole
    quadratic factors; a character-sum bound guarantees some c separates
    distinct factors for p >= 11 (at p = 5 and 7 no two irreducible quadratics
    agree on every rung), and children resume the ladder past the c their
    ancestors used.
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
        if deg // 2 < p and deg // 2 <= MOMENT_MAX_FACTORS and p <= MOMENT_MAX_PRIME:
            out.extend(_split_by_moments(cur, xp_cur, p))
            continue
        ctx = _Modulus(cur, p)
        # The rung-c norm is N + c*S + c^2.  Every term is reduced below p
        # first, so each entry of c*S + N + c^2 stays below p^2 < 2^62.
        norm_s, norm_n = _trace_and_norm(ctx, xp_cur)
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


def _divide_off_roots(g: np.ndarray, linear: list[int], p: int) -> np.ndarray:
    """g / prod (x - r) over the roots r in linear of the monic squarefree g, a
    product of irreducible quadratics.

    The quotient is a Newton quotient: the product is monic, so its reversal
    is a unit and rev(q) = rev(g) rev(prod)^-1 mod x^(deg q + 1).  It is
    checked: of even degree, and multiplying back to g.
    """
    g1 = np.ones(1, dtype=np.int64)
    for r in linear:
        g1 = np.convolve(g1, (-r % p, 1)) % p
    dq = len(g) - len(g1)
    if dq >= 0 and dq % 2 == 0:
        if not linear:
            return g
        rev_q = np.zeros(dq + 1, dtype=np.int64)
        head = _mul(g[::-1][: dq + 1], _newton_inverse(g1[::-1].copy(), dq + 1, p), p)[: dq + 1]
        rev_q[: len(head)] = head
        q = rev_q[::-1].copy()
        if np.array_equal(_mul(g1, q, p), g):
            return q
    raise RuntimeError(f"the {len(linear)} roots in F_{p} found for {g.tolist()} "
                       "do not divide it into irreducible quadratics")


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
    if p <= PRIME_SCAN_MAX:
        linear = roots_in_prime_field(g, p)
        roots.update((r, 0) for r in linear)
        g2 = _divide_off_roots(g, linear, p)
    else:
        # Above the scan ceiling the gcd with x^p - x (x^p mod g, as g | f)
        # decides: roots in F_p make the scan refuse, and otherwise g2 = g.
        if len(_gcd(g, _sub(_rem(xp, g, p), x_arr, p), p)) > 1:
            roots_in_prime_field(g, p)
        g2 = g
    if len(g2) - 1 >= 1:
        for B, C in _split_quadratics(g2, _rem(xp, g2, p), p):
            roots.update(_quadratic_roots(B, C, field))
    return roots
