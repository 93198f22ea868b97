import random

import numpy as np
import pytest

from superspecial.ffield import Fp2Field, lambda_to_j, legendre
from superspecial.fppoly import (PRIME_SCAN_MAX, _divmod, _gcd, _Modulus, _mul, _sub, _trim,
                                 hasse_poly, roots_in_fp2, roots_in_prime_field)
from superspecial.sslocus import CENSUS_MAX_PRIME


def _poly(coeffs, p):
    """The reduced, trimmed coefficient array of coeffs (low degree first)."""
    return _trim(np.array(coeffs, dtype=np.int64) % p)


def _random_poly(rng, p, max_deg):
    return _poly([rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))], p)


def _add(a, b, p):
    return _sub(a, -b % p, p)


def _eq(a, b):
    return np.array_equal(a, b)


def _eval_pair(f, x, field):
    """Horner evaluation of f at the residue pair x = x0 + x1 t (t^2 = d)."""
    p, d = field.p, field.d
    acc = (0, 0)
    for c in f[::-1]:
        acc = ((acc[0] * x[0] + d * acc[1] * x[1] + int(c)) % p,
               (acc[0] * x[1] + acc[1] * x[0]) % p)
    return acc


def _scan_roots(f, field):
    """Every residue pair of F_{p^2} at which f vanishes."""
    p = field.p
    return {(a, b) for a in range(p) for b in range(p) if _eval_pair(f, (a, b), field) == (0, 0)}


def test_hasse_poly_small():
    # m=2: C(2,i)^2 = 1,4,1; m=3: 1,9,9,1 reduced mod 7 = 1,2,2,1.
    assert list(map(int, hasse_poly(5))) == [1, 4, 1]
    assert list(map(int, hasse_poly(7))) == [1, 2, 2, 1]


def test_hasse_poly_degree():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        f = hasse_poly(p)
        assert len(f) - 1 == (p - 1) // 2
        assert f.dtype == np.int64 and f[-1] != 0


def test_hasse_poly_rejects_tiny_primes():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            hasse_poly(p)


def test_hasse_poly_squarefree_up_to_199():
    for p in range(5, 200):
        if _is_prime(p):
            f = hasse_poly(p)
            derivative = _trim(f[1:] * np.arange(1, len(f)) % p)
            assert len(_gcd(f, derivative, p)) == 1, p


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_arithmetic_against_divmod_round_trip():
    rng = random.Random(5)
    for p in (5, 13, 101):
        for _ in range(80):
            a = _random_poly(rng, p, 12)
            b = _random_poly(rng, p, 8)
            if len(b) == 0:
                continue
            q, r = _divmod(a, b, p)
            assert _eq(_add(_mul(q, b, p), r, p), a)
            assert len(r) < len(b)


def test_gcd_properties():
    rng = random.Random(6)
    for p in (5, 13):
        for _ in range(50):
            a = _random_poly(rng, p, 8)
            b = _random_poly(rng, p, 8)
            g = _gcd(a, b, p)
            if len(g) == 0:
                assert len(a) == 0 and len(b) == 0
                continue
            assert g[-1] == 1
            assert len(_divmod(a, g, p)[1]) == 0
            assert len(_divmod(b, g, p)[1]) == 0
            # gcd divides any combination
            c = _random_poly(rng, p, 4)
            assert _eq(_divmod(_add(_mul(a, c, p), b, p), g, p)[1], _divmod(b, g, p)[1])


def test_modulus_reduction_matches_schoolbook():
    rng = random.Random(7)
    for p in (13, 997):
        for _ in range(40):
            m = _random_poly(rng, p, 20)
            if len(m) < 2:
                continue
            ctx = _Modulus(m, p)
            a = _random_poly(rng, p, 45)
            assert _eq(ctx.reduce(a), _divmod(a, m, p)[1])


def _naive_powmod(base, e, m, p):
    acc = _poly([1], p)
    for _ in range(e):
        acc = _divmod(_mul(acc, base, p), m, p)[1]
    return acc


def test_powmod_matches_naive():
    rng = random.Random(8)
    p = 13
    for _ in range(25):
        m = _random_poly(rng, p, 6)
        if len(m) < 2:
            continue
        ctx = _Modulus(m, p)
        base = _random_poly(rng, p, 5)
        e = rng.randrange(1, 40)
        assert _eq(ctx.powmod(base, e), _naive_powmod(base, e, m, p))


def test_roots_examples():
    field = Fp2Field.of(5)
    assert roots_in_fp2(np.array([-1, 0, 1]), field) == {(1, 0), (4, 0)}
    # t^2 = 2 by construction of the descriptor at p = 5.
    assert roots_in_fp2(np.array([-2, 0, 1]), field) == {(0, 1), (0, 4)}
    # Coefficients are reduced and trimmed on entry: 5 + x + 6x^2 + 10x^3 is x(1 + x) mod 5.
    assert roots_in_fp2(np.array([5, 1, 6, 10]), field) == {(0, 0), (4, 0)}
    hs = roots_in_fp2(hasse_poly(5), field)
    assert len(hs) == 2
    assert {lambda_to_j(r, field) for r in hs} == {(0, 0)}


def test_roots_reject_zero_polynomial():
    field = Fp2Field.of(5)
    for zero in ([], [0], [5, 0, -10]):
        with pytest.raises(ValueError):
            roots_in_fp2(np.array(zero, dtype=np.int64), field)


def test_roots_against_exhaustive_scan_oracle():
    # Independent oracle: evaluate at every element of F_{p^2}, p <= 60.
    rng = random.Random(9)
    for p in (5, 7, 11, 13):
        field = Fp2Field.of(p)
        for _ in range(12):
            f = _random_poly(rng, p, 6)
            if len(f) == 0:
                continue
            assert roots_in_fp2(f, field) == _scan_roots(f, field), (p, f)


def test_hasse_roots_against_scan_oracle():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        field = Fp2Field.of(p)
        f = hasse_poly(p)
        got = roots_in_fp2(f, field)
        assert got == _scan_roots(f, field), p
        assert len(got) == (p - 1) // 2, p


def test_roots_with_repeated_factors():
    # multiplicity is ignored: (x-2)^2 (x^2 - d) has roots {2, t, -t}
    for p in (5, 13, 101):
        field = Fp2Field.of(p)
        d = field.d
        sq = _poly([4, -4, 1], p)  # (x-2)^2
        irr = _poly([-d, 0, 1], p)
        got = roots_in_fp2(_mul(sq, irr, p), field)
        assert got == {(2, 0), (0, 1), (0, p - 1)}
        # Squared irreducible quadratics: the ladder must still see each pair once.
        irr2 = _poly([-4 * d, 0, 1], p)  # roots 2t, -2t
        f = sq
        for factor in (irr, irr, irr2, irr2):
            f = _mul(f, factor, p)
        got = roots_in_fp2(f, field)
        assert got == {(2, 0), (0, 1), (0, p - 1), (0, 2), (0, p - 2)}


def test_all_quadratic_pairs_split_at_tiny_p():
    # Below p = 11 the character-sum argument for ladder termination is vacuous,
    # so check every product of two distinct irreducible quadratics directly.
    from itertools import combinations

    for p in (5, 7):
        field = Fp2Field.of(p)
        irred = [_poly([n, -s, 1], p) for s in range(p) for n in range(p)
                 if legendre((s * s - 4 * n) % p, p) == -1]
        for f1, f2 in combinations(irred, 2):
            f = _mul(f1, f2, p)
            assert roots_in_fp2(f, field) == _scan_roots(f, field), (p, f1, f2)


def test_int64_overflow_guard_falls_back_exactly():
    # A prime large enough that convolution sums cannot stay in int64.
    p = (1 << 31) - 1
    rng = random.Random(10)
    a = _poly([rng.randrange(p) for _ in range(40)], p)
    b = _poly([rng.randrange(p) for _ in range(40)], p)
    prod = _mul(a, b, p)
    # Independent big-int convolution.
    want = [0] * 79
    for i, ca in enumerate(map(int, a)):
        for j, cb in enumerate(map(int, b)):
            want[i + j] = (want[i + j] + ca * cb) % p
    assert list(map(int, prod)) == want[: len(prod)]


def test_evaluate_matches_numpy_scan():
    # Integer Horner at every residue against the vectorized prime-field scan.
    rng = random.Random(11)
    p = 97
    f = _random_poly(rng, p, 9)
    if len(f) == 0:
        f = _poly([1, 2], p)
    roots = set(roots_in_prime_field(f, p))
    for x in range(p):
        value = 0
        for c in f[::-1]:
            value = (value * x + int(c)) % p
        assert (value == 0) == (x in roots)


_P31 = (1 << 31) - 1  # (p-1)^2 * 2 > 2^62: any product of length >= 2 takes the big-int path


def test_modulus_reduce_and_powmod_at_word_size_prime():
    # Oracle: schoolbook _divmod and repeated products; neither touches the
    # Newton-reciprocal reduction.
    rng = random.Random(12)
    p = _P31
    for _ in range(30):
        n = rng.randrange(1, 7)
        m = _poly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p)
        ctx = _Modulus(m, p)
        a = _random_poly(rng, p, 2 * n - 2)
        assert _eq(ctx.reduce(a), _divmod(a, m, p)[1])
        base = _random_poly(rng, p, n - 1)
        e = rng.randrange(1, 12)
        assert _eq(ctx.powmod(base, e), _naive_powmod(base, e, m, p))
    # x^p by square-and-multiply on _divmod against the modulus context.
    m = _poly([3, 0, 7, 1, 5], p)
    x = _poly([0, 1], p)
    want, acc, e = _poly([1], p), _divmod(x, m, p)[1], p
    while e:
        if e & 1:
            want = _divmod(_mul(want, acc, p), m, p)[1]
        acc = _divmod(_mul(acc, acc, p), m, p)[1]
        e >>= 1
    assert _eq(_Modulus(m, p).powmod(x, p), want)


def test_roots_in_fp2_at_word_size_prime():
    # Products of distinct irreducible quadratics only: a root in F_p would
    # send roots_in_prime_field to scan all 2^31 residues.
    rng = random.Random(13)
    p = _P31
    field = Fp2Field.of(p)
    for k in (1, 2, 6):
        quads = []
        while len(quads) < k:
            s_, n_ = rng.randrange(p), rng.randrange(p)
            if legendre(s_ * s_ - 4 * n_, p) == -1 and (s_, n_) not in quads:
                quads.append((s_, n_))
        f = _poly([1], p)
        for s_, n_ in quads:
            f = _mul(f, _poly([n_, -s_, 1], p), p)
        got = roots_in_fp2(f, field)
        assert len(got) == 2 * k
        for r in got:
            assert r[1] != 0
            assert _eval_pair(f, r, field) == (0, 0)


def test_prime_field_scan_refuses_primes_above_its_ceiling():
    # (x-3)(x-5) at p = 2^31 - 1: the scan would need two 2^31-entry int64
    # arrays (16 GiB each), so it is refused before anything is allocated.
    with pytest.raises(ValueError, match=f"scan ceiling {PRIME_SCAN_MAX}"):
        roots_in_fp2(np.array([15, -8, 1]), Fp2Field.of(_P31))
    # Every census prime can still be scanned.
    assert PRIME_SCAN_MAX >= CENSUS_MAX_PRIME
    field = Fp2Field.of(999983)  # the largest prime below 10^6
    assert roots_in_fp2(np.array([15, -8, 1]), field) == {(3, 0), (5, 0)}
