import random

import pytest

from superspecial.ffield import Fp2Field, lambda_to_j
from superspecial.fppoly import PRIME_SCAN_MAX, FpPoly, _Modulus, hasse_poly, roots_in_fp2
from superspecial.sslocus import CENSUS_MAX_PRIME


def _random_poly(rng, p, max_deg):
    return FpPoly([rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))], p)


def test_hasse_poly_small():
    # m=2: C(2,i)^2 = 1,4,1; m=3: 1,9,9,1 reduced mod 7 = 1,2,2,1.
    assert list(map(int, hasse_poly(5).coeffs)) == [1, 4, 1]
    assert list(map(int, hasse_poly(7).coeffs)) == [1, 2, 2, 1]


def test_hasse_poly_degree():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        assert hasse_poly(p).degree() == (p - 1) // 2


def test_hasse_poly_rejects_tiny_primes():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            hasse_poly(p)


def test_hasse_poly_squarefree_up_to_199():
    for p in range(5, 200):
        f = hasse_poly(p) if _is_prime(p) else None
        if f is not None:
            assert f.is_squarefree(), p


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_arithmetic_against_divmod_round_trip():
    rng = random.Random(5)
    for p in (5, 13, 101):
        for _ in range(80):
            a = _random_poly(rng, p, 12)
            b = _random_poly(rng, p, 8)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()


def test_gcd_properties():
    rng = random.Random(6)
    for p in (5, 13):
        for _ in range(50):
            a = _random_poly(rng, p, 8)
            b = _random_poly(rng, p, 8)
            g = a.gcd(b)
            if g.is_zero():
                assert a.is_zero() and b.is_zero()
                continue
            assert (a % g).is_zero() or a.is_zero()
            assert (b % g).is_zero() or b.is_zero()
            # gcd divides any combination
            c = _random_poly(rng, p, 4)
            assert ((a * c + b) % g == (b % g)) or g.degree() == 0


def test_modulus_reduction_matches_schoolbook():
    rng = random.Random(7)
    for p in (13, 997):
        for _ in range(40):
            m = _random_poly(rng, p, 20)
            if m.degree() < 1:
                continue
            ctx = _Modulus(m.coeffs, p)
            a = _random_poly(rng, p, 45)
            reduced = FpPoly(ctx.reduce(a.coeffs), p)
            assert reduced == a % m.monic()


def test_powmod_matches_naive():
    rng = random.Random(8)
    p = 13
    for _ in range(25):
        m = _random_poly(rng, p, 6)
        if m.degree() < 1:
            continue
        ctx = _Modulus(m.coeffs, p)
        base = _random_poly(rng, p, 5)
        e = rng.randrange(1, 40)
        fast = FpPoly(ctx.powmod(base.coeffs, e), p)
        slow = FpPoly([1], p)
        for _ in range(e):
            slow = (slow * base) % m.monic()
        assert fast == slow


def test_roots_examples():
    field = Fp2Field.of(5)
    assert {str(r) for r in roots_in_fp2(FpPoly([-1, 0, 1], 5), field)} == {"1", "4"}
    # t^2 = 2 by construction of the descriptor at p = 5.
    assert {str(r) for r in roots_in_fp2(FpPoly([-2, 0, 1], 5), field)} == {"0+1*t", "0+4*t"}
    hs = roots_in_fp2(hasse_poly(5), field)
    assert len(hs) == 2
    assert {lambda_to_j(r) for r in hs} == {field.zero()}


def test_roots_reject_zero_polynomial():
    field = Fp2Field.of(5)
    with pytest.raises(ValueError):
        roots_in_fp2(FpPoly([], 5), field)


def test_roots_against_exhaustive_scan_oracle():
    # Independent oracle: evaluate at every element of F_{p^2}, p <= 60.
    rng = random.Random(9)
    for p in (5, 7, 11, 13):
        field = Fp2Field.of(p)
        all_elems = [field.elem(a, b) for a in range(p) for b in range(p)]
        for _ in range(12):
            f = _random_poly(rng, p, 6)
            if f.is_zero():
                continue
            got = roots_in_fp2(f, field)
            want = {x for x in all_elems if f.evaluate(x) == field.zero()}
            assert got == want, (p, f)


def test_hasse_roots_against_scan_oracle():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        field = Fp2Field.of(p)
        f = hasse_poly(p)
        got = roots_in_fp2(f, field)
        want = {field.elem(a, b) for a in range(p) for b in range(p)
                if f.evaluate(field.elem(a, b)) == field.zero()}
        assert got == want, p
        assert len(got) == (p - 1) // 2, p


def test_roots_with_repeated_factors():
    # multiplicity is ignored: (x-2)^2 (x^2 - d) has roots {2, t, -t}
    for p in (5, 13, 101):
        field = Fp2Field.of(p)
        d = field.d
        sq = FpPoly([4, -4, 1], p)  # (x-2)^2
        irr = FpPoly([-d, 0, 1], p)
        got = roots_in_fp2(sq * irr, field)
        assert got == {field.elem(2), field.gen(), field.elem(0, -1)}
        # Squared irreducible quadratics: the ladder must still see each pair once.
        irr2 = FpPoly([-4 * d, 0, 1], p)  # roots 2t, -2t
        got = roots_in_fp2(sq * irr * irr * irr2 * irr2, field)
        assert got == {field.elem(2), field.gen(), field.elem(0, -1),
                       field.elem(0, 2), field.elem(0, -2)}


def test_all_quadratic_pairs_split_at_tiny_p():
    # Below p = 11 the character-sum argument for ladder termination is vacuous,
    # so check every product of two distinct irreducible quadratics directly.
    from itertools import combinations

    from superspecial.ffield import legendre

    for p in (5, 7):
        field = Fp2Field.of(p)
        irred = [FpPoly([n, -s, 1], p) for s in range(p) for n in range(p)
                 if legendre((s * s - 4 * n) % p, p) == -1]
        all_elems = [field.elem(a, b) for a in range(p) for b in range(p)]
        for f1, f2 in combinations(irred, 2):
            f = f1 * f2
            got = roots_in_fp2(f, field)
            want = {x for x in all_elems if f.evaluate(x) == field.zero()}
            assert got == want, (p, f1, f2)


def test_int64_overflow_guard_falls_back_exactly():
    # A prime large enough that convolution sums cannot stay in int64.
    p = (1 << 31) - 1
    rng = random.Random(10)
    a = FpPoly([rng.randrange(p) for _ in range(40)], p)
    b = FpPoly([rng.randrange(p) for _ in range(40)], p)
    prod = a * b
    # Independent big-int convolution.
    want = [0] * 79
    for i, ca in enumerate(map(int, a.coeffs)):
        for j, cb in enumerate(map(int, b.coeffs)):
            want[i + j] = (want[i + j] + ca * cb) % p
    assert list(map(int, prod.coeffs)) == [v for v in want][: prod.degree() + 1]


def test_evaluate_matches_numpy_scan():
    rng = random.Random(11)
    p = 97
    f = _random_poly(rng, p, 9)
    if f.is_zero():
        f = FpPoly([1, 2], p)
    roots = set(f.roots_in_prime_field())
    for x in range(p):
        assert (f.evaluate(x) == 0) == (x in roots)


_P31 = (1 << 31) - 1  # (p-1)^2 * 2 > 2^62: any product of length >= 2 takes the big-int path


def test_modulus_reduce_and_powmod_at_word_size_prime():
    # Oracle: schoolbook divmod (FpPoly %) and repeated products; neither
    # touches the Newton-reciprocal reduction.
    rng = random.Random(12)
    p = _P31
    for _ in range(30):
        n = rng.randrange(1, 7)
        m = FpPoly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p)
        ctx = _Modulus(m.coeffs, p)
        mm = m.monic()
        a = _random_poly(rng, p, 2 * n - 2)
        assert FpPoly(ctx.reduce(a.coeffs), p) == a % mm
        base = _random_poly(rng, p, n - 1)
        e = rng.randrange(1, 12)
        slow = FpPoly([1], p)
        for _ in range(e):
            slow = (slow * base) % mm
        assert FpPoly(ctx.powmod(base.coeffs, e), p) == slow
    # x^p by square-and-multiply on FpPoly against the modulus context.
    m = FpPoly([3, 0, 7, 1, 5], p)
    want, acc, e = FpPoly([1], p), FpPoly.x(p) % m.monic(), p
    while e:
        if e & 1:
            want = (want * acc) % m.monic()
        acc = (acc * acc) % m.monic()
        e >>= 1
    assert FpPoly(_Modulus(m.coeffs, p).powmod(FpPoly.x(p).coeffs, p), p) == want


def test_roots_in_fp2_at_word_size_prime():
    # Products of distinct irreducible quadratics only: a root in F_p would
    # send roots_in_prime_field to scan all 2^31 residues.
    from superspecial.ffield import legendre

    rng = random.Random(13)
    p = _P31
    field = Fp2Field.of(p)
    for k in (1, 2, 6):
        quads = []
        while len(quads) < k:
            s_, n_ = rng.randrange(p), rng.randrange(p)
            if legendre(s_ * s_ - 4 * n_, p) == -1 and (s_, n_) not in quads:
                quads.append((s_, n_))
        f = FpPoly([1], p)
        for s_, n_ in quads:
            f = f * FpPoly([n_, -s_, 1], p)
        got = roots_in_fp2(f, field)
        assert len(got) == 2 * k
        for r in got:
            assert not r.in_prime_field()
            assert f.evaluate(r) == field.zero()


def test_prime_field_scan_refuses_primes_above_its_ceiling():
    # (x-3)(x-5) at p = 2^31 - 1: the scan would need two 2^31-entry int64
    # arrays (16 GiB each), so it is refused before anything is allocated.
    with pytest.raises(ValueError, match=f"scan ceiling {PRIME_SCAN_MAX}"):
        roots_in_fp2(FpPoly([15, -8, 1], _P31), Fp2Field.of(_P31))
    # Every census prime can still be scanned.
    assert PRIME_SCAN_MAX >= CENSUS_MAX_PRIME
    field = Fp2Field.of(999983)  # the largest prime below 10^6
    assert roots_in_fp2(FpPoly([15, -8, 1], field.p), field) == {field.elem(3), field.elem(5)}
