import random

import pytest

from superspecial.ffield import (Fp2Field, canonical_nonresidue, frobenius,
                                 is_prime, lambda_to_j, legendre, sqrt_mod)


def test_canonical_nonresidue_small():
    # Exhaustive: squares mod 3 are {1}; mod 5 are {1,4}; mod 7 are {1,2,4}.
    assert canonical_nonresidue(3) == 2
    assert canonical_nonresidue(5) == 2
    assert canonical_nonresidue(7) == 3


def test_canonical_nonresidue_is_nonresidue():
    for p in (11, 13, 97, 1009, 65537):
        d = canonical_nonresidue(p)
        assert legendre(d, p) == -1
        for smaller in range(2, d):
            assert legendre(smaller, p) != -1


def test_nonresidue_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_nonresidue(2)
    with pytest.raises(ValueError):
        canonical_nonresidue(15)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 997, 2**31 - 1}
    for n in primes:
        assert is_prime(n)
    for n in (1, 0, 4, 9, 91, 561, 1105, 2**31 - 2):
        assert not is_prime(n)


def test_sqrt_mod():
    rng = random.Random(1)
    for p in (5, 7, 11, 13, 97, 101, 65537, 1000003):
        for _ in range(20):
            a = rng.randrange(p)
            r = a * a % p
            s = sqrt_mod(r, p)
            assert s * s % p == r


def test_frobenius_examples():
    field = Fp2Field.of(5)
    assert frobenius(field.elem(3)) == field.elem(3)
    # t^5 = t * (t^2)^2 = t * 4 = -t over (p=5, d=2).
    assert frobenius(field.gen()) == field.elem(0, 4)


def test_frobenius_is_an_order_two_automorphism():
    rng = random.Random(2)
    for p in (5, 13, 101):
        field = Fp2Field.of(p)
        for _ in range(100):
            x = field.elem(rng.randrange(p), rng.randrange(p))
            y = field.elem(rng.randrange(p), rng.randrange(p))
            assert frobenius(frobenius(x)) == x
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert x ** (p * p) == x


def test_field_axioms_random_samples():
    rng = random.Random(3)
    for p in (5, 11, 97):
        field = Fp2Field.of(p)
        sample = lambda: field.elem(rng.randrange(p), rng.randrange(p))
        for _ in range(60):
            x, y, z = sample(), sample(), sample()
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x != field.zero():
                assert x * x.inverse() == field.one()
                assert (y / x) * x == y


def test_equality_requires_same_descriptor():
    a = Fp2Field.of(5).elem(1)
    b = Fp2Field(5, 3).elem(1)
    assert a != b
    with pytest.raises(ValueError):
        a + b


def test_encoding_round_trip():
    field = Fp2Field.of(13)
    for a, b in ((0, 0), (5, 0), (0, 7), (12, 12)):
        x = field.elem(a, b)
        assert field.parse(str(x)) == x
    assert str(field.elem(3)) == "3"
    assert str(field.elem(3, 4)) == "3+4*t"


def test_lambda_to_j_examples():
    for p in (5, 7, 11, 97):
        field = Fp2Field.of(p)
        # lambda = -1 is the harmonic curve: 256 * 27 / 4 = 1728.
        assert lambda_to_j(field.elem(-1)) == field.elem(1728)
    field7 = Fp2Field.of(7)
    assert lambda_to_j(field7.elem(2)) == field7.elem(1728) == field7.elem(6)


def test_lambda_to_j_rejects_degenerate():
    field = Fp2Field.of(7)
    for bad in (field.zero(), field.one()):
        with pytest.raises(ValueError):
            lambda_to_j(bad)


def test_lambda_six_to_one_orbit():
    rng = random.Random(4)
    for p in (11, 13, 97):
        field = Fp2Field.of(p)
        one = field.one()
        for _ in range(40):
            lam = field.elem(rng.randrange(p), rng.randrange(p))
            if lam in (field.zero(), one):
                continue
            orbit = [lam, one - lam, one / lam, one / (one - lam),
                     lam / (lam - one), (lam - one) / lam]
            js = {lambda_to_j(mu) for mu in orbit if mu not in (field.zero(), one)}
            assert len(js) == 1


def test_lambda_to_j_matches_field_formula_exhaustively():
    for p in (5, 7, 11, 13):
        field = Fp2Field.of(p)
        one = field.one()
        for a in range(p):
            for b in range(p):
                lam = field.elem(a, b)
                if lam in (field.zero(), one):
                    continue
                want = field.elem(256) * (lam * lam - lam + one) ** 3 / (
                    lam * lam * (lam - one) ** 2)
                got = lambda_to_j(lam)
                assert got == want, (p, a, b)
                assert (got.a, got.b) == (want.a, want.b)
