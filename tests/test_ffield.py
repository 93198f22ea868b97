import random
from collections import Counter
from math import gcd, isqrt, prod

import pytest

from superspecial import ffield
from superspecial.ffield import (PRIMALITY_LIMIT, Fp2Field, _tonelli_shanks, canonical_nonresidue,
                                 format_pair, frobenius, is_prime, lambda_to_j, legendre,
                                 parse_pair, parse_pairs, sqrt_mod)

# psi_k, the least strong pseudoprime to the first k primes (OEIS A014233).
PSI_2, PSI_3, PSI_4 = 1_373_653, 25_326_001, 3_215_031_751
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


# A reference F_{p^2} on residue pairs (a, b) = a + b t, t^2 = d, written
# from the definitions and independent of the package's pair arithmetic.

def _add(x, y, p):
    return (x[0] + y[0]) % p, (x[1] + y[1]) % p


def _sub(x, y, p):
    return (x[0] - y[0]) % p, (x[1] - y[1]) % p


def _mul(x, y, field):
    p, d = field.p, field.d
    return (x[0] * y[0] + d * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


def _pow(x, e, field):
    result, base = (1, 0), x
    while e:
        if e & 1:
            result = _mul(result, base, field)
        base = _mul(base, base, field)
        e >>= 1
    return result


def _inv(x, field):
    """x^(p^2 - 2): the inverse by Lagrange in the multiplicative group, not the norm."""
    assert x != (0, 0)
    return _pow(x, field.p * field.p - 2, field)


def _div(x, y, field):
    return _mul(x, _inv(y, field), field)


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
    with pytest.raises(ValueError, match="p = 2"):
        Fp2Field(2, 1)
    with pytest.raises(ValueError):
        canonical_nonresidue(15)
    with pytest.raises(ValueError, match="^d = 4 is a square mod 5$"):
        Fp2Field(5, 4)
    # 2147483659 is the least prime above 2^31.
    with pytest.raises(ValueError, match="^prime 2147483659 exceeds the word-size bound 2\\^31$"):
        Fp2Field.of(2147483659)
    with pytest.raises(ValueError, match="^2 is not a quadratic residue mod 5$"):
        sqrt_mod(2, 5)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 997, 2**31 - 1}
    for n in primes:
        assert is_prime(n)
    for n in (1, 0, 4, 9, 91, 561, 1105, 2**31 - 2):
        assert not is_prime(n)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for q in range(2, isqrt(limit - 1) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, limit, q)))
    return flags


def test_is_prime_agrees_with_a_sieve_below_two_million():
    # The range crosses psi_2, where the base set grows from {2, 3} to {2, 3, 5, 7}.
    limit = 2 * 10**6
    flags = _sieve(limit)
    wrong = [n for n in range(limit) if is_prime(n) != flags[n]]
    assert not wrong, wrong[:10]


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def _pocklington_prime(n, q, a):
    """n is prime if the prime q divides n - 1, q > sqrt(n) - 1,
    a^(n-1) = 1 and gcd(a^((n-1)/q) - 1, n) = 1 (Pocklington's criterion)."""
    return ((n - 1) % q == 0 and (q + 1) ** 2 > n and pow(a, n - 1, n) == 1
            and gcd(pow(a, (n - 1) // q, n) - 1, n) == 1)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def test_is_prime_on_strong_pseudoprimes_and_near_the_bounds():
    # The least strong pseudoprimes to the prime bases up to 3, 5, 7 and 37
    # (psi_2, psi_3, psi_4, psi_12), checked here by their factors and bases.
    pseudoprimes = {PSI_2: ((829, 1657), 3), PSI_3: ((2251, 11251), 5),
                    PSI_4: ((151, 751, 28351), 7),
                    PSI_12: ((399165290221, 798330580441), 37)}
    for n, (factors, top_base) in pseudoprimes.items():
        assert prod(factors) == n
        assert all(_strong_probable_prime(n, a) for a in range(2, top_base + 1)
                   if _trial_division(a))
        assert not is_prime(n), n
    # The primes next to psi_2 and psi_4, and odd composites between them.
    for n in (1373639, 1373677, 3215031749, 3215031767):
        assert _trial_division(n)
        assert is_prime(n), n
    for n in (1373651, 1373655, 3215031753, 3215031757):
        assert not _trial_division(n)
        assert not is_prime(n), n
    # The largest prime below psi_13: n - 1 = 12 * 103 * 132408623 * q, with
    # q = 20268261599279 a prime above sqrt(n), and 2 witnesses n by Pocklington.
    n, q = PSI_13 - 168, 20268261599279
    assert _trial_division(q) and _pocklington_prime(n, q, 2)
    assert is_prime(n)
    assert not is_prime(n - 2) and not is_prime(PSI_13 - 1)


def test_is_prime_refuses_numbers_past_the_proven_bound():
    assert PRIMALITY_LIMIT == PSI_13
    for n in (PSI_13, PSI_13 + 1, PSI_13 + 2, 2**128):
        with pytest.raises(ValueError, match=f"below psi_13 = {PSI_13}"):
            is_prime(n)


def test_is_prime_costs_at_most_the_proven_bases(monkeypatch):
    # Counts modular exponentiations, not time: the module global ``pow``
    # shadows the builtin inside ffield.
    moduli, builtin_pow = [], pow

    def counting_pow(base, exp, mod):
        moduli.append(mod)
        return builtin_pow(base, exp, mod)

    monkeypatch.setattr(ffield, "pow", counting_pow, raising=False)
    for n in range(41 * 41):
        is_prime(n)
    assert moduli == []  # trial division settles every n < 41^2
    for n in range(41 * 41, PSI_2):
        is_prime(n)
    assert max(Counter(moduli).values()) == 2
    moduli.clear()
    assert is_prime(3215031749) and len(moduli) == 4
    moduli.clear()
    assert is_prime(PSI_13 - 168) and len(moduli) == 13


def test_sqrt_mod():
    rng = random.Random(1)
    for p in (5, 7, 11, 13, 97, 101, 65537, 1000003):
        for _ in range(20):
            a = rng.randrange(p)
            r = a * a % p
            s = sqrt_mod(r, p)
            assert s * s % p == r


def test_tonelli_shanks_core_matches_sqrt_mod():
    # p - 1 has 2-adic valuation 2, 4, 5 and 6.  The core takes its
    # non-residue from the caller, so it runs no primality test.
    for p in (13, 17, 97, 193):
        d = canonical_nonresidue(p)
        for a in range(1, p):
            if legendre(a, p) == 1:
                assert _tonelli_shanks(a, p, d) == sqrt_mod(a, p), (p, a)
            else:
                with pytest.raises(ValueError, match="no square root"):
                    _tonelli_shanks(a, p, d)
        # A residue in place of the non-residue: a right root or a ValueError.
        z = next(z for z in range(2, p) if legendre(z, p) == 1)
        for a in range(1, p):
            try:
                r = _tonelli_shanks(a, p, z)
            except ValueError:
                continue
            assert r * r % p == a, (p, z, a)


def test_frobenius_examples():
    assert frobenius(3, 0, 5) == (3, 0)
    # t^5 = t * (t^2)^2 = t * 4 = -t over (p=5, d=2).
    assert frobenius(0, 1, 5) == (0, 4)
    assert _pow((0, 1), 5, Fp2Field.of(5)) == (0, 4)


def test_frobenius_is_an_order_two_automorphism():
    rng = random.Random(2)
    for p in (5, 13, 101):
        field = Fp2Field.of(p)
        fr = lambda x: frobenius(*x, p)
        for _ in range(100):
            x = (rng.randrange(p), rng.randrange(p))
            y = (rng.randrange(p), rng.randrange(p))
            assert fr(fr(x)) == x
            assert fr(x) == _pow(x, p, field)
            assert fr(_mul(x, y, field)) == _mul(fr(x), fr(y), field)
            assert fr(_add(x, y, p)) == _add(fr(x), fr(y), p)
            assert _pow(x, p * p, field) == x


def test_encoding_round_trip():
    field = Fp2Field.of(13)
    for a, b in ((0, 0), (5, 0), (0, 7), (12, 12)):
        assert field.parse(format_pair(a, b)) == (a, b)
    assert format_pair(3, 0) == "3"
    assert format_pair(3, 4) == "3+4*t"
    for a in range(13):
        for b in range(13):
            assert parse_pair(format_pair(a, b), 13) == (a, b)
    # Only what format_pair writes for residues mod 13 is read back.
    for bad in ("-8", "13", "45", "1_0", "+1", "01", " 1", "1 ", "8+0*t", "3+-4*t",
                "3+4", "3+4*t+1", "3+13*t", "3+04*t", "", "t", "3*t"):
        with pytest.raises(ValueError):
            parse_pair(bad, 13)
        with pytest.raises(ValueError):
            field.parse(bad)


def test_literal_lists_round_trip_and_share_the_literal_grammar():
    pairs = tuple((a, b) for a in range(13) for b in range(13))
    text = ",".join(format_pair(a, b) for a, b in pairs)
    assert parse_pairs(text, 13) == pairs
    for a, b in pairs:
        assert parse_pairs(format_pair(a, b), 13) == ((a, b),)
    # Non-ASCII digits that int() reads; a bad literal anywhere in a list; an
    # empty list or literal; a list where parse_pair takes one literal.
    for bad in ("\u0663", "\uff13+1*t", "1+\u0663*t", "3+4*t,\u0663", "-8", "3,13", "3,8+0*t",
                "3,04", "3+4*t,1_0", "", ",", "3,", ",3", "3,,4", "3, 4", "3;4", "3,4\n"):
        with pytest.raises(ValueError, match="malformed F_p2 literal mod 13"):
            parse_pairs(bad, 13)
        with pytest.raises(ValueError, match="malformed F_p2 literal mod 13"):
            parse_pair(bad, 13)
    with pytest.raises(ValueError, match="malformed F_p2 literal mod 13"):
        parse_pair("3,4", 13)


def test_literal_lists_read_a_zero_literal_next_to_a_t_literal():
    # parse_pairs reads a list as one rewritten JSON text, where "a" becomes
    # "a,0" and "a+b*t" becomes "a,b": the literal 0 after or before
    # "a+b*t" must stay a point of its own.
    for text, pairs in [("0+1*t,0", ((0, 1), (0, 0))), ("3+10*t,0,0+1*t", ((3, 10), (0, 0), (0, 1))),
                        ("0,3+10*t,0", ((0, 0), (3, 10), (0, 0))), ("10+12*t,1", ((10, 12), (1, 0)))]:
        assert parse_pairs(text, 13) == pairs


def test_lambda_to_j_examples():
    for p in (5, 7, 11, 97):
        field = Fp2Field.of(p)
        # lambda = -1 is the harmonic curve: 256 * 27 / 4 = 1728.
        assert lambda_to_j((p - 1, 0), field) == (1728 % p, 0)
    assert lambda_to_j((2, 0), Fp2Field.of(7)) == (1728 % 7, 0) == (6, 0)


def test_lambda_to_j_rejects_degenerate():
    field = Fp2Field.of(7)
    for bad in ((0, 0), (1, 0), (7, 0), (8, 7)):
        with pytest.raises(ValueError):
            lambda_to_j(bad, field)


def test_lambda_six_to_one_orbit():
    rng = random.Random(4)
    for p in (11, 13, 97):
        field = Fp2Field.of(p)
        zero, one = (0, 0), (1, 0)
        for _ in range(40):
            lam = (rng.randrange(p), rng.randrange(p))
            if lam in (zero, one):
                continue
            one_minus = _sub(one, lam, p)
            lam_minus = _sub(lam, one, p)
            orbit = [lam, one_minus, _inv(lam, field), _inv(one_minus, field),
                     _div(lam, lam_minus, field), _div(lam_minus, lam, field)]
            js = {lambda_to_j(mu, field) for mu in orbit if mu not in (zero, one)}
            assert len(js) == 1


def test_lambda_to_j_matches_field_formula_exhaustively():
    for p in (5, 7, 11, 13):
        field = Fp2Field.of(p)
        one = (1, 0)
        for a in range(p):
            for b in range(p):
                lam = (a, b)
                if lam in ((0, 0), one):
                    continue
                lam2 = _mul(lam, lam, field)
                num = _pow(_add(_sub(lam2, lam, p), one, p), 3, field)
                den = _mul(lam2, _pow(_sub(lam, one, p), 2, field), field)
                want = _mul((256 % p, 0), _div(num, den, field), field)
                assert lambda_to_j(lam, field) == want, (p, a, b)
