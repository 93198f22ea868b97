import hashlib
import re
from fractions import Fraction

import pytest

from superspecial.ffield import Fp2Element, Fp2Field, frobenius, is_prime
from superspecial.sslocus import (CENSUS_MAX_PRIME, Census, CensusCache, CensusInvariantError,
                                  census, class_number_crosscheck, decode_census,
                                  eichler_mass, encode_census, trace_R_pi0,
                                  type_number)

SWEEP_PRIMES = [p for p in range(5, 300) if is_prime(p)]


@pytest.fixture(scope="module")
def sweep():
    return {p: census(p) for p in SWEEP_PRIMES}


def test_census_examples():
    c5 = census(5)
    assert (c5.H, c5.F, c5.T) == (1, 1, 1)
    assert [str(j) for j in c5.j_points] == ["0"]

    c11 = census(11)
    assert (c11.H, c11.F, c11.T) == (2, 2, 2)
    assert [str(j) for j in c11.j_points] == ["0", "1"]  # 1728 = 157*11 + 1

    c13 = census(13)
    assert (c13.H, c13.F, c13.T) == (1, 1, 1)
    assert [str(j) for j in c13.j_points] == ["5"]


def test_census_hard_coded_small_primes():
    for p in (2, 3):
        c = census(p)
        assert (c.H, c.F, c.T) == (1, 1, 1)
        assert [str(j) for j in c.j_points] == ["0"]


def test_census_validates_the_hard_coded_small_primes(monkeypatch):
    calls = []
    real = Census.validate

    def counted(c):
        calls.append(c.p)
        real(c)

    monkeypatch.setattr(Census, "validate", counted)
    for p in (2, 3):
        census(p)
    assert calls == [2, 3]


def test_census_rejects_composites():
    for bad in (1, 4, 12, 91):
        with pytest.raises(ValueError):
            census(bad)


def test_census_refuses_primes_above_the_cost_ceiling():
    # 2^31 - 1 passes the word-size bound of ffield, but its Legendre
    # polynomial alone would need 2^30 int64 coefficients.
    with pytest.raises(ValueError, match=f"ceiling {CENSUS_MAX_PRIME}"):
        census(2147483647)


def test_trace_and_type_ops():
    c11, c13, c5 = census(11), census(13), census(5)
    assert trace_R_pi0(c11) == 2
    assert trace_R_pi0(c13) == 1
    assert type_number(c11) == 2
    assert type_number(c5) == 1
    # identity involution => F = H
    c37 = census(37)
    assert trace_R_pi0(c37) == sum(1 for i, k in enumerate(c37.involution) if i == k)


def test_crosscheck_examples():
    assert class_number_crosscheck(census(11))
    assert class_number_crosscheck(census(13))
    assert class_number_crosscheck(census(37))
    with pytest.raises(ValueError):
        class_number_crosscheck(census(3))


def test_eichler_mass_examples():
    assert eichler_mass(census(11)) == Fraction(1, 6) + Fraction(1, 4) == Fraction(5, 12)
    assert eichler_mass(census(13)) == Fraction(1, 2)
    assert eichler_mass(census(7)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        eichler_mass(census(2))


def test_sweep_identities(sweep):
    for p, c in sweep.items():
        assert c.F == 2 * c.T - c.H
        assert (c.H + c.F) % 2 == 0
        assert class_number_crosscheck(c)
        assert eichler_mass(c) == Fraction(p - 1, 24)
        inv = c.involution
        assert all(inv[inv[i]] == i for i in range(c.H))


def test_nonfixed_orbits_are_galois_pairs(sweep):
    for c in sweep.values():
        for i, k in enumerate(c.involution):
            if i != k:
                assert frobenius(c.j_points[i]) == c.j_points[k]
                assert not c.j_points[i].in_prime_field()
            else:
                assert c.j_points[i].in_prime_field()


def test_special_j_membership(sweep):
    for p, c in sweep.items():
        field = c.j_points[0].field
        has_zero = field.zero() in c.j_points
        has_1728 = field.elem(1728) in c.j_points
        assert has_zero == (p % 3 == 2)
        assert has_1728 == (p % 4 == 3)


def test_census_deterministic():
    assert census(211) == census(211)


def test_aut_orders(sweep):
    for p, c in sweep.items():
        field = c.j_points[0].field
        for j, a in zip(c.j_points, c.aut_orders):
            if j == field.zero():
                assert a == 6
            elif j == field.elem(1728):
                assert a == 4
            else:
                assert a == 2


def test_type_number_recovery_round_trip(sweep):
    # The arithmetic-side inversion T = (H + trace)/2 applied to census data.
    from superspecial.massform import recover_type_number

    for c in sweep.values():
        assert recover_type_number(c.H, trace_R_pi0(c)) == type_number(c)


def test_exhaustive_enumeration_oracle():
    # Independent of the production gcd/descent path: scan every Legendre
    # parameter in F_{p^2} and collect j-values directly.
    from superspecial.fppoly import hasse_poly

    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 47, 53, 59):
        field = Fp2Field.of(p)
        f = hasse_poly(p)
        js = set()
        from superspecial.ffield import lambda_to_j

        for a in range(p):
            for b in range(p):
                lam = field.elem(a, b)
                if lam in (field.zero(), field.one()):
                    continue
                if f.evaluate(lam) == field.zero():
                    js.add(lambda_to_j(lam))
        c = census(p)
        assert set(c.j_points) == js, p


def test_cache_round_trip(tmp_path):
    path = tmp_path / "census.cache"
    cache = CensusCache(path)
    c1 = cache.get(11)
    c2 = cache.get(11)
    assert c1 == c2
    text = path.read_text()
    assert text == "11;0,1;2;2\n"
    # warm reload revalidates and reuses
    cache2 = CensusCache(path)
    assert 11 in cache2
    assert cache2.get(11) == c1


def test_cache_rejects_corruption(tmp_path):
    path = tmp_path / "census.cache"
    path.write_text("11;0,1;1;2\n")  # F corrupted: parity of H + F breaks
    with pytest.raises(CensusInvariantError):
        CensusCache(path)
    path.write_text("11;0,1;0;1\n")  # F=0 contradicts the recomputed involution
    with pytest.raises(CensusInvariantError):
        CensusCache(path)
    path.write_text("11;0;1;1\n")  # wrong class number for p = 11
    with pytest.raises(CensusInvariantError):
        CensusCache(path)
    path.write_text("garbage\n")
    with pytest.raises(CensusInvariantError):
        CensusCache(path)
    path.write_text("3;7,8;1;1\n")  # p = 3 has the single point j = 0
    with pytest.raises(CensusInvariantError, match="hard-coded"):
        CensusCache(path)


def test_decode_compares_cached_counts_with_recomputation():
    # Each line is self-consistent (F = 2T - H, T = (H + F)/2) but its F/T
    # disagree with the counts recomputed from the cached j-set.
    for line in ("11;0,1;0;1\n", "2;0;3;2\n"):
        with pytest.raises(CensusInvariantError, match="cached F/T disagree with recomputation"):
            decode_census(line)


def test_encode_decode(censuses_1000):
    assert len(censuses_1000) == 166
    for c in censuses_1000:
        assert decode_census(encode_census(c)) == c
        per_point = Fraction(0)
        for a in c.aut_orders:
            per_point += Fraction(1, a)
        assert eichler_mass(c) == per_point


def test_validate_catches_bad_census():
    # One hand-built Census per check of validate, with the message it must give.
    c37 = census(37)  # j = 3 +- 10t (a Frobenius pair) and j = 8, aut orders 2, 2, 2
    js = c37.j_points
    field = js[0].field
    other_field = Fp2Field(37, 5)  # 5 is a non-square mod 37, but not the canonical d = 2

    def edit(**kw):
        fields = dict(p=37, j_points=js, involution=c37.involution, H=c37.H, F=c37.F,
                      T=c37.T, aut_orders=c37.aut_orders)
        return Census(**{**fields, **kw})

    c37.validate()
    cases = [
        (edit(involution=(1, 0)), "field lengths disagree"),
        (edit(aut_orders=(2, 2)), "field lengths disagree"),
        (edit(j_points=(js[0], js[1], js[0])), "duplicate j-invariants"),
        # Fp2Element itself does not reduce; field.elem would.
        (edit(j_points=(Fp2Element(3 + 37, 10, field), js[1], js[2])), "not F_p2-rational"),
        (edit(j_points=(js[0], js[1], Fp2Element(8, 37, field))), "not F_p2-rational"),
        (edit(j_points=(js[0], js[1], Fp2Element(-29, 0, field))), "not F_p2-rational"),
        (edit(involution=(0, 1, 2), F=3, T=3), "does not realize j -> j^p"),
        (edit(involution=(1, 1, 2)), "not self-inverse"),
        (edit(involution=(1, 0, 3)), "involution index out of range"),
        (edit(involution=(1, 0, -1)), "involution index out of range"),
        (edit(F=c37.F + 2), "F != number of fixed points"),
        (edit(T=c37.T + 1), "T != (H + F)/2"),
        (edit(j_points=(js[2],), involution=(0,), H=1, F=1, T=1, aut_orders=(2,)),
         "class-number formula"),
        (edit(j_points=(js[0], js[1], other_field.elem(8))), "outside the census's field"),
        (edit(j_points=(js[0], other_field.elem(3, 27), js[2])), "outside the census's field"),
        (edit(p=41), "outside the census's field"),
        (edit(aut_orders=(2, 2, 4)), "aut_orders disagree"),
        (Census(p=2, j_points=(Fp2Field(2, 1).elem(0),), involution=(0,), H=1, F=1, T=1,
                aut_orders=(6,)), "aut_orders disagree"),
        (edit(j_points=(), involution=(), H=0, F=0, T=0, aut_orders=()), "empty j-set"),
        (Census(p=3, j_points=(), involution=(), H=0, F=0, T=0, aut_orders=()), "empty j-set"),
    ]
    for broken, message in cases:
        with pytest.raises(CensusInvariantError, match=re.escape(message)):
            broken.validate()


# sha256 of the cache lines of every census 5 <= p <= 1000, joined by newlines;
# recorded from the Legendre-ladder census before its kernels were slimmed.
_GOLDEN_CENSUS_1000_SHA256 = "2852ac922dd4436850be012695e0774ee467e55e900e3c1e3ff4dffd15d4a509"


def test_golden_census_digest_to_1000(censuses_1000):
    text = "\n".join(encode_census(c) for c in censuses_1000)
    assert len(censuses_1000) == 166
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_CENSUS_1000_SHA256
