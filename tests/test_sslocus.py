import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from superspecial import sslocus
from superspecial.ffield import Fp2Field, frobenius, is_prime, lambda_to_j
from superspecial.fppoly import hasse_poly, roots_in_fp2
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
    assert c5.j_points == ((0, 0),)

    c11 = census(11)
    assert (c11.H, c11.F, c11.T) == (2, 2, 2)
    assert c11.j_points == ((0, 0), (1, 0))  # 1728 = 157*11 + 1

    c13 = census(13)
    assert (c13.H, c13.F, c13.T) == (1, 1, 1)
    assert c13.j_points == ((5, 0),)

    c37 = census(37)  # j = 3 +- 10t, a Frobenius pair, and j = 8
    assert c37.j_points == ((3, 10), (3, 27), (8, 0))
    assert (c37.involution, c37.H, c37.F, c37.T) == ((1, 0, 2), 3, 1, 2)


def test_lambda_pairs_share_j_and_census_maps_one_of_each(monkeypatch):
    # The Legendre roots are closed under lam -> 1 - lam with j(lam) = j(1 - lam),
    # so census maps one of each pair; lam = 1/2 (a root at p = 3 mod 4,
    # where j = 1728 is supersingular) is its own partner.
    calls = []

    def counted(lam, field):
        calls.append(lam)
        return lambda_to_j(lam, field)

    monkeypatch.setattr(sslocus, "lambda_to_j", counted)
    for p in (11, 13, 97, 101):
        field = Fp2Field.of(p)
        roots = roots_in_fp2(hasse_poly(p), field)
        partners = {lam: ((1 - lam[0]) % p, -lam[1] % p) for lam in roots}
        assert set(partners.values()) == roots, p
        for lam, partner in partners.items():
            assert lambda_to_j(lam, field) == lambda_to_j(partner, field), (p, lam)
        half = ((p + 1) // 2, 0)
        assert (half in roots) == (p % 4 == 3), p
        calls.clear()
        assert census(p) == Census(p, tuple(sorted({lambda_to_j(lam, field) for lam in roots})))
        assert len(calls) == (len(roots) + (half in roots)) // 2, p


def test_census_hard_coded_small_primes():
    for p, aut in ((2, 24), (3, 12)):
        c = census(p)
        assert (c.H, c.F, c.T) == (1, 1, 1)
        assert c.j_points == ((0, 0),)
        assert (c.involution, c.aut_orders) == ((0,), (aut,))


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
    for p, c in sweep.items():
        for i, k in enumerate(c.involution):
            a, b = c.j_points[i]
            if i != k:
                assert frobenius(a, b, p) == c.j_points[k]
                assert b != 0
            else:
                assert b == 0


def test_special_j_membership(sweep):
    for p, c in sweep.items():
        has_zero = (0, 0) in c.j_points
        has_1728 = (1728 % p, 0) in c.j_points
        assert has_zero == (p % 3 == 2)
        assert has_1728 == (p % 4 == 3)


def test_census_deterministic():
    assert census(211) == census(211)


def test_aut_orders(sweep):
    for p, c in sweep.items():
        for j, a in zip(c.j_points, c.aut_orders):
            if j == (0, 0):
                assert a == 6
            elif j == (1728 % p, 0):
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
        f = [int(c) for c in hasse_poly(p)[::-1]]
        js = set()
        for a in range(p):
            for b in range(p):
                if b == 0 and a in (0, 1):
                    continue
                # Horner on the pair a + b t, t^2 = d.
                u, v = 0, 0
                for c in f:
                    u, v = (u * a + field.d * v * b + c) % p, (u * b + v * a) % p
                if (u, v) == (0, 0):
                    js.add(lambda_to_j((a, b), field))
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


def test_cache_put_writes_each_line_in_one_call(tmp_path, monkeypatch):
    calls = []
    real_write = os.write

    def spy(fd, data):
        calls.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", spy)
    path = tmp_path / "census.cache"
    cache = CensusCache(path)
    for p in (11, 37, 11):
        cache.get(p)
    assert calls == [b"11;0,1;2;2\n", b"37;3+10*t,3+27*t,8;1;2\n"]
    assert path.read_bytes() == b"".join(calls)


def test_concurrent_sweeps_leave_only_whole_lines(tmp_path):
    # Two writers append to one cache at once; each line is one O_APPEND
    # write, so the lines may repeat but never interleave.
    path = tmp_path / "census.cache"
    src = os.path.dirname(os.path.dirname(sslocus.__file__))
    env = {**os.environ, "SUPERSPECIAL_CACHE_DIR": "",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "superspecial.cli", "sweep", "--pmin", "5",
            "--pmax", "300", "--jobs", "1", "--cache", str(path)]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE) for _ in range(2)]
    outs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1]
    lines = path.read_text().splitlines()
    primes = [p for p in range(5, 301) if is_prime(p)]
    assert sorted({decode_census(line).p for line in lines}) == primes
    assert all(encode_census(decode_census(line)) == line for line in lines)


def test_cache_rejects_corruption(tmp_path):
    path = tmp_path / "census.cache"
    for line, message in [
        ("11;0,1;1;2", "cached F/T disagree"),  # F corrupted: parity of H + F breaks
        ("11;0,1;0;1", "cached F/T disagree"),  # F=0 contradicts the recomputed involution
        ("11;0;1;1", "class-number formula"),  # wrong class number for p = 11
        ("garbage", "malformed cache line"),
        ("3;7,8;1;1", "malformed cache line"),  # 7 and 8 are not residues mod 3
        ("3;1;1;1", "hard-coded"),  # p = 3 has the single point j = 0
        ("2;0,1;2;2", "hard-coded"),
        ("37;3+10*t,8;1;1", "not Frobenius-stable"),  # 3 + 10t without 3 + 27t
        ("37;8,3+10*t,3+27*t;1;2", "duplicate or unsorted"),
    ]:
        path.write_text(line + "\n")
        with pytest.raises(CensusInvariantError, match=re.escape(message)):
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


def test_counts_match_an_independent_oracle(censuses_1000):
    # Read straight off the j-set: F counts the F_p-rational points (b = 0),
    # and the others fall into Frobenius pairs, one orbit each.
    for c in censuses_1000:
        rational = sum(1 for a, b in c.j_points if b == 0)
        assert (c.H, c.F) == (len(c.j_points), rational)
        assert c.T == rational + (c.H - rational) // 2


def test_constructor_derives_every_field_and_refuses_unstable_sets():
    c37 = census(37)  # j = 3 +- 10t (a Frobenius pair) and j = 8
    assert Census(37, ((3, 10), (3, 27), (8, 0))) == c37
    for name in ("involution", "H", "F", "T", "aut_orders"):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(c37, **{name: getattr(c37, name)})
    for js in [((3, 10), (8, 0)),  # 3 + 10t without its conjugate 3 + 27t
               ((3, 40), (3, 27), (8, 0)),  # unreduced b: j^p of (3, 40) is (3, 34)
               ((3, 10), (3, 27), (8, 37)),  # j^p of (8, 37) is (8, 0)
               ((40, 10), (3, 27), (8, 0))]:  # unreduced a
        with pytest.raises(CensusInvariantError, match="not Frobenius-stable"):
            Census(37, js)
    # At p = 41 the pair of 3 + 10t is 3 + 31t.
    with pytest.raises(CensusInvariantError, match="not Frobenius-stable"):
        Census(41, c37.j_points)


def test_validate_catches_bad_census():
    # One hand-built Census per check of validate, with the message it must give.
    js = census(37).j_points  # ((3, 10), (3, 27), (8, 0))
    cases = [
        (Census(37, (js[0], js[1], js[0])), "duplicate or unsorted j-invariants"),
        (Census(37, (js[2], js[0], js[1])), "duplicate or unsorted j-invariants"),
        (Census(37, (js[0], js[1], (8 + 37, 0))), "not F_p2-rational"),
        (Census(37, ((-29, 0), js[0], js[1])), "not F_p2-rational"),
        (Census(37, (js[2],)), "class-number formula"),
        (Census(37, ()), "empty j-set"),
        (Census(3, ()), "empty j-set"),
        (Census(2, ((1, 0),)), "hard-coded"),
        (Census(3, ((0, 0), (1, 0))), "hard-coded"),
        (Census(4, ((0, 0),)), "not a prime"),
        (Census(1, ((0, 0),)), "not a prime"),
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
