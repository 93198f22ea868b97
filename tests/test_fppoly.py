import inspect
import os
import random
import subprocess
import sys
import types
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

from superspecial.ffield import Fp2Field, lambda_to_j, legendre
from superspecial import fppoly
from superspecial.fppoly import (PRIME_SCAN_MAX, _divmod, _gcd, _Modulus, _mul, _rem,
                                 _scan_layout, _sub, _trim, hasse_poly, roots_in_fp2,
                                 roots_in_prime_field)
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
    # The remainder-only _rem agrees with _divmod's remainder.
    rng = random.Random(5)
    for p in (5, 13, 101, _P31):
        for _ in range(80):
            a = _random_poly(rng, p, 12)
            b = _random_poly(rng, p, 8)
            if len(b) == 0:
                continue
            q, r = _divmod(a, b, p)
            assert _eq(_add(_mul(q, b, p), r, p), a)
            assert len(r) < len(b)
            assert _eq(_rem(a, b, p), r), (p, a, b)
    for div in (_divmod, _rem):
        with pytest.raises(ZeroDivisionError):
            div(_poly([1, 2], 5), _poly([], 5), 5)


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


def test_mulmod_matches_reduced_product():
    # p = 2^31 - 1 takes the Python-integer convolutions of a wide context.
    rng = random.Random(15)
    for p in (13, 997, _P31):
        for _ in range(30):
            m = _random_poly(rng, p, 12)
            if len(m) < 2:
                continue
            ctx = _Modulus(m, p)
            a = _random_poly(rng, p, len(m) - 2)
            b = _random_poly(rng, p, len(m) - 2)
            got = ctx.mulmod(a, b)
            assert got.dtype == np.int64
            assert _eq(got, ctx.reduce(_mul(a, b, p))), (p, m, a, b)


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
        # Squared irreducible quadratics: the splitting must still see each pair once.
        irr2 = _poly([-4 * d, 0, 1], p)  # roots 2t, -2t
        f = sq
        for factor in (irr, irr, irr2, irr2):
            f = _mul(f, factor, p)
        got = roots_in_fp2(f, field)
        assert got == {(2, 0), (0, 1), (0, p - 1), (0, 2), (0, p - 2)}


def _irreducible_quadratics(p):
    return [_poly([n, -s, 1], p) for s in range(p) for n in range(p)
            if legendre((s * s - 4 * n) % p, p) == -1]


def _products_against_scans(p, k):
    """roots_in_fp2 on every product of k distinct irreducible quadratics, against
    the union of the factors' scanned roots (a product vanishes where a factor does)."""
    field = Fp2Field.of(p)
    scanned = [(q, _scan_roots(q, field)) for q in _irreducible_quadratics(p)]
    for factors in combinations(scanned, k):
        f = _poly([1], p)
        for q, _ in factors:
            f = _mul(f, q, p)
        want = set().union(*(roots for _, roots in factors))
        assert roots_in_fp2(f, field) == want, (p, f)


def test_all_quadratic_pairs_split_at_tiny_p():
    # Every product of two distinct irreducible quadratics: m = 2 < p, so the
    # moment solve takes each one whole.
    for p in (5, 7, 11, 13):
        _products_against_scans(p, 2)


def test_all_quadratic_triples_split_at_tiny_p():
    # Below p = 11 the character-sum argument for ladder termination is
    # vacuous; here the moment solve takes every node.
    for p in (5, 7):
        _products_against_scans(p, 3)


def _spy_moment_solves(monkeypatch):
    """The factor counts of the nodes the moment solve is called on."""
    sizes = []
    real = fppoly._split_by_moments

    def spy(h, xp_h, p):
        sizes.append((len(h) - 1) // 2)
        return real(h, xp_h, p)

    monkeypatch.setattr(fppoly, "_split_by_moments", spy)
    return sizes


def test_all_quadratic_quadruples_split_at_p5(monkeypatch):
    # At p = 5 each trace belongs to exactly two irreducible quadratics, so
    # four factors always share a trace: the moment solve finds those norms
    # as the roots of a second Newton polynomial.
    sizes = _spy_moment_solves(monkeypatch)
    _products_against_scans(5, 4)
    assert sizes and set(sizes) == {4}


def test_all_quadratic_quintuples_take_the_ladder_at_p5(monkeypatch):
    # m = 5 = p: Newton's identities would divide by p, so every node of five
    # factors takes a ladder step and only its children reach the moment solve.
    sizes = _spy_moment_solves(monkeypatch)
    _products_against_scans(5, 5)
    assert sizes and max(sizes) < 5


def _random_irreducible(rng, p, s=None, n=None):
    """(s, n) with x^2 - s x + n irreducible, drawing whichever is not given."""
    while True:
        s_ = rng.randrange(p) if s is None else s
        n_ = rng.randrange(p) if n is None else n
        if legendre(s_ * s_ - 4 * n_, p) == -1:
            return s_, n_


def test_random_quadratic_pairs_split():
    # Pairs with distinct traces and norms, with equal traces (x + x^p is
    # constant) and with equal norms; the moment solve takes them at p = 997
    # and the ladder at p = 2^31 - 1.  Four distinct roots, two of each
    # factor, are the whole root set.
    rng = random.Random(16)
    for p in (997, _P31):
        field = Fp2Field.of(p)
        for shared in (None, "trace", "norm") * 8:
            s1, n1 = _random_irreducible(rng, p)
            while True:
                s2, n2 = _random_irreducible(rng, p, s=s1 if shared == "trace" else None,
                                             n=n1 if shared == "norm" else None)
                if (s2, n2) != (s1, n1):
                    break
            _check_split(field, [(s1, n1), (s2, n2)])


def _check_split(field, pairs):
    """roots_in_fp2 on the product of the distinct irreducible x^2 - s x + n of
    pairs: 2 m roots, exactly two of them roots of each factor."""
    p = field.p
    factors = [_poly([n, -s, 1], p) for s, n in pairs]
    f = _poly([1], p)
    for q in factors:
        f = _mul(f, q, p)
    got = roots_in_fp2(f, field)
    assert len(got) == 2 * len(pairs), (p, pairs)
    for q in factors:
        assert sum(_eval_pair(q, r, field) == (0, 0) for r in got) == 2, (p, q)


def _node_with_shared_traces_and_norms(rng, p, m):
    """m distinct (s, n) with x^2 - s x + n irreducible: one trace shared by at
    least three factors, one norm shared by at least two, the rest random."""
    pairs = set()
    s0, n0 = _random_irreducible(rng, p)
    while len(pairs) < min(4, m):
        pairs.add(_random_irreducible(rng, p, s=s0))
    while len(pairs) < min(7, m):
        pairs.add(_random_irreducible(rng, p, n=n0))
    while len(pairs) < m:
        pairs.add(_random_irreducible(rng, p))
    return sorted(pairs)


def test_random_nodes_with_shared_traces_and_norms(monkeypatch):
    # Up to the bound the moment solve takes the node whole; above it (and at
    # m >= p) a ladder step comes first and its children are solved by
    # moments.  Above MOMENT_MAX_PRIME the ladder takes every node.
    sizes = _spy_moment_solves(monkeypatch)
    rng = random.Random(18)
    bound = fppoly.MOMENT_MAX_FACTORS
    big = next(p for p in range(fppoly.MOMENT_MAX_PRIME + 1, 2 * fppoly.MOMENT_MAX_PRIME)
               if _is_prime(p))
    for p, m in ((101, 5), (101, 12), (101, 40), (101, 120), (997, 9), (997, 60),
                 (997, bound), (997, bound + 3), (big, 8)):
        sizes.clear()
        _check_split(Fp2Field.of(p), _node_with_shared_traces_and_norms(rng, p, m))
        if p > fppoly.MOMENT_MAX_PRIME:
            assert sizes == [], (p, m)
        elif m < p and m <= bound:
            assert sizes == [m], (p, m)
        else:
            assert sizes and max(sizes) < m, (p, m)


def _mutant(right, wrong):
    """A copy of fppoly with the one occurrence of right replaced by wrong."""
    src = inspect.getsource(fppoly)
    assert src.count(right) == 1
    mutant = types.ModuleType("superspecial.fppoly_mutant")
    mutant.__package__ = "superspecial"
    exec(compile(src.replace(right, wrong), fppoly.__file__, "exec"), mutant.__dict__)
    return mutant


def test_moment_solve_check_catches_a_wrong_pairing():
    # A copy of fppoly whose moment solve pairs each single trace with another
    # trace's norm is stopped by the check that the factors multiply back.
    mutant = _mutant("zip(traces.tolist(), mult.tolist(), norms.tolist())",
                     "zip(traces.tolist(), mult.tolist(), np.roll(norms, 1).tolist())")
    p = 997
    field = Fp2Field.of(p)
    rng = random.Random(17)
    pairs = {}
    while len(pairs) < 6:
        s, n = _random_irreducible(rng, p)
        pairs[s] = n  # distinct traces: every multiplicity is 1
    f = _poly([1], p)
    for s, n in pairs.items():
        f = _mul(f, _poly([n, -s, 1], p), p)
    with pytest.raises(RuntimeError, match="moment solve failed on the node .*multiply back"):
        mutant.roots_in_fp2(f, field)
    assert len(roots_in_fp2(f, field)) == 12


def test_moment_solve_check_catches_unsubtracted_single_traces():
    # A copy of fppoly that solves the shared traces' norm moments without
    # taking off the single traces' known terms finds wrong norms for them,
    # and one of the solve's checks stops it.
    mutant = _mutant("moments(norm_power, len(open_traces)) - single_powers @ known",
                     "moments(norm_power, len(open_traces))")
    p = 997
    field = Fp2Field.of(p)
    pairs = _node_with_shared_traces_and_norms(random.Random(20), p, 12)
    f = _poly([1], p)
    for s, n in pairs:
        f = _mul(f, _poly([n, -s, 1], p), p)
    with pytest.raises(RuntimeError, match="moment solve failed on the node "):
        mutant.roots_in_fp2(f, field)
    _check_split(field, pairs)


def test_norm_powers_after_the_first_cost_one_mulmod_each(monkeypatch):
    # m = 40 factors at p = 997: one trace shared by mu = 5 factors and 35 more
    # traces of one factor each, so D = 36 distinct traces, more than
    # r = isqrt(m) + 1 = 7.  After the first norm power only the shared trace
    # is open, so each later power l costs the one mulmod for N^l; the moments
    # of all D traces would add ceil(D / r) - 1 = 5 giant steps per power.
    p, m, mu = 997, 40, 5
    rng = random.Random(19)
    s0, _ = _random_irreducible(rng, p)
    pairs = set()
    while len(pairs) < mu:
        pairs.add(_random_irreducible(rng, p, s=s0))
    traces = {s0}
    while len(pairs) < m:
        s, n = _random_irreducible(rng, p)
        if s not in traces:
            traces.add(s)
            pairs.add((s, n))
    h = _poly([1], p)
    for s, n in pairs:
        h = _mul(h, _poly([n, -s, 1], p), p)
    xp = _Modulus(h, p).powmod(_poly([0, 1], p), p)
    calls = []
    real = _Modulus.mulmod

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(_Modulus, "mulmod", counting)
    got = fppoly._split_by_moments(h, xp, p)
    assert sorted((-B % p, C) for B, C in got) == sorted(pairs)
    r = isqrt(m) + 1
    D = len(traces)
    assert D > r

    def giant_steps(count):
        return -(-count // r) - 1

    # Baby steps S^2..S^r, the trace power sums, the first norm power, then
    # one mulmod for each of the powers 2..mu.
    assert len(calls) == (r - 1) + giant_steps(m + 1) + giant_steps(D) + (mu - 1)


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


def _horner_roots(f, p):
    """The residues at which integer Horner evaluation of f vanishes."""
    roots = []
    for x in range(p):
        value = 0
        for c in f[::-1]:
            value = (value * x + int(c)) % p
        if value == 0:
            roots.append(x)
    return roots


def test_evaluate_matches_numpy_scan():
    # Integer Horner at every residue against the blocked prime-field scan.
    # Degrees 0..40 cross every block edge B^2 of B = isqrt(deg) + 1 up to
    # B = 7; each polynomial has up to five planted roots, so the scan finds
    # roots as well as rules them out.
    rng = random.Random(21)
    for p in (5, 7, 97):
        assert roots_in_prime_field(np.zeros(0, dtype=np.int64), p) == list(range(p))
        for deg in range(41):
            k = rng.randrange(min(deg, 5) + 1)
            f = _poly([rng.randrange(p) for _ in range(deg - k)] + [rng.randrange(1, p)], p)
            for _ in range(k):
                f = _mul(f, _poly([-rng.randrange(p), 1], p), p)
            assert len(f) == deg + 1
            assert roots_in_prime_field(f, p) == _horner_roots(f, p), (p, f)


def test_prime_field_scan_finds_roots_on_both_sides_of_every_chunk_boundary():
    # Roots at 0, at p - 1 and on both sides of each chunk edge, times an
    # irreducible quadratic; the last chunk holds fewer residues than the rest.
    p = 999983
    _, rows = _scan_layout(13)  # degree 12: the planted roots and the quadratic
    planted = sorted({0, p - 1} | {e + side for e in range(rows, p, rows) for side in (-1, 0)})
    s, n = _random_irreducible(random.Random(22), p)
    f = _poly([n, -s, 1], p)
    for r in planted:
        f = _mul(f, _poly([-r, 1], p), p)
    assert len(f) == 13 and p // rows >= 2 and p % rows
    assert roots_in_prime_field(f, p) == planted


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_prime_field_scan_peak_stays_per_chunk():
    # A degree-300 scan at p = 999983 over the whole grid at once would hold
    # a 19 x p power table and 17 x p block values, about 280 MB; chunks of
    # PRIME_SCAN_MAX // (B + 1) residues keep each below 8 MB.
    code = (
        "import numpy as np\n"
        "from superspecial.fppoly import roots_in_prime_field\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith(key))\n"
        "f = np.random.default_rng(0).integers(1, 999983, 301)\n"
        "hwm = status('VmHWM:')\n"
        "roots_in_prime_field(f, 999983)\n"
        "print(status('VmHWM:') - hwm)\n"
    )
    src = os.path.dirname(os.path.dirname(fppoly.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 << 20


def test_fp_roots_take_one_gcd_and_no_schoolbook_division(monkeypatch):
    # The scan of g = gcd(f, x^(p^2) - x) finds the roots in F_p; a Newton
    # quotient divides them off, with no gcd against x^p - x.
    counts = {"_gcd": 0, "_divmod": 0}
    for name in counts:
        def spy(*args, _name=name, _real=getattr(fppoly, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(fppoly, name, spy)
    primes = [p for p in range(5, 201) if _is_prime(p)]
    for p in primes:
        field = Fp2Field.of(p)
        before = counts["_gcd"]
        got = roots_in_fp2(hasse_poly(p), field)
        assert len(got) == (p - 1) // 2, p
        assert counts["_gcd"] - before == 1, p
    assert counts["_divmod"] == 0


def test_division_check_catches_a_wrong_prime_field_scan(monkeypatch):
    # A scan of g that drops one of its roots in F_p or adds a residue that
    # is none leaves g / prod (x - r) of odd degree; one that swaps a root for
    # a non-root leaves it inexact.
    p = 97
    field = Fp2Field.of(p)
    rng = random.Random(23)
    f = _poly([1], p)
    for r in rng.sample(range(p), 4):
        f = _mul(f, _poly([-r, 1], p), p)
    quads = set()
    while len(quads) < 3:
        quads.add(_random_irreducible(rng, p))
    for s, n in quads:
        f = _mul(f, _poly([n, -s, 1], p), p)
    real = fppoly.roots_in_prime_field
    def stranger(roots):
        return min(set(range(p)) - set(roots))

    mutants = (lambda roots: roots[1:],
               lambda roots: sorted(roots + [stranger(roots)]),
               lambda roots: sorted(roots[1:] + [stranger(roots)]))
    for mutate in mutants:
        with monkeypatch.context() as mp:
            mp.setattr(fppoly, "roots_in_prime_field", lambda g, q: mutate(real(g, q)))
            with pytest.raises(RuntimeError, match="do not divide it into irreducible quadratics"):
                roots_in_fp2(f, field)
    assert len(roots_in_fp2(f, field)) == 4 + 2 * len(quads)


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
