"""The acceptance suite: every exit criterion, exact arithmetic, zero tolerance.

Each criterion function is pure given its precomputed inputs and returns a
CriterionResult; run_all() orchestrates the shared computations (the census
sweep and the seeded random models) so the CLI `verify` command and the pytest
suite exercise identical code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import cosettrace, massform, sslocus
from .cosettrace import FiniteGroupModel
from .ffield import is_prime
from .finitegroup import GroupConstructionError, group_from_kind
from .massform import (class_number_level, gsp_order,
                       nonprincipal_class_number_level, principal_mass)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str = ""


def _result(number: int, name: str, failures: list[str]) -> CriterionResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... ({len(failures)} failures total)"
        return CriterionResult(number, name, False, shown)
    return CriterionResult(number, name, True)


# The census criteria run on the primes VERIFY_PMIN..pmax (criterion 2's
# class-number formula holds only for p > 3), so a smaller pmax checks none.
VERIFY_PMIN = 5


def sweep_censuses(pmax: int = 1000) -> list[sslocus.Census]:
    sslocus.check_census_cost(pmax)  # before hours of censuses below the ceiling
    return [sslocus.census(p) for p in range(VERIFY_PMIN, pmax + 1) if is_prime(p)]


def criterion_1_geometric_identity(censuses) -> CriterionResult:
    """F = 2T - H.  Census.validate's scan pairs every point that is not
    fixed, so T = (H + F)/2 and no Census reaches the failure branch; it stays
    a restatement until ROADMAP item 3's F = H(4p)/2 oracle replaces it."""
    failures = [f"p={c.p}: F={c.F} != 2T-H={2 * c.T - c.H}"
                for c in censuses if c.F != 2 * c.T - c.H]
    return _result(1, "geometric identity F = 2T - H across the sweep", failures)


def criterion_2_class_number_oracle(censuses) -> CriterionResult:
    """H against sslocus.class_number_formula.  Census(...) already applied
    this formula to every census, so no Census reaches the failure branch;
    it stays a restatement until ROADMAP item 11 replaces it."""
    failures = [f"p={c.p}: H={c.H} != {sslocus.class_number_formula(c.p)}"
                for c in censuses if c.H != sslocus.class_number_formula(c.p)]
    return _result(2, "class number matches floor(p/12) + eps(p mod 12)", failures)


def criterion_3_mass_consistency(censuses) -> CriterionResult:
    failures = []
    for c in censuses:
        geometric = sslocus.eichler_mass(c)
        arithmetic = principal_mass(1, c.p)
        expected = Fraction(c.p - 1, 24)
        if not (geometric == arithmetic == expected):
            failures.append(f"p={c.p}: {geometric} vs {arithmetic} vs {expected}")
    return _result(3, "mass consistency: geometric = arithmetic = (p-1)/24", failures)


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def criterion_4_integrality() -> CriterionResult:
    failures = []
    for N in range(3, 9):
        primes = [q for q in _FIRST_PRIMES if gcd(q, N) == 1][:10]
        for p in primes:
            # Each call raises IntegralityError unless its value is a positive integer.
            for level, genera in ((class_number_level, (1, 2, 3, 4)),
                                  (nonprincipal_class_number_level, (2, 4))):
                for g in genera:
                    try:
                        level(g, p, N)
                    except massform.IntegralityError as exc:
                        failures.append(str(exc))
    return _result(4, "integrality of H_N and H'_N over the (g, N, p) grid", failures)


def criterion_5_spot_values() -> CriterionResult:
    spots = (
        # 48 * (5-1)/24 = 8: |GL2(Z/3)| = (9-1)(9-3) = 48 by counting bases of F_3^2.
        ("H_3(1,5)", class_number_level(1, 5, 3), 8),
        # 48 * (11-1)/24 = 20.
        ("H_3(1,11)", class_number_level(1, 11, 3), 20),
        # gsp_order(2,3) = 2*3^4*8*80 = 103680; mass part (2^2-1)/5760 = 1/1920;
        # 103680/1920 = 54.
        ("H'_3(2,2)", nonprincipal_class_number_level(2, 2, 3), 54),
        # (2-1)*2^4*(2^2-1)(2^4-1) = 16*3*15 = 720, cross-checked against the
        # exhaustive gsp2:2 element enumeration below.
        ("gsp_order(2,2)", gsp_order(2, 2), 720),
    )
    failures = [f"{name} = {value} != {expected}"
                for name, value, expected in spots if value != expected]
    # The generators must close to gsp_order elements, or the build raises.
    for kind in ("gsp2:2", "gl2:3"):
        try:
            group_from_kind(kind)
        except GroupConstructionError as exc:
            failures.append(str(exc))
    return _result(5, "spot values: H_3(1,5)=8, H_3(1,11)=20, H'_3(2,2)=54, |GSp4(Z/2)|=720",
                   failures)


def seeded_models(seed: int, trials: int) -> list[FiniteGroupModel]:
    rng = random.Random(seed)
    return [cosettrace.random_model(rng) for _ in range(trials)]


def criterion_6_trace_equality(models) -> CriterionResult:
    failures = []
    for i, model in enumerate(models):
        try:
            cosettrace.orbital_trace(model)  # raises unless kernel = orbital, by both routes
        except cosettrace.InvariantViolation as exc:
            failures.append(f"model {i} ({model.group.kind}): {exc}")
    return _result(6, "trace formula: kernel = orbital on seeded random models", failures)


# (group kind, generator literals of the levels strictly between G and {e});
# each chain of level subgroups runs G > ... > {e}, every level is normal in
# G, so every pi normalizes the whole chain.
_CHAIN_SPECS = (
    # Gamma(2) = ker(GL2(Z/4) -> GL2(Z/2)) = <I + 2 E_ij>.
    ("gl2:4", ([[[3, 0], [0, 1]], [[1, 2], [0, 1]], [[1, 0], [2, 1]], [[1, 0], [0, 3]]],)),
    ("cyclic:24", ([2], [4], [8])),
    # A4 = <(0 1 2), (1 2 3)>, V4 = <(0 1)(2 3), (0 2)(1 3)>.
    ("sym:4", ([[1, 2, 0, 3], [0, 2, 3, 1]], [[1, 0, 3, 2], [2, 3, 0, 1]])),
)


def criterion_7_factorization(models, seed: int) -> CriterionResult:
    failures = []
    for i, model in enumerate(models):
        small = cosettrace.with_trivial_k(model)
        # A returned value equals the kernel; the diagnostic names delta_K != delta_f.
        value, diagnostic = cosettrace.factored_trace(small)
        if value is None:
            failures.append(
                f"model {i} ({model.group.kind}): factored form unavailable or"
                f" unequal to kernel {cosettrace.kernel_trace(small)} ({diagnostic})")
    rng = random.Random(seed + 1)
    for kind, middle in _CHAIN_SPECS:
        group = group_from_kind(kind)
        levels = [group.gens, *([group.index_of_literal(x) for x in lits] for lits in middle), []]
        gamma_gens = [rng.randrange(group.n) for _ in range(2)]
        pi = rng.randrange(group.n)  # all chain levels are normal subgroups
        ks, deltas = [], []
        final_df = None
        for level in levels:
            m = cosettrace.build_model(group, gamma_gens, level, pi)
            d_k, d_f = cosettrace.delta_sets(m)
            ks.append(set(m.k))
            deltas.append(set(d_k))
            final_df = set(d_f)
        for i in range(1, len(levels)):
            if not ks[i] <= ks[i - 1]:
                failures.append(f"chain {kind}: level {i} is not inside level {i - 1}")
            if not deltas[i] <= deltas[i - 1]:
                failures.append(f"chain {kind}: delta_K grew as K shrank")
        if deltas[-1] != final_df:
            failures.append(f"chain {kind}: delta_K did not stabilize at delta_f")
    return _result(7, "factored trace with trivial K; delta chains stabilize", failures)


def criterion_8_volume_identities(seed: int) -> CriterionResult:
    failures = []
    rng = random.Random(seed + 2)
    for family in ("cyclic", "sym", "gl2"):
        kinds = cosettrace.trial_kinds(family)
        for check in range(50):
            if check % 10 == 0:
                model = cosettrace.random_model(rng, kinds)
            gamma = model.gamma[rng.randrange(len(model.gamma))]
            a = rng.randrange(model.group.n)
            if not cosettrace.volume_identity_check(model, gamma, a):
                failures.append(
                    f"{model.group.kind}: volume identity failed at gamma={gamma}, a={a}")
    return _result(8, "volume identities on random (gamma, a) per family", failures)


def criterion_9_involution_universality(censuses, seed: int) -> CriterionResult:
    """F = 2T - H on random involutions; each census's (H, F, T) against its
    involution's: two counts from different data of one j-set, the stored
    involution's orbits and the b = 0 points of Census.validate's scan, so it
    checks no count against an independent source (ROADMAP items 9, 15)."""
    failures = []
    rng = random.Random(seed + 3)
    for trial in range(1000):
        size = rng.randrange(0, 41)
        inv = list(range(size))
        shuffled = inv[:]
        rng.shuffle(shuffled)
        i = 0
        while i < size:
            if i + 1 < size and rng.random() < 0.6:
                x, y = shuffled[i], shuffled[i + 1]
                inv[x], inv[y] = y, x
                i += 2
            else:
                i += 1
        try:  # raises unless inv is an involution with F = 2T - H
            sslocus.involution_census(inv)
        except sslocus.CensusInvariantError as exc:
            failures.append(f"random involution {trial}: {exc}")
    for c in censuses:
        h, f, t = sslocus.involution_census(c.involution)
        if (h, f, t) != (c.H, c.F, c.T):
            failures.append(f"census p={c.p}: involution census {h, f, t}"
                            f" != {(c.H, c.F, c.T)}")
    return _result(9, "involution census universality and census agreement", failures)


def run_all(pmax: int = 1000, seed: int = 42, trials: int = 100,
            log=None) -> list[CriterionResult]:
    def say(msg):
        if log:
            log(msg)

    say(f"computing censuses for primes 5..{pmax} ...")
    censuses = sweep_censuses(pmax)
    say(f"{len(censuses)} censuses; drawing {trials} random models (seed {seed}) ...")
    models = seeded_models(seed, trials)
    results = [
        criterion_1_geometric_identity(censuses),
        criterion_2_class_number_oracle(censuses),
        criterion_3_mass_consistency(censuses),
        criterion_4_integrality(),
        criterion_5_spot_values(),
        criterion_6_trace_equality(models),
        criterion_7_factorization(models, seed),
        criterion_8_volume_identities(seed),
        criterion_9_involution_universality(censuses, seed),
    ]
    return results
