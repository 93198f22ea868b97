import hashlib
import json
import random
from fractions import Fraction

import pytest

from superspecial import cosettrace
from superspecial.cosettrace import (InvariantViolation, ModelSpecError,
                                     build_model, delta_sets, double_cosets,
                                     factored_trace, involution_census,
                                     kernel_trace, orbital_trace,
                                     parse_model_spec, random_model,
                                     report_to_dict, volume_identity_check,
                                     with_trivial_k)
from superspecial.finitegroup import group_from_kind
from superspecial.sslocus import census


def _s3():
    return group_from_kind("sym:3")


def test_build_model_examples():
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 0, 2)]], [], S3.identity)
    assert len(m.gamma) == 2 and len(m.k) == 1

    Z4 = group_from_kind("cyclic:4")
    m = build_model(Z4, [2], [], 2)
    assert m.gamma == (0, 2) and m.k == (0,)

    with pytest.raises(ModelSpecError):
        # (13)(12)(13) = (23) escapes K = <(12)>
        build_model(S3, [], [S3.index[(1, 0, 2)]], S3.index[(2, 1, 0)])
    with pytest.raises(ModelSpecError):
        build_model(S3, [99], [], S3.identity)


def test_kernel_trace_examples():
    S3 = _s3()
    assert kernel_trace(build_model(S3, [], [], S3.identity)) == 6
    assert kernel_trace(build_model(S3, [], [], S3.index[(1, 0, 2)])) == 0
    Z4 = group_from_kind("cyclic:4")
    assert kernel_trace(build_model(Z4, [2], [], 2)) == 2


def test_double_coset_space():
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 2, 0)]], [], S3.identity)
    space = double_cosets(m)
    assert len(space.representatives) == 2
    assert sorted(space.hecke_action.values()) == sorted(space.representatives)
    # identity translation fixes everything
    assert all(space.hecke_action[r] == r for r in space.representatives)


def test_orbital_trace_z4_example():
    Z4 = group_from_kind("cyclic:4")
    m = build_model(Z4, [2], [], 2)
    report = orbital_trace(m)
    assert report.kernel_trace == 2
    assert report.orbital_trace == Fraction(2)
    # only the class gamma=2 contributes, with term a * O = 2
    assert len(report.orbital_terms) == 1
    term = report.orbital_terms[0]
    assert term.gamma_rep == 2
    assert term.a_value * term.orbital_integral == 2


def test_orbital_identity_operator():
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 2, 0)]], [], S3.identity)
    report = orbital_trace(m)
    assert report.orbital_trace == report.kernel_trace == 2  # = #(Gamma\\G)


def test_delta_sets_examples():
    Z4 = group_from_kind("cyclic:4")
    m = build_model(Z4, [2], [], 2)
    d_k, d_f = delta_sets(m)
    assert d_k == d_f == (2,)

    # K = G absorbs everything: pi*K = G meets every class of Gamma
    S3 = _s3()
    all_gens = [S3.index[(1, 0, 2)], S3.index[(1, 2, 0)]]
    m = build_model(S3, [S3.index[(1, 0, 2)]], all_gens, S3.identity)
    d_k, d_f = delta_sets(m)
    assert len(d_k) == 2  # both classes of the order-2 Gamma meet G

    # K trivial forces delta_K = delta_f
    for pi in range(6):
        m = build_model(S3, [S3.index[(1, 0, 2)]], [], pi)
        d_k, d_f = delta_sets(m)
        assert d_k == d_f


def test_delta_f_subset_delta_k():
    rng = random.Random(21)
    for _ in range(40):
        m = random_model(rng)
        d_k, d_f = delta_sets(m)
        assert set(d_f) <= set(d_k)


def test_factored_examples():
    Z4 = group_from_kind("cyclic:4")
    value, diag = factored_trace(build_model(Z4, [2], [], 2))
    assert value == 2 and diag == ""

    # pi = e, K trivial: |delta_f| = 1 and value = #cosets
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 2, 0)]], [], S3.identity)
    value, diag = factored_trace(m)
    assert value == 2
    report = orbital_trace(m)
    assert report.delta_f == (S3.identity,)


def test_factored_collapse_obstruction_reported():
    # Gamma = <(01)>, pi = (02): pi is G-conjugate into Gamma but the rational
    # centralizers differ, so the common-term factorization cannot apply.
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 0, 2)]], [], S3.index[(2, 1, 0)])
    report = orbital_trace(m)
    assert report.kernel_trace == 1 == report.orbital_trace
    assert report.factored_value is None
    assert "rational-centralizer" in report.factored_diagnostic
    value, diag = factored_trace(m)
    assert value is None and diag == report.factored_diagnostic


def test_factored_absent_when_level_too_coarse():
    # With K = G, delta_K strictly contains delta_f and no factored value exists.
    S3 = _s3()
    gens = [S3.index[(1, 0, 2)], S3.index[(1, 2, 0)]]
    m = build_model(S3, [S3.index[(1, 0, 2)]], gens, S3.identity)
    value, diag = factored_trace(m)
    assert value is None
    assert "not small enough" in diag


def test_factored_with_multiclass_delta_f():
    # Gamma = <(01)(23)?> no: use the V4-style example where two Gamma-classes
    # are G-fused with equal centralizer sizes; the |delta_f| factor exceeds 1
    # and the factored value still matches the kernel trace.
    S4 = group_from_kind("sym:4")
    g1 = S4.index[(1, 0, 2, 3)]  # (01)
    g2 = S4.index[(0, 1, 3, 2)]  # (23)
    m = build_model(S4, [g1, g2], [], g1)
    report = orbital_trace(m)
    assert len(report.delta_f) == 2
    assert report.factored_value == report.kernel_trace


def test_trace_equality_on_seeded_models():
    rng = random.Random(20)
    for _ in range(100):
        m = random_model(rng)
        report = orbital_trace(m)  # internal cross-checks both orbital routes
        assert report.orbital_trace == report.kernel_trace


def test_volume_identities():
    rng = random.Random(22)
    S4 = group_from_kind("sym:4")
    m = build_model(S4, [S4.index[(1, 0, 2, 3)]], [S4.index[(0, 1, 3, 2)]],
                    S4.identity)
    # a = e specialization and central gamma
    assert volume_identity_check(m, m.gamma[1], S4.identity)
    assert volume_identity_check(m, S4.identity, 7)
    for _ in range(50):
        gamma = m.gamma[rng.randrange(len(m.gamma))]
        a = rng.randrange(S4.n)
        assert volume_identity_check(m, gamma, a)


def test_involution_census_examples():
    assert involution_census(["a", "b", "c"],
                             lambda x: {"a": "b", "b": "a", "c": "c"}[x]) == (3, 1, 2)
    assert involution_census(range(7), lambda x: x) == (7, 7, 7)
    c = census(11)
    assert involution_census(range(c.H), lambda i: c.involution[i]) == (2, 2, 2)


def test_involution_census_rejects_non_involution():
    with pytest.raises(ValueError):
        involution_census([0, 1, 2], lambda x: (x + 1) % 3)


def test_model_spec_parsing():
    spec = {"group": "sym:3", "gamma": [[1, 0, 2]], "k": [], "pi": [0, 1, 2]}
    m = parse_model_spec(json.dumps(spec))
    assert m.group.kind == "sym:3"
    assert kernel_trace(m) == 3

    with pytest.raises(ModelSpecError) as err:
        parse_model_spec("{not json")
    assert "line 1" in str(err.value)
    with pytest.raises(ModelSpecError):
        parse_model_spec(json.dumps({"group": "sym:3"}))
    with pytest.raises(ModelSpecError):
        parse_model_spec(json.dumps({"group": "sym:99", "gamma": [], "k": [], "pi": [0]}))
    with pytest.raises(ModelSpecError):
        parse_model_spec(json.dumps(
            {"group": "sym:3", "gamma": [[0, 0, 1]], "k": [], "pi": [0, 1, 2]}))


def test_report_round_trip():
    spec = {"group": "cyclic:4", "gamma": [2], "k": [], "pi": 2}
    m = parse_model_spec(json.dumps(spec))
    report = orbital_trace(m)
    payload = report_to_dict(m, report)
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert json.loads(text) == payload
    assert Fraction(int(payload["orbital_trace"]["num"]),
                    int(payload["orbital_trace"]["den"])) == report.orbital_trace


def test_shrinking_chain_monotone():
    G = group_from_kind("gl2:4")
    full = list(range(G.n))
    red2 = [i for i, el in enumerate(G.elements)
            if all((el[k] - (1 if k in (0, 3) else 0)) % 2 == 0 for k in range(4))]
    rng = random.Random(23)
    gamma_gens = [rng.randrange(G.n) for _ in range(2)]
    pi = rng.randrange(G.n)
    deltas = []
    for level in (full, red2, [G.identity]):
        m = build_model(G, gamma_gens, level, pi)
        d_k, d_f = delta_sets(m)
        deltas.append((set(d_k), set(d_f)))
    assert deltas[2][0] == deltas[2][1]  # stabilized at delta_f
    assert deltas[2][0] <= deltas[1][0] <= deltas[0][0]


def test_with_trivial_k():
    rng = random.Random(24)
    m = random_model(rng)
    mt = with_trivial_k(m)
    assert mt.k == (mt.group.identity,)
    assert mt.gamma == m.gamma and mt.pi == m.pi


def _brute_double_cosets(m):
    """Oracle: the partition {Gamma x K} built element by element."""
    G = m.group
    cosets = []
    seen = set()
    for x in range(G.n):
        if x in seen:
            continue
        coset = frozenset(G.mul(G.mul(a, x), k) for a in m.gamma for k in m.k)
        seen.update(coset)
        cosets.append(coset)
    return cosets


def test_double_cosets_against_brute_force():
    rng = random.Random(25)
    small = tuple(k for k in ("cyclic:6", "cyclic:12", "sym:3", "sym:4", "gl2:2", "gl2:3"))
    for _ in range(25):
        m = random_model(rng, small)
        got = double_cosets(m)
        want = _brute_double_cosets(m)
        assert len(got.representatives) == len(want)
        for coset in want:
            reps = {int(got.rep_of[x]) for x in coset}
            assert len(reps) == 1  # the partition agrees
            assert min(coset) in reps


def test_kernel_trace_against_brute_force():
    rng = random.Random(26)
    small = tuple(k for k in ("cyclic:8", "sym:3", "sym:4", "gl2:2", "gl2:3"))
    for _ in range(25):
        m = random_model(rng, small)
        cosets = _brute_double_cosets(m)
        by_element = {}
        for coset in cosets:
            for x in coset:
                by_element[x] = coset
        fixed = sum(1 for coset in cosets
                    if by_element[m.group.mul(min(coset), m.pi)] is coset)
        assert kernel_trace(m) == fixed


def test_involutive_translation_recovers_type_number():
    # When pi^2 lies in K the translation [x] -> [x pi] is an involution on
    # the double cosets; its fixed-point count (the kernel trace) then ties
    # the coset count and orbit count together as trace = 2T - H, and the
    # type-number recovery inverts it.
    from superspecial.massform import recover_type_number

    rng = random.Random(27)
    checked = 0
    while checked < 30:
        m = random_model(rng)
        pi_sq = m.group.mul(m.pi, m.pi)
        if pi_sq not in set(m.k):
            continue
        checked += 1
        space = double_cosets(m)
        act = space.hecke_action
        assert all(act[act[r]] == r for r in space.representatives)
        h, fixed, orbits = involution_census(space.representatives, act.__getitem__)
        trace = kernel_trace(m)
        assert fixed == trace
        assert fixed == 2 * orbits - h
        assert recover_type_number(h, trace) == orbits


def test_gsp2_model_surface():
    # The symplectic-similitude family is part of the model-spec surface.
    spec = {
        "group": "gsp2:2",
        "gamma": [[[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]],
        "k": [],
        "pi": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }
    m = parse_model_spec(json.dumps(spec))
    assert m.group.kind == "gsp2:2" and m.group.n == 720
    report = orbital_trace(m)
    assert report.orbital_trace == report.kernel_trace == 360  # |Gamma| = 2
    value, _ = factored_trace(m)
    assert value == 360


# sha256 of _golden_records over the 100 seed-42 models (the ``verify`` draw,
# model 95 included), recorded from the two-pass implementation before the
# orbital side was folded into one walk over the Gamma-classes.
GOLDEN_SEED42_SHA256 = "f35e26a5e125355ec7c2df76db15c23cb9ebff4df380c02651092507a8357567"


def _golden_records(models):
    records = []
    for m in models:
        report = orbital_trace(m)
        value, diag = factored_trace(with_trivial_k(m))
        records.append({"report": report_to_dict(m, report),
                        "delta_sets": [list(s) for s in delta_sets(m)],
                        "factored_trivial_k": [None if value is None else str(value), diag]})
    return records


def test_trace_outputs_golden(seeded_models_100):
    text = json.dumps(_golden_records(seeded_models_100), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SEED42_SHA256
    for m in seeded_models_100:
        report = orbital_trace(m)
        assert (report.delta_K, report.delta_f) == delta_sets(m)
        assert (report.factored_value, report.factored_diagnostic) == factored_trace(m)


def test_orbital_trace_rejects_coset_sum_mismatch(monkeypatch):
    real = cosettrace._orbital_by_cosets
    monkeypatch.setattr(cosettrace, "_orbital_by_cosets",
                        lambda *args: real(*args) + Fraction(1, 7))
    Z4 = group_from_kind("cyclic:4")
    with pytest.raises(InvariantViolation, match="orbital integral mismatch at class 0"):
        orbital_trace(build_model(Z4, [2], [], 2))


def test_orbital_trace_rejects_kernel_mismatch(monkeypatch):
    real = cosettrace.kernel_trace
    monkeypatch.setattr(cosettrace, "kernel_trace", lambda m: real(m) + 1)
    Z4 = group_from_kind("cyclic:4")
    with pytest.raises(InvariantViolation, match="trace formula failed: orbital 2 != kernel 3"):
        orbital_trace(build_model(Z4, [2], [], 2))
