import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspecial import cosettrace
from superspecial.cosettrace import (COSET_WALK_MIN_ORDER, InvariantViolation,
                                     ModelSpecError, build_model, delta_sets, double_cosets,
                                     factored_trace, kernel_trace, orbital_trace,
                                     parse_model_spec, random_model,
                                     report_to_dict, volume_identity_check,
                                     with_trivial_k)
from superspecial.finitegroup import Group, group_from_kind
from superspecial.sslocus import CensusInvariantError, census, involution_census


def _s3():
    return group_from_kind("sym:3")


def test_build_model_examples():
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 0, 2)]], [], S3.identity)
    assert len(m.gamma) == 2 and len(m.k) == 1

    Z4 = group_from_kind("cyclic:4")
    m = build_model(Z4, [2], [], 2)
    assert np.array_equal(m.gamma, [0, 2]) and np.array_equal(m.k, [0])

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
    # The cap shapes Gamma = K = G: one double coset, every Gamma-class supported.
    for kind in ("cyclic:720", "sym:5"):
        G = group_from_kind(kind)
        m = build_model(G, G.indices.tolist(), G.indices.tolist(), G.identity)
        report = orbital_trace(m)
        assert report.kernel_trace == report.orbital_trace == 1


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


def test_volume_identity_check_can_fail(monkeypatch):
    # A doubled |G_gamma ∩ aKa^{-1}| breaks vol(K) / vol(G_gamma ∩ aKa^{-1}).
    S4 = group_from_kind("sym:4")
    m = build_model(S4, [S4.index[(1, 0, 2, 3)]], [S4.index[(0, 1, 3, 2)]],
                    S4.identity)
    real = cosettrace._meet_conjugate
    monkeypatch.setattr(cosettrace, "_meet_conjugate", lambda *args: 2 * real(*args))
    assert not all(volume_identity_check(m, gamma, a) for gamma in m.gamma for a in range(S4.n))


def test_involution_census_examples():
    assert involution_census([1, 0, 2]) == (3, 1, 2)
    assert involution_census(list(range(7))) == (7, 7, 7)
    assert involution_census([]) == (0, 0, 0)
    assert involution_census(census(11).involution) == (2, 2, 2)
    assert involution_census(census(37).involution) == (3, 1, 2)


def test_involution_census_rejects_non_involution():
    for inv in ([1, 2, 0], [0, 3], [0, -1], [1, 0, 0]):
        with pytest.raises(CensusInvariantError, match="not an involution"):
            involution_census(inv)


def test_model_spec_parsing():
    spec = {"group": "sym:3", "gamma": [[1, 0, 2]], "k": [], "pi": [0, 1, 2]}
    m = parse_model_spec(json.dumps(spec))
    assert m.group.kind == "sym:3"
    assert kernel_trace(m) == 3

    with pytest.raises(ModelSpecError) as err:
        parse_model_spec("{not json")
    assert "line 1" in str(err.value)
    for text in ("[]", "3", "null"):
        with pytest.raises(ModelSpecError, match="model spec must be a JSON object"):
            parse_model_spec(text)
    with pytest.raises(ModelSpecError):
        parse_model_spec(json.dumps({"group": "sym:3"}))
    with pytest.raises(ModelSpecError):
        parse_model_spec(json.dumps({"group": "sym:99", "gamma": [], "k": [], "pi": [0]}))
    with pytest.raises(ModelSpecError):
        parse_model_spec(json.dumps(
            {"group": "sym:3", "gamma": [[0, 0, 1]], "k": [], "pi": [0, 1, 2]}))
    # Element entries are JSON integers in every family: no floats, no booleans.
    for kind, pi in [("sym:3", [1.0, 0.0, 2.0]), ("sym:3", [1, False, 2]),
                     ("gl2:3", [[1, 0], [0, True]]), ("gl2:3", [[1, 0], [0, 1.0]]),
                     ("cyclic:4", 1.0), ("cyclic:4", True), ("cyclic:4", "1")]:
        with pytest.raises(ModelSpecError, match="element entries must be integers"):
            parse_model_spec(json.dumps({"group": kind, "gamma": [], "k": [], "pi": pi}))
    # A literal has its element's shape: a ragged one is not flattened into a
    # gl2:3 element, nor a 2x8 one into a gsp2:2 element.
    for kind, pi, shape in [("gl2:3", [[1], [1, 0, 1]], "[2, 2]"),
                            ("gsp2:2", [[1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1]],
                             "[4, 4]")]:
        with pytest.raises(ModelSpecError, match=rf"{kind}: an element literal has shape "
                                                 rf"{re.escape(shape)}, not"):
            parse_model_spec(json.dumps({"group": kind, "gamma": [], "k": [], "pi": pi}))
    # "gamma" and "k" are arrays: an empty string or object is not Gamma = K = {e}.
    for gamma, k, key in [("", [], "gamma"), ([], {}, "k"), ("", {}, "gamma")]:
        with pytest.raises(ModelSpecError,
                           match=f'model spec "{key}" must be an array of element literals'):
            parse_model_spec(json.dumps({"group": "sym:3", "gamma": gamma, "k": k,
                                         "pi": [0, 1, 2]}))


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


def test_volume_identity_check_refuses_indices_outside_the_group():
    S3 = _s3()
    m = build_model(S3, [S3.index[(1, 0, 2)]], [], S3.identity)
    for gamma, a, bad in [(-1, 0, -1), (0, 6, 6), (6, -7, 6)]:
        with pytest.raises(ModelSpecError,
                           match=f"element index {bad} outside group of order 6"):
            volume_identity_check(m, gamma, a)


def test_gamma_class_counts_match_per_class_conj_vectors():
    # The labelled count of each Gamma-class against the popcount of its hit
    # row x -> [x^{-1} rep x in pi K], its representative against the least
    # element of its Gamma-orbit, and its |C_Gamma(rep)| against the
    # centralizer; every class G-conjugate to pi has the count n_pi.
    rng = random.Random(28)
    models = [random_model(rng, ("sym:4", "sym:5", "gl2:3", "gl2:5")) for _ in range(20)]
    models += [random_model(rng, ("cyclic:12", "cyclic:24")) for _ in range(10)]
    met = 0
    for m in models:
        G = m.group
        gamma = np.array(m.gamma)
        in_pik = np.zeros(G.n, dtype=bool)
        in_pik[[G.mul(m.pi, k) for k in m.k]] = True
        n_pi = np.count_nonzero(in_pik[G.conj_vector(m.pi)])
        reps, counts, meets, c_gamma = (col.tolist() for col in cosettrace._gamma_classes(m))
        labels = [min(G.mul(G.mul(G.inverse(h), g), h) for h in m.gamma) for g in m.gamma]
        assert reps == sorted(set(labels))
        pi_class = {G.mul(G.mul(G.inverse(x), m.pi), x) for x in range(G.n)}
        for rep, count, meet, c_gam in zip(reps, counts, meets, c_gamma):
            assert count == np.count_nonzero(in_pik[G.conj_vector(rep)])
            assert meet == (rep in pi_class)
            assert c_gam == len(G.centralizer(rep, within=gamma))
            if meet:
                assert count == n_pi
                met += 1
    assert met > 20  # the draw is not vacuous


_MODEL_ARRAYS = ("gamma", "k", "k_labels", "gamma_cosets", "class_table")


def _assert_same_model(m, other):
    assert m.group is other.group and m.pi == other.pi and m.c_gamma_pi == other.c_gamma_pi
    for field in _MODEL_ARRAYS:
        assert np.array_equal(getattr(m, field), getattr(other, field)), field


def test_random_model_matches_build_model():
    # random_model hands its closed subgroups to the constructor; closing
    # them again must give the same model.
    rng = random.Random(30)
    for family in cosettrace.TRIAL_FAMILIES:
        for _ in range(2):
            m = random_model(rng, (family,))
            _assert_same_model(m, build_model(m.group, m.gamma, m.k, m.pi))


def test_orbital_trace_rejects_merged_class_labels():
    # Labels that merge the identity's G-class with the transpositions' give
    # the identity 6 // 4 * 1 = 1 hit, where its support has 6 K-cosets.
    S3 = group_from_kind.__wrapped__("sym:3")  # a fresh group, off the memo
    labels = S3.class_labels.copy()
    labels[labels == labels[S3.index[(1, 0, 2)]]] = S3.identity
    S3.class_labels = labels  # shadows the cached property on this instance
    m = build_model(S3, [S3.index[(1, 0, 2)], S3.index[(1, 2, 0)]], [], S3.identity)
    with pytest.raises(InvariantViolation,
                       match="hit count mismatch at class 0: 6 K-cosets of 1 elements vs 1 hits"):
        orbital_trace(m)


def test_with_trivial_k():
    rng = random.Random(24)
    for _ in range(12):
        m = random_model(rng)
        mt = with_trivial_k(m)
        assert np.array_equal(mt.k, [mt.group.identity])
        assert np.array_equal(mt.gamma, m.gamma) and mt.pi == m.pi
        assert np.array_equal(mt.k_labels, mt.group.indices)
        assert mt.class_table is m.class_table and mt.c_gamma_pi == m.c_gamma_pi
        assert mt.gamma_cosets is m.gamma_cosets
        _assert_same_model(mt, build_model(m.group, m.gamma, [], m.pi))


def test_model_arrays_are_read_only():
    S3 = _s3()
    models = [build_model(S3, [S3.index[(1, 0, 2)]], [], S3.identity),
              random_model(random.Random(32)),
              parse_model_spec('{"group": "sym:4", "gamma": [[1, 0, 2, 3]], '
                               '"k": [[1, 0, 3, 2]], "pi": [0, 1, 2, 3]}')]
    for m in [*models, *map(with_trivial_k, models)]:
        for field in _MODEL_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(m, field)[0] = 0


_SMALL_KINDS = ("cyclic:6", "cyclic:12", "sym:3", "sym:4", "gl2:2", "gl2:3")


def _brute_model_data(m):
    """Oracle for the build-time data, from products and conjugates one
    element at a time: (k_labels, gamma_cosets rows, class table rows,
    |C_Gamma(pi)|)."""
    G = m.group
    gamma, k = m.gamma.tolist(), m.k.tolist()

    def conj_min(x, over):
        return min(G.mul(G.mul(G.inverse(g), x), g) for g in over)

    def commuting(x, over):
        return sum(G.mul(x, g) == G.mul(g, x) for g in over)

    k_labels = [min(G.mul(x, h) for h in k) for x in range(G.n)]
    # The right cosets Gamma x, by their least elements x, entries in Gamma's order.
    gamma_cosets = [[G.mul(g, x) for g in gamma] for x in range(G.n)
                    if min(G.mul(g, x) for g in gamma) == x]
    reps = sorted({conj_min(x, gamma) for x in gamma})
    table = [reps, [conj_min(r, range(G.n)) for r in reps],
             [commuting(r, gamma) for r in reps], [commuting(r, range(G.n)) for r in reps]]
    return k_labels, gamma_cosets, table, commuting(m.pi, gamma)


def test_model_data_against_brute_force():
    # Every way to build a model: build_model, random_model (below and above
    # the walk's crossover), parse_model_spec and with_trivial_k.
    S3, S4 = _s3(), group_from_kind("sym:4")
    models = [build_model(S3, [S3.index[(1, 2, 0)]], [], S3.identity),
              build_model(S4, [S4.index[(1, 2, 3, 0)]], [S4.index[(1, 0, 3, 2)]],
                          S4.index[(2, 3, 0, 1)]),
              _whole_group_model("sym:5"),
              parse_model_spec('{"group": "gl2:3", "gamma": [[[1, 1], [0, 1]]], '
                               '"k": [[[2, 0], [0, 2]]], "pi": [[0, 1], [1, 0]]}')]
    rng = random.Random(34)
    models += [random_model(rng, _SMALL_KINDS) for _ in range(20)]
    models += [random_model(rng, ("sym:5", "gl2:5")) for _ in range(4)]
    walked = walked_gamma = 0
    for m in [*models, *map(with_trivial_k, models)]:
        k_labels, gamma_cosets, table, c_gamma_pi = _brute_model_data(m)
        assert m.k_labels.tolist() == k_labels
        assert m.gamma_cosets.tolist() == gamma_cosets
        assert m.class_table.tolist() == table
        assert m.c_gamma_pi == c_gamma_pi
        walked += len(m.k) >= COSET_WALK_MIN_ORDER
        walked_gamma += len(m.gamma) >= COSET_WALK_MIN_ORDER
    assert walked > 0 and walked_gamma > 0


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trivial=st.booleans(),
       gamma_pick=st.integers(0, 2**16), a_pick=st.integers(0, 2**16))
def test_volume_check_counts_k_cosets_like_the_element_count(seed, trivial, gamma_pick, a_pick):
    # The element-count form as the oracle: |G_gamma a K| counted element by
    # element must be |K| times the number of K-coset labels, and the check's
    # verdict must be (|G_gamma a K| // |G_gamma|) |G_gamma ∩ aKa^{-1}| == |K|.
    m = random_model(random.Random(seed), _SMALL_KINDS)
    if trivial:
        m = with_trivial_k(m)
    G = m.group
    gamma, a = int(m.gamma[gamma_pick % len(m.gamma)]), a_pick % G.n
    k = set(m.k.tolist())
    cent = [c for c in range(G.n) if G.mul(c, gamma) == G.mul(gamma, c)]
    orbit = {G.mul(G.mul(c, a), h) for c in cent for h in k}
    n_labels = len({int(m.k_labels[G.mul(c, a)]) for c in cent})
    assert len(k) * n_labels == len(orbit)
    meet = sum(G.mul(G.mul(G.inverse(a), c), a) in k for c in cent)
    assert volume_identity_check(m, gamma, a) == (len(orbit) // len(cent) * meet == len(k))


def test_volume_identity_check_fails_on_merged_k_cosets():
    # Labels that merge two K-cosets drop one coset from the orbit of aK under
    # G_gamma = G (gamma = e), so the count falls short of |G_gamma|.
    rng = random.Random(35)
    checked = 0
    for _ in range(12):
        m = random_model(rng, _SMALL_KINDS)
        G = m.group
        labels = np.unique(m.k_labels)
        if len(labels) < 2:
            continue
        merged = m.k_labels.copy()
        merged[merged == labels[-1]] = labels[0]
        bad = replace(m, k_labels=merged)
        for a in range(G.n):
            assert volume_identity_check(m, G.identity, a)
            assert not volume_identity_check(bad, G.identity, a)
        checked += 1
    assert checked > 5


def test_traces_build_no_model_data_once_the_model_is_built(monkeypatch):
    # The cosets of K and Gamma, Gamma's class table and |C_Gamma(pi)| are
    # built with the model, and its trivial-K twin shares all but the first;
    # G's class labels are cached once per group, so they are read first.
    # After that no trace call lists cosets, takes a centralizer within Gamma
    # or partitions a subgroup into classes.
    rng = random.Random(32)
    models = [random_model(rng) for _ in range(20)]
    models.append(_whole_group_model("sym:5"))  # K above the walk's crossover
    for m in models:
        m.group.class_labels
    calls = []
    real_cosets = cosettrace._cosets

    def cosets(G, s, right):
        calls.append(f"cosets {right}")
        return real_cosets(G, s, right)

    monkeypatch.setattr(cosettrace, "_cosets", cosets)
    real_centralizer, real_partition = Group.centralizer, Group.conjugacy_partition

    def centralizer(self, i, within=None):
        if within is not None:
            calls.append("centralizer within")
        return real_centralizer(self, i, within)

    def conjugacy_partition(self, members, gens):
        calls.append("conjugacy_partition")
        return real_partition(self, members, gens)

    monkeypatch.setattr(Group, "centralizer", centralizer)
    monkeypatch.setattr(Group, "conjugacy_partition", conjugacy_partition)
    for m in models:
        trivial = with_trivial_k(m)
        assert trivial.class_table is m.class_table
        assert trivial.gamma_cosets is m.gamma_cosets
        orbital_trace(m)
        factored_trace(trivial)
        kernel_trace(m)
        kernel_trace(trivial)
        double_cosets(m)
        delta_sets(m)
        volume_identity_check(m, m.gamma[-1], m.pi)
    assert calls == []
    build_model(models[0].group, [], [], 0)
    assert sorted(calls) == ["centralizer within", "conjugacy_partition",
                             "cosets False", "cosets True"]


def _brute_double_cosets(m):
    """Oracle: the partition {Gamma x K}, each double coset the set of all
    products a x k, a in Gamma and k in K, read from the table."""
    G = m.group
    gamma, k = np.array(m.gamma), np.array(m.k)
    cosets = []
    seen = set()
    for x in range(G.n):
        if x in seen:
            continue
        coset = frozenset(G.table[G.table[gamma, x][:, None], k].ravel().tolist())
        seen.update(coset)
        cosets.append(coset)
    return cosets


def _large_models():
    """Models whose Gamma and K lie above the coset-walk crossover, in sym:5,
    gl2:5 and sym:6: Gamma = K = G, and a proper Gamma and K of order at least
    COSET_WALK_MIN_ORDER with pi drawn from N_G(K); each followed by its
    with_trivial_k, where only Gamma is walked."""
    rng = random.Random(31)
    models = []
    for kind in ("sym:5", "gl2:5", "sym:6"):
        G = group_from_kind(kind)
        models.append(build_model(G, G.gens, G.gens, rng.randrange(G.n)))
        # At most 1000 draws, so that a faulty closure fails here and does not hang.
        draws = ([rng.randrange(G.n), rng.randrange(G.n)] for _ in range(1000))
        gens = list(itertools.islice(
            (d for d in draws if COSET_WALK_MIN_ORDER <= len(G.subgroup(d)) < G.n), 2))
        assert len(gens) == 2, kind
        normalizer = G.normalizer_of(G.subgroup(gens[1]), gens[1])
        models.append(build_model(G, gens[0], gens[1],
                                  int(normalizer[rng.randrange(len(normalizer))])))
    assert all(min(len(m.gamma), len(m.k)) >= COSET_WALK_MIN_ORDER for m in models)
    return [model for m in models for model in (m, with_trivial_k(m))]


def test_coset_walk_against_brute_force():
    # The walk's double cosets G_gamma a K of each supported class, with their
    # least elements a and |G_gamma ∩ aKa^{-1}|, against the partition of the
    # support E_gamma built element by element.
    rng = random.Random(29)
    walked = shared = 0
    for _ in range(25):
        m = random_model(rng, _SMALL_KINDS)
        walk_of = {}  # (G_gamma, E_gamma) -> its brute-force walk
        G = m.group
        k = set(m.k)
        pik = {G.mul(m.pi, h) for h in k}
        in_k = np.zeros(G.n, dtype=bool)
        in_k[list(k)] = True
        row_min = m.k_labels
        reps, counts, _, _ = cosettrace._gamma_classes(m)
        for gamma in reps[counts > 0].tolist():
            cent = [c for c in range(G.n) if G.mul(c, gamma) == G.mul(gamma, c)]
            support = [x for x in range(G.n)
                       if G.mul(G.mul(G.inverse(x), gamma), x) in pik]
            want, seen = [], set()
            for x in support:
                if x in seen:
                    continue
                coset = {G.mul(G.mul(c, x), h) for c in cent for h in k}
                assert coset <= set(support)
                seen |= coset
                want.append((x, sum(G.mul(G.mul(G.inverse(x), c), x) in k for c in cent)))
            starts = np.array(sorted({min(G.mul(x, h) for h in k) for x in support}))
            got = cosettrace._coset_walk(G, np.array(cent), in_k, row_min, starts)
            assert got == want
            walked += len(want)
            # orbital_trace walks each (centralizer, support) pair once: classes
            # with equal pairs must have equal walks.
            pair = (frozenset(cent), frozenset(support))
            shared += pair in walk_of
            assert walk_of.setdefault(pair, want) == want
    assert walked > 50 and shared > 20  # the draw is not vacuous


def test_double_cosets_against_brute_force():
    rng = random.Random(25)
    for _ in range(25):
        m = random_model(rng, _SMALL_KINDS)
        got = double_cosets(m)
        want = _brute_double_cosets(m)
        assert len(got.representatives) == len(want)
        for coset in want:
            reps = {int(got.rep_of[x]) for x in coset}
            assert len(reps) == 1  # the partition agrees
            assert min(coset) in reps
    # Larger groups, where each label is a minimum over many Gamma-rows, and
    # models whose labels come from the coset walks.
    for m in [*(random_model(rng, ("sym:5", "gl2:5")) for _ in range(6)), *_large_models()]:
        got = double_cosets(m)
        want = sorted(_brute_double_cosets(m), key=min)
        assert got.representatives == tuple(min(coset) for coset in want)
        assert got.rep_of.dtype == np.int64
        assert all(got.rep_of[x] == min(coset) for coset in want for x in coset)
        assert list(got.hecke_action) == list(got.representatives)
        assert all(got.hecke_action[r] == got.rep_of[m.group.mul(r, m.pi)]
                   for r in got.representatives)


def test_kernel_trace_against_brute_force():
    rng = random.Random(26)
    small = tuple(k for k in ("cyclic:8", "sym:3", "sym:4", "gl2:2", "gl2:3"))
    for m in [*(random_model(rng, small) for _ in range(25)), *_large_models()]:
        cosets = _brute_double_cosets(m)
        by_element = {}
        for coset in cosets:
            for x in coset:
                by_element[x] = coset
        fixed = sum(1 for coset in cosets
                    if by_element[m.group.mul(min(coset), m.pi)] is coset)
        assert kernel_trace(m) == fixed


def _brute_cosets(G, s, right):
    """Oracle: the cosets S x (if right) or x S as sets, one product at a
    time, in ascending order of their least elements."""
    cosets = {frozenset(G.mul(h, x) if right else G.mul(x, h) for h in s) for x in range(G.n)}
    return sorted(cosets, key=min)


def _both_coset_listings(monkeypatch, G, s, right):
    """_cosets(G, s, right) by the gather and by the walk, whatever |s| is."""
    listings = []
    for threshold in (G.n + 1, 1):
        with monkeypatch.context() as patch:
            patch.setattr(cosettrace, "COSET_WALK_MIN_ORDER", threshold)
            listings.append(cosettrace._cosets(G, s, right))
    return listings


def test_coset_walks_match_the_gathers(monkeypatch, seeded_models_100):
    # Both branches of _cosets on both sides of every model's subgroups,
    # whichever side of the crossover they lie: the same rows in the same
    # dtype, and the model's own cosets and labels among them.
    walked = 0
    for m in [*seeded_models_100, *map(with_trivial_k, seeded_models_100), *_large_models()]:
        G = m.group
        for s in (m.gamma, m.k):
            for right in (False, True):
                gather, walk = _both_coset_listings(monkeypatch, G, s, right)
                assert gather.shape == walk.shape == (G.n // len(s), len(s))
                assert gather.dtype == walk.dtype == G.table.dtype
                assert np.array_equal(gather, walk)
        assert np.array_equal(m.gamma_cosets, cosettrace._cosets(G, m.gamma, right=True))
        k_cosets = cosettrace._cosets(G, m.k, right=False)
        assert (m.k_labels[k_cosets] == k_cosets.min(axis=1)[:, None]).all()
        walked += max(len(m.gamma), len(m.k)) >= COSET_WALK_MIN_ORDER
    assert walked > 12  # the 12 large models, and seeded ones above the crossover too


def test_cosets_against_brute_force(monkeypatch):
    # Each branch's rows partition G into the sets S x or x S, in ascending
    # order of their least elements, on subgroups of small groups and of
    # groups above the crossover (a right coset of a non-normal S is not a
    # left one, so the sides differ).
    rng = random.Random(36)
    cases = [(group_from_kind(kind), []) for kind in ("sym:3", "gl2:3")]
    for kind in (*_SMALL_KINDS, "sym:5", "gl2:5"):
        G = group_from_kind(kind)
        cases += [(G, [rng.randrange(G.n) for _ in range(rng.choice((1, 2)))]) for _ in range(4)]
    cases.append((group_from_kind("sym:5"), group_from_kind("sym:5").gens))
    sides_differ = 0
    for G, gens in cases:
        s = G.subgroup(gens)
        wants = [_brute_cosets(G, s.tolist(), right) for right in (False, True)]
        for right, want in zip((False, True), wants):
            for rows in _both_coset_listings(monkeypatch, G, s, right):
                assert [frozenset(row) for row in rows.tolist()] == want
                assert all(len(set(row)) == len(s) for row in rows.tolist())
        sides_differ += wants[0] != wants[1]
    assert sides_differ > 3


def test_involutive_translation_recovers_type_number():
    # When pi^2 lies in K the translation [x] -> [x pi] is an involution on
    # the double cosets; its fixed-point count (the kernel trace) then ties
    # the coset count and orbit count together as trace = 2T - H.
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
        position = {r: i for i, r in enumerate(space.representatives)}
        h, fixed, orbits = involution_census(
            [position[act[r]] for r in space.representatives])
        assert fixed == kernel_trace(m)
        assert fixed == 2 * orbits - h


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
    # The walk drops its last double coset, so the coset form falls short.
    real = cosettrace._coset_walk
    monkeypatch.setattr(cosettrace, "_coset_walk", lambda *args: real(*args)[:-1])
    # pi = 0, so that class 0 has support (with pi = 2 it has none and is skipped).
    Z4 = group_from_kind("cyclic:4")
    with pytest.raises(InvariantViolation, match="orbital integral mismatch at class 0: 1 vs 0"):
        orbital_trace(build_model(Z4, [2], [], 0))


def test_orbital_trace_rejects_kernel_mismatch(monkeypatch):
    # orbital_trace counts the fixed cosets with _count_fixed, on double
    # cosets labelled from its own K-coset labels.
    real = cosettrace._count_fixed
    monkeypatch.setattr(cosettrace, "_count_fixed", lambda reps, images: real(reps, images) + 1)
    Z4 = group_from_kind("cyclic:4")
    with pytest.raises(InvariantViolation, match="trace formula failed: orbital 2 != kernel 3"):
        orbital_trace(build_model(Z4, [2], [], 2))


def _whole_group_model(kind):
    """Gamma = K = G and pi = e: one double coset, every Gamma-class supported."""
    G = group_from_kind(kind)
    return build_model(G, G.indices.tolist(), G.indices.tolist(), G.identity)


def _counted_walks(monkeypatch):
    """Record the centralizer and starts of every _coset_walk call."""
    real, walks = cosettrace._coset_walk, []

    def counted(G, cent, in_k, row_min, starts):
        walks.append((cent, starts))
        return real(G, cent, in_k, row_min, starts)

    monkeypatch.setattr(cosettrace, "_coset_walk", counted)
    return walks


def _brute_pairs(m, reps):
    """The distinct (G_gamma, E_gamma) over the classes `reps`, each from the
    whole table: E_gamma = {x in G : x^{-1} gamma x in pi K}."""
    G = m.group
    in_pik = np.zeros(G.n, dtype=bool)
    in_pik[G.table[m.pi, list(m.k)]] = True
    pairs = set()
    for gamma in reps:
        cent = (G.table[gamma] == G.table[:, gamma]).nonzero()[0]
        support = in_pik[G.table[G.table[G.inv, gamma], G.indices]].nonzero()[0]
        assert len(support) > 0
        pairs.add((frozenset(cent.tolist()), frozenset(support.tolist())))
    return pairs


def test_orbital_trace_in_blocks_of_one_class(monkeypatch, seeded_models_100):
    # With one row per block every block holds one class; the classes of
    # cyclic:720 still share one walk across their 720 blocks.
    whole = [_whole_group_model(kind) for kind in ("cyclic:720", "sym:5")]
    reports = [orbital_trace(m) for m in whole]
    for G in {m.group for m in [*whole, *seeded_models_100]}:
        monkeypatch.setattr(G, "block_rows", 1)
    text = json.dumps(_golden_records(seeded_models_100), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SEED42_SHA256
    walks = _counted_walks(monkeypatch)
    assert [orbital_trace(m) for m in whole] == reports
    sym5_reps = [t.gamma_rep for t in reports[1].orbital_terms]
    assert len(walks) == 1 + len(_brute_pairs(whole[1], sym5_reps))


def test_orbital_trace_walks_each_pair_once(monkeypatch, seeded_models_100):
    walks = _counted_walks(monkeypatch)
    # Abelian: every class has G_gamma = G and full support.
    report = orbital_trace(_whole_group_model("cyclic:720"))
    assert len(report.orbital_terms) == 720 and len(walks) == 1
    repeated = 0
    for m in [_whole_group_model("sym:5"), *seeded_models_100]:
        walks.clear()
        reps = [t.gamma_rep for t in orbital_trace(m).orbital_terms]
        pairs = _brute_pairs(m, reps)
        assert len(walks) == len(pairs)
        repeated += len(reps) > len(pairs)
    assert repeated > 20  # the draw shares walks


def test_orbital_trace_names_first_class_of_failing_pair(monkeypatch):
    # The walk drops its last double coset whenever G_gamma != G.  Gamma is
    # cyclic of order 4 in S4 and K = G, so Gamma's classes are its elements,
    # each supported on all of G, and the 4-cycle and its inverse share a
    # centralizer; the first failing pair is named by its least class.
    G = group_from_kind("sym:4")
    m = build_model(G, [G.index[(1, 2, 3, 0)]], G.indices.tolist(), G.identity)
    real = cosettrace._coset_walk

    def broken(group, cent, in_k, row_min, starts):
        walk = real(group, cent, in_k, row_min, starts)
        return walk if len(cent) == group.n else walk[:-1]

    monkeypatch.setattr(cosettrace, "_coset_walk", broken)
    walks = _counted_walks(monkeypatch)
    noncentral = [g for g in m.gamma if any(G.mul(g, h) != G.mul(h, g) for h in range(G.n))]
    assert len(noncentral) == 3
    with pytest.raises(InvariantViolation,
                       match=f"orbital integral mismatch at class {min(noncentral)}: 1 vs 0$"):
        orbital_trace(m)
    assert len(walks) == 2  # the identity's pair, then the failing one


def test_kernel_trace_counts_hecke_fixed_points(seeded_models_100):
    for m in seeded_models_100:
        for model in (m, with_trivial_k(m)):
            action = double_cosets(model).hecke_action
            assert kernel_trace(model) == sum(r == s for r, s in action.items())


def test_orbital_trace_takes_no_centralizer_per_class(monkeypatch):
    # All 5 classes of S4 are supported, and with K trivial only the
    # identity's; the blocked pass compares table rows, so neither trace takes
    # a centralizer.  |C_Gamma(pi)|, the factored form's one centralizer
    # within Gamma, is taken once, by build_model, and shared with the
    # trivial-K twin.
    G = group_from_kind("sym:4")
    calls = []
    real = Group.centralizer

    def counted(self, i, within=None):
        calls.append((i, within is not None))
        return real(self, i, within)

    monkeypatch.setattr(Group, "centralizer", counted)
    m = _whole_group_model("sym:4")
    assert calls == [(m.pi, True)] and m.c_gamma_pi == len(real(G, m.pi, m.gamma))
    calls.clear()
    report = orbital_trace(m)
    assert len(report.orbital_terms) == 5 and report.factored_value is None
    report = orbital_trace(with_trivial_k(m))
    assert len(report.orbital_terms) == 1 and report.factored_value == 1
    assert calls == []


def test_kernel_trace_refuses_a_hecke_map_that_is_not_a_bijection():
    # Built past build_model's check, from a valid model with Gamma trivial:
    # pi = 2, the transposition (0 1), does not normalize K = <1> = <(1 2)>,
    # so x -> x pi is not well defined on the cosets xK.
    G = _s3()
    assert G.elements[1] == (0, 2, 1) and G.elements[2] == (1, 0, 2)
    k = G.subgroup([1])
    model = replace(build_model(G, [], [1], G.identity), pi=2)
    assert np.array_equal(model.k, k)
    with pytest.raises(InvariantViolation,
                       match="^Hecke translation is not a bijection on cosets$"):
        kernel_trace(model)


def _peak_growth(setup, measured):
    """Run `setup`, then `measured`, in a fresh interpreter, so that the peak
    (VmHWM) is its own, as in test_sym7_build_memory_stays_near_the_table_size:
    (the growth of the peak over `measured`, the bytes of the table of G)."""
    code = (
        "from superspecial.finitegroup import group_from_kind\n"
        "from superspecial.cosettrace import (build_model, factored_trace,\n"
        "                                     orbital_trace, with_trivial_k)\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith(key))\n"
        f"{setup}"
        "hwm = status('VmHWM:')\n"
        f"{measured}"
        "print(status('VmHWM:') - hwm, G.table.nbytes)\n"
    )
    src = os.path.dirname(os.path.dirname(cosettrace.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth, table_bytes = map(int, proc.stdout.split())
    return growth, table_bytes


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_sym7_traces_stay_well_below_the_table_size():
    # The growth is counted from the peak after the group and the model
    # Gamma = K = S7 are built.  One (|Gamma| x n) or (n x |K|) gather over the
    # whole table took it to about 1.9 times the table's bytes; the coset
    # walks gather one coset at a time.
    growth, table_bytes = _peak_growth(
        "G = group_from_kind('sym:7')\n"
        "m = build_model(G, G.gens, G.gens, G.identity)\n",
        "orbital_trace(m)\n"
        "factored_trace(with_trivial_k(m))\n")
    assert growth < 0.5 * table_bytes, (growth, table_bytes)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_cyclic5040_build_stays_well_below_the_table_size():
    # Gamma = K = <1> = G: squaring <1> up to 4097 elements ended in a
    # 4097 x 4097 gather, which took the build to about 0.8 times the table's
    # bytes; the closure stops once it holds more than half the group.
    growth, table_bytes = _peak_growth(
        "G = group_from_kind('cyclic:5040')\n",
        "m = build_model(G, [1], [1], G.identity)\n"
        "assert len(m.gamma) == len(m.k) == G.n\n")
    assert growth < 0.5 * table_bytes, (growth, table_bytes)
