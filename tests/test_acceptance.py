"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Shared inputs (the p <= 1000 census sweep and the 100 seed-42 random models)
come from session fixtures in conftest.py.  Each test prints its PASS/FAIL
line so a full run reads as a checklist.

Note on criterion 7: its first clause asserts the factored trace for *every*
seeded random model with trivial level subgroup.  The factorization's
common-term collapse is provable only when all classes of delta_f share the
rational-centralizer size of pi (automatic in the arithmetic setting the
sandbox shadows, not for arbitrary finite models), and the seeded draw does
contain a model outside that regime, so the criterion is expected to fail
there; the failure detail names the model and the obstruction.  The check is
asserted as stated rather than weakened.
"""

import re

from superspecial import acceptance


def _run(result):
    print(f"{'PASS' if result.passed else 'FAIL'} criterion {result.number}: "
          f"{result.name}" + ("" if result.passed else f" -- {result.detail}"))
    assert result.passed, f"criterion {result.number}: {result.detail}"


def test_criterion_1_geometric_identity(censuses_1000):
    _run(acceptance.criterion_1_geometric_identity(censuses_1000))


def test_criterion_2_class_number_oracle(censuses_1000):
    _run(acceptance.criterion_2_class_number_oracle(censuses_1000))


def test_criterion_2_reports_a_wrong_class_number(monkeypatch):
    # Census(...) refuses an H off the formula, so the censuses are made first
    # and the formula is then made to disagree at p = 11.
    from superspecial import sslocus

    censuses = [sslocus.census(p) for p in (5, 7, 11)]
    real = sslocus.class_number_formula
    monkeypatch.setattr(sslocus, "class_number_formula", lambda p: real(p) + (p == 11))
    result = acceptance.criterion_2_class_number_oracle(censuses)
    assert not result.passed
    assert result.detail == "p=11: H=2 != 3"


def test_criterion_3_mass_consistency(censuses_1000):
    _run(acceptance.criterion_3_mass_consistency(censuses_1000))


def test_criterion_4_integrality():
    _run(acceptance.criterion_4_integrality())


def test_criterion_5_spot_values():
    # Independent oracles recorded next to each value inside the criterion:
    # H_3(1,5) = 48 * 4/24 = 8 with |GL2(Z/3)| = (9-1)(9-3) = 48;
    # H_3(1,11) = 48 * 10/24 = 20;
    # H'_3(2,2) = 103680/1920 = 54 with gsp_order(2,3) = 2*81*8*80;
    # gsp_order(2,2) = 16*3*15 = 720 = |Sp4(F_2)|, cross-checked by exhaustive
    # enumeration of the symplectic similitude group over Z/2.
    _run(acceptance.criterion_5_spot_values())


def test_criterion_5_reports_a_group_that_does_not_close(capsys, monkeypatch):
    # A gsp_order that disagrees with the exhaustive closure makes the build
    # raise; criterion 5 reports it, and verify prints the failure and exits 2.
    from superspecial import cli, finitegroup

    real = finitegroup.gsp_order
    monkeypatch.setattr(finitegroup, "gsp_order",
                        lambda g, n: 719 if (g, n) == (2, 2) else real(g, n))
    finitegroup.group_from_kind.cache_clear()
    try:
        result = acceptance.criterion_5_spot_values()
        assert not result.passed
        assert result.detail == "gsp2:2: generators close to 720 elements, expected 719"
        assert cli.main(["verify", "--pmax", "5", "--trials", "1"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert ("FAIL criterion 5: spot values: H_3(1,5)=8, H_3(1,11)=20, H'_3(2,2)=54,"
                " |GSp4(Z/2)|=720 -- gsp2:2: generators close to 720 elements,"
                " expected 719\n") in out
    finally:
        finitegroup.group_from_kind.cache_clear()


def test_criterion_6_trace_equality(seeded_models_100):
    _run(acceptance.criterion_6_trace_equality(seeded_models_100))


def test_criterion_7_factorization(seeded_models_100):
    _run(acceptance.criterion_7_factorization(seeded_models_100, seed=42))


def test_criterion_7_computes_deltas_and_kernel_once_per_model(seeded_models_100, monkeypatch):
    from superspecial import cosettrace

    calls = {"_gamma_classes": 0, "kernel_trace": 0}
    for name in calls:
        real = getattr(cosettrace, name)

        def counted(model, name=name, real=real):
            calls[name] += 1
            return real(model)

        monkeypatch.setattr(cosettrace, name, counted)
    acceptance.criterion_7_factorization(seeded_models_100[:10], seed=42)
    # One of each per model, plus one class computation per level of the chains
    # (3 + 5 + 4), through delta_sets.
    assert calls == {"_gamma_classes": 10 + 12, "kernel_trace": 10}


def _chain_oracle(kind):
    """The chain of level subgroups below G, each listed by its own rule."""
    from superspecial.finitegroup import group_from_kind

    group = group_from_kind(kind)
    if kind == "gl2:4":
        # Gamma(2): the matrices congruent to the identity mod 2.
        red2 = [i for i, (a, b, c, d) in enumerate(group.elements)
                if a % 2 == 1 and b % 2 == 0 and c % 2 == 0 and d % 2 == 1]
        return [list(range(group.n)), red2, [group.identity]]
    if kind == "cyclic:24":
        return [list(range(0, 24, step)) for step in (1, 2, 4, 8)] + [[0]]
    # S4 > A4 > V4 > {e}, each closed from its literals.
    a4 = group.subgroup([group.index_of_literal(perm) for perm in ([1, 2, 0, 3], [0, 2, 3, 1])])
    v4 = group.subgroup([group.index_of_literal(perm) for perm in ([1, 0, 3, 2], [2, 3, 0, 1])])
    return [list(range(group.n)), a4, v4, [group.identity]]


def test_criterion_7_chain_literals_close_to_the_listed_levels(monkeypatch):
    from superspecial import cosettrace

    built = []
    real = cosettrace.build_model

    def recorded(group, gamma_gens, k_gens, pi):
        model = real(group, gamma_gens, k_gens, pi)
        built.append((group.kind, list(model.k)))
        return model

    monkeypatch.setattr(cosettrace, "build_model", recorded)
    assert acceptance.criterion_7_factorization([], seed=42).passed
    expected = [(kind, sorted(level)) for kind in ("gl2:4", "cyclic:24", "sym:4")
                for level in _chain_oracle(kind)]
    assert len(expected) == 3 + 5 + 4
    assert built == expected


def test_criterion_7_reports_a_chain_that_does_not_nest(monkeypatch):
    # <6> is not inside <4>, so cyclic:24's levels no longer form a chain.
    specs = [(kind, ([2], [4], [6]) if kind == "cyclic:24" else middle)
             for kind, middle in acceptance._CHAIN_SPECS]
    monkeypatch.setattr(acceptance, "_CHAIN_SPECS", specs)
    result = acceptance.criterion_7_factorization([], seed=42)
    assert not result.passed
    assert "chain cyclic:24: level 3 is not inside level 2" in result.detail


def test_criterion_7_words_a_missing_factored_form(seeded_models_100, monkeypatch):
    from superspecial import cosettrace

    monkeypatch.setattr(cosettrace, "factored_trace", lambda model: (None, "why"))
    result = acceptance.criterion_7_factorization(seeded_models_100[:2], seed=42)
    assert not result.passed
    kernels = [cosettrace.kernel_trace(cosettrace.with_trivial_k(m))
               for m in seeded_models_100[:2]]
    assert result.detail == "; ".join(
        f"model {i} ({m.group.kind}): factored form unavailable or unequal to kernel {kernel}"
        f" (why)" for i, (m, kernel) in enumerate(zip(seeded_models_100, kernels)))


def test_criterion_8_volume_identities():
    _run(acceptance.criterion_8_volume_identities(seed=42))


def test_criterion_9_involution_universality(censuses_1000):
    _run(acceptance.criterion_9_involution_universality(censuses_1000, seed=42))


def test_criterion_9_reports_a_census_whose_counts_disagree():
    # The scan's F and the stored involution are two derivations of one
    # count; a census whose F, or whose involution, was changed after it was
    # built makes them disagree.
    from superspecial import sslocus

    censuses = [sslocus.census(p) for p in (11, 13, 37)]
    object.__setattr__(censuses[0], "F", 1)
    object.__setattr__(censuses[2], "involution", (0, 1, 2))
    result = acceptance.criterion_9_involution_universality(censuses, seed=42)
    assert not result.passed
    assert result.detail == ("census p=11: involution census (2, 2, 2) != (2, 1, 2);"
                             " census p=37: involution census (3, 3, 3) != (3, 1, 2)")


def test_criterion_3_reports_a_wrong_mass(monkeypatch):
    from superspecial import sslocus

    censuses = [sslocus.census(p) for p in (5, 7, 11)]
    real = acceptance.principal_mass
    monkeypatch.setattr(acceptance, "principal_mass", lambda g, p: real(g, p) + (p == 7))
    result = acceptance.criterion_3_mass_consistency(censuses)
    assert not result.passed
    assert result.detail == "p=7: 1/4 vs 5/4 vs 1/4"


def test_criterion_6_reports_a_failing_trace(seeded_models_100, monkeypatch):
    from superspecial import cosettrace

    def failing(model):
        raise cosettrace.InvariantViolation("orbital 1 != kernel 2")

    monkeypatch.setattr(cosettrace, "orbital_trace", failing)
    result = acceptance.criterion_6_trace_equality(seeded_models_100[:2])
    assert not result.passed
    assert result.detail == "; ".join(f"model {i} ({m.group.kind}): orbital 1 != kernel 2"
                                      for i, m in enumerate(seeded_models_100[:2]))


def test_criterion_8_reports_failed_volume_checks_up_to_four(monkeypatch):
    from superspecial import cosettrace

    monkeypatch.setattr(cosettrace, "volume_identity_check", lambda model, gamma, a: False)
    result = acceptance.criterion_8_volume_identities(seed=42)
    assert not result.passed
    shown = result.detail.split("; ")
    assert len(shown) == 5 and shown[4] == "... (150 failures total)"
    assert all(re.fullmatch(r"cyclic:\d+: volume identity failed at gamma=\d+, a=\d+", line)
               for line in shown[:4]), shown
