import itertools
import sys
from fractions import Fraction
from math import gcd

import pytest

from superspecial.massform import (GENUS_MAX, LEVEL_MAX, GenusKind, MassParams,
                                   class_number_level, component_genus, evaluate,
                                   gsp_order, nonprincipal_class_number_level,
                                   principal_mass, recover_type_number)


def test_gsp_order_examples():
    assert gsp_order(1, 1) == 1
    assert gsp_order(1, 3) == 48
    assert gsp_order(2, 2) == 720


def test_gl2_order_by_direct_count():
    # Exhaustive oracle: invertible 2x2 matrices over Z/3.
    count = sum(1 for a, b, c, d in itertools.product(range(3), repeat=4)
                if (a * d - b * c) % 3 != 0)
    assert gsp_order(1, 3) == count == 48


def test_sp4_f2_order_by_direct_count():
    # Exhaustive oracle: 4x4 matrices over F_2 preserving the symplectic form.
    import numpy as np

    J = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]) % 2
    # over F_2 the form M^T J M = J (similitude factor is 1)
    count = 0
    for bits in range(1 << 16):
        m = np.array([(bits >> k) & 1 for k in range(16)]).reshape(4, 4)
        if np.array_equal((m.T @ J @ m) % 2, J):
            count += 1
    assert count == 720 == gsp_order(2, 2)


def test_gsp_order_multiplicative():
    for g in (1, 2, 3):
        for m, n in ((3, 4), (5, 8), (9, 2), (5, 7)):
            assert gcd(m, n) == 1
            assert gsp_order(g, m * n) == gsp_order(g, m) * gsp_order(g, n)


def test_principal_mass_closed_form_g1():
    for p in (2, 3, 5, 7, 11, 97, 997):
        assert principal_mass(1, p) == Fraction(p - 1, 24)


def test_principal_mass_g2_example():
    # (-1/4) * (-1/12) * (1/120) * (2-1) * (2^2+1) = 5/5760 = 1/1152
    assert principal_mass(2, 2) == Fraction(1, 1152)


def test_principal_mass_positive():
    for g in (1, 2, 3, 4, 5):
        for p in (2, 3, 5, 11, 101):
            assert principal_mass(g, p) > 0


def test_class_number_examples():
    assert class_number_level(1, 5, 3) == 8    # 48 * 4/24
    assert class_number_level(1, 11, 3) == 20  # 48 * 10/24
    # exact rational evaluation: gsp_order(2,4) * (3-1)(3^2+1)/5760
    expected = Fraction(gsp_order(2, 4) * (3 - 1) * (3**2 + 1), 5760)
    assert expected.denominator == 1
    assert class_number_level(2, 3, 4) == int(expected)


def test_nonprincipal_examples():
    assert nonprincipal_class_number_level(2, 2, 3) == 54  # 103680 / 1920
    expected = Fraction(gsp_order(2, 4) * (3**2 - 1), 5760)
    assert nonprincipal_class_number_level(2, 3, 4) == int(expected)
    # g = 4 replaces the local factors by (p^2-1)(p^6-1); exact rational oracle:
    from superspecial.exactnum import zeta_negative

    zetas = Fraction(1)
    for k in (1, 2, 3, 4):
        zetas *= zeta_negative(k)
    expected4 = gsp_order(4, 3) * Fraction(1, 16) * zetas * (2**2 - 1) * (2**6 - 1)
    assert expected4.denominator == 1 and expected4 > 0
    assert nonprincipal_class_number_level(4, 2, 3) == int(expected4)


def test_level_validation():
    # gsp_order factorizes N by trial division, so it refuses N above a ceiling.
    assert gsp_order(1, LEVEL_MAX) == gsp_order(1, 2**12) * gsp_order(1, 5**12)
    for g, N in ((1, 1000000000000000003), (2, LEVEL_MAX + 1)):
        with pytest.raises(ValueError, match="factorization ceiling"):
            gsp_order(g, N)
    with pytest.raises(ValueError):
        class_number_level(1, 5, 2)
    with pytest.raises(ValueError):
        class_number_level(1, 5, 5)  # gcd(N, p) != 1
    with pytest.raises(ValueError):
        nonprincipal_class_number_level(3, 2, 4)  # odd g
    with pytest.raises(ValueError):
        nonprincipal_class_number_level(2, 3, 2)


def test_level_ratio_property():
    # H_{Nm} / H_N = gsp_order(g, Nm) / gsp_order(g, N) exactly.
    for g in (1, 2):
        for p in (5, 7):
            for N, m in ((3, 2), (4, 3), (3, 4)):
                if gcd(N * m, p) != 1:
                    continue
                lhs = Fraction(class_number_level(g, p, N * m),
                               class_number_level(g, p, N))
                rhs = Fraction(gsp_order(g, N * m), gsp_order(g, N))
                assert lhs == rhs


def test_recover_type_number():
    assert recover_type_number(2, 2) == 2
    assert recover_type_number(3, 1) == 2
    assert recover_type_number(1, 1) == 1
    with pytest.raises(ValueError):
        recover_type_number(2, 1)  # parity violation
    with pytest.raises(ValueError):
        recover_type_number(2, 3)  # trace > H
    with pytest.raises(ValueError):
        recover_type_number(2, -1)


def test_component_genus():
    assert component_genus(1) is GenusKind.PRINCIPAL
    assert component_genus(2) is GenusKind.NON_PRINCIPAL
    assert component_genus(3) is GenusKind.PRINCIPAL
    assert component_genus(4) is GenusKind.NON_PRINCIPAL


def test_evaluate_bundles():
    res = evaluate(MassParams(g=2, p=2, N=3, genus_kind=GenusKind.NON_PRINCIPAL))
    assert res.class_number == 54
    assert res.gsp_order == 103680
    assert res.mass == Fraction(1, 1920)
    assert "polarization kernel" in res.note
    res = evaluate(MassParams(g=1, p=11, N=1))
    assert res.class_number is None
    assert res.mass == Fraction(10, 24)


def test_mass_params_rejects_odd_nonprincipal():
    with pytest.raises(ValueError):
        MassParams(g=3, p=2, N=3, genus_kind=GenusKind.NON_PRINCIPAL)


def test_genus_ceiling_is_the_last_genus_whose_values_print():
    # Python writes an int of at most sys.get_int_max_str_digits() (4300)
    # digits as text; the class number at the largest p and N is the largest value.
    p, N = 2**31 - 1, 999999999989
    assert len(str(class_number_level(GENUS_MAX, p, N))) <= sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match="Exceeds the limit"):
        str(class_number_level(GENUS_MAX + 1, p, N))
    with pytest.raises(ValueError, match=f"ceiling {GENUS_MAX}"):
        MassParams(g=GENUS_MAX + 1, p=5, N=1)
    with pytest.raises(ValueError, match="word-size bound"):
        MassParams(g=1, p=2**31 + 11, N=3)
