from fractions import Fraction
from math import factorial

import pytest

from schurmix.fock import (
    FockVector,
    Sqrt2Scalar,
    a_count,
    f_chev,
    f_inf,
    lemma_co_check,
    lemma_co_sides,
)
from schurmix.partitions import StrictPartition, add_set, bar_core

SQRT2 = Sqrt2Scalar(0, 1)


def state(*parts):
    return StrictPartition(parts)


def test_sqrt2_scalar_field():
    x = Sqrt2Scalar(1, 1)
    y = Sqrt2Scalar(1, -1)
    assert x * y == -1
    assert x + y == 2
    assert SQRT2 * SQRT2 == 2
    assert (x + -x).is_zero
    assert not Sqrt2Scalar(0, 0)
    assert Sqrt2Scalar(0, 1)
    # components are exact: int or Fraction, never float
    with pytest.raises(TypeError):
        Sqrt2Scalar(0.5)
    with pytest.raises(TypeError):
        Sqrt2Scalar(1, 0.5)
    with pytest.raises(TypeError):
        FockVector({state(1): 0.5})


def test_sqrt2_powers():
    assert Sqrt2Scalar.sqrt2_pow(0) == 1
    assert Sqrt2Scalar.sqrt2_pow(1) == SQRT2
    assert Sqrt2Scalar.sqrt2_pow(2) == 2
    assert Sqrt2Scalar.sqrt2_pow(3) == Sqrt2Scalar(0, 2)
    assert Sqrt2Scalar.sqrt2_pow(-1) == Sqrt2Scalar(0, Fraction(1, 2))
    assert Sqrt2Scalar.sqrt2_pow(-2) == Fraction(1, 2)


def test_sqrt2_str():
    assert str(Sqrt2Scalar()) == "0"
    assert str(Sqrt2Scalar(Fraction(3, 2))) == "3/2"
    assert str(SQRT2) == "sqrt2"
    assert str(Sqrt2Scalar(0, -1)) == "-sqrt2"
    assert str(Sqrt2Scalar(0, Fraction(1, 2))) == "1/2*sqrt2"
    assert str(Sqrt2Scalar(1, 1)) == "1+sqrt2"
    assert str(Sqrt2Scalar(1, -2)) == "1-2*sqrt2"


def test_fock_vector_algebra():
    v = FockVector.basis(state(3, 1))
    w = v.scale(SQRT2) + v.scale(SQRT2)
    assert w == v.scale(Sqrt2Scalar(0, 2))
    assert (v + v.scale(-1)).is_zero
    assert v.scale(0).is_zero
    assert FockVector({state(2): 1, state(3): 1}).support() == [state(3), state(2)]


def test_fock_vector_sums_repeated_states():
    s, t = state(3, 1), state(4)
    v = FockVector([(s, 1), (s, -1), (t, SQRT2), (t, SQRT2)])
    assert v == FockVector({t: Sqrt2Scalar(0, 2)})
    assert s not in v.entries
    # a state that cancels and comes back keeps its later coefficient
    assert FockVector([(s, 1), (s, -1), (s, Fraction(1, 2))]).entries == {s: Fraction(1, 2)}
    assert FockVector([(s, 1), (s, -1)]).is_zero


def test_f_inf_positive_index():
    assert f_inf(3, state(7, 3)) == FockVector.basis(state(7, 4))
    assert f_inf(7, state(7, 3)) == FockVector.basis(state(8, 3))
    assert f_inf(3, state(4, 3)).is_zero
    assert f_inf(5, state(7, 3)).is_zero
    with pytest.raises(ValueError):
        f_inf(-1, state())


def test_f_inf_index_zero():
    assert f_inf(0, state(5)) == FockVector({state(5, 1): Fraction(1, 2)})
    assert f_inf(0, state()) == FockVector.basis(state(1))
    assert f_inf(0, state(5, 2)) == FockVector.basis(state(5, 2, 1))
    assert f_inf(0, state(5, 1)).is_zero


def test_f_chev_worked_example():
    got = f_chev(0, FockVector.basis(bar_core(-2)))
    expected = FockVector(
        {state(8, 3): SQRT2, state(7, 4): SQRT2, state(7, 3, 1): SQRT2}
    )
    assert got == expected


def test_f_chev_small_cases():
    assert f_chev(1, FockVector.basis(state())).is_zero
    assert f_chev(1, FockVector.basis(state(1))) == FockVector({state(2): SQRT2})
    with pytest.raises(ValueError):
        f_chev(2, FockVector.basis(state()))


def test_f_chev_is_linear():
    v = FockVector({state(3): Sqrt2Scalar(1, 1), state(4): Fraction(1, 2)})
    w = FockVector({state(4): SQRT2})
    for i in (0, 1):
        assert f_chev(i, v + w) == f_chev(i, v) + f_chev(i, w)
        assert f_chev(i, v.scale(SQRT2)) == f_chev(i, v).scale(SQRT2)


def test_a_count_includes_zero_pad():
    assert a_count(state()) == 0
    assert a_count(state(8, 3)) == 1
    assert a_count(state(7, 3, 1)) == 1
    assert a_count(state(4)) == 2


def test_lemma_fixture_cases():
    assert lemma_co_check(0, -2, 1)
    assert lemma_co_check(1, 0, 0)
    assert lemma_co_check(1, 3, 3)


def test_lemma_sides_shape():
    left, right = lemma_co_sides(0, -2, 1)
    assert left == right
    assert {lam.parts for lam in left.support()} == {(8, 3), (7, 4), (7, 3, 1)}
    assert all(c == SQRT2 for _, c in left.items())


def test_lemma_beyond_window_is_zero():
    left, right = lemma_co_sides(1, 1, 3)
    assert left.is_zero and right.is_zero
    assert lemma_co_check(1, 1, 3)


def test_lemma_sign_compatibility():
    with pytest.raises(ValueError):
        lemma_co_check(1, -2, 1)
    with pytest.raises(ValueError):
        lemma_co_check(0, 3, 1)
    with pytest.raises(ValueError):
        lemma_co_check(0, 0, -1)
    # core 0 works with both colors
    assert lemma_co_check(0, 0, 1)
    assert lemma_co_check(1, 0, 1)


def test_coefficient_shape_is_positive_sqrt2_power():
    for i, sign in ((1, 1), (0, -1)):
        for m in range(3):
            core_index = sign * m
            if i == 1 and core_index < 0:
                continue
            window = 2 * m + (1 if i == 0 else 0)
            for ell in range(window + 1):
                left, _ = lemma_co_sides(i, core_index, ell)
                for _, coeff in left.items():
                    assert (coeff.a == 0) != (coeff.b == 0)
                    assert coeff.a > 0 or coeff.b > 0


def test_support_equals_add_set():
    for i, sign in ((1, 1), (0, -1)):
        for m in range(3):
            core_index = sign * m
            window = 2 * m + (1 if i == 0 else 0)
            for ell in range(window + 2):
                left, _ = lemma_co_sides(i, core_index, ell)
                expected = {mu.parts for mu in add_set(bar_core(core_index), i, ell)}
                assert {lam.parts for lam in left.support()} == expected


def test_path_counts_match_f_chev_oracle():
    # The step-by-step f_chev expansion, divided by ell!, is the reference for
    # the path-count divided power side, coefficient by coefficient.
    for core_index in range(-4, 5):
        colors = (0, 1) if core_index == 0 else ((1,) if core_index > 0 else (0,))
        for i in colors:
            window = 2 * abs(core_index) + (1 if i == 0 else 0)
            expected = FockVector.basis(bar_core(core_index))
            for ell in range(window + 2):
                if ell:
                    expected = f_chev(i, expected)
                oracle = expected.scale(Fraction(1, factorial(ell)))
                left, right = lemma_co_sides(i, core_index, ell)
                assert left == oracle, (i, core_index, ell)
                shown = [(lam.parts, str(c)) for lam, c in left.items()]
                assert shown == [(lam.parts, str(c)) for lam, c in oracle.items()]
                assert left == right
