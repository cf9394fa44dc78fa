from fractions import Fraction
from math import factorial

import pytest

from schurmix import fock, partitions
from schurmix.fock import (
    Sqrt2Power,
    a_count,
    f_chev,
    f_inf,
    lemma_co_sides,
)
from schurmix.partitions import StrictPartition, add_set, bar_core

from helpers import addition_set_grid, line_budget

SQRT2 = Sqrt2Power(Fraction(1), 1)


def state(*parts):
    return StrictPartition(parts)


def combine(*vectors):
    """Sum of {state: Fraction} vectors, zeros dropped."""
    out = {}
    for v in vectors:
        for lam, c in v.items():
            out[lam] = out.get(lam, 0) + c
    return {lam: c for lam, c in out.items() if c}


def test_sqrt2_powers():
    assert Sqrt2Power.of(1, 0) == Sqrt2Power(Fraction(1), 0)
    assert Sqrt2Power.of(1, 1) == SQRT2
    assert Sqrt2Power.of(1, 2) == Sqrt2Power(Fraction(2), 0)
    assert Sqrt2Power.of(1, 3) == Sqrt2Power(Fraction(2), 1)
    assert Sqrt2Power.of(1, -1) == Sqrt2Power(Fraction(1, 2), 1)
    assert Sqrt2Power.of(1, -2) == Sqrt2Power(Fraction(1, 2), 0)
    assert Sqrt2Power.of(Fraction(3, 4), -3) == Sqrt2Power(Fraction(3, 16), 1)
    assert Sqrt2Power.of(-1, 5) == Sqrt2Power(Fraction(-4), 1)
    # the coefficient is exact: int or Fraction, never float
    with pytest.raises(TypeError):
        Sqrt2Power.of(0.5, 1)
    # and the exponent an int: a float one would make c a float
    with pytest.raises(TypeError):
        Sqrt2Power.of(1, 1.5)
    with pytest.raises(TypeError):
        Sqrt2Power.of(1, 2.0)
    # direct construction checks the same: an exact c and e in {0, 1}
    with pytest.raises(TypeError):
        Sqrt2Power(0.5, 1)
    with pytest.raises(ValueError):
        Sqrt2Power(Fraction(1), 3)
    with pytest.raises(ValueError):
        Sqrt2Power(Fraction(1), -1)
    # and a nonzero c, however it is reached
    with pytest.raises(ValueError, match="nonzero"):
        Sqrt2Power(0, 0)
    with pytest.raises(ValueError, match="nonzero"):
        Sqrt2Power(Fraction(0), 1)
    with pytest.raises(ValueError, match="nonzero"):
        Sqrt2Power.of(0, 3)


def test_sqrt2_str():
    assert str(Sqrt2Power(Fraction(3, 2), 0)) == "3/2"
    assert str(SQRT2) == "sqrt2"
    assert str(Sqrt2Power(Fraction(-1), 1)) == "-sqrt2"
    assert str(Sqrt2Power(Fraction(1, 2), 1)) == "1/2*sqrt2"
    assert str(Sqrt2Power(Fraction(-2), 1)) == "-2*sqrt2"
    assert str(Sqrt2Power.of(1, 4)) == "4"


def test_sides_differing_only_in_parity_are_unequal():
    left, right = lemma_co_sides(0, -2, 1)
    assert left == right
    lam = next(iter(right))
    flipped = dict(right)
    flipped[lam] = Sqrt2Power(right[lam].c, 1 - right[lam].e)
    assert flipped[lam].c == left[lam].c
    assert left != flipped


def test_f_inf_positive_index():
    assert f_inf(3, state(7, 3)) == {state(7, 4): 1}
    assert f_inf(7, state(7, 3)) == {state(8, 3): 1}
    assert not f_inf(3, state(4, 3))
    assert not f_inf(5, state(7, 3))
    with pytest.raises(ValueError):
        f_inf(-1, state())


def test_f_inf_index_zero():
    assert f_inf(0, state(5)) == {state(5, 1): Fraction(1, 2)}
    assert f_inf(0, state()) == {state(1): 1}
    assert f_inf(0, state(5, 2)) == {state(5, 2, 1): 1}
    assert not f_inf(0, state(5, 1))


def test_f_chev_worked_example():
    # f_chev leaves out the overall sqrt 2 of the color operator.
    got = f_chev(0, {bar_core(-2): Fraction(1)})
    assert got == {state(8, 3): 1, state(7, 4): 1, state(7, 3, 1): 1}


def test_f_chev_small_cases():
    assert not f_chev(1, {state(): Fraction(1)})
    assert f_chev(1, {state(1): Fraction(1)}) == {state(2): 1}
    with pytest.raises(ValueError):
        f_chev(2, {state(): Fraction(1)})


def test_f_chev_drops_cancelled_states():
    # (4) and (3,1) both reach (4,1), with weights 1/2 and 1
    assert f_chev(0, {state(4): Fraction(2), state(3, 1): Fraction(-1)}) == {state(5): 2}


def test_f_chev_is_linear():
    v = {state(3): Fraction(3), state(4): Fraction(1, 2)}
    w = {state(4): Fraction(-1, 2), state(3, 1): Fraction(2)}
    for i in (0, 1):
        assert f_chev(i, combine(v, w)) == combine(f_chev(i, v), f_chev(i, w))
        tripled = {lam: 3 * c for lam, c in v.items()}
        assert f_chev(i, tripled) == {lam: 3 * c for lam, c in f_chev(i, v).items()}


def test_color_must_be_an_int(monkeypatch):
    # 1.0 and Fraction(1) equal the color 1 but are refused at the call, before
    # a node is added, a path counted or an operator applied
    def refuse(*args):
        raise AssertionError("built from a non-int color")

    monkeypatch.setattr(partitions, "_grow", refuse)
    monkeypatch.setattr(fock, "_path_counts", refuse)
    monkeypatch.setattr(fock, "f_inf", refuse)
    for color in (1.0, Fraction(1), 0.0, Fraction(0)):
        with pytest.raises(TypeError):
            add_set(bar_core(int(color)), color, 2)
        with pytest.raises(TypeError):
            lemma_co_sides(color, int(color), 1)
        with pytest.raises(TypeError):
            f_chev(color, {state(1): Fraction(1)})


def test_a_count_includes_zero_pad():
    assert a_count(state()) == 0
    assert a_count(state(8, 3)) == 1
    assert a_count(state(7, 3, 1)) == 1
    assert a_count(state(4)) == 2


def test_lemma_sides_shape():
    left, right = lemma_co_sides(0, -2, 1)
    assert left == right
    assert [lam.parts for lam in left] == [(8, 3), (7, 4), (7, 3, 1)]
    assert list(right) == list(left)
    assert all(c == SQRT2 for c in left.values())


def test_lemma_beyond_window_is_zero(monkeypatch):
    left, right = lemma_co_sides(1, 1, 3)
    assert left == right == {}

    # once no state is left, the walk stops and ell! is never computed: this
    # call took 1.7 s at ell = 3 * 10**5 when it ran every step
    def refuse(n):
        raise AssertionError(f"factorial({n}) computed for empty sides")

    monkeypatch.setattr(fock, "factorial", refuse)
    for i, core_index in ((1, 1), (0, -3)):
        with line_budget(10**4, fock._path_counts.__code__):
            assert lemma_co_sides(i, core_index, 10**9) == ({}, {})


def test_lemma_sign_compatibility():
    with pytest.raises(ValueError):
        lemma_co_sides(1, -2, 1)
    with pytest.raises(ValueError):
        lemma_co_sides(0, 3, 1)
    with pytest.raises(ValueError):
        lemma_co_sides(0, 0, -1)
    # core 0 works with both colors
    for i in (0, 1):
        left, right = lemma_co_sides(i, 0, 1)
        assert left == right, i


def test_coefficient_shape_is_positive_sqrt2_power():
    for core_index, i, ell in addition_set_grid(2):
        left, _ = lemma_co_sides(i, core_index, ell)
        for coeff in left.values():
            assert coeff.c > 0 and coeff.e == ell % 2


def test_path_counts_match_f_chev_oracle():
    # The step-by-step f_chev expansion, times sqrt2^ell and divided by ell!,
    # is the reference for the path-count divided power side, coefficient by
    # coefficient, and both sides come in decreasing lexicographic order.
    # Cores -4..4 run to one past their window; cores +-17 and +-20, whose
    # parts run up to 79, so that the walk's states are wider than 64 bits,
    # stop at ell 3.
    for core_index in (*range(-4, 5), -20, -17, 17, 20):
        colors = (0, 1) if core_index == 0 else ((1,) if core_index > 0 else (0,))
        for i in colors:
            window = 2 * abs(core_index) + (1 if i == 0 else 0)
            ells = window + 2 if abs(core_index) <= 4 else 4
            expected = {bar_core(core_index): Fraction(1)}
            for ell in range(ells):
                if ell:
                    expected = f_chev(i, expected)
                oracle = {
                    lam: Sqrt2Power.of(expected[lam] / factorial(ell), ell)
                    for lam in sorted(expected, key=lambda lam: lam.parts, reverse=True)
                }
                left, right = lemma_co_sides(i, core_index, ell)
                assert left == oracle, (i, core_index, ell)
                shown = [(lam.parts, str(c)) for lam, c in left.items()]
                assert shown == [(lam.parts, str(c)) for lam, c in oracle.items()]
                assert left == right
                assert list(right) == list(left)
