import json
from fractions import Fraction

import pytest

from schurmix import mixed
from schurmix.fock import lemma_co_sides
from schurmix.mixed import expansion_terms, lhs, resolve_case, rhs, verify
from schurmix.partitions import CASES, Partition, add_set, bar_core
from schurmix.polyring import Polynomial, shift2
from schurmix.schur import rect_schur, schur_s

from helpers import (
    addition_set_counts,
    case_grid,
    homogeneous_degree,
    specialization_checks,
    summand_facts,
)


def term_triples(terms):
    return [(t.sign, t.q0.parts, t.q1.parts) for t in terms]


def test_positive_core_worked_expansion():
    total, terms = lhs("one", 3, 2)
    assert [t.mu.parts for t in terms] == [
        (11, 5, 1),
        (10, 6, 1),
        (10, 5, 2),
        (9, 7, 1),
        (9, 6, 2),
        (9, 5, 3),
    ]
    assert term_triples(terms) == [
        (1, (), (1, 1, 1, 1)),
        (1, (5, 3), ()),
        (-1, (5, 1), (1,)),
        (1, (), (2, 1, 1)),
        (1, (3, 1), (2,)),
        (1, (), (2, 2)),
    ]
    assert total == schur_s(Partition((2, 2, 2, 2)))


def test_negative_core_worked_expansion():
    total, terms = lhs("zero", 2, 2)
    assert term_triples(terms) == [
        (-1, (), (3,)),
        (1, (4, 2), ()),
        (1, (4,), (1,)),
        (-1, (), (2, 1)),
        (1, (2,), (1, 1)),
    ]
    assert total == schur_s(Partition((3, 3)))


def test_rect_shape_by_case():
    assert resolve_case("one", 3, 2) == (1, 3, (4, 2))
    assert resolve_case("zero", 2, 2) == (0, -2, (2, 3))


def test_degenerate_rectangles():
    # saturated window: single term equal to 1
    assert rhs("one", 2, 4) == 1
    total, terms = lhs("one", 2, 4)
    assert total == 1 and len(terms) == 1
    # beyond the window both sides vanish
    report = verify("one", 1, 3)
    assert report.equal and report.lhs.is_zero and report.rhs.is_zero and not report.terms
    report = verify("zero", 0, 2)
    assert report.equal and report.lhs.is_zero


def test_smallest_cases():
    report = verify("one", 0, 0)
    assert report.equal and report.lhs == 1 and report.rhs == 1
    report = verify("zero", 0, 1)
    assert report.equal and report.rhs == 1


def test_report_fields():
    report = verify("zero", 2, 2)
    assert report.case == "zero"
    assert report.core_index == -2
    assert report.n == 2
    assert report.equal
    assert report.difference.is_zero
    assert len(report.terms) == 5


def test_mismatch_reports_the_difference(monkeypatch):
    # a rectangle off by t1 must fail the check and show the difference
    monkeypatch.setattr(mixed, "rect_schur", lambda a, b: rect_schur(a, b) + Polynomial.variable(1))
    report = verify("one", 3, 2)
    assert report.equal is False
    assert report.difference == report.lhs - report.rhs
    assert report.difference == -Polynomial.variable(1)


def test_term_count_matches_add_set():
    for case, m, n in (("one", 3, 2), ("zero", 2, 3), ("one", 2, 1)):
        color = 1 if case == "one" else 0
        core = bar_core(m if case == "one" else -m)
        terms = expansion_terms(case, m, n)
        assert len(terms) == len(list(add_set(core, color, n)))


def test_terms_are_homogeneous_of_rectangle_weight():
    # past n = top the addition set is empty, so case_grid covers every term
    for case, m, n, rows, cols in case_grid(3):
        for t in expansion_terms(case, m, n):
            assert homogeneous_degree(t.value) == rows * cols


def test_total_is_the_sum_of_the_term_values():
    # the total comes from one accumulator and each value is computed when
    # read, so the two paths must agree term for term
    for case in CASES:
        for m in range(4):
            for n in range(2 * m + 4):
                total, terms = lhs(case, m, n)
                assert total == sum((t.value for t in terms), Polynomial.zero()), (case, m, n)


def test_lhs_shifts_once_per_distinct_q(monkeypatch):
    # summands sharing a Q are summed before the shift, so shift2 runs once
    # per distinct q0, not once per summand
    calls = []

    def counting(p):
        calls.append(p)
        return shift2(p)

    monkeypatch.setattr(mixed, "shift2", counting)
    for case, m, n in (("one", 3, 2), ("zero", 3, 4), ("one", 4, 5)):
        calls.clear()
        total, terms = lhs(case, m, n)
        distinct = len({t.q0 for t in terms})
        assert len(calls) == distinct < len(terms), (case, m, n)
        assert total == rect_schur(*resolve_case(case, m, n)[2])


def test_omega_dual_pairs_the_summands_of_n_and_top_minus_n():
    # no polynomial is built, so this reaches rectangles beyond the weight
    # the sweep can afford
    assert summand_facts(8) == (171, 29523, 1533)


def test_sign_facts_of_the_summands_without_q1_or_q0():
    assert summand_facts(8) == (171, 29523, 1533)


def test_addition_set_pairs_are_distinct_and_count_the_rectangle():
    assert addition_set_counts(8) == (136, 29488)


def test_identity_under_the_specialization_p_k_equals_x():
    # x = 2000006 is large enough that no factor x + c or x + 2c vanishes
    assert specialization_checks(8, 2000006) == (136, 29488)


def test_sweep_small_cores():
    for case in ("one", "zero"):
        for m in range(4):
            for n in range(2 * m + 4):
                assert verify(case, m, n).equal


def test_single_spot_at_m4():
    assert verify("one", 4, 3).equal
    assert verify("zero", 4, 5).equal


def test_rhs_is_rectangle():
    assert rhs("one", 3, 2) == rect_schur(4, 2)
    assert rhs("zero", 2, 2) == rect_schur(2, 3)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        verify("two", 1, 1)
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        verify("one", -1, 0)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -2$"):
        lhs("one", 0, -2)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        rhs("zero", 3, -1)


def test_counts_must_be_ints():
    # results are built without a check, so a float or Fraction count is
    # refused at the call, before any result is built
    for bad in (1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            add_set(bar_core(1), 1, bad)
        with pytest.raises(TypeError):
            lemma_co_sides(1, 1, bad)
        with pytest.raises(TypeError):
            resolve_case("one", bad, 1)
        with pytest.raises(TypeError):
            resolve_case("one", 1, bad)
    with pytest.raises(TypeError):
        verify("zero", 2, 2.0)


def test_verify_reports_the_checked_n():
    # the report holds the int the check ran with, so it dumps as a number
    report = verify("one", 1, True)
    assert type(report.n) is int and report.n == 1
    assert json.dumps({"n": report.n}) == '{"n": 1}'
