import functools
import json
from fractions import Fraction

import pytest

from schurmix import mixed
from schurmix.fock import lemma_co_sides
from schurmix.mixed import expansion_terms, lhs, resolve_case, rhs, verify
from schurmix.partitions import Partition, add_set, bar_core
from schurmix.polyring import Polynomial, shift2
from schurmix.schur import rect_schur, schur_s

import helpers
from helpers import case_grid, homogeneous_degree, summand_walk


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


def test_terms_are_homogeneous_of_rectangle_weight():
    # past n = top the addition set is empty, so case_grid covers every term
    for case, m, n, rows, cols in case_grid(3):
        for t in expansion_terms(case, m, n):
            assert homogeneous_degree(t.value) == rows * cols


def test_total_is_the_sum_of_the_term_values():
    # the total comes from one accumulator and each value is computed when
    # read, so the two paths must agree term for term
    for case, m, n, _, _ in case_grid(3):
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


@functools.cache
def walk_at_8():
    """summand_walk(8), the walk CI runs at 10, run once per session: each
    test below pins its own share of the totals."""
    return summand_walk(8)


def test_omega_dual_pairs_the_summands_of_n_and_top_minus_n():
    # no polynomial is built, so this reaches rectangles beyond the weight
    # the sweep can afford
    checks, summands, *_ = walk_at_8()
    assert (checks, summands) == (171, 29523)


def test_sign_facts_of_the_summands_without_q1_or_q0():
    # summand_walk asserts the sign facts on each set it walks
    assert walk_at_8()[:3] == (171, 29523, 1533)


def test_addition_set_pairs_are_distinct_and_count_the_rectangle():
    # on each nonempty rectangle the walk runs three checks: the pairs
    # (q0, q1) are distinct, their 2^len(q0) add up to the Parseval count
    # binom(rows + cols, rows), and the identity holds at t_k = X/k
    assert walk_at_8()[3:] == (136, 29488)


def test_summand_walk_builds_each_set_once(monkeypatch):
    # the walk runs every check of a set on one build of its summands
    calls = []

    def counting(case, m, n):
        calls.append((case, m, n))
        return expansion_terms(case, m, n)

    monkeypatch.setattr(helpers, "expansion_terms", counting)
    summand_walk(3)
    assert calls == [(case, m, n) for case, m, n, _, _ in case_grid(3)]


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
