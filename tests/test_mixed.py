import json
from fractions import Fraction
from math import comb

import pytest

from schurmix import mixed
from schurmix.fock import lemma_co_sides
from schurmix.mixed import expansion_terms, lhs, resolve_case, rhs, verify
from schurmix.partitions import CASES, Partition, add_set, bar_core
from schurmix.polyring import Polynomial, shift2
from schurmix.schur import rect_schur, schur_s

from helpers import homogeneous_degree, specialized_sides


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
    for case in CASES:
        for m in range(4):
            for n in range(2 * m + 4):
                rows, cols = resolve_case(case, m, n)[2]
                area = rows * cols
                terms = expansion_terms(case, m, n)
                for t in terms:
                    if area:
                        assert homogeneous_degree(t.value) == area
                    else:
                        assert homogeneous_degree(t.value) == 0


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
    # omega fixes Q(t_odd), maps S_b(t2) to (-1)^|b| S_b'(t2) and the rectangle
    # for n to the one for top - n.  The products Q * S(t2) are linearly
    # independent, so the summands correspond with the same q0, a conjugate
    # q1 and the sign times (-1)^|q1|.  No polynomial is built, so this
    # reaches rectangles beyond the weight the sweep can afford.
    def dual(t):
        return t.q0.parts, t.q1.conjugate().parts, (-1) ** t.q1.weight * t.sign

    for i, case in enumerate(CASES):
        for m in range(9):
            top = 2 * m + 1 - i
            sets = [expansion_terms(case, m, n) for n in range(top + 1)]
            for n in range(top + 1):
                assert sets[n], (case, m, n)
                here = sorted((t.q0.parts, t.q1.parts, t.sign) for t in sets[n])
                assert here == sorted(map(dual, sets[top - n])), (case, m, n)


def test_sign_facts_of_the_summands_without_q1_or_q0():
    # With the Hall product, the coordinate of S_rect at Q_a is
    # <s_rect, P_a> >= 0, so a summand with q1 = () has sign +1; each check
    # has exactly one.  The summands with q0 = () are the b with
    # <s_rect, s_b[p_2]> != 0: one sign, the 2-sign of the rectangle, and
    # each b once, since the rectangle's 2-quotient is two rectangles whose
    # Schur product is multiplicity-free.  No polynomial is built.
    summands = without_q0 = 0
    for i, case in enumerate(CASES):
        for m in range(9):
            for n in range(2 * m + 2 - i):
                terms = expansion_terms(case, m, n)
                assert [t.sign for t in terms if not t.q1] == [1], (case, m, n)
                pure = [t for t in terms if not t.q0]
                assert len({t.sign for t in pure}) <= 1, (case, m, n)
                assert len({t.q1 for t in pure}) == len(pure), (case, m, n)
                summands += len(terms)
                without_q0 += len(pure)
    assert (summands, without_q0) == (29523, 1533)


def test_addition_set_pairs_are_distinct_and_count_the_rectangle():
    # Under (f, g)' = <f, g at t -> 2t> the products Q_a S_b(t2) are
    # orthogonal with norm 2^len(a), and (S_rect, S_rect)' is
    # binom(rows + cols, rows).  So distinct pairs (q0, q1) whose 2^len(q0)
    # add up to that binomial leave no room for any other coordinate.  Read
    # from expansion_terms alone, no polynomial built; the totals pin the set
    checks = summands = 0
    for i, case in enumerate(CASES):
        for m in range(9):
            for n in range(2 * m + 2 - i):
                rows, cols = resolve_case(case, m, n)[2]
                if not rows * cols:
                    continue
                terms = expansion_terms(case, m, n)
                assert len({(t.q0, t.q1) for t in terms}) == len(terms), (case, m, n)
                assert sum(2 ** len(t.q0) for t in terms) == comb(rows + cols, rows), (case, m, n)
                checks += 1
                summands += len(terms)
    assert (checks, summands) == (136, 29488)


def test_identity_under_the_specialization_p_k_equals_x():
    # t_k -> x/k sends S_lam to its content product, S_b(t2) to b's content
    # product at x/2 and Q_a to the Pfaffian of its pairs' values, so each
    # check is one equation between integers, both sides times the
    # rectangle weight's factorial.  x is large enough that no factor x + c
    # or x + 2c vanishes.  No polynomial is built, so this reaches m = 8; a
    # specialization is a necessary condition, not the identity.  The totals
    # pin the set
    checks = summands = 0
    for i, case in enumerate(CASES):
        for m in range(9):
            for n in range(2 * m + 2 - i):
                rows, cols = resolve_case(case, m, n)[2]
                if not rows * cols:
                    continue
                left, right, count = specialized_sides(case, m, n, 2000006)
                assert left == right, (case, m, n)
                checks += 1
                summands += count
    assert (checks, summands) == (136, 29488)


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
