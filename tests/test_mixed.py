import pytest

from schurmix.mixed import lhs, rect_shape, rhs, verify
from schurmix.partitions import CASES, Partition, add_set, bar_core
from schurmix.polyring import Polynomial
from schurmix.schur import rect_schur, schur_s


def term_triples(terms):
    return [(t.sign, t.q_index.parts, t.s_index.parts) for t in terms]


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
    assert rect_shape(1, 3, 2) == (4, 2)
    assert rect_shape(0, 2, 2) == (2, 3)


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


def test_term_count_matches_add_set():
    for case, m, n in (("one", 3, 2), ("zero", 2, 3), ("one", 2, 1)):
        color = 1 if case == "one" else 0
        core = bar_core(m if case == "one" else -m)
        _, terms = lhs(case, m, n)
        assert len(terms) == len(list(add_set(core, color, n)))


def test_terms_are_homogeneous_of_rectangle_weight():
    for i, case in enumerate(CASES):
        for m in range(4):
            for n in range(2 * m + 4):
                rows, cols = rect_shape(i, m, n)
                area = rows * cols
                _, terms = lhs(case, m, n)
                for t in terms:
                    if area:
                        assert t.value.homogeneous_degree() == area
                    else:
                        assert t.value.homogeneous_degree() == 0


def test_total_is_the_sum_of_the_term_values():
    # the total comes from one accumulator and each value is computed when
    # read, so the two paths must agree term for term
    for case in CASES:
        for m in range(4):
            for n in range(2 * m + 4):
                total, terms = lhs(case, m, n)
                assert total == sum((t.value for t in terms), Polynomial.zero()), (case, m, n)


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
    with pytest.raises(ValueError):
        verify("one", -1, 0)
    with pytest.raises(ValueError):
        lhs("one", 0, -2)
