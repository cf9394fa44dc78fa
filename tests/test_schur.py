import functools
from fractions import Fraction

import pytest

from schurmix import schur
from schurmix.partitions import Partition, StrictPartition
from schurmix.polyring import Polynomial, determinant, omega
from schurmix.schur import (
    complete_h,
    q_fun,
    q_pair,
    rect_schur,
    schur_q,
    schur_s,
)

from helpers import (
    classical_q_value,
    homogeneous_degree,
    partitions_of,
    rectangle_norms,
    ref_mul,
    ref_newton,
    shape_walk,
    strict_partitions_of,
    strict_walk,
)


def t(j):
    return Polynomial.variable(j)


def test_complete_h_values():
    assert complete_h(0) == 1
    assert complete_h(1) == t(1)
    assert complete_h(2) == t(1) ** 2 * Fraction(1, 2) + t(2)
    assert complete_h(3) == t(1) ** 3 * Fraction(1, 6) + t(1) * t(2) + t(3)
    assert complete_h(-2).is_zero


def test_q_fun_values():
    assert q_fun(0) == 1
    assert q_fun(1) == t(1)
    assert q_fun(2) == t(1) ** 2 * Fraction(1, 2)
    assert q_fun(3) == t(1) ** 3 * Fraction(1, 6) + t(3)
    assert q_fun(-1).is_zero


def test_h_and_q_match_newton_recurrence():
    for n in range(-1, 13):
        assert complete_h(n).terms == ref_newton(n, 1)
        assert q_fun(n).terms == ref_newton(n, 2)
    # products of the directly built pieces, against dict convolution
    for a in range(7):
        for b in range(7 - a):
            got = (complete_h(a) * complete_h(b)).terms
            assert got == ref_mul(ref_newton(a, 1), ref_newton(b, 1))
            got = (q_fun(a) * q_fun(b)).terms
            assert got == ref_mul(ref_newton(a, 2), ref_newton(b, 2))


@functools.cache
def shapes_at_12():
    """shape_walk(12), the walk CI runs at 16, run once per session: each test
    below pins its own share of the totals."""
    return shape_walk(12)


@functools.cache
def strict_shapes_at_14():
    """strict_walk(14), run once per session."""
    return strict_walk(14)


def test_divided_power_coefficients_are_int():
    # S_lam has the characters chi^lam(rho) as its coefficients in the basis
    # prod tj^mj / mj! (Macdonald I.7), Q_lam int ones (III.8); the stored
    # coefficients, w! times the ordinary ones, are ints
    assert shapes_at_12()[0] == 272
    assert strict_shapes_at_14() == 110


def test_q_fun_uses_only_odd_variables():
    for n in range(9):
        for mono in q_fun(n).terms:
            assert all(var % 2 == 1 for var, _ in mono)


def test_cached_results_cannot_be_corrupted():
    # schur_s((1, 1, 1)) is omega of schur_s((3,)), whose h_minor entry must not change
    cached = [
        (lambda: schur_s(Partition((1, 1, 1))), "1/6*t1^3 - t1*t2 + t3"),
        (lambda: schur_s(Partition((3,))), "1/6*t1^3 + t1*t2 + t3"),
        (lambda: schur_s(Partition((2, 1))), "1/3*t1^3 - t3"),
        (lambda: schur_q(StrictPartition((2, 1))), "1/6*t1^3 - 2*t3"),
        (lambda: q_pair(2, 1), "1/6*t1^3 - 2*t3"),
        (lambda: complete_h(3), "1/6*t1^3 + t1*t2 + t3"),
        (lambda: q_fun(3), "1/6*t1^3 + t3"),
    ]
    for build, expected in cached:
        with pytest.raises(AttributeError):
            build().terms.clear()
        with pytest.raises(TypeError):
            build().terms[()] = 1
        with pytest.raises(AttributeError):
            build().terms = {}
        omega(build())
        assert build().pretty() == expected
    # schur_s((3, 3, 3)) is itself a cached h minor, and schur_s((4, 3, 3))
    # reads all three of its 2 x 2 minors from the same cache
    schur.h_minor.cache_clear()
    square = schur_s(Partition((3, 3, 3)))
    with pytest.raises(AttributeError):
        square.terms.clear()
    with pytest.raises(TypeError):
        square.terms[()] = 1
    with pytest.raises(AttributeError):
        square.terms = {}
    # complete_h(6) is an h_minor entry too, so the matrices come first
    mats = {
        parts: [[complete_h(parts[i] + j - i) for j in range(3)] for i in range(3)]
        for parts in ((4, 3, 3), (3, 3, 3))
    }
    misses = schur.h_minor.cache_info().misses
    for parts, mat in mats.items():
        assert schur_s(Partition(parts)) == determinant(mat), parts
    # only the 3 x 3 minor of (4, 3, 3) is new
    assert schur.h_minor.cache_info().misses == misses + 1


def test_h_minor_is_the_one_store_of_s_polynomials():
    # a shape with at least as many columns as rows is its own h_minor entry;
    # a taller one is omega of its conjugate's entry, built on each call and
    # kept nowhere
    assert schur_s(Partition((3, 2))) is schur.h_minor(1, (3, 1), 0b11)
    tall = Partition((1, 1, 1, 1))
    first, second = schur_s(tall), schur_s(tall)
    assert first == second == omega(schur.h_minor(1, (4,), 0b1))
    assert first is not second
    # h_n is the one-row shape's entry, shared with every one-row sub-minor
    for n in range(1, 9):
        assert schur_s(Partition((n,))) is complete_h(n) is schur.h_minor(1, (n,), 1)


def test_schur_keeps_two_caches():
    # h_n and q_n live in the minor stores, so they are the module's only caches
    cached = {name for name, obj in vars(schur).items() if hasattr(obj, "cache_info")}
    assert cached == {"h_minor", "q_minor"}


def test_q_minor_is_the_one_store_of_q_polynomials():
    # schur_q returns the q_minor entry itself, a two-part Q is its pair's
    # entry, and neither schur_q nor q_pair keeps a cache of its own
    assert schur_q(StrictPartition((4, 2, 1))) is schur.q_minor((4, 2, 1))
    pair = schur_q(StrictPartition((3, 1)))
    assert pair is schur.q_minor((3, 1)) and pair == q_pair(3, 1)
    assert schur_q(StrictPartition((3,))) is schur.q_minor((3,))
    for fn in (schur_q, q_pair):
        assert not hasattr(fn, "cache_info"), fn
    # q_n is the one-row entry of the odd family in h_minor, which q_pair(n, 0)
    # and q_minor's one-part entry return.  Both stores are cleared: with
    # h_minor alone cleared, q_minor would keep the old q_n, equal but not
    # the same object
    for cache in (schur.q_minor, schur.h_minor):
        cache.cache_clear()
    for n in range(1, 9):
        q = schur.h_minor(2, (n,), 1)
        assert schur_q(StrictPartition((n,))) is q_fun(n) is q_pair(n, 0) is q


def test_schur_q_refuses_a_partition_that_is_not_strict(monkeypatch):
    def unreachable(parts):
        raise AssertionError(f"q_minor reached with {parts!r}")

    monkeypatch.setattr(schur, "q_minor", unreachable)
    for lam in (Partition((3, 3, 1)), Partition((3, 1)), Partition(), (3, 1), None):
        with pytest.raises(TypeError, match="schur_q: lam must be a StrictPartition"):
            schur_q(lam)


def test_schur_s_refuses_a_lam_that_is_not_a_partition(monkeypatch):
    def unreachable(step, offsets, mask):
        raise AssertionError(f"h_minor reached with {step!r}, {offsets!r}, {mask!r}")

    monkeypatch.setattr(schur, "h_minor", unreachable)
    for lam in ((3, 1), [3, 1], (), None, "31"):
        with pytest.raises(TypeError, match="schur_s: lam must be a Partition"):
            schur_s(lam)


def test_h_minor_refuses_a_family_other_than_1_or_2():
    # e_n is h_n for family 1 and q_n for family 2; a step-3 base would build
    # and store entries of neither, and step 0 has no series at all
    for step, offsets, mask in ((3, (2, 1), 0b11), (0, (2,), 1), (-1, (), 0)):
        with pytest.raises(ValueError, match=rf"^h_minor family must be 1 or 2, got {step}$"):
            schur.h_minor(step, offsets, mask)


def test_s_sum_expands_only_groups_that_share_an_entry(monkeypatch):
    # (3, 1) meets h_3 and h_4, (2, 2) h_2 and h_3, and the tall (2, 1, 1),
    # by its conjugate (3, 1), h_3 and h_4 on the other side: the first pair
    # shares h_3 and is expanded along one top row, building no S; (4,) and
    # (2, 1, 1), one per side, share nothing and add their own schur_s
    calls = []

    def counting(lam):
        calls.append(lam.parts)
        return schur_s(lam)

    monkeypatch.setattr(schur, "schur_s", counting)
    shared = [(2, Partition((3, 1))), (-1, Partition((2, 2))), (1, Partition((2, 1, 1)))]
    apart = [(1, Partition((4,))), (-2, Partition((2, 1, 1)))]
    for members, built in ((shared, []), (apart, [(4,), (2, 1, 1)])):
        calls.clear()
        total = schur.s_sum(members)
        assert calls == built
        assert total == sum((c * schur_s(lam) for c, lam in members), Polynomial.zero())
    assert schur.s_sum([]).is_zero


def test_series_pieces_are_homogeneous():
    for n in range(11):
        assert homogeneous_degree(complete_h(n)) == n
        assert homogeneous_degree(q_fun(n)) == n


def test_schur_s_basics():
    assert schur_s(Partition()) == 1
    for n in range(7):
        assert schur_s(Partition((n,) if n else ())) == complete_h(n)
    assert schur_s(Partition((1, 1))) == t(1) ** 2 * Fraction(1, 2) - t(2)
    for parts in ((2, 1), (3, 2, 1), (2, 2)):
        lam = Partition(parts)
        assert homogeneous_degree(schur_s(lam)) == lam.weight


def test_conjugate():
    assert Partition().conjugate() == Partition()
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition((4, 4, 2)).conjugate() == Partition((3, 3, 2, 2))
    for weight in range(11):
        for parts in partitions_of(weight):
            lam = Partition(parts)
            conj = lam.conjugate()
            # built without a check, it must hold what the constructor accepts
            assert type(conj) is Partition and type(conj.parts) is tuple
            assert Partition(conj.parts) == conj
            assert conj.weight == weight
            assert conj.conjugate() == lam
    for parts in ((5, 3, 1), (4, 2)):
        conj = StrictPartition(parts).conjugate()
        assert type(conj) is Partition
        assert Partition(conj.parts) == conj


def test_tall_shapes_match_their_own_h_determinant():
    # schur_s builds a shape with more rows than columns from its conjugate
    # and omega; the walk holds each shape to the h matrix of its own
    # orientation, which uses neither
    assert shapes_at_12()[:2] == (272, 120)


def test_odd_family_minors_are_s_polynomials_at_odd_variables():
    # each shape's q determinant is its S with the even variables set to 0,
    # and so is its conjugate's
    assert shapes_at_12()[0] == 272


def test_shared_minors_match_each_shapes_own_determinant():
    # schur_s builds every shape from one process-wide cache of h minors, so
    # a minor may first be built for any other shape that contains it: the
    # walk starts from emptied stores and takes the shapes of weight 12 or
    # less with every rectangle of weight 30 or less in a shuffled order
    assert shapes_at_12() == (272, 120, 76)


def test_grouped_s_sums_match_their_members_s_polynomials():
    # shape_walk holds s_sum of seeded member lists, wide, tall, one-row and
    # empty shapes with c in {-2, -1, 1, 2}, to the sum of c * schur_s at
    # each weight
    assert shapes_at_12()[0] == 272


def test_q_pair_values():
    assert q_pair(2, 1) == t(1) ** 3 * Fraction(1, 6) - 2 * t(3)
    assert q_pair(3, 0) == q_fun(3)
    for m, n in ((-1, 0), (1, 1), (0, 0), (1, 2), (0, -1)):
        with pytest.raises(ValueError):
            q_pair(m, n)


def test_schur_q_asks_q_pair_only_for_m_above_n(monkeypatch):
    # the head of a strictly decreasing, zero-padded seq paired with each
    # later entry; with the store emptied first, every pair q_minor asks for
    # reaches the recorder, and the top call is not cached, so the one- and
    # two-part tuples ask for theirs on every call
    schur.q_minor.cache_clear()
    asked = []

    def recorder(m, n):
        asked.append((m, n))
        return q_pair(m, n)

    monkeypatch.setattr(schur, "q_pair", recorder)
    for weight in range(13):
        for parts in strict_partitions_of(weight):
            schur.q_minor.__wrapped__(parts)
    assert asked and all(m > n >= 0 for m, n in asked)
    assert {n for _, n in asked} >= {0, 1}


def test_schur_q_basics():
    assert schur_q(StrictPartition()) == 1
    for n in range(1, 8):
        assert schur_q(StrictPartition((n,))) == q_fun(n)
    assert schur_q(StrictPartition((2, 1))) == q_pair(2, 1)
    for parts in ((3, 1), (4, 2, 1), (5, 3)):
        lam = StrictPartition(parts)
        assert homogeneous_degree(schur_q(lam)) == lam.weight


def test_schur_q_matches_the_pfaffian():
    # the recursion through cached smaller Qs against the memoised Pfaffian of
    # the whole q_pair upper triangle, from emptied stores in a shuffled order,
    # so a Q may first be built as another's minor
    assert strict_shapes_at_14() == 110


def test_schur_q_final_column_expansion():
    # expanding the padded Pfaffian along its last column agrees with the
    # two row blocks, including the q_(m,0) = q_m edge of the zero pad
    assert strict_shapes_at_14() == 110


def test_schur_q_matches_marked_shifted_tableaux():
    # Oracle independent of q_pair and the Pfaffian: at t_k = 2 p_k(x) / k for
    # odd k, Q_lam is the sum of x^T over marked shifted tableaux T of shape
    # lam.  No even t_k is given, so an even variable in Q_lam raises.
    points = (
        (Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(1, 3)),
        (Fraction(3, 2), Fraction(-1), Fraction(2, 5), Fraction(-3)),
        (Fraction(-2, 3), Fraction(1, 4), Fraction(5), Fraction(-1, 6)),
        (Fraction(7), Fraction(-5, 4), Fraction(1), Fraction(2, 9)),
    )
    cases = 0
    for weight in range(7):
        for parts in strict_partitions_of(weight):
            q = schur_q(StrictPartition(parts))
            for xs in points:
                point = {k: 2 * sum(x**k for x in xs) / k for k in range(1, weight + 1, 2)}
                assert q.eval(point) == classical_q_value(parts, xs), (parts, xs)
            cases += 1
    assert cases == 1 + 1 + 1 + 2 + 2 + 3 + 4


def test_specialized_values_match_the_built_polynomials():
    # helpers' evaluators at t_k = x/k, each w! times the value of a weight-w
    # polynomial, against Polynomial.eval of the built S, S(t2) and Q at
    # x = 13 and X, on every shape of weight 12 or less and every strict
    # shape of weight 14 or less
    assert (shapes_at_12()[0], strict_shapes_at_14()) == (272, 110)


def test_rect_schur_degenerate_edges():
    assert rect_schur(0, 5) == 1
    assert rect_schur(5, 0) == 1
    assert rect_schur(0, 0) == 1
    assert rect_schur(-1, 3).is_zero
    assert rect_schur(3, -1).is_zero
    assert rect_schur(1, 4) == complete_h(4)
    assert rect_schur(2, 2) == schur_s(Partition((2, 2)))


def test_rectangle_norm_counts_the_shapes_inside():
    assert rectangle_norms(20) == 66
