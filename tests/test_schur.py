import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from schurmix import polyring, schur
from schurmix.partitions import Partition, StrictPartition
from schurmix.polyring import Polynomial, determinant, omega, pfaffian, shift2
from schurmix.schur import (
    complete_h,
    q_fun,
    q_pair,
    rect_schur,
    schur_q,
    schur_s,
)

from helpers import (
    character,
    classical_q_value,
    homogeneous_degree,
    odd_parts,
    partitions_of,
    q_value,
    rectangle_norms,
    ref_mul,
    ref_newton,
    s2_value,
    s_value,
    strict_partitions_of,
    tall_shapes,
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


def test_divided_power_coefficients_are_int(monkeypatch):
    # In the basis prod tj^mj / mj! the coefficient of S_lam at the monomial
    # of cycle type rho is the character value chi^lam(rho) (Macdonald I.7);
    # Q_lam has int coefficients there too (Macdonald III.8).  The stored
    # coefficients, w! times the ordinary ones, are ints as well: the terms
    # snapshot hands each one to polyring._ordinary, which records it here.
    stored = []
    real = polyring._ordinary

    def recording(weight, coeff):
        stored.append(coeff)
        return real(weight, coeff)

    monkeypatch.setattr(polyring, "_ordinary", recording)
    for weight in range(11):
        for parts in partitions_of(weight):
            stored.clear()
            terms = schur_s(Partition(parts)).terms
            coeffs = {mono: terms[mono] * prod(factorial(e) for _, e in mono) for mono in terms}
            assert len(stored) == len(terms) and all(type(c) is int for c in stored)
            expected = {}
            for rho in partitions_of(weight):
                chi = character(parts, rho)
                if chi:
                    expected[tuple(sorted(Counter(rho).items()))] = chi
            assert coeffs == expected
            assert all(c.denominator == 1 for c in coeffs.values())
        for parts in strict_partitions_of(weight):
            stored.clear()
            terms = schur_q(StrictPartition(parts)).terms
            coeffs = [terms[mono] * prod(factorial(e) for _, e in mono) for mono in terms]
            assert len(stored) == len(terms) and all(type(c) is int for c in stored)
            assert all(c.denominator == 1 for c in coeffs)


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


def test_schur_s_matches_plain_jacobi_trudi():
    # the h determinant in the orientation of lam itself, never via schur_s,
    # whatever orientation schur_s picks
    for weight in range(11):
        for parts in partitions_of(weight):
            n = len(parts)
            mat = [[complete_h(parts[i] + j - i) for j in range(n)] for i in range(n)]
            lam = Partition(parts)
            assert schur_s(lam) == determinant(mat), parts
            assert schur_s(lam.conjugate()) == omega(schur_s(lam)), parts


def test_tall_shapes_match_their_own_h_determinant():
    assert tall_shapes(12) == 120


def test_odd_family_minors_are_s_polynomials_at_odd_variables():
    # each shape's q determinant is its S with the even variables set to 0,
    # and so is its conjugate's
    assert odd_parts(12) == 272


def test_shared_minors_match_each_shapes_own_determinant():
    # schur_s builds every shape from one process-wide cache of h minors, so
    # a minor may first be built for any other shape that contains it.  With
    # every cache cleared and the shapes in a shuffled order, each result is
    # held to a plain determinant of its own: h_(lam_i + j - i), or for a
    # shape with more rows than columns e_(lam'_i + j - i) with e_n =
    # omega(h_n), since its h matrix (30 x 30 for 1^30) is too slow to expand.
    for cache in (schur.q_minor, schur.h_minor):
        cache.cache_clear()
    shapes = {parts for weight in range(13) for parts in partitions_of(weight)}
    # every rectangle of weight 30 or less, both b^a and a^b
    shapes |= {(b,) * a for a in range(1, 31) for b in range(1, 30 // a + 1)}
    order = sorted(shapes)
    random.Random(2005).shuffle(order)
    for parts in order:
        lam = Partition(parts)
        if parts and parts[0] < len(parts):
            rows, entry = lam.conjugate().parts, lambda n: omega(complete_h(n))
        else:
            rows, entry = parts, complete_h
        n = len(rows)
        mat = [[entry(rows[i] + j - i) for j in range(n)] for i in range(n)]
        assert schur_s(lam) == determinant(mat), parts
    assert len(order) == 272 + 76


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
    # the whole q_pair upper triangle, zero pad included.  schur_q builds every
    # shape from one process-wide store, so with every cache cleared and the
    # shapes in a shuffled order a Q may first be built as another's minor
    for cache in (schur.q_minor, schur.h_minor):
        cache.cache_clear()
    order = [parts for weight in range(15) for parts in strict_partitions_of(weight)]
    random.Random(2005).shuffle(order)
    cases = 0
    for parts in order:
        seq = parts if len(parts) % 2 == 0 else parts + (0,)
        upper = [[q_pair(a, b) for b in seq[k + 1 :]] for k, a in enumerate(seq)]
        assert schur_q(StrictPartition(parts)) == pfaffian(upper), parts
        cases += 1
    assert cases == 110


def test_schur_q_final_column_expansion():
    # expanding the padded Pfaffian along its last column agrees with the
    # two row blocks, including the q_(m,0) = q_m edge of the zero pad
    for weight in range(1, 11):
        for parts in strict_partitions_of(weight):
            lam = StrictPartition(parts)
            seq = parts if len(parts) % 2 == 0 else parts + (0,)
            last = seq[-1]
            total = Polynomial.zero()
            for j in range(len(seq) - 1):
                rest = tuple(p for k, p in enumerate(seq[:-1]) if k != j)
                sign = 1 if j % 2 == 0 else -1
                total = total + q_pair(seq[j], last) * schur_q(StrictPartition(rest)) * sign
            assert total == schur_q(lam)


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
    # polynomial, against Polynomial.eval of the built S, S(t2) and Q on
    # every shape of weight 12 or less
    shapes = strict_shapes = 0
    for x in (13, 2000006):
        point = {k: Fraction(x, k) for k in range(1, 25)}
        for weight in range(13):
            for parts in partitions_of(weight):
                s = schur_s(Partition(parts))
                assert s.eval(point) * factorial(weight) == s_value(parts, x), (parts, x)
                assert shift2(s).eval(point) * factorial(2 * weight) == s2_value(parts, x), (parts, x)
                shapes += 1
            for parts in strict_partitions_of(weight):
                q = schur_q(StrictPartition(parts))
                assert q.eval(point) * factorial(weight) == q_value(parts, x), (parts, x)
                strict_shapes += 1
    assert (shapes, strict_shapes) == (2 * 272, 2 * 70)


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
