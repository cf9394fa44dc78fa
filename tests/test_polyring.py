import json
import random
from collections import Counter
from collections.abc import Mapping, MutableMapping
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurmix import polyring
from schurmix.partitions import Partition, StrictPartition
from schurmix.polyring import (
    Polynomial,
    _monomial,
    _monomial_of,
    as_polynomial,
    determinant,
    omega,
    pfaffian,
    shift2,
    sum_of_products,
)
from schurmix.schur import complete_h, schur_q, schur_s

from helpers import (
    character,
    homogeneous_degree,
    partitions_of,
    pfaffian_by_matchings,
    polynomials,
    random_poly,
    random_skew_matrix,
    ref_add,
    ref_json_obj,
    ref_mul,
    ref_omega,
    ref_shift2,
    strict_partitions_of,
    upper_triangle,
)


def t(j):
    return Polynomial.variable(j)


def test_monomial_basics():
    m = Polynomial([({3: 1, 1: 2}, 1)])
    assert m.terms == {((1, 2), (3, 1)): 1}
    assert homogeneous_degree(m) == 5
    assert m.pretty() == "t1^2*t3"
    assert Polynomial([((), 1)]).pretty() == "1"
    assert (m * t(2)).terms == {((1, 2), (2, 1), (3, 1)): 1}
    assert shift2(m).terms == {((2, 2), (6, 1)): 1}


def test_monomial_validation():
    # a duplicate variable is caught even when one copy has exponent 0
    for spec in ({0: 1}, {2: -1}, ((1, 1), (1, 2)), ((1, 0), (1, 2)), ((1, 2), (1, 0))):
        with pytest.raises(ValueError):
            Polynomial([(spec, 1)])
    assert Polynomial([({2: 0}, 1)]).terms == {(): 1}
    # variables and exponents are int, never truncated
    for spec in ({1.5: 1}, {1: 2.0}, {1: Fraction(1)}, (("1", 1),), {True: 1}):
        with pytest.raises(TypeError):
            Polynomial([(spec, 1)])
    for j in (1.5, True):
        with pytest.raises(TypeError):
            Polynomial.variable(j)
    # coefficients are exact: int or Fraction, never float
    with pytest.raises(TypeError):
        Polynomial({(): 0.1})
    with pytest.raises(TypeError):
        Polynomial([({1: 1}, 1.0)])
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)
    assert Polynomial({(): Fraction(1, 10)}).pretty() == "1/10"


def test_internal_monomials_are_canonical():
    # products, sums and shift2 build monomial tuples without validation;
    # every key they make must already be in the form _monomial returns
    def check(p):
        for mono in p.terms:
            assert _monomial(mono) == mono

    rng = random.Random(808)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        check(a * b)
        check(a + b)
        check(shift2(a))
    for n in range(9):
        for parts in partitions_of(n):
            check(schur_s(Partition(parts)))
        for parts in strict_partitions_of(n):
            check(schur_q(StrictPartition(parts)))
    with pytest.raises(ValueError):
        Polynomial.variable(0)
    with pytest.raises(ValueError):
        Polynomial([(((2, 1), (2, 1)), 1)])
    with pytest.raises(ValueError):
        Polynomial([(((1, -1),), 1)])


def test_polynomial_arithmetic():
    p = (t(1) + t(2)) * (t(1) - t(2))
    assert p == t(1) * t(1) - t(2) * t(2)
    assert (p - p).is_zero
    assert t(1) * 0 == Polynomial.zero()
    assert Polynomial.constant(Fraction(1, 2)) * 2 == 1
    assert (t(1) + 1) ** 2 == t(1) ** 2 + 2 * t(1) + 1
    assert 1 - t(1) == -(t(1) - 1)
    assert as_polynomial(3) == Polynomial.constant(3)
    with pytest.raises(ValueError):
        as_polynomial("nope")
    # a non-number operand is refused, never coerced
    assert not p == "x" and p != "x"
    for op in (lambda: p + "x", lambda: p - "x", lambda: "x" - p, lambda: p * "x"):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):
        p ** -1


def test_ring_axioms_random():
    rng = random.Random(9021)
    for _ in range(30):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a - a).is_zero


def test_shift2():
    p = t(1) * t(1) * Fraction(1, 2) + t(2)
    assert shift2(p) == t(2) * t(2) * Fraction(1, 2) + t(4)
    rng = random.Random(33)
    for _ in range(20):
        a, b = random_poly(rng), random_poly(rng)
        assert shift2(a * b) == shift2(a) * shift2(b)
        assert shift2(a + b) == shift2(a) + shift2(b)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_omega_is_a_ring_involution(a, b):
    assert omega(omega(a)) == a
    assert omega(a * b) == omega(a) * omega(b)
    assert omega(a + b) == omega(a) + omega(b)


@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomials())
def test_arithmetic_matches_ordinary_basis_reference(a, b):
    # the divided-power product rule and the basis conversions against plain
    # ordinary-basis dict arithmetic on .terms
    ta, tb = dict(a.terms), dict(b.terms)
    assert Polynomial(ta).terms == ta
    assert (a * b).terms == ref_mul(ta, tb)
    assert (a + b).terms == ref_add(ta, tb)
    assert shift2(a).terms == ref_shift2(ta)
    assert omega(a).terms == ref_omega(ta)


def test_scalar_products_go_through_one_sum_of_products_call(monkeypatch):
    # every product, scalar multiples and negation included, is one
    # accumulator call; the result is checked on the ordinary-basis terms
    p = Polynomial(
        [({1: 2}, Fraction(-3, 2)), ({2: 1, 3: 1}, 5), ({}, 1), ({4: 1}, Fraction(2, 3))]
    )
    ordinary = dict(p.terms)
    calls = []
    real = polyring.sum_of_products

    def counting(terms):
        calls.append(1)
        return real(terms)

    monkeypatch.setattr(polyring, "sum_of_products", counting)
    for c in (0, 2, -1, Fraction(1, 3)):
        expected = {mono: coeff * c for mono, coeff in ordinary.items() if c}
        for product in (lambda: p * c, lambda: c * p):
            calls.clear()
            assert product().terms == expected, c
            assert len(calls) == 1, c
    calls.clear()
    assert (-p).terms == {mono: -coeff for mono, coeff in ordinary.items()}
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), polynomials(), polynomials()), max_size=4))
@example([(2, Polynomial.one() + t(1), t(3) - t(1) * t(2))])
def test_sum_of_products_matches_ordinary_basis_reference(triples):
    expected = {}
    for c, a, b in triples:
        product = ref_mul(dict(a.terms), dict(b.terms))
        expected = ref_add(expected, {mono: c * coeff for mono, coeff in product.items()})
    assert sum_of_products(triples).terms == expected
    # Each product added back with the opposite sign and the factors swapped
    # cancels every term; == compares the pieces, so an empty weight piece
    # left behind would fail it.
    mirrored = triples + [(-c, b, a) for c, a, b in triples]
    assert sum_of_products(mirrored) == Polynomial.zero()


def test_omega_maps_h_to_e():
    # e_n is the coefficient of z^n in exp(sum_k (-1)^(k+1) t_k z^k), by hand
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    elementary = [
        Polynomial.one(),
        t(1),
        half * t(1) ** 2 - t(2),
        sixth * t(1) ** 3 - t(1) * t(2) + t(3),
        Fraction(1, 24) * t(1) ** 4 - half * t(1) ** 2 * t(2) + t(1) * t(3)
        + half * t(2) ** 2 - t(4),
    ]
    for n, e_n in enumerate(elementary):
        assert omega(complete_h(n)) == e_n
        assert omega(e_n) == complete_h(n)


def test_weighted_degree_helpers():
    p = t(1) ** 3 + t(3)
    assert homogeneous_degree(p) == 3
    assert homogeneous_degree(t(1) + t(2)) is None
    assert homogeneous_degree(Polynomial.zero()) is None


def test_eval():
    p = t(1) ** 2 * Fraction(1, 2) + t(2)
    assert p.eval({1: 2, 2: 3}) == 5
    assert p.eval({1: Fraction(1, 2), 2: Fraction(-1, 8)}) == 0
    with pytest.raises(ValueError):
        p.eval({1: 2})
    with pytest.raises(TypeError):
        p.eval({1: 2, 2: 0.5})
    rng = random.Random(4)
    point = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(1, 4)}
    for _ in range(20):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)
        assert (a + b).eval(point) == a.eval(point) + b.eval(point)


def test_boundary_reads_follow_canonical_order():
    p = t(3) + t(1)
    assert list(p.terms) == [((1, 1),), ((3, 1),)]
    # the first term in canonical order is t1, so its variable is the one missing
    with pytest.raises(ValueError, match="t1"):
        p.eval({})


@settings(max_examples=100, deadline=None)
@given(polynomials())
def test_terms_iterate_like_sorted_terms(p):
    assert list(p.terms) == [m for m, _ in p.sorted_terms()]


def test_pretty_printing():
    assert (t(1) ** 3 * Fraction(1, 6) - 2 * t(3)).pretty() == "1/6*t1^3 - 2*t3"
    assert Polynomial.zero().pretty() == "0"
    assert Polynomial.constant(Fraction(5, 2)).pretty() == "5/2"
    assert (-t(1)).pretty() == "-t1"
    assert (t(2) - t(1) ** 2).pretty() == "-t1^2 + t2"
    assert (t(1) ** 2 * t(3) + t(2) ** 2).pretty() == "t2^2 + t1^2*t3"


def test_canonical_term_order():
    # ascending weighted degree, then larger exponent vector first
    p = t(3) + t(1) ** 3 + t(1) + t(1) * t(2)
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == [((1, 1),), ((1, 3),), ((1, 1), (2, 1)), ((3, 1),)]


def test_json_form():
    obj = (t(1) ** 3 * Fraction(1, 6) - 2 * t(3)).to_json_obj()
    assert obj == {
        "terms": [
            {"coeff": "1/6", "mono": {"1": "3"}},
            {"coeff": "-2/1", "mono": {"3": "1"}},
        ]
    }
    # stable under json round trip
    assert json.loads(json.dumps(obj)) == obj
    assert Polynomial.zero().to_json_obj() == {"terms": []}


def test_json_text():
    # the text is byte for byte json.dumps of the JSON form: lowest terms with
    # the sign on top, no zero exponent in a mono, and json.dumps's spacing
    for p, text in (
        (Polynomial.zero(), '{"terms": []}'),
        (Polynomial.one(), '{"terms": [{"coeff": "1/1", "mono": {}}]}'),
        (
            t(1) ** 3 * Fraction(1, 6) - 2 * t(3),
            '{"terms": [{"coeff": "1/6", "mono": {"1": "3"}}, {"coeff": "-2/1", "mono": {"3": "1"}}]}',
        ),
        (
            # stored as -6/7 at weight 3 and -3/2 at weight 0: both stay Fractions
            Polynomial({((1, 1), (2, 1)): Fraction(-1, 7), (): Fraction(-3, 2)}),
            '{"terms": [{"coeff": "-3/2", "mono": {}}, {"coeff": "-1/7", "mono": {"1": "1", "2": "1"}}]}',
        ),
        (
            -4 * t(1) * t(3) ** 2,
            '{"terms": [{"coeff": "-4/1", "mono": {"1": "1", "3": "2"}}]}',
        ),
    ):
        assert p.to_json_text() == text
        assert json.dumps(json.loads(text)) == text


@settings(max_examples=200, deadline=None)
@given(polynomials())
@example(Polynomial.zero())
def test_json_form_matches_ordinary_basis_reference(p):
    # to_json_text writes num/den without a Fraction; the reference reads only
    # the ordinary-basis terms snapshot, whose Fractions stay non-integral here
    # for some caller coefficients even after scaling by w!
    ref = ref_json_obj(dict(p.terms))
    assert p.to_json_obj() == ref
    assert p.to_json_text() == json.dumps(ref)


def test_json_form_of_small_schur_polynomials_matches_reference():
    for n in range(9):
        for p in [schur_s(Partition(parts)) for parts in partitions_of(n)] + [
            schur_q(StrictPartition(parts)) for parts in strict_partitions_of(n)
        ]:
            ref = ref_json_obj(dict(p.terms))
            assert p.to_json_obj() == ref, p
            assert p.to_json_text() == json.dumps(ref), p


def test_determinant_small():
    a, b, c, d = (t(j) for j in range(1, 5))
    assert determinant([[a, b], [c, d]]) == a * d - b * c
    assert determinant([]) == 1
    assert determinant([[a]]) == a
    assert determinant([[1, 2], [3, 4]]) == -2
    with pytest.raises(ValueError):
        determinant([[a, b]])


def test_determinant_matches_permutation_expansion():
    rng = random.Random(5150)
    import itertools

    for _ in range(10):
        mat = [[random_poly(rng, max_terms=2) for _ in range(3)] for _ in range(3)]
        expected = Polynomial.zero()
        for perm in itertools.permutations(range(3)):
            inv = sum(
                1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
            )
            prod = Polynomial.one()
            for i in range(3):
                prod = prod * mat[i][perm[i]]
            expected = expected + prod * (-1) ** inv
        assert determinant(mat) == expected


def test_pfaffian_small():
    assert pfaffian([]) == 1
    a = t(1)
    assert pfaffian([[a], []]) == a
    entries = [t(j) for j in range(1, 7)]
    z = Polynomial.zero()
    a, b, c, d, e, f = entries
    mat = [
        [z, a, b, c],
        [-a, z, d, e],
        [-b, -d, z, f],
        [-c, -e, -f, z],
    ]
    assert upper_triangle(mat) == [[a, b, c], [d, e], [f], []]
    assert pfaffian(upper_triangle(mat)) == a * f - b * e + c * d


def test_pfaffian_validation():
    # only the shape is checked: even size, and row i holds n-1-i entries
    z = Polynomial.zero()
    a = t(1)
    for bad in ([[]], [[z, a], [-a, z]], [[a], [z]], [[a, a], [a], []]):
        with pytest.raises(ValueError):
            pfaffian(bad)


def test_pfaffian_matches_matching_sum():
    rng = random.Random(2718)
    for size in (6, 8):
        for _ in range(3):
            mat = random_skew_matrix(rng, size)
            expected = pfaffian_by_matchings(mat)
            assert not expected.is_zero
            assert pfaffian(upper_triangle(mat)) == expected


def test_terms_is_a_read_only_snapshot_in_canonical_order():
    p = schur_s(Partition((3, 2)))
    # S_lam has ordinary coefficient chi^lam(rho) / prod mj! at the monomial of
    # cycle type rho (Macdonald I.7), which fixes the snapshot without reading storage
    ordinary = {}
    for rho in partitions_of(5):
        chi = character((3, 2), rho)
        if chi:
            mono = tuple(sorted(Counter(rho).items()))
            ordinary[mono] = Fraction(chi, prod(factorial(e) for _, e in mono))
    terms = p.terms
    assert terms == ordinary and ordinary == terms
    assert dict(terms) == ordinary
    assert isinstance(terms, Mapping) and not isinstance(terms, MutableMapping)
    assert list(terms) == [m for m, _ in p.sorted_terms()]

    mono = ((1, 1), (2, 2))
    assert len(terms) == len(ordinary)
    assert mono in terms and ((99, 1),) not in terms
    # only the canonical spelling of a monomial is a key
    assert ((2, 2), (1, 1)) not in terms and ((1, 1), (2, 2), (3, 0)) not in terms
    assert sorted(terms) == sorted(ordinary) and len(list(terms)) == len(ordinary)
    assert terms[mono] == ordinary[mono]
    assert terms.get(((99, 1),)) is None
    with pytest.raises(KeyError):
        terms[((99, 1),)]

    for name in ("clear", "pop", "popitem", "setdefault", "update"):
        assert not hasattr(terms, name)
    with pytest.raises(TypeError):
        terms[mono] = 1
    with pytest.raises(TypeError):
        del terms[mono]
    assert dict(p.terms) == ordinary
    assert schur_s(Partition((3, 2))).terms == ordinary


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 64), st.integers(1, polyring.WEIGHT_LIMIT - 1), max_size=8))
@example({1: polyring.WEIGHT_LIMIT - 1})
@example({j: polyring.WEIGHT_LIMIT - 1 for j in (1, 2, 3, 64)})
def test_packed_keys_round_trip(exps):
    # every exponent up to the slot maximum survives packing and unpacking
    mono = _monomial(exps)
    key = polyring._key(mono)
    assert _monomial_of(key.to_bytes((key.bit_length() + 7) // 8, "little")) == mono
    assert key.bit_length() <= polyring.SLOT_BITS * max(exps, default=0)


def test_slot_guard_refuses_oversized_weights():
    limit = polyring.WEIGHT_LIMIT
    top = Polynomial([({1: limit - 1}, 1)])
    assert top.terms == {((1, limit - 1),): 1}
    assert homogeneous_degree(Polynomial.variable(limit - 1)) == limit - 1
    for spec in ({1: limit}, {2: limit // 2}, {limit: 1}, {1: 1, limit - 1: 1}):
        with pytest.raises(ValueError):
            Polynomial([(spec, 1)])
    with pytest.raises(ValueError):
        Polynomial.variable(limit)
    # a product or shift2 that reaches the limit raises rather than carrying
    # t1^limit into the slot of t2
    with pytest.raises(ValueError):
        top * t(1)
    half = Polynomial([({1: limit // 2}, 1)])
    with pytest.raises(ValueError):
        half * half
    with pytest.raises(ValueError):
        shift2(half)
    with pytest.raises(ValueError):
        determinant([[half, t(1)], [t(2), half]])
    below = Polynomial([({1: limit // 2 - 1}, 1)])
    assert shift2(below).terms == {((2, limit // 2 - 1),): 1}
    assert (below * t(1)).terms == {((1, limit // 2),): 1}


def _low_weight_monomials():
    """Hypothesis strategy for {var: exp} dicts of up to three variables, each
    var * exp at most 42, so that the weight stays below 128."""
    pair = st.integers(1, 42).flatmap(lambda v: st.tuples(st.just(v), st.integers(0, 42 // v)))
    return st.lists(pair, max_size=3, unique_by=lambda p: p[0]).map(dict)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_low_weight_monomials(), st.integers(-3, 3)), max_size=5))
@example([({1: 127}, 1), ({2: 63}, 1), ({2: 62, 3: 1}, 2), ({127: 1}, -1), ({126: 1}, 1)])
def test_packed_omega_and_shift2_match_reference(spec):
    # high variables and exponents near the slot edge, against the reference
    # substitutions on the (var, exp) form
    p = Polynomial(spec)
    ta = dict(p.terms)
    assert omega(p).terms == ref_omega(ta)
    assert shift2(p).terms == ref_shift2(ta)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 4, 6)), st.data())
def test_pfaffian_squares_to_determinant_and_matches_matchings(size, data):
    # entries of mixed weight, so the pieces of each product are inhomogeneous
    mat = [[Polynomial.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            entry = data.draw(polynomials(max_terms=3))
            mat[i][j], mat[j][i] = entry, -entry
    pf = pfaffian(upper_triangle(mat))
    assert pf == pfaffian_by_matchings(mat)
    assert pf * pf == determinant(mat)
