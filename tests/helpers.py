"""Shared test utilities: enumeration, random generators, independent oracles,
and the checks that tier-1 tests and CI steps run at their own bounds.

The CI steps import from here too, so hypothesis is imported only by the two
strategies that need it: a step's RSS bound then measures the library, not
the test framework.
"""

import functools
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import groupby
from math import comb, factorial, perm, prod
from operator import itemgetter
from types import CodeType

from schurmix import schur
from schurmix.barquot import QuotientTriple, abacus, delta_sign, inverse_quotient, quotient
from schurmix.mixed import expansion_terms, resolve_case
from schurmix.partitions import CASES, Partition, StrictPartition, add_set, bar_core
from schurmix.polyring import Polynomial, determinant, omega, pfaffian, shift2, sum_of_products
from schurmix.schur import complete_h, q_pair, rect_schur, schur_q, schur_s


def partitions_of(n, max_part=None):
    """All partitions of n as decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def strict_partitions_of(n, max_part=None):
    """All strict partitions of n as decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in strict_partitions_of(n - first, first - 1):
            yield (first,) + rest


def partition_error(parts, strict):
    """Independent spec of the partition check: (exception type, message) for
    a parts tuple that Partition (strict False) or StrictPartition (strict
    True) refuses, None for one it accepts.

    The longest good prefix, int parts that are positive and weakly
    decreasing, is measured first; the part after it is refused for the first
    of those three that it breaks.  A tuple with no bad part is refused as
    strict only when its set of parts is smaller than the tuple.
    """
    good = 0
    while good < len(parts):
        p = parts[good]
        if type(p) is not int or p < 1 or (good and p > parts[good - 1]):
            break
        good += 1
    if good < len(parts):
        p = parts[good]
        if type(p) is not int:
            return TypeError, f"parts must be int, got {p!r}"
        if p < 1:
            return ValueError, f"parts must be positive, got {p}"
        return ValueError, f"parts must be decreasing, got {parts}"
    if strict and len(set(parts)) < len(parts):
        return ValueError, f"parts must be strictly decreasing, got {parts}"
    return None


def random_strict_parts(rng, max_weight=60, max_part=16, max_len=7):
    while True:
        k = rng.randint(0, max_len)
        parts = rng.sample(range(1, max_part + 1), k)
        if sum(parts) <= max_weight:
            return tuple(sorted(parts, reverse=True))


def random_weak_parts(rng, max_weight=20, max_part=8):
    parts = []
    total = 0
    prev = max_part
    while prev >= 1 and rng.random() < 0.8:
        p = rng.randint(1, prev)
        if total + p > max_weight:
            break
        parts.append(p)
        total += p
        prev = p
    return tuple(parts)


def random_poly(rng, max_terms=3, max_var=3, max_exp=2):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = {v: rng.randint(0, max_exp) for v in range(1, max_var + 1)}
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        terms.append((mono, coeff))
    return Polynomial(terms)


def polynomials(max_terms=4, variables=(1, 2, 3, 4), max_exp=3, max_den=3):
    """Hypothesis strategy for polynomials shaped like random_poly's, over
    the given variables (by default t1..t4, so that even variables occur),
    with ordinary coefficients whose denominators are at most max_den."""
    from hypothesis import strategies as st

    mono = st.dictionaries(st.sampled_from(variables), st.integers(0, max_exp))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, max_den))
    return st.lists(st.tuples(mono, coeff), max_size=max_terms).map(Polynomial)


def strict_parts(max_part=12, max_len=5, min_len=0):
    """Hypothesis strategy for strict partitions as decreasing tuples."""
    from hypothesis import strategies as st

    values = st.sets(st.integers(1, max_part), min_size=min_len, max_size=max_len)
    return values.map(lambda parts: tuple(sorted(parts, reverse=True)))


def random_skew_matrix(rng, size):
    mat = [[Polynomial.zero() for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            p = random_poly(rng)
            mat[i][j] = p
            mat[j][i] = -p
    return mat


def upper_triangle(mat):
    """Strict upper triangle of a square matrix, the form pfaffian takes."""
    return [row[i + 1 :] for i, row in enumerate(mat)]


def perfect_matchings(items):
    """All ways to split the list items into pairs, each pair in list order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        for matching in perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield [(first, partner)] + matching


def pfaffian_by_matchings(mat):
    """Independent Pfaffian oracle: the sum over perfect matchings of the
    permutation sign times the product of the paired entries.

    The sign comes from counting inversions of the matching written as the
    permutation (i1, j1, i2, j2, ...), not from any expansion rule.
    """
    total = Polynomial.zero()
    for matching in perfect_matchings(list(range(len(mat)))):
        perm = [v for pair in matching for v in pair]
        inversions = sum(
            1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
        )
        term = Polynomial.constant((-1) ** inversions)
        for i, j in matching:
            term = term * mat[i][j]
        total = total + term
    return total


def color(j):
    """Color of diagram column j >= 1, the paper's 0, 1, 1, 0 with period four."""
    return (j >> 1) & 1


def single_additions(parts, i):
    """One node of color i added to a strict partition, all ways.

    Independent single step oracle: extend one row by one box, or open a new
    row of length one, keeping the parts strictly decreasing.
    """
    out = set()
    values = list(parts)
    for row in range(len(values)):
        v = values[row] + 1
        if color(v) == i and (row == 0 or values[row - 1] > v):
            out.add(tuple(values[:row] + [v] + values[row + 1 :]))
    if 1 not in values and color(1) == i:
        out.add(tuple(values) + (1,))
    return out


def closure_oracle(parts, i, ell):
    """States reachable by ell successive single color i node additions."""
    states = {tuple(parts)}
    for _ in range(ell):
        states = {nxt for s in states for nxt in single_additions(s, i)}
    return states


def ssyt_contents(shape, nvars):
    """Content vectors, with multiplicity, of semistandard tableaux of shape.

    Rows weakly increase, columns strictly increase, entries run 1..nvars.
    """
    shape = list(shape)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * w for w in shape]
    out = []

    def fill(k):
        if k == len(cells):
            content = [0] * nvars
            for row in grid:
                for v in row:
                    content[v - 1] += 1
            out.append(tuple(content))
            return
        r, c = cells[k]
        lo = 1
        if c:
            lo = max(lo, grid[r][c - 1])
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            fill(k + 1)
        grid[r][c] = 0

    fill(0)
    return out


def classical_schur_value(shape, xs):
    """Tableau sum value of the classical Schur polynomial at the points xs."""
    total = Fraction(0)
    for content in ssyt_contents(shape, len(xs)):
        term = Fraction(1)
        for x, e in zip(xs, content):
            term *= Fraction(x) ** e
        total += term
    return total


def marked_shifted_contents(shape, nvars):
    """Content vectors, with multiplicity, of marked shifted tableaux of shape.

    Row r starts in column r.  Entries are k' < k for k = 1..nvars, stored as
    2k - 1 and 2k; rows and columns weakly increase, an unprimed k appears at
    most once per column, a primed k' at most once per row, and primes may
    sit on the diagonal.
    """
    cells = [(r, c) for r in range(len(shape)) for c in range(r, r + shape[r])]
    grid = {}
    out = []

    def fill(k):
        if k == len(cells):
            content = [0] * nvars
            for v in grid.values():
                content[(v - 1) // 2] += 1
            out.append(tuple(content))
            return
        r, c = cells[k]
        left = grid.get((r, c - 1), 0)
        up = grid.get((r - 1, c), 0)
        for v in range(max(left, up, 1), 2 * nvars + 1):
            if (v == left and v % 2) or (v == up and not v % 2):
                continue
            grid[r, c] = v
            fill(k + 1)
        grid.pop((r, c), None)

    fill(0)
    return out


def classical_q_value(shape, xs):
    """Tableau sum value of Schur's Q-function at the points xs."""
    total = Fraction(0)
    for content in marked_shifted_contents(shape, len(xs)):
        term = Fraction(1)
        for x, e in zip(xs, content):
            term *= Fraction(x) ** e
        total += term
    return total


def power_sum_assignment(xs, top):
    """tj values p_j(xs)/j for j = 1..top."""
    return {j: Fraction(sum(Fraction(x) ** j for x in xs), j) for j in range(1, top + 1)}


def hall_norm(p):
    """(p, p)' = <p, p at t -> 2t>, with <,> the Hall product in t.

    Monomials are orthogonal and <t^m, t^m> = prod_k m_k! / k^m_k, since
    p_k = k t_k; t -> 2t scales t^m by 2^(sum m_k).  So the norm is the sum
    over the terms of c^2 prod_k 2^m_k m_k! / k^m_k.  For a rectangle it is
    binom(rows + cols, rows), the number of shapes inside it.
    """
    total = Fraction(0)
    for mono, coeff in p.sorted_terms():
        weight = coeff * coeff
        for k, m in mono:
            weight *= Fraction(2**m * factorial(m), k**m)
        total += weight
    return total


# The specialization t_k -> x/k is a ring map from Q[t1, t2, ...] to Q[x]: it
# sends exp(sum t_k z^k) to (1 - z)^-x and exp(sum over odd k of t_k z^k) to
# ((1 + z)/(1 - z))^(x/2).  Each evaluator below gives w! times the value of
# a polynomial of weight w, an integer for an integer x, memoised by shape.


def _hooks(parts):
    """Product of the hook lengths of a partition."""
    cols = [sum(p > j for p in parts) for j in range(parts[0] if parts else 0)]
    return prod(p - j + cols[j] - r - 1 for r, p in enumerate(parts) for j in range(p))


def _contents(parts, x, step):
    """Product over the boxes of x + step * content, content = column - row."""
    return prod(x + step * (j - r) for r, p in enumerate(parts) for j in range(p))


@functools.cache
def s_value(parts, x):
    """|lam|! S_lam at t_k = x/k, where S_lam is the product over its boxes
    of (x + c)/h, c the content and h the hook (Macdonald I.3 Ex. 4)."""
    return factorial(sum(parts)) // _hooks(parts) * _contents(parts, x, 1)


@functools.cache
def s2_value(parts, x):
    """(2|b|)! S_b(t2) at t_k = x/k, where S_b(t2) is S_b at t_k = (x/2)/k,
    the product over the boxes of (x + 2c)/(2h)."""
    w = sum(parts)
    return factorial(2 * w) // (2**w * _hooks(parts)) * _contents(parts, x, 2)


@functools.cache
def _q_value(n, x):
    """n! q_n at t_k = x/k, from n q_n = x * sum over even j of q_(n-1-j):
    the derivative of ((1 + z)/(1 - z))^(x/2) is x/(1 - z^2) times itself."""
    if not n:
        return 1
    return x * sum(perm(n - 1, j) * _q_value(n - 1 - j, x) for j in range(0, n, 2))


def _pair_value(r, s, x):
    """(r + s)! q_(r,s) at t_k = x/k, with
    q_(r,s) = q_r q_s + 2 * sum over 0 < i <= s of (-1)^i q_(r+i) q_(s-i)."""
    return sum(
        (2 * (-1) ** i if i else 1) * comb(r + s, s - i) * _q_value(r + i, x) * _q_value(s - i, x)
        for i in range(s + 1)
    )


@functools.cache
def q_value(parts, x):
    """|a|! Q_a at t_k = x/k: the Pfaffian of the pairs q_(a_i, a_j) of a,
    zero-padded to even length, expanded along its first row."""
    if not parts:
        return 1
    head, *rest = parts if len(parts) % 2 == 0 else parts + (0,)
    w = sum(parts)
    return sum(
        (-1) ** k
        * comb(w, head + b)
        * _pair_value(head, b, x)
        * q_value(tuple(p for p in rest if p and p != b), x)
        for k, b in enumerate(rest)
    )


# Checks at a bound.  Each asserts at every point it walks and returns the
# totals it pins, so a shrunken walk cannot pass.  The tier-1 tests call them
# at small bounds and the CI steps at larger ones.


def case_grid(max_m):
    """(case, m, n, rows, cols) for each case, each m <= max_m and each n
    from 0 to top = 2m + 1 - color, rows x cols being the rectangle."""
    for i, case in enumerate(CASES):
        for m in range(max_m + 1):
            for n in range(2 * m + 2 - i):
                yield case, m, n, *resolve_case(case, m, n)[2]


# Large enough that no factor x + c or x + 2c of a content product vanishes.
X = 2000006


def summand_walk(max_m):
    """The summands' checks on case_grid(max_m), from expansion_terms alone,
    each set built once; returns (checks, summands, summands with q0 = (),
    nonempty checks, nonempty summands), the last two over the nonempty
    rectangles.

    Omega fixes Q(t_odd), maps S_b(t2) to (-1)^|b| S_b'(t2) and the rectangle
    for n to the one for top - n, so by linear independence the summands
    correspond with the same q0, a conjugate q1 and the sign times
    (-1)^|q1|.  With the Hall product, the coordinate of S_rect at Q_a is
    <s_rect, P_a> >= 0, so exactly one summand has q1 = (), with sign +1.
    The summands with q0 = () are the b with <s_rect, s_b[p_2]> != 0: one
    sign, and each b once, since the rectangle's 2-quotient is two
    rectangles whose Schur product is multiplicity-free.

    On a nonempty rectangle, Parseval: under (f, g)' = <f, g at t -> 2t> the
    products Q_a S_b(t2) are orthogonal with norm 2^len(a), and
    (S_rect, S_rect)' is binom(rows + cols, rows).  So distinct pairs
    (q0, q1) whose 2^len(q0) add up to that binomial leave no room for any
    other coordinate.

    Then the identity at t_k = X/k, both sides times w!, w the rectangle's
    weight, so each check is one equation between integers.  A summand
    sign * Q_q0 * S_q1(t2) has |q0| + 2|q1| = w, so its share of w! is
    binom(w, |q0|) times its two scaled factors.  A specialization is a
    necessary condition, not the identity.
    """
    checks = summands = without_q0 = nonempty = nonempty_summands = 0
    for (case, m), grid in groupby(case_grid(max_m), itemgetter(0, 1)):
        grid = list(grid)
        sets = [expansion_terms(case, m, n) for _, _, n, _, _ in grid]
        for (_, _, n, rows, cols), terms in zip(grid, sets):
            assert terms, (case, m, n)
            # sets[-1 - n] is the set of top - n
            dual = sorted(
                (t.q0.parts, t.q1.conjugate().parts, (-1) ** t.q1.weight * t.sign)
                for t in sets[-1 - n]
            )
            assert sorted((t.q0.parts, t.q1.parts, t.sign) for t in terms) == dual, (case, m, n)
            assert [t.sign for t in terms if not t.q1] == [1], (case, m, n)
            pure = [t for t in terms if not t.q0]
            assert len({t.sign for t in pure}) <= 1, (case, m, n)
            assert len({t.q1 for t in pure}) == len(pure), (case, m, n)
            checks += 1
            summands += len(terms)
            without_q0 += len(pure)
            w = rows * cols
            if not w:
                continue
            assert len({(t.q0, t.q1) for t in terms}) == len(terms), (case, m, n)
            assert sum(2 ** len(t.q0) for t in terms) == comb(rows + cols, rows), (case, m, n)
            left = sum(
                t.sign * comb(w, t.q0.weight) * q_value(t.q0.parts, X) * s2_value(t.q1.parts, X)
                for t in terms
            )
            assert left == s_value((cols,) * rows, X), (case, m, n)
            nonempty += 1
            nonempty_summands += len(terms)
    return checks, summands, without_q0, nonempty, nonempty_summands


def addition_set_grid(max_core):
    """(core_index, color, ell) for each core index in -max_core..max_core,
    each color its family admits and each ell from 0 to 2 * max_core + 1;
    at 10 these are exactly the addition sets that enumerate admits."""
    for core_index in range(-max_core, max_core + 1):
        for color in (0, 1) if core_index == 0 else (int(core_index > 0),):
            for ell in range(2 * max_core + 2):
                yield core_index, color, ell


def addition_set_walk(max_core):
    """The bijection's checks on each addition set of
    addition_set_grid(max_core); returns (nonempty sets, partitions,
    partitions with a bead on 0, sorted charges).

    add_set, quotient and inverse_quotient build their results without a
    check, so each set must come in decreasing order and each result, its
    q0 and q1 and the inverse's result must pass the checking constructor.
    The quotient is held to the Maya scan, built another way, since a round
    trip cannot see an error that quotient and inverse_quotient share; the
    sign is held to the bead pairs on the abacus.
    """
    sets = count = zero_bead = 0
    charges = set()
    for core_index, color, ell in addition_set_grid(max_core):
        mus = list(add_set(bar_core(core_index), color, ell))
        assert all(a.parts > b.parts for a, b in zip(mus, mus[1:])), (core_index, color, ell)
        for mu in mus:
            tri = quotient(mu)
            back = inverse_quotient(*tri)
            assert type(mu) is StrictPartition, mu
            for x in (mu, tri.q0, tri.q1, back):
                assert_checks_pass(x)
            assert tri == quotient_by_maya(mu), mu
            assert back == mu, mu
            assert delta_sign(mu, core_index) == bead_pair_sign(mu, core_index), (mu, core_index)
            zero_bead += core_index < 0 and len(mu) == -core_index
            charges.add(tri.charge)
        sets += bool(mus)
        count += len(mus)
    return sets, count, zero_bead, sorted(charges)


def _jacobi_trudi(rows, entry):
    """The plain determinant of entry(rows_i + j - i), never a cached minor."""
    n = len(rows)
    return determinant([[entry(rows[i] + j - i) for j in range(n)] for i in range(n)])


def _stored_ints(p):
    """Whether each stored coefficient of p, w! times the ordinary one, is an int."""
    return all(type(c) is int for piece in p._terms.values() for c in piece.values())


def _divided(terms):
    """{monomial: coefficient in the basis prod tj^mj / mj!} of the ordinary terms."""
    return {mono: c * prod(factorial(e) for _, e in mono) for mono, c in terms.items()}


def shape_walk(max_weight):
    """Each S-polynomial's checks on one build per shape: every shape of
    weight max_weight or less and every rectangle of weight 30 or less, from
    emptied stores and in one shuffled order, so a minor may first be built
    for any other shape that contains it; returns (shapes, tall shapes,
    rectangles past max_weight), a tall shape having more rows than columns.

    Within the bound each S is held to the h matrix h_(lam_i + j - i) of its
    own orientation, which uses neither the conjugate nor omega that schur_s
    builds a tall shape from; a tall rectangle past it, whose h matrix (30 x 30
    for 1^30) is too slow to expand, to the e matrix e_(lam'_i + j - i) with
    e_n = omega(h_n).  Then, within the bound:

    - the family-2 h_minor on the rows lam_i - i is S with its monomials in an
      even variable dropped, and so is the conjugate's: setting every even
      variable to 0 is a ring map that takes h_n to q_n, and omega fixes the
      odd variables;
    - each stored coefficient is an int, and in the basis prod tj^mj / mj! the
      coefficient at the monomial of cycle type rho = 1^m1 2^m2 ... is the
      character chi^lam(rho) (Macdonald I.7);
    - S and S(t2) at t_k = x/k, times w! and (2w)!, are s_value and s2_value
      at x = 13 and X.

    Last, at each weight within the bound, s_sum of a seeded member list is
    the sum of c * schur_s(lam) over it: six drawn shapes, the one-row and
    one-column shapes and the empty one, each with a c drawn from
    {-2, -1, 1, 2}.
    """
    for cache in (schur.q_minor, schur.h_minor):
        cache.cache_clear()
    shapes = {parts for weight in range(max_weight + 1) for parts in partitions_of(weight)}
    shapes |= {(b,) * a for a in range(1, 31) for b in range(1, 30 // a + 1)}
    order = sorted(shapes)
    random.Random(2005).shuffle(order)
    points = {x: {k: Fraction(x, k) for k in range(1, 2 * max_weight + 1)} for x in (13, X)}
    within = tall = past = 0
    for parts in order:
        lam = Partition(parts)
        s = schur_s(lam)
        w = lam.weight
        conjugate = lam.conjugate().parts
        is_tall = len(conjugate) < len(parts)
        if w > max_weight and is_tall:
            assert s == _jacobi_trudi(conjugate, lambda n: omega(complete_h(n))), parts
        else:
            assert s == _jacobi_trudi(parts, complete_h), parts
        if w > max_weight:
            past += 1
            continue
        terms = s.terms
        odd = {mono: c for mono, c in terms.items() if all(var % 2 for var, _ in mono)}
        minors = [
            schur.h_minor(2, tuple(p - i for i, p in enumerate(rows)), (1 << len(rows)) - 1)
            for rows in (parts, conjugate)
        ]
        assert dict(minors[0].terms) == odd, parts
        assert minors[0] == minors[1], parts
        assert _stored_ints(s), parts
        characters = {
            tuple(sorted(Counter(rho).items())): chi
            for rho in partitions_of(w)
            if (chi := character(parts, rho))
        }
        assert _divided(terms) == characters, parts
        for x, point in points.items():
            assert s.eval(point) * factorial(w) == s_value(parts, x), (parts, x)
            assert shift2(s).eval(point) * factorial(2 * w) == s2_value(parts, x), (parts, x)
        within += 1
        tall += is_tall
    rng = random.Random(2005)
    for w in range(max_weight + 1):
        shapes = list(partitions_of(w))
        drawn = rng.sample(shapes, min(6, len(shapes))) + [shapes[0], shapes[-1], ()]
        members = [(rng.choice((-2, -1, 1, 2)), Partition(parts)) for parts in drawn]
        expected = sum_of_products((c, Polynomial.one(), schur_s(lam)) for c, lam in members)
        assert schur.s_sum(members) == expected, members
    return within, tall, past


def strict_walk(max_weight):
    """Each Q-polynomial's checks on one build per shape: every strict shape
    of weight max_weight or less, from emptied stores and in one shuffled
    order, so a Q may first be built as another's minor; returns the number
    of shapes.

    - Q is the memoised Pfaffian of the whole q_pair upper triangle of its
      parts, zero-padded to even length;
    - expanded along the padded Pfaffian's last column rather than its first
      row, through q_pair and smaller Qs, it agrees, the q_(m,0) = q_m edge of
      the zero pad included;
    - each stored coefficient is an int, and so is each coefficient in the
      basis prod tj^mj / mj! (Macdonald III.8);
    - Q at t_k = x/k, times w!, is q_value at x = 13 and X.  The two
      expansions above share q_pair with schur_q, and q_value does not.
    """
    for cache in (schur.q_minor, schur.h_minor):
        cache.cache_clear()
    order = [parts for weight in range(max_weight + 1) for parts in strict_partitions_of(weight)]
    random.Random(2005).shuffle(order)
    points = {x: {k: Fraction(x, k) for k in range(1, max_weight + 1)} for x in (13, X)}
    for parts in order:
        q = schur_q(StrictPartition(parts))
        seq = parts if len(parts) % 2 == 0 else parts + (0,)
        upper = [[q_pair(a, b) for b in seq[k + 1 :]] for k, a in enumerate(seq)]
        assert q == pfaffian(upper), parts
        if parts:
            column = Polynomial.zero()
            for j, a in enumerate(seq[:-1]):
                rest = StrictPartition(seq[:j] + seq[j + 1 : -1])
                column = column + (-1) ** j * q_pair(a, seq[-1]) * schur_q(rest)
            assert column == q, parts
        assert _stored_ints(q), parts
        assert all(c.denominator == 1 for c in _divided(q.terms).values()), parts
        for x, point in points.items():
            assert q.eval(point) * factorial(sum(parts)) == q_value(parts, x), (parts, x)
    return len(order)


def rectangle_norms(max_weight):
    """The norm and the value at t_k = X/k of rect_schur(a, b) for each
    rectangle of weight max_weight or less; returns the number of them.

    (S_rect, S_rect)' is the sum of the squared Littlewood-Richardson
    coefficients of the rectangle, each 1 for a shape inside it and its
    complement, so it equals binom(a + b, a).  At t_k = X/k the rectangle is
    its content product, s_value.
    """
    point = {k: Fraction(X, k) for k in range(1, max_weight + 1)}
    shapes = 0
    for a in range(1, max_weight + 1):
        for b in range(1, max_weight // a + 1):
            rect = rect_schur(a, b)
            assert hall_norm(rect) == comb(a + b, a), (a, b)
            assert rect.eval(point) * factorial(a * b) == s_value((b,) * a, X), (a, b)
            shapes += 1
    return shapes


# Ordinary-basis reference arithmetic: plain {monomial: Fraction} dicts, built
# without the divided-power basis, the binomial product rule or any Polynomial
# method, to check Polynomial.terms against.


def _ref_add_into(acc, mono, coeff):
    total = acc.get(mono, 0) + coeff
    if total:
        acc[mono] = total
    else:
        acc.pop(mono, None)


def homogeneous_degree(p):
    """Common weighted degree of the terms of p, tj having degree j, or None
    if the terms differ in degree or p is zero; read off p.terms."""
    degrees = {sum(var * exp for var, exp in mono) for mono in p.terms}
    return degrees.pop() if len(degrees) == 1 else None


def ref_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        _ref_add_into(out, mono, coeff)
    return out


def ref_mul(a, b):
    """Dict convolution: exponents add, coefficients multiply."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for var, exp in m2:
                exps[var] = exps.get(var, 0) + exp
            _ref_add_into(out, tuple(sorted(exps.items())), Fraction(c1) * c2)
    return out


def ref_shift2(a):
    return {tuple((2 * var, exp) for var, exp in mono): coeff for mono, coeff in a.items()}


def ref_omega(a):
    """tj -> (-1)^(j+1) tj applied variable by variable."""
    out = {}
    for mono, coeff in a.items():
        for var, exp in mono:
            if var % 2 == 0:
                coeff *= (-1) ** exp
        out[mono] = coeff
    return out


def ref_json_obj(a):
    """The documented JSON form of an ordinary-basis {monomial: Fraction} dict:
    ascending weight, then the exponent vector read from t1 upward with the
    larger vector first; coefficients in lowest terms, the sign on top."""

    def order(mono):
        weight = sum(var * exp for var, exp in mono)
        exps = dict(mono)
        return weight, [-exps.get(var, 0) for var in range(1, weight + 1)]

    return {
        "terms": [
            {
                "coeff": f"{a[mono].numerator}/{a[mono].denominator}",
                "mono": {str(var): str(exp) for var, exp in mono},
            }
            for mono in sorted(a, key=order)
        ]
    }


@functools.cache
def ref_newton(n, step):
    """Coefficient of z^n in exp(sum of t_k z^k over k = 1, 1+step, ...), from the
    recurrence n*e_n = sum_k k*t_k*e_(n-k), e_0 = 1, in the ordinary basis."""
    if n < 0:
        return {}
    if n == 0:
        return {(): Fraction(1)}
    total = {}
    for k in range(1, n + 1, step):
        for mono, coeff in ref_mul({((k, 1),): Fraction(k, n)}, ref_newton(n - k, step)).items():
            _ref_add_into(total, mono, coeff)
    return total


@functools.cache
def character(parts, rho):
    """Irreducible character chi^parts at the cycle type rho (any order), by the
    Murnaghan-Nakayama rule on beta-sets: removing a k-rim hook moves a bead
    from b to an empty b - k, with sign (-1)^(beads strictly between)."""
    if not rho:
        return 1 if not parts else 0
    k, rest = rho[0], rho[1:]
    size = len(parts)
    beta = {p + size - 1 - i for i, p in enumerate(parts)}
    total = 0
    for b in beta:
        if b - k >= 0 and b - k not in beta:
            between = sum(1 for c in beta if b - k < c < b)
            moved = sorted((beta - {b}) | {b - k}, reverse=True)
            smaller = tuple(c - (size - 1 - i) for i, c in enumerate(moved))
            total += (-1) ** between * character(tuple(p for p in smaller if p), rest)
    return total


def quotient_by_maya(lam):
    """Quotient oracle: scans the negative Maya positions one by one.

    The Maya diagram is the strictly decreasing sequence e_1 > e_2 > ... whose
    non-negative entries are k for each part 4k+1 and whose negative entries
    are all j < 0 except -k-1 for each part 4k+3; q1_k = e_k + k - charge.
    """
    evens = StrictPartition(tuple(p // 2 for p in lam.parts if p % 2 == 0))
    ones = [p for p in lam.parts if p % 4 == 1]
    threes = [p for p in lam.parts if p % 4 == 3]
    top = {(p - 1) // 4 for p in ones}
    excluded = {-(p - 3) // 4 - 1 for p in threes}
    charge = len(ones) - len(threes)
    bound = min(excluded, default=0) - len(top) - 2
    entries = sorted(top, reverse=True) + [
        j for j in range(-1, bound - 1, -1) if j not in excluded
    ]
    parts = [e + k - charge for k, e in enumerate(entries, 1)]
    while parts and not parts[-1]:
        parts.pop()
    return QuotientTriple(charge, evens, Partition(parts))


def inverse_by_maya(charge, q0, q1):
    """Inverse quotient oracle: builds the Maya entry set, then scans it.

    The entries are e_k = q1_k + charge - k for k = 1..K, with K past both q1
    and charge, so every negative j below the last entry is present.  Each
    non-negative entry e gives a part 4e+1, each negative j above the last
    entry that is not in the set gives a part -4j-1, and each part s of q0
    gives 2s.
    """
    rows = q1.parts
    last = max(len(rows), charge) + 1
    entries = {(rows[k - 1] if k <= len(rows) else 0) + charge - k for k in range(1, last + 1)}
    parts = [2 * s for s in q0.parts]
    parts += [4 * e + 1 for e in entries if e >= 0]
    parts += [-4 * j - 1 for j in range(-1, charge - last, -1) if j not in entries]
    return StrictPartition(sorted(parts, reverse=True))


def assert_checks_pass(x):
    """x, built without a check, holds a tuple that the checking constructor accepts."""
    assert type(x.parts) is tuple, x
    assert type(x)(x.parts) == x


def bead_pair_sign(lam, core_index):
    """-1 to the number of (central, left) bead pairs, central above, on the abacus."""
    beads = abacus(lam, core_index)
    central = [b for b in beads if b % 4 == 1]
    lefts = [b for b in beads if b % 2 == 0]
    return (-1) ** sum(1 for c in central for left in lefts if c > left)


def _with_nested(code):
    """code and the code objects inside it, such as a comprehension's."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _with_nested(const)


@contextmanager
def line_budget(limit, *codes):
    """Raise AssertionError once the frames of codes, and of the code nested in
    them, have run more than limit lines together.

    Counting several functions under one budget keeps the bound from going
    vacuous when work moves from one of them into a helper."""
    counted = {nested for code in codes for nested in _with_nested(code)}
    names = ", ".join(code.co_name for code in codes)
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > limit:
                raise AssertionError(f"{names} ran more than {limit} lines")
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in counted else None)
    try:
        yield
    finally:
        sys.settrace(previous)
