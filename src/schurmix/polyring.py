"""Sparse multivariate polynomials over exact rationals in t1, t2, t3, ...

Variable tj carries weight j, so t1^2*t3 has weight (weighted degree) 5.  At
the boundary a monomial is a tuple of (var, exp) pairs, ascending in var, with
every exp > 0; () is the monomial 1.  Polynomial(...), Polynomial.constant and
Polynomial.variable take such monomials with int or Fraction coefficients and
check them; Polynomial.terms, eval, sorted_terms, pretty, to_json_text and
to_json_obj give them back with ordinary-basis Fractions.  Polynomial.terms is a read-only
{monomial: Fraction} snapshot in the canonical order below, read from the same
walk as the printer and the JSON form.

Inside, a monomial is one int, its packed exponent vector: the key of
prod tj^mj is sum mj << (SLOT_BITS * (j - 1)), one byte per variable with t1 in
the lowest.  The key of a product of monomials is the sum of their keys.  An
exponent never exceeds the weight of its term, so no slot overflows while the
weight stays below 2**SLOT_BITS; packing a term of larger weight, by
construction, product or shift2, raises ValueError.  The CLI stops far below
that bound.

A polynomial is held as its homogeneous pieces, {weight w: {key: c}}, with
each coefficient scaled by the weight: c is the ordinary coefficient times w!.
Every coefficient of h_n, q_n and each S- and Q-polynomial is an int in this
basis, because their ordinary coefficients have denominators dividing
prod mj!, which divides w!.  A product of a weight-a piece and a weight-b
piece then multiplies every pair of coefficients by the one scalar
binom(a + b, a) and adds their keys.  shift2 moves slot j to slot 2j and
multiplies each coefficient by (2w)!/w!; omega flips the sign of a
coefficient when the exponents of the even variables have an odd sum.  Caller
Fractions that do not become integral after scaling stay Fractions.

Terms are combined in one place, sum_of_products, which sums c * a * b over
(int c, Polynomial a, Polynomial b) triples into one dict and prunes zero
coefficients and empty pieces once at the end.  A sum a + b is the triples
(1, 1, a) and (1, 1, b), a product a * b the triple (1, a, b), a scalar
multiple a * c the triple (1, a, constant c), and each minor of a determinant
or Pfaffian (read from its strict upper triangle) the signed triples of its
expansion.  schur.schur_s and schur.schur_q expand their determinants and
Pfaffians themselves, through process-wide caches of minors, so determinant
and pfaffian stay as the references the tests hold them to.

A big product takes a packed route inside sum_of_products, a Kronecker
substitution: a product of two all-int pieces with at least _PACK_PAIRS term
pairs.  In a homogeneous piece, the terms whose keys agree outside t1 and a
packing variable tv form a polynomial in tv alone, since t1's exponent
follows from the weight.  tv is t2, or t3 when neither factor has t2: Q-
polynomials live in the odd variables, where a group along t2 would hold one
term.  Each group becomes one int, the coefficient of tv^e in its F-bit field
e, and one int product of two groups does the work of all their term pairs.
For one output weight, a field of the summed group products is one output
coefficient: a sum, over that weight's packed products, of
scale * p[k1] * q[k2] over at most min(#p, #q) pairs each, since a term of p
meets at most one term of q at a given key.  So no field exceeds
B = sum |scale| * max|p| * max|q| * min(#p, #q) in size, and with
F = bit_length(B) + 2 each field holds a signed digit, with a bit to spare,
that carries nothing into the next.  The fields are read back as balanced
digits, a negative one borrowing from the next field.  So the route is exact
and stores the same ints as the term-by-term loop; sums, Fraction pieces and
smaller products take that loop.

Terms are kept in a canonical order: ascending weight, ties broken by the
exponent vector read from t1 upward with the larger vector first.  One walk,
Polynomial._canonical, sorts each weight-w piece by the w bytes of its keys
and yields every stored coefficient with those exponent bytes; sorted_terms
(and through it terms), eval's error for a missing variable, the pretty
printer and the JSON form

    {"terms": [{"coeff": "<num>/<den>", "mono": {"<var>": "<exp>", ...}}, ...]}

all read it.  to_json_text is the one writer of that form: it writes each term
as text, with no dict per term and no json.dumps, byte for byte what json.dumps
gives for the object.  It builds no Fraction for an int coefficient c: with
g = gcd(c, w!) it writes c//g and w!//g, Fraction's lowest terms with the sign
in the numerator, and joins the mono from the nonzero exponent bytes.
to_json_obj is json.loads of that text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, perm
from operator import or_
from types import MappingProxyType

# Bits per exponent slot: one byte, so to_bytes reads the exponent vector.
SLOT_BITS = 8
WEIGHT_LIMIT = 1 << SLOT_BITS
_SLOT = WEIGHT_LIMIT - 1
# The slot of t2 in a key.
_T2_SLOT = _SLOT << SLOT_BITS
# The fewest term pairs in a product that sum_of_products multiplies through
# packed groups.  Timed alone through each route, the int piece products that
# the benchmark's sweep, large and qpfaff workloads make took, packed, 1.17
# times the loop's time at 512-1023 pairs, 1.02 times at 1024-2047, 0.88 at
# 2048-4095 and 0.74 at 8192-16383 (medians; Python 3.11.7, 2-vCPU Xeon).
_PACK_PAIRS = 2048
# Bit 0 of the slot of each even variable t2, t4, ..., t(WEIGHT_LIMIT).
_EVEN_LOW_BITS = int.from_bytes(b"\0\1" * (WEIGHT_LIMIT // 2), "little")
# The JSON key '"j": ' of variable tj and the JSON string value '"e"' of
# exponent e, for every index and exponent a term below WEIGHT_LIMIT can hold.
_JSON_KEYS = tuple(f'"{j}": ' for j in range(WEIGHT_LIMIT))
_JSON_VALUES = tuple(f'"{e}"' for e in range(WEIGHT_LIMIT))


def _monomial(spec):
    """Canonical monomial from a {var: exp} dict or an iterable of (var, exp) pairs.

    Variables and exponents must be of type int, so a float or a bool is a
    TypeError.  A variable may appear once, even with exponent 0 (ValueError
    otherwise).
    """
    items = spec.items() if isinstance(spec, dict) else spec
    pairs = []
    prev = None
    for var, exp in sorted(items):
        if type(var) is not int or type(exp) is not int:
            raise TypeError(f"variable and exponent must be int, got ({var!r}, {exp!r})")
        if var < 1:
            raise ValueError(f"variable index must be >= 1, got {var}")
        if exp < 0:
            raise ValueError(f"exponent must be >= 0, got {exp}")
        if var == prev:
            raise ValueError(f"duplicate variable t{var}")
        prev = var
        if exp:
            pairs.append((var, exp))
    return tuple(pairs)


def _check_weight(w):
    """w, or ValueError when a term of weight w could overflow an exponent slot."""
    if w >= WEIGHT_LIMIT:
        raise ValueError(f"a term of weight {w} does not fit: weights must stay below {WEIGHT_LIMIT}")
    return w


def _key(mono):
    """Packed key of a canonical monomial whose exponents fit a slot."""
    return sum(exp << (SLOT_BITS * (var - 1)) for var, exp in mono)


def _pack(mono):
    """(weight, key) of a canonical monomial, checked against the slot guard first."""
    return _check_weight(sum(var * exp for var, exp in mono)), _key(mono)


def _monomial_of(slots):
    """Canonical monomial of an exponent vector given as bytes, t1 first."""
    return tuple((var, exp) for var, exp in enumerate(slots, 1) if exp)


def _scaled(coeff, w):
    """Stored coefficient of an ordinary int or Fraction coefficient at weight w."""
    c = as_fraction(coeff) * factorial(w)
    return c.numerator if c.denominator == 1 else c


def _ordinary(w, coeff):
    """Ordinary-basis Fraction of a stored coefficient at weight w."""
    return Fraction(coeff, factorial(w))


def _mono_str(mono):
    return "*".join(f"t{var}^{exp}" if exp > 1 else f"t{var}" for var, exp in mono)


def as_fraction(value):
    """value as a Fraction; only int and Fraction are exact, anything else is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}: {value!r}")
    return Fraction(value)


def _all_int(piece):
    return all(type(c) is int for c in piece.values())


def _packed_groups(piece, weight, var, width):
    """{group key: packed int} of an all-int weight-weight piece, packed along tvar.

    A group holds the terms whose keys agree outside slot 1 and slot var.  Its
    key clears those two slots and puts in slot 1 the weight of the variables
    left, so the key of a product of two groups is the sum of their keys.  Its
    int holds the coefficient of the term with tvar^e in the width-bit field
    e; the field fixes the term, since t1's exponent is then the piece's
    weight less the group's and var * e.
    """
    shift = SLOT_BITS * (var - 1)
    clear = ~(_SLOT | _SLOT << shift)
    groups = {}
    get = groups.get
    for k, c in piece.items():
        e = k >> shift & _SLOT
        g = (k & clear) + weight - (k & _SLOT) - var * e
        groups[g] = get(g, 0) + (c << width * e)
    return groups


def _add_packed(out, w, var, products):
    """Add the products (scale, a, p, b, q) of weight w into the piece out,
    multiplying packed groups of p and q along tvar.  The module docstring
    shows why bound caps every field, so that no field overflows its width.
    """
    bound = sum(
        abs(scale) * max(map(abs, p.values())) * max(map(abs, q.values())) * min(len(p), len(q))
        for scale, a, p, b, q in products
    )
    width = bound.bit_length() + 2
    sums = {}
    get = sums.get
    for scale, a, p, b, q in products:
        right = _packed_groups(q, b, var, width).items()
        for g1, x in _packed_groups(p, a, var, width).items():
            x *= scale
            for g2, y in right:
                g = g1 + g2
                sums[g] = get(g, 0) + x * y
    shift = SLOT_BITS * (var - 1)
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    get = out.get
    while sums:
        # popped, so that each group's int is freed once read
        g, total = sums.popitem()
        ones = w - (g & _SLOT)  # t1's exponent in field 0
        base = g - (g & _SLOT) + ones
        # a nonzero top field e makes |total| at least 2^(width*e - 1)
        for e in range(total.bit_length() // width + 1):
            d = total & mask
            total >>= width
            if d >= half:
                d -= full
                total += 1
            if d:
                k = base + (e << shift) - var * e
                out[k] = get(k, 0) + d


def sum_of_products(terms):
    """Sum of c * a * b over (int c, Polynomial a, Polynomial b) triples.

    Every product is added into one owned {w: {key: c}} dict, whose zero
    coefficients and empty pieces are pruned once, at the end.  The inner
    loop runs over the terms of b, so a sum puts the constant 1 as a.  A
    product of two all-int pieces with at least _PACK_PAIRS term pairs is
    set aside and multiplied through packed groups, once per output weight
    and packing variable, before the pruning.
    """
    acc = {}
    packed = {}
    for c, left, right in terms:
        for a, p in left._terms.items():
            for b, q in right._terms.items():
                w = _check_weight(a + b)
                scale = c * comb(w, a)
                if len(p) * len(q) >= _PACK_PAIRS and _all_int(p) and _all_int(q):
                    var = 2 if (reduce(or_, p) | reduce(or_, q)) & _T2_SLOT else 3
                    packed.setdefault((w, var), []).append((scale, a, p, b, q))
                    continue
                out = acc.setdefault(w, {})
                get = out.get
                q = q.items()
                for k1, c1 in p.items():
                    c1 *= scale
                    for k2, c2 in q:
                        k = k1 + k2
                        out[k] = get(k, 0) + c1 * c2
    for (w, var), products in packed.items():
        _add_packed(acc.setdefault(w, {}), w, var, products)
    for w, piece in list(acc.items()):
        for k in [k for k, v in piece.items() if not v]:
            del piece[k]
        if not piece:
            del acc[w]
    return Polynomial._raw(acc)


class Polynomial:
    """Finite rational-weighted sum of monomials.  Immutable: terms is read-only."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = sum_of_products((1, _ONE, _term(mono, c)) for mono, c in items)._terms

    @classmethod
    def _raw(cls, d):
        p = object.__new__(cls)
        p._terms = d
        return p

    @property
    def terms(self):
        """Read-only {monomial: ordinary Fraction} snapshot, in the canonical order."""
        return MappingProxyType(dict(self.sorted_terms()))

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c):
        c = _scaled(c, 0)
        return cls._raw({0: {0: c}} if c else {})

    @classmethod
    def variable(cls, j):
        return _term(((j, 1),), 1)

    @property
    def is_zero(self):
        return not self._terms

    @staticmethod
    def _coerce(value):
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products(((1, _ONE, self), (1, _ONE, other)))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products(((1, _ONE, self), (-1, _ONE, other)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"exponent must be >= 0, got {n}")
        result = Polynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def eval(self, assignment):
        """Exact value with tj = assignment[j]; every variable must be covered.

        Values must be int or Fraction; anything else is a TypeError.
        """
        values = {var: as_fraction(value) for var, value in assignment.items()}
        total = Fraction(0)
        for w, piece in self._terms.items():
            # With tj = n/d, tj^e is n^e d^(top - e) / d^top, where top = w // j
            # bounds e, so the piece's value is a sum over w! times each d^top.
            # Each pass takes out the lowest variable left, summing the terms
            # that agree in the higher ones.
            den, below = factorial(w), 0
            for j, used in enumerate(reduce(or_, piece).to_bytes(w, "little"), 1):
                if not used:
                    continue
                if j not in values:
                    raise self._missing(values)
                n, d = values[j].numerator, values[j].denominator
                top = w // j
                powers = [n**e * d ** (top - e) for e in range(top + 1)]
                den *= d**top
                low = SLOT_BITS * (j - 1 - below)
                high, below = low + SLOT_BITS, j
                rest = {}
                get = rest.get
                for k, c in piece.items():
                    r = k >> high
                    rest[r] = get(r, 0) + c * powers[k >> low & _SLOT]
                piece = rest
            total += Fraction(piece[0], den)
        return total

    def _missing(self, values):
        """The ValueError naming the first variable, in the canonical walk,
        that values lacks."""
        for w, piece in self._canonical():
            for exps, c in piece:
                for var, exp in enumerate(exps, 1):
                    if exp and var not in values:
                        return ValueError(f"no value given for t{var}")

    def _canonical(self):
        """(w, [(exponent bytes, stored coefficient), ...]) for each weight-w
        piece, ascending in w, its terms in descending byte order: the
        canonical order used for printing and serialization."""
        for w in sorted(self._terms):
            # A weight-w key has no variable above tw, so w bytes hold its
            # exponent vector, t1 first; no two keys share them.
            piece = self._terms[w]
            yield w, sorted([(k.to_bytes(w, "little"), c) for k, c in piece.items()], reverse=True)

    def sorted_terms(self):
        """(monomial, ordinary Fraction) pairs in the canonical order."""
        return [
            (_monomial_of(exps), _ordinary(w, c))
            for w, piece in self._canonical()
            for exps, c in piece
        ]

    def pretty(self):
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            mag = -coeff if coeff < 0 else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = _mono_str(mono)
            else:
                body = f"{mag}*{_mono_str(mono)}"
            if not chunks:
                chunks.append(f"-{body}" if coeff < 0 else body)
            else:
                chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(chunks)

    __str__ = pretty

    def __repr__(self):
        return f"<Polynomial {self.pretty()}>"

    def to_json_text(self):
        """The JSON form as text, in one pass over the canonical walk."""
        out = []
        for w, piece in self._canonical():
            fact = factorial(w)
            for exps, c in piece:
                if type(c) is int:
                    g = gcd(c, fact)
                    num, den = c // g, fact // g
                else:
                    c = Fraction(c, fact)
                    num, den = c.numerator, c.denominator
                # the slots above the largest variable are zero: cut them before the scan
                slots = enumerate(exps.rstrip(b"\0"), 1)
                mono = ", ".join([_JSON_KEYS[v] + _JSON_VALUES[e] for v, e in slots if e])
                out.append(f'{{"coeff": "{num}/{den}", "mono": {{{mono}}}}}')
        return '{"terms": [' + ", ".join(out) + "]}"

    def to_json_obj(self):
        """The JSON form as an object: the parse of to_json_text."""
        return json.loads(self.to_json_text())


_ONE = Polynomial._raw({0: {0: 1}})


def _term(mono, coeff):
    """The one-term polynomial coeff * mono, from a caller's monomial and coefficient."""
    w, key = _pack(_monomial(mono))
    return Polynomial._raw({w: {key: _scaled(coeff, w)}})


def _monomials(n, top, step):
    """(packed key, prod mj!) of every monomial prod tj^mj of weight n in t1,
    t(1+step), t(1+2*step), ... up to t_top; none for n < 0."""
    if n == 0:
        yield 0, 1
        return
    # var is the largest variable of the monomial; smaller ones fill the rest.
    for var in range(1, min(n, top) + 1, step):
        shift = SLOT_BITS * (var - 1)
        for exp in range(1, n // var + 1):
            head, fact = exp << shift, factorial(exp)
            for rest, rest_fact in _monomials(n - var * exp, var - step, step):
                yield rest + head, rest_fact * fact


def divided_powers(weight, step):
    """Sum of prod tj^mj / mj! over every monomial of the given weight in t1,
    t(1+step), t(1+2*step), ...; 0 for a negative weight."""
    if weight < 0:
        return Polynomial.zero()
    scale = factorial(_check_weight(weight))
    return Polynomial._raw(
        {weight: {key: scale // fact for key, fact in _monomials(weight, weight, step)}}
    )


def as_polynomial(value):
    p = Polynomial._coerce(value)
    if p is None:
        raise ValueError(f"not a polynomial: {value!r}")
    return p


def shift2(p):
    """Substitute tj -> t(2j): slot j moves to slot 2j and a weight-w
    coefficient is multiplied by (2w)!/w!, since the weight doubles."""
    out = {}
    for w, piece in p._terms.items():
        scale = perm(_check_weight(2 * w), w)
        # every odd byte of wide is rewritten for each key; the even ones stay 0
        wide = bytearray(2 * w)
        shifted = out[2 * w] = {}
        for key, coeff in piece.items():
            wide[1::2] = key.to_bytes(w, "little")
            shifted[int.from_bytes(wide, "little")] = coeff * scale
    return Polynomial._raw(out)


def omega(p):
    """Substitute tj -> (-1)^(j+1) tj: the involution that maps S_lam to S_lam'.

    A coefficient changes sign when the exponents of its even variables add up
    to an odd number, that is, when an odd number of them are odd.
    """
    return Polynomial._raw(
        {
            w: {k: -c if (k & _EVEN_LOW_BITS).bit_count() & 1 else c for k, c in piece.items()}
            for w, piece in p._terms.items()
        }
    )


def _expand(n, pick):
    """Memoised minor expansion over index subsets of range(n), held as bitmasks.

    pick(mask) yields (sign, entry, rest) for each term of the expansion of
    the minor on mask, where rest is the smaller mask that term recurses into.
    The minor on the empty mask is 1.  Each mask is expanded once.
    """
    memo = {0: Polynomial.one()}

    def minor(mask):
        result = memo.get(mask)
        if result is None:
            result = memo[mask] = sum_of_products(
                (sign, entry, minor(rest)) for sign, entry, rest in pick(mask) if entry._terms
            )
        return result

    return minor((1 << n) - 1)


def _bits(mask):
    """Set bits of mask, lowest first, as (index, single bit) pairs."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1, low
        mask ^= low


def determinant(mat):
    """Exact determinant by expansion along the top free row, memoised on column sets.

    On an upper Hessenberg matrix, such as the h matrix of 1^n, that memoises
    about 2^n column sets (16 s for 1^20, 31.6 s for 1^21 on a 2-vCPU Xeon);
    schur.schur_s never meets this, as it builds a tall shape from its conjugate.
    """
    rows = [[as_polynomial(e) for e in row] for row in mat]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")

    def pick(mask):
        row = rows[n - mask.bit_count()]
        for pos, (col, bit) in enumerate(_bits(mask)):
            yield (-1) ** pos, row[col], mask ^ bit

    return _expand(n, pick)


def pfaffian(upper):
    """Pfaffian of the even-size skew matrix M with strict upper triangle upper[i] = M[i][i+1:].

    Expands along the lowest free index, pairing it with each other free index
    in turn, memoised on the set of free indices.  Its square is the determinant
    of the full matrix; the empty matrix has pfaffian 1.
    """
    rows = [[as_polynomial(e) for e in row] for row in upper]
    n = len(rows)
    if n % 2:
        raise ValueError(f"pfaffian needs even size, got {n}")
    if any(len(row) != n - 1 - i for i, row in enumerate(rows)):
        raise ValueError("pfaffian needs a strict upper triangle: row i has n-1-i entries")

    def pick(mask):
        low = mask & -mask
        i = low.bit_length() - 1
        row = rows[i]
        for pos, (col, bit) in enumerate(_bits(mask ^ low)):
            yield (-1) ** pos, row[col - i - 1], mask ^ low ^ bit

    return _expand(n, pick)
