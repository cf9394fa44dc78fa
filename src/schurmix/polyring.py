"""Sparse multivariate polynomials over exact rationals in t1, t2, t3, ...

A monomial is a tuple of (var, exp) pairs, ascending in var, with every
exp > 0; () is the monomial 1.  Polynomial(...) and Polynomial.variable check
the monomials and coefficients given to them; products, sums, shift2 and omega
build canonical tuples directly and check nothing.

Internally a polynomial is stored in the divided-power basis: the coefficient
kept for a monomial is the coefficient of prod tj^mj / mj!, that is, the
ordinary coefficient times prod mj!.  In this basis a product of monomials is
t^(a) * t^(b) = prod_j binom(aj + bj, aj) * t^(a+b), shift2 and omega leave the
coefficients as they are, and h_n, q_n and every S- and Q-polynomial have
plain int coefficients, so determinants and Pfaffians run on ints.  Fractions
appear only at the boundary: caller-supplied coefficients are converted on the
way in (and stay Fractions when not integral), and Polynomial.terms, eval,
sorted_terms, pretty and to_json_obj give ordinary-basis Fractions.
Polynomial.terms is a read-only {monomial: Fraction} view that converts one
coefficient per lookup.

Variable tj carries weight j, so t1^2*t3 has weighted degree 5.  Terms are
kept in a canonical order: ascending weighted degree, ties broken by the
exponent vector read from t1 upward with the larger vector first.  The same
order drives the pretty printer and the JSON form

    {"terms": [{"coeff": "<num>/<den>", "mono": {"<var>": "<exp>", ...}}, ...]}
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb, factorial


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


def _mono_mul(m1, m2):
    """Product of two canonical divided-power monomials; nothing is checked.

    Returns the canonical monomial a+b and the int factor prod binom(aj + bj, aj)
    over the variables m1 and m2 share, so that t^(a) * t^(b) = factor * t^(a+b).
    """
    d = dict(m1)
    factor = 1
    for var, exp in m2:
        old = d.get(var)
        if old:
            exp += old
            factor *= comb(exp, old)
        d[var] = exp
    return tuple(sorted(d.items())), factor


def _products(left, right):
    """(monomial, coefficient) of every pairwise term product of two divided-power term maps."""
    right = right.items()
    for m1, c1 in left.items():
        for m2, c2 in right:
            mono, factor = _mono_mul(m1, m2)
            yield mono, c1 * c2 * factor


def _factorials(mono):
    """prod mj! over the monomial: the ratio of its divided-power to its ordinary coefficient."""
    out = 1
    for _, exp in mono:
        out *= factorial(exp)
    return out


def _exact(c):
    """c as an int when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _ordinary(mono, coeff):
    """Ordinary-basis Fraction coefficient of a divided-power term."""
    return Fraction(coeff, _factorials(mono))


def _mono_str(mono):
    return "*".join(f"t{var}^{exp}" if exp > 1 else f"t{var}" for var, exp in mono)


def as_fraction(value):
    """value as a Fraction; only int and Fraction are exact, anything else is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}: {value!r}")
    return Fraction(value)


def accumulate(acc, items, sign=1):
    """Add sign * coeff into acc[key] for each (key, coeff) of items, in place.

    Keys whose coefficient becomes zero are dropped, so acc stays sparse.
    Works for any coefficient type with negation, addition and truth value.
    Returns acc.
    """
    for key, coeff in items:
        if sign < 0:
            coeff = -coeff
        old = acc.get(key)
        new = coeff if old is None else old + coeff
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


class _OrdinaryTerms(Mapping):
    """Read-only {monomial: Fraction} view of divided-power terms.

    len, membership and iteration read the stored dict directly; a lookup
    converts the one coefficient it returns.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms):
        self._terms = terms

    def __getitem__(self, mono):
        return _ordinary(mono, self._terms[mono])

    def __contains__(self, mono):
        return mono in self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
    """Finite rational-weighted sum of monomials.  Immutable: terms is read-only."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            pairs = ((_monomial(mono), as_fraction(coeff)) for mono, coeff in items)
            accumulate(d, ((m, _exact(c * _factorials(m))) for m, c in pairs))
        self._terms = d

    @classmethod
    def _raw(cls, d):
        p = object.__new__(cls)
        p._terms = d
        return p

    @property
    def terms(self):
        """Read-only {monomial: Fraction} map of the ordinary-basis coefficients."""
        return _OrdinaryTerms(self._terms)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c):
        c = _exact(as_fraction(c))
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, j):
        return cls._raw({_monomial(((j, 1),)): 1})

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
        return Polynomial._raw(accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(accumulate(dict(self._terms), other._terms.items(), -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            if not c:
                return Polynomial.zero()
            return Polynomial._raw({m: co * c for m, co in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._raw(accumulate({}, _products(self._terms, other._terms)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"exponent must be >= 0, got {n}")
        result = Polynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def weighted_degrees(self):
        return {sum(var * exp for var, exp in mono) for mono in self._terms}

    def homogeneous_degree(self):
        """Common weighted degree of all terms, or None if mixed or zero."""
        degs = self.weighted_degrees()
        return degs.pop() if len(degs) == 1 else None

    def eval(self, assignment):
        """Exact value with tj = assignment[j]; every variable must be covered.

        Values must be int or Fraction; anything else is a TypeError.
        """
        values = {var: as_fraction(value) for var, value in assignment.items()}
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = _ordinary(mono, coeff)
            for var, exp in mono:
                if var not in values:
                    raise ValueError(f"no value given for t{var}")
                value *= values[var] ** exp
            total += value
        return total

    def sorted_terms(self):
        """(monomial, ordinary Fraction) pairs in the canonical order used for
        printing and serialization."""
        if not self._terms:
            return []
        top = max((mono[-1][0] for mono in self._terms if mono), default=0)

        def key(item):
            mono = item[0]
            vec = [0] * top
            wdeg = 0
            for var, exp in mono:
                vec[var - 1] = -exp
                wdeg += var * exp
            return (wdeg, tuple(vec))

        return [(m, _ordinary(m, c)) for m, c in sorted(self._terms.items(), key=key)]

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

    def to_json_obj(self):
        return {
            "terms": [
                {
                    "coeff": f"{c.numerator}/{c.denominator}",
                    "mono": {str(var): str(exp) for var, exp in m},
                }
                for m, c in self.sorted_terms()
            ]
        }


def divided_powers(monomials):
    """Sum of prod tj^mj / mj! over distinct canonical monomials, nothing checked."""
    return Polynomial._raw(dict.fromkeys(monomials, 1))


def as_polynomial(value):
    p = Polynomial._coerce(value)
    if p is None:
        raise ValueError(f"not a polynomial: {value!r}")
    return p


def shift2(p):
    """Substitute tj -> t(2j) in every monomial; divided-power coefficients stay."""
    return Polynomial._raw(
        {tuple((2 * v, e) for v, e in mono): coeff for mono, coeff in p._terms.items()}
    )


def omega(p):
    """Substitute tj -> (-1)^(j+1) tj: the involution that maps S_lam to S_lam'.

    A coefficient changes sign when the exponents of its even variables add up
    to an odd number.
    """
    return Polynomial._raw(
        {
            mono: -coeff if sum(e for v, e in mono if not v & 1) & 1 else coeff
            for mono, coeff in p._terms.items()
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
            acc = {}
            for sign, entry, rest in pick(mask):
                if entry._terms:
                    accumulate(acc, (entry * minor(rest))._terms.items(), sign)
            result = memo[mask] = Polynomial._raw(acc)
        return result

    return minor((1 << n) - 1)


def _bits(mask):
    """Set bits of mask, lowest first, as (index, single bit) pairs."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1, low
        mask ^= low


def _square(mat, name):
    rows = [[as_polynomial(e) for e in row] for row in mat]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} needs a square matrix")
    return rows


def determinant(mat):
    """Exact determinant by expansion along the top free row, memoised on column sets."""
    rows = _square(mat, "determinant")
    n = len(rows)

    def pick(mask):
        row = rows[n - bin(mask).count("1")]
        for pos, (col, bit) in enumerate(_bits(mask)):
            yield (-1) ** pos, row[col], mask ^ bit

    return _expand(n, pick)


def pfaffian(mat):
    """Pfaffian of a skew-symmetric matrix of even size.

    Expands along the lowest free index, pairing it with each other free
    index in turn, memoised on the set of free indices.  pfaffian(M)^2 equals
    determinant(M); the empty matrix has pfaffian 1.
    """
    rows = _square(mat, "pfaffian")
    n = len(rows)
    if n % 2:
        raise ValueError(f"pfaffian needs even size, got {n}")
    for i in range(n):
        if rows[i][i]._terms:
            raise ValueError("pfaffian needs a zero diagonal")
        for j in range(i + 1, n):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("pfaffian needs a skew-symmetric matrix")

    def pick(mask):
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        for pos, (col, bit) in enumerate(_bits(mask ^ low)):
            yield (-1) ** pos, row[col], mask ^ low ^ bit

    return _expand(n, pick)
