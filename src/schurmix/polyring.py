"""Sparse multivariate polynomials over exact rationals in t1, t2, t3, ...

Variable tj carries weight j, so t1^2*t3 has weighted degree 5.  Terms are
kept in a canonical order: ascending weighted degree, ties broken by the
exponent vector read from t1 upward with the larger vector first.  The same
order drives the pretty printer and the JSON form

    {"terms": [{"coeff": "<num>/<den>", "mono": {"<var>": "<exp>", ...}}, ...]}
"""

from __future__ import annotations

from fractions import Fraction


class Monomial:
    """Product of variable powers, stored as an ascending tuple of (var, exp)."""

    __slots__ = ("exps",)

    def __init__(self, exps=()):
        items = exps.items() if isinstance(exps, dict) else exps
        pairs = []
        for var, exp in sorted(items):
            var = int(var)
            exp = int(exp)
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be >= 0, got {exp}")
            if pairs and pairs[-1][0] == var:
                raise ValueError(f"duplicate variable t{var}")
            if exp:
                pairs.append((var, exp))
        self.exps = tuple(pairs)

    @property
    def wdeg(self):
        return sum(var * exp for var, exp in self.exps)

    def exp(self, var):
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def __mul__(self, other):
        d = dict(self.exps)
        for var, exp in other.exps:
            d[var] = d.get(var, 0) + exp
        return Monomial(d)

    def remap(self, f):
        """Apply a variable renaming var -> f(var)."""
        return Monomial(tuple((f(var), exp) for var, exp in self.exps))

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self.exps == other.exps
        return NotImplemented

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps!r})"

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(
            f"t{var}^{exp}" if exp > 1 else f"t{var}" for var, exp in self.exps
        )


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


class Polynomial:
    """Finite Fraction-weighted sum of monomials.  Treated as immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            accumulate(
                d,
                (
                    (mono if isinstance(mono, Monomial) else Monomial(mono), Fraction(coeff))
                    for mono, coeff in items
                ),
            )
        self.terms = d

    @classmethod
    def _raw(cls, d):
        p = object.__new__(cls)
        p.terms = d
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c):
        c = Fraction(c)
        return cls._raw({Monomial(): c} if c else {})

    @classmethod
    def variable(cls, j):
        return cls._raw({Monomial(((j, 1),)): Fraction(1)})

    @property
    def is_zero(self):
        return not self.terms

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
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._raw(accumulate(dict(self.terms), other.terms.items(), -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero()
            return Polynomial._raw({m: co * c for m, co in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        right = other.terms.items()
        return Polynomial._raw(
            accumulate(
                {},
                ((m1 * m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in right),
            )
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"exponent must be >= 0, got {n}")
        result = Polynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def weighted_degrees(self):
        return {mono.wdeg for mono in self.terms}

    def homogeneous_degree(self):
        """Common weighted degree of all terms, or None if mixed or zero."""
        degs = self.weighted_degrees()
        return degs.pop() if len(degs) == 1 else None

    def eval(self, assignment):
        """Exact value with tj = assignment[j]; every variable must be covered."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono.exps:
                if var not in assignment:
                    raise ValueError(f"no value given for t{var}")
                value *= Fraction(assignment[var]) ** exp
            total += value
        return total

    def sorted_terms(self):
        """Terms in the canonical order used for printing and serialization."""
        if not self.terms:
            return []
        top = max((mono.exps[-1][0] for mono in self.terms if mono.exps), default=0)

        def key(item):
            mono = item[0]
            vec = [0] * top
            for var, exp in mono.exps:
                vec[var - 1] = -exp
            return (mono.wdeg, tuple(vec))

        return sorted(self.terms.items(), key=key)

    def pretty(self):
        if not self.terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            mag = -coeff if coeff < 0 else coeff
            if not mono.exps:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
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
                    "mono": {str(var): str(exp) for var, exp in m.exps},
                }
                for m, c in self.sorted_terms()
            ]
        }


def as_polynomial(value):
    p = Polynomial._coerce(value)
    if p is None:
        raise ValueError(f"not a polynomial: {value!r}")
    return p


def shift2(p):
    """Substitute tj -> t(2j) in every monomial."""
    return Polynomial._raw(
        {mono.remap(lambda v: 2 * v): coeff for mono, coeff in p.terms.items()}
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
                if entry.terms:
                    accumulate(acc, (entry * minor(rest)).terms.items(), sign)
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
        if rows[i][i].terms:
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
