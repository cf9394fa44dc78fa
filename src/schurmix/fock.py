"""States indexed by strict partitions over Q(sqrt 2), with the raising action.

A FockVector built from (state, coefficient) pairs sums them into one dict and
drops zeros once at the end; it is the one accumulator for states.

The elementary operator with index i > 0 turns a part i into i+1 when i is
present and i+1 is not.  The index 0 operator adds a new part 1, with
coefficient 1/2 when the partition has an odd number of parts (the state then
carries an implicit zero pad) and 1 otherwise.  The two coarse operators
bundle the elementary ones by column color and carry a factor sqrt 2:

    color 0 uses indices 0, 3, 4, 7, 8, 11, ...
    color 1 uses indices 1, 2, 5, 6, 9, 10, ...

Applying the color i operator ell times to a core state and dividing by ell!
spreads the state over the color i addition set with sqrt 2 powers as
coefficients; :func:`lemma_co_check` verifies that expansion exactly.

:func:`lemma_co_sides` computes the divided power on integer path counts, not
by applying :func:`f_chev` ell times.  Every index 0 step adds one row, so a
path from the core to lam takes exactly r = len(lam) - len(core) of them, and
only those steps carry a weight.  Counting each index 0 step as 1 (odd length)
or 2 (even length) makes N(lam), the weighted number of paths, an int, and

    f_i^ell / ell! |core> = sum over lam of sqrt2^ell * N(lam) / (ell! * 2^r) |lam>.

f_inf and f_chev apply the operators step by step, the reference the tests
hold the path counts to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial

from .partitions import StrictPartition, add_set, bar_core, check_color, color
from .polyring import as_fraction


class Sqrt2Scalar:
    """Number a + b*sqrt(2) with rational a and b, exact under + and *.

    a and b must be int or Fraction; anything else is a TypeError.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = as_fraction(a)
        self.b = as_fraction(b)

    @classmethod
    def sqrt2_pow(cls, k):
        """sqrt(2)^k for any integer k, negative powers included."""
        half, odd = divmod(k, 2)
        base = Fraction(2) ** half
        return cls(0, base) if odd else cls(base, 0)

    @property
    def is_zero(self):
        return not self.a and not self.b

    def __bool__(self):
        return not self.is_zero

    @staticmethod
    def _coerce(value):
        if isinstance(value, Sqrt2Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Sqrt2Scalar(value)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Sqrt2Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2Scalar(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Sqrt2Scalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __repr__(self):
        return f"Sqrt2Scalar({self.a}, {self.b})"

    def __str__(self):
        if self.is_zero:
            return "0"
        if not self.b:
            return str(self.a)
        if self.b == 1:
            root = "sqrt2"
        elif self.b == -1:
            root = "-sqrt2"
        else:
            root = f"{self.b}*sqrt2"
        if not self.a:
            return root
        joiner = "+" if self.b > 0 else ""
        return f"{self.a}{joiner}{root}"


_ZERO = Sqrt2Scalar()
_SQRT2 = Sqrt2Scalar(0, 1)


class FockVector:
    """Finite combination of strict partition states with Sqrt2Scalar weights.

    Built from a dict or from (state, coefficient) pairs: the coefficients of
    a repeated state add up, and states whose sum is zero are dropped once,
    after every pair is in.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        items = entries.items() if isinstance(entries, dict) else entries or ()
        d = {}
        for lam, coeff in items:
            # Adding to zero coerces int and Fraction and raises TypeError otherwise.
            d[lam] = d.get(lam, _ZERO) + coeff
        self.entries = {lam: coeff for lam, coeff in d.items() if coeff}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, lam):
        return cls({lam: Sqrt2Scalar(1)})

    @property
    def is_zero(self):
        return not self.entries

    def support(self):
        """States with nonzero weight, decreasing lexicographic."""
        return sorted(self.entries, key=lambda lam: lam.parts, reverse=True)

    def items(self):
        return [(lam, self.entries[lam]) for lam in self.support()]

    def __eq__(self, other):
        if isinstance(other, FockVector):
            return self.entries == other.entries
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return FockVector(chain(self.entries.items(), other.entries.items()))

    def scale(self, factor):
        factor = Sqrt2Scalar._coerce(factor)
        if factor is None or factor.is_zero:
            return FockVector.zero()
        out = FockVector()
        out.entries = {lam: coeff * factor for lam, coeff in self.entries.items()}
        return out

    def __repr__(self):
        body = " + ".join(f"({c})|{lam}>" for lam, c in self.items()) or "0"
        return f"<FockVector {body}>"


def f_inf(i, lam):
    """Elementary raising operator with index i >= 0 on a basis state."""
    if i < 0:
        raise ValueError(f"operator index must be >= 0, got {i}")
    parts = lam.parts
    if i == 0:
        if 1 in parts:
            return FockVector.zero()
        weight = Fraction(1, 2) if len(parts) % 2 else Fraction(1)
        return FockVector({StrictPartition(parts + (1,)): weight})
    if i not in parts or (i + 1) in parts:
        return FockVector.zero()
    raised = tuple(sorted((set(parts) - {i}) | {i + 1}, reverse=True))
    return FockVector.basis(StrictPartition(raised))


def _residues(i):
    """Residues mod 4 of the parts a color i step raises: part p fills column p + 1."""
    return tuple(r for r in range(4) if color(r + 1) == i)


def f_chev(i, v):
    """Color i raising operator on a vector: sqrt 2 times the sum of the
    elementary operators whose index lies in color class i."""
    check_color(i)
    residues = _residues(i)

    def steps():
        for lam, coeff in v.entries.items():
            indices = [p for p in lam.parts if p % 4 in residues]
            if i == 0:
                indices.append(0)
            for k in indices:
                yield from f_inf(k, lam).scale(coeff * _SQRT2).entries.items()

    return FockVector(steps())


def a_count(lam):
    """Even entries of the state, counting the zero pad of odd length states."""
    return sum(1 for p in lam.parts if p % 2 == 0) + (len(lam.parts) % 2)


def _path_counts(i, core, ell):
    """{parts: N} over the states ell color i steps away from the parts tuple core.

    N counts the paths of elementary steps, each index 0 step counted as 1 from
    an odd length state and 2 from an even one, so N / 2^r is the sum of the
    path weights when the path adds r rows.
    """
    residues = _residues(i)
    states = {core: 1}
    for _ in range(ell):
        nxt = {}
        for parts, count in states.items():
            prev = 0
            for j, p in enumerate(parts):
                # parts strictly decrease, so p + 1 is present only as parts[j - 1]
                if p % 4 in residues and prev != p + 1:
                    key = parts[:j] + (p + 1,) + parts[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + count
                prev = p
            # prev is now the smallest part, or 0 for the empty state
            if i == 0 and prev != 1:
                key = parts + (1,)
                nxt[key] = nxt.get(key, 0) + (count if len(parts) % 2 else 2 * count)
        states = nxt
    return states


def lemma_co_sides(i, core_index, ell):
    """Divided power side and weighted sum side of the core expansion."""
    check_color(i, core_index)
    if ell < 0:
        raise ValueError(f"power must be >= 0, got {ell}")
    core = bar_core(core_index)
    half, odd = divmod(ell, 2)
    denominator = factorial(ell)
    left = FockVector()
    for parts, count in _path_counts(i, core.parts, ell).items():
        scale = Fraction(count << half, denominator << (len(parts) - len(core.parts)))
        coeff = Sqrt2Scalar(0, scale) if odd else Sqrt2Scalar(scale)
        left.entries[StrictPartition(parts)] = coeff
    # add_set yields distinct states and a power of sqrt 2 is never 0, so the
    # entries go in as they are, without FockVector's coercion.
    eps = core_index % 2
    right = FockVector()
    for lam in add_set(core, i, ell):
        right.entries[lam] = Sqrt2Scalar.sqrt2_pow(a_count(lam) - eps)
    return left, right


def lemma_co_check(i, core_index, ell):
    """True when the divided power expansion matches the weighted sum."""
    left, right = lemma_co_sides(i, core_index, ell)
    return left == right
