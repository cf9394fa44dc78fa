"""States indexed by strict partitions, the raising action, and the divided power lemma.

A vector is a plain dict {StrictPartition: coefficient}.  The elementary
operator with index i > 0 turns a part i into i+1 when i is present and i+1 is
not.  The index 0 operator adds a new part 1, with coefficient 1/2 when the
partition has an odd number of parts (the state then carries an implicit zero
pad) and 1 otherwise.  Index k fills column k + 1, and the color i operator,
which carries a factor sqrt 2, bundles the elementary operators whose column
has color i in the sense of :mod:`schurmix.partitions`.

Applying the color i operator ell times to a core state and dividing by ell!
spreads the state over the color i addition set with sqrt 2 powers as
coefficients; :func:`lemma_co_sides` computes both sides of that expansion,
which are equal.  Every coefficient on either side is a rational times sqrt2^0
or sqrt2^1, held as a :class:`Sqrt2Power`.

:func:`lemma_co_sides` computes the divided power on integer path counts, not
by applying :func:`f_chev` ell times.  Every index 0 step adds one row, so a
path from the core to lam takes exactly r = len(lam) - len(core) of them, and
only those steps carry a weight.  Counting each index 0 step as 1 (odd length)
or 2 (even length) makes N(lam), the weighted number of paths, an int, and

    f_i^ell / ell! |core> = sum over lam of sqrt2^ell * N(lam) / (ell! * 2^r) |lam>.

f_inf and f_chev apply the operators step by step on {state: Fraction} dicts,
the reference the tests hold the path counts to.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from operator import index
from typing import NamedTuple

from .partitions import StrictPartition, _new, _set_parts, add_set, bar_core, check_color
from .polyring import as_fraction


class _Sqrt2PowerFields(NamedTuple):
    c: Fraction
    e: int


class Sqrt2Power(_Sqrt2PowerFields):
    """Nonzero number c * sqrt2^e with rational c and e in {0, 1}.

    Construction checks both: c must be an int or a Fraction and is held as a
    Fraction, e must be an int (TypeError otherwise); c must be nonzero and e
    in {0, 1} (ValueError otherwise).  typing.NamedTuple forbids a __new__ of
    its own, so the checks live in this subclass.
    """

    __slots__ = ()

    def __new__(cls, c, e):
        if type(c) is not Fraction:
            c = as_fraction(c)
        e = index(e)
        if not c:
            raise ValueError("sqrt2 coefficient must be nonzero")
        if e not in (0, 1):
            raise ValueError(f"sqrt2 exponent must be 0 or 1, got {e}")
        return super().__new__(cls, c, e)

    @classmethod
    def of(cls, c, k):
        """c * sqrt2^k for any integer k, negative powers included; c is an
        int or a Fraction and k an int, anything else is a TypeError."""
        half, e = divmod(index(k), 2)
        return cls(as_fraction(c) * Fraction(2) ** half, e)

    def __str__(self):
        if not self.e:
            return str(self.c)
        if self.c == 1:
            return "sqrt2"
        if self.c == -1:
            return "-sqrt2"
        return f"{self.c}*sqrt2"


def f_inf(i, lam):
    """Elementary raising operator with index i >= 0 on a basis state, as {state: Fraction}."""
    if i < 0:
        raise ValueError(f"operator index must be >= 0, got {i}")
    parts = lam.parts
    if i == 0:
        if 1 in parts:
            return {}
        weight = Fraction(1, 2) if len(parts) % 2 else Fraction(1)
        return {StrictPartition(parts + (1,)): weight}
    if i not in parts or (i + 1) in parts:
        return {}
    raised = tuple(sorted((set(parts) - {i}) | {i + 1}, reverse=True))
    return {StrictPartition(raised): Fraction(1)}


def f_chev(i, v):
    """Color i raising operator on a {state: Fraction} vector, without its
    overall factor sqrt 2: the sum of the elementary operators whose index lies
    in color class i.  The caller applies sqrt2^ell after ell steps."""
    check_color(i)
    out = {}
    for lam, coeff in v.items():
        for k in [p for p in lam.parts + (0,) if ((p + 1) >> 1) & 1 == i]:
            for mu, weight in f_inf(k, lam).items():
                out[mu] = out.get(mu, 0) + coeff * weight
    return {mu: c for mu, c in out.items() if c}


def a_count(lam):
    """Even entries of the state, counting the zero pad of odd length states."""
    return sum(1 for p in lam.parts if p % 2 == 0) + (len(lam.parts) % 2)


def _path_counts(i, core, ell):
    """{parts: N} over the states ell color i steps away from the parts tuple core.

    N counts the paths of elementary steps, each index 0 step counted as 1 from
    an odd length state and 2 from an even one, so N / 2^r is the sum of the
    path weights when the path adds r rows.

    The walk holds each state as a bitmask, bit p set for a part p, and
    turns the masks into parts tuples once, after the last step.  A part p
    may move when column p + 1 has color i (bit p of colored) and p + 1 is
    not a part; the move adds bit p to the mask, carrying it to bit p + 1.
    No part grows by more than two columns, so colored is sized by the
    core's largest part plus 3, whatever ell is.
    """
    top = max(core, default=0) + 3
    colored = sum(1 << p for p in range(top) if ((p + 1) >> 1) & 1 == i)
    states = {sum(1 << p for p in core): 1}
    for _ in range(ell):
        if not states:
            break
        nxt = {}
        for mask, count in states.items():
            movable = mask & colored & ~(mask >> 1)
            while movable:
                low = movable & -movable
                key = mask + low
                nxt[key] = nxt.get(key, 0) + count
                movable -= low
            # the index 0 step opens a row of length 1 when 1 is not a part
            if i == 0 and not mask & 2:
                key = mask | 2
                nxt[key] = nxt.get(key, 0) + (count if mask.bit_count() & 1 else 2 * count)
        states = nxt
    return {tuple(p for p in range(top, 0, -1) if mask >> p & 1): n for mask, n in states.items()}


def lemma_co_sides(i, core_index, ell):
    """Divided power side and weighted sum side of the core expansion.

    Each side is a {StrictPartition: Sqrt2Power} dict in decreasing
    lexicographic order of parts.  The path counts walk from the core by
    valid steps, so their states are strict and their keys are not checked
    again.
    """
    check_color(i, core_index)
    ell = index(ell)
    if ell < 0:
        raise ValueError(f"power must be >= 0, got {ell}")
    core = bar_core(core_index)
    half, odd = divmod(ell, 2)
    states = _path_counts(i, core.parts, ell)
    # a large ell may leave no state, and then its factorial is never needed
    denominator = factorial(ell) if states else 1
    left = {}
    for parts, count in sorted(states.items(), reverse=True):
        scale = Fraction(count << half, denominator << (len(parts) - len(core.parts)))
        lam = _new(StrictPartition)
        _set_parts(lam, parts)
        left[lam] = Sqrt2Power(scale, odd)
    # add_set yields distinct states in decreasing lexicographic order already;
    # the few distinct powers are each built once.
    eps = core_index % 2
    power = cache(lambda k: Sqrt2Power.of(1, k - eps))
    right = {lam: power(a_count(lam)) for lam in add_set(core, i, ell)}
    return left, right
