"""Partitions, strict partitions, diagram coloring, bar cores, and node addition sets.

Column j of a Young diagram has color (j >> 1) & 1, so the colors run
0, 1, 1, 0, 0, 1, 1, 0, ... with period four: columns 1, 4, 5, 8, 9, ... carry
color 0 and columns 2, 3, 6, 7, ... carry color 1.  Adding nodes of a single
color to a strict partition produces the sets enumerated by :func:`add_set`.

A case of the expansion is a color: case "one" grows cores with index >= 0
by nodes of color 1, case "zero" cores with index <= 0 by nodes of color 0.

``Partition(...)`` and ``StrictPartition(...)`` check every part in one pass.
A partition the library builds itself from checked inputs, such as each result
of :func:`add_set`, is valid by construction and built without a second check,
by ``_new`` and ``_set_parts`` with no Python frame.  Either way a partition
cannot be changed after it is built, so a checked one stays valid.
"""

from __future__ import annotations

from itertools import chain
from operator import index

# A case name's index is its color.
CASES = ("zero", "one")


class Partition:
    """Weakly decreasing tuple of positive integers; () is the empty partition.

    Every part must be of type int, so a float, a string or a bool is a TypeError.
    The parts are checked in one pass, left to right, and the first bad part
    decides the error; StrictPartition refuses a tie only after the pass, so
    a later bad part is the one reported.  A partition cannot be changed after
    it is built: assigning or deleting ``parts`` is an AttributeError.
    """

    __slots__ = ("parts",)
    _strict = False  # StrictPartition also refuses equal parts

    def __init__(self, parts=()):
        parts = tuple(parts)
        tie = False
        prev = None
        for p in parts:
            if type(p) is not int:
                raise TypeError(f"parts must be int, got {p!r}")
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if prev is not None and p >= prev:
                if p > prev:
                    raise ValueError(f"parts must be decreasing, got {parts}")
                tie = True
            prev = p
        if tie and self._strict:
            raise ValueError(f"parts must be strictly decreasing, got {parts}")
        _set_parts(self, parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} cannot be changed after it is built")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} cannot be changed after it is built")

    def __reduce__(self):
        return type(self), (self.parts,)

    @property
    def weight(self):
        return sum(self.parts)

    def conjugate(self):
        """Transposed diagram: part j is the number of parts >= j.

        The conjugate of a partition is one, so it is built without a second
        check, as a Partition whatever the type of self.
        """
        parts = self.parts
        columns = range(1, max(parts, default=0) + 1)
        conj = _new(Partition)
        _set_parts(conj, tuple(sum(p >= j for p in parts) for j in columns))
        return conj

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.parts)})"

    def __str__(self):
        return self.to_text()

    def to_text(self):
        """Render as comma separated parts; the empty partition renders as ''."""
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, text):
        """Parse the comma separated format; '' denotes the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(tok.strip()) for tok in text.split(",")))


class StrictPartition(Partition):
    """Partition with pairwise distinct parts."""

    __slots__ = ()
    _strict = True


# The one way to write the slot, since __setattr__ refuses every assignment.
# With _new it builds a partition with no check, only for parts the library
# itself builds from checked inputs; every other caller goes through the
# checking constructor.
_new = object.__new__
_set_parts = Partition.parts.__set__


def case_color(case):
    """Color of a case name."""
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    return CASES.index(case)


def check_color(i, core_index=0):
    """Refuse a color other than the int 0 or 1, or a core index of the wrong sign for it."""
    if index(i) not in (0, 1):
        raise ValueError(f"color must be 0 or 1, got {i}")
    if (core_index < 0) if i else (core_index > 0):
        raise ValueError(f"case {CASES[i]} needs a core index {'>=' if i else '<='} 0")


def bar_core(m):
    """Core with index m: (4m-3, ..., 5, 1) for m > 0, (-4m-1, ..., 7, 3) for m < 0."""
    if m > 0:
        return StrictPartition(range(4 * m - 3, 0, -4))
    if m < 0:
        return StrictPartition(range(-4 * m - 1, 0, -4))
    return StrictPartition()


def add_set(lam, i, ell):
    """All strict partitions obtained from lam by adding ell nodes of color i.

    A result mu contains lam row by row, has weight |lam| + ell, and every node
    of mu outside lam sits in a column of color i.  New rows below lam are
    allowed.  Results are yielded one at a time, each once, in decreasing
    lexicographic order of parts; the arguments are checked at the call, and
    lam must be a StrictPartition and ell an int (TypeError otherwise), so no
    result is checked again.
    """
    if not isinstance(lam, StrictPartition):
        raise TypeError(f"add_set: lam must be a StrictPartition, got {lam!r}")
    check_color(i)
    ell = index(ell)
    if ell < 0:
        raise ValueError(f"node count must be non-negative, got {ell}")
    # Colors come in pairs, so a row ending at column b takes two nodes when b
    # is odd and one when b is even, if column b + 1 has color i; a fresh row
    # ends at column 0.
    bases = lam.parts + (0,)
    gain = [(1 + (b & 1)) * (((b + 1) >> 1) & 1 == i) for b in bases]
    if ell > sum(gain):
        return iter(())
    if not ell:
        return iter((lam,))
    return _grow(bases, gain, ell)


def _grow(bases, gain, ell):
    """Search behind add_set; bases is lam's parts and a 0, ell > 0.

    The rows split at mid into an upper half, the smaller one, and a lower
    half, which holds the fresh row unless that row is the only one.
    _fills lists each half's fills by the nodes they take, leaving out
    those that take fewer than the other half can make up.  The upper fills
    are sorted once, in decreasing lexicographic order, and each one taking
    b nodes is joined to the lower fills of ell - b nodes whose first part
    is below its last, so results come out in decreasing lexicographic
    order.  Every part of a result is below the one above it and at least
    its own base, so the result is strict and is not checked again.
    """
    new = _new
    set_parts = _set_parts
    mid = max(len(bases) // 2, 1)
    up = sum(gain[:mid])
    down = sum(gain[mid:])
    upper = _fills(bases[:mid], gain[:mid], ell - down, min(up, ell))
    lower = _fills(bases[mid:], gain[mid:], ell - up, min(down, ell))
    # a prefix taking b nodes leaves ell - b = rest - sum(prefix)
    rest = ell + sum(bases[:mid])
    for prefix in sorted(chain.from_iterable(upper), reverse=True):
        last = prefix[-1:]
        # fill < last holds for the empty fill and for a fill whose first
        # part is below the prefix's last
        for fill in lower[rest - sum(prefix)]:
            if fill < last:
                mu = new(StrictPartition)
                set_parts(mu, prefix + fill)
                yield mu


def _fills(bases, gain, least, most):
    """table[b], for b <= most, lists every fill of the rows bases taking
    exactly b nodes, in decreasing lexicographic order; a fill taking fewer
    than least nodes is left out.

    The table is built bottom-up, one row at a time, from the empty fill of
    no rows: a fill of the rows from a row down is that row's part v, from
    its base to base + gain, then a fill of the rows below whose first part
    is below v.  The fresh row, of base 0, may stay empty: its v = 0 adds no
    part.  A partial fill is kept only if the rows above it can still bring
    it to least nodes.  Taking the budgets below in increasing order and v
    in decreasing order appends each list in decreasing order.
    """
    least -= sum(gain)
    table = [[()]] + [[] for _ in range(most)]
    for base, g in zip(bases[::-1], gain[::-1]):
        least += g
        above = [[] for _ in range(most + 1)]
        for b, below in enumerate(table):
            if not below:
                continue
            for v in range(base + min(g, most - b), base + max(least - b, 0) - 1, -1):
                bound = (v,)
                head = bound if v else ()
                # f < bound holds for the empty fill and for a fill whose
                # first part is below v
                above[b + v - base] += [head + f for f in below if f < bound]
        table = above
    return table
