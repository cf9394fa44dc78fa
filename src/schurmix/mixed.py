"""Mixed Q*S expansions of rectangular S-polynomials, and their verification.

A case is a color i, named by ``partitions.CASES[i]``, with m >= 0, and
:func:`resolve_case` alone gives its core index and rectangle: for color 1
("one") index m and 2m-n rows of length n, for color 0 ("zero") index -m and n
rows of length 2m+1-n.  The rectangle expands over the node addition set of
color i on that core, each summand the sign of the partition times the
Q-polynomial of its even half times the S-polynomial of its Maya half in the
doubled variables.  Both sides vanish when the addition set is empty.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .barquot import delta_sign, quotient
from .partitions import Partition, StrictPartition, add_set, bar_core, case_color
from .polyring import Polynomial, shift2, sum_of_products
from .schur import rect_schur, schur_q, schur_s

_ONE = Polynomial.one()


def resolve_case(case, m, n):
    """(color, core index, (rows, cols)) of a named case, refusing an m or n
    that is negative (ValueError) or not an int (TypeError).  With
    top = 2m + 1 - color, color 1 has core index m and the (top - n) x n
    rectangle, color 0 core index -m and n x (top - n)."""
    i = case_color(case)
    m, n = index(m), index(n)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    top = 2 * m + 1 - i
    if i:
        return i, m, (top - n, n)
    return i, -m, (n, top - n)


class ExpansionTerm(NamedTuple):
    mu: StrictPartition
    sign: int
    q0: StrictPartition
    q1: Partition

    @property
    def value(self):
        """The summand sign * Q * S(t2), computed when read."""
        return sum_of_products(((self.sign, schur_q(self.q0), shift2(schur_s(self.q1))),))


class VerificationReport(NamedTuple):
    case: str
    core_index: int
    n: int
    lhs: Polynomial
    rhs: Polynomial
    equal: bool
    difference: Polynomial
    terms: list


def expansion_terms(case, m, n):
    """The summands' records, ordered like the addition set itself
    (decreasing lexicographic in mu); no polynomial is built."""
    i, core_index, _ = resolve_case(case, m, n)
    terms = []
    for mu in add_set(bar_core(core_index), i, n):
        tri = quotient(mu)
        terms.append(ExpansionTerm(mu, delta_sign(mu, core_index), tri.q0, tri.q1))
    return terms


def lhs(case, m, n):
    """Expansion side: signed Q*S(t2) products over the addition set.

    Summands that share a Q are grouped: their signed S-polynomials are summed
    first, and since shift2 is linear, each distinct Q multiplies one shifted
    sum.  Returns the total polynomial together with the expansion_terms
    records.
    """
    terms = expansion_terms(case, m, n)
    groups = {}
    for term in terms:
        groups.setdefault(term.q0, []).append((term.sign, _ONE, schur_s(term.q1)))
    total = sum_of_products(
        (1, schur_q(q0), shift2(sum_of_products(group))) for q0, group in groups.items()
    )
    return total, terms


def rhs(case, m, n):
    """Rectangle side of the identity."""
    return rect_schur(*resolve_case(case, m, n)[2])


def verify(case, m, n):
    """Compare both sides exactly and return the full report, whose n is the
    checked int."""
    core_index = resolve_case(case, m, n)[1]
    n = index(n)
    left, terms = lhs(case, m, n)
    right = rhs(case, m, n)
    equal = left == right  # storage is canonical: equal exactly when left - right is 0
    return VerificationReport(
        case=case,
        core_index=core_index,
        n=n,
        lhs=left,
        rhs=right,
        equal=equal,
        difference=Polynomial.zero() if equal else left - right,
        terms=terms,
    )
