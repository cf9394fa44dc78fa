"""Complete pieces h_n, odd pieces q_n, S- and Q-polynomials, rectangles.

h_n is the coefficient of z^n in exp(sum_k t_k z^k) and q_n, h_n with every
even variable set to 0, the coefficient of z^n in exp(sum_k odd t_k z^k).
Each is the sum of prod tj^mj / mj! over the monomials of weighted degree n,
in odd variables only for q_n, built directly once per process as a one-row
minor of one Jacobi-Trudi recursion, h_minor, whose first argument picks the
family: h_n is the entry (1, (n,), 1) and q_n (2, (n,), 1).  Setting the even
variables to 0 is a ring map: a family-2 minor on lam's rows is S_lam|odd.
S-polynomials come from the family-1 determinant in the smaller of its
two orientations: a shape with fewer columns than rows is built from its
conjugate, whose determinant has size lam_1 rather than len(lam), and mapped
back on each call by the involution omega (S_lam' = omega(S_lam), omega:
tj -> (-1)^(j+1) tj).  Each determinant is expanded along its top row, every
minor one cached h_minor call keyed by its family, row offsets and column set
up to a common shift, so h_minor is the one store of S-polynomials and a minor
shared by several shapes (the rectangle b^a is the bottom of b^(a+1)) is built
once per process; polyring.determinant is the reference the tests use.
A signed sum of S-polynomials, s_sum, uses that the determinant is linear in
its top row (Macdonald I.3): the members of one orientation that meet a
common entry h_n add their minors first, so h_n multiplies one sum of
minors, the tall members' total mapped back by one omega; members that share
no entry add their stored S-polynomials instead.
Q-polynomials expand the Pfaffian of the two-row building blocks along its
first row, whose minors are the Q-polynomials of smaller strict partitions
(Macdonald III.8):

    Q_lam = sum over j >= 2 of (-1)^j q_(lam_1, lam_j) Q_(lam without lam_1, lam_j),

with lam zero-padded to even length.  Each entry and each minor is one cached
q_minor call keyed by its strict parts tuple, a pair's entry being q_pair
itself, so q_minor is the one store of Q-polynomials, whose one-part entries
are those of q_n in h_minor: schur_q keeps no cache of its own, q_pair is
called once per distinct pair, and a sub-Q is built once per process,
whichever Q first asked for it.  complete_h and q_fun keep no cache either, so
h_minor and q_minor are the module's only two.
"""

from __future__ import annotations

import functools

from .partitions import Partition, StrictPartition
from .polyring import Polynomial, divided_powers, omega, sum_of_products

_ONE = Polynomial.one()


def complete_h(n):
    """h_n, the S of the one-row shape (n): its family-1 h_minor entry itself."""
    return h_minor(1, (n,), 1)


def q_fun(n):
    """q_n, the Q of the one-part shape (n): its family-2 h_minor entry itself."""
    return h_minor(2, (n,), 1)


def q_pair(m, n):
    """Two-row building block q_(m,n) for m > n >= 0, the only pairs q_minor asks
    for and stores; q_(m,0) is q_m, q_fun(m) itself."""
    if not m > n >= 0:
        raise ValueError(f"q_pair needs m > n >= 0, got ({m}, {n})")
    if n == 0:
        return q_fun(m)
    # q_m q_n + 2 * sum over 0 < i <= n of (-1)^i q_(m+i) q_(n-i)
    return sum_of_products(
        ((-1) ** i * (2 if i else 1), q_fun(m + i), q_fun(n - i)) for i in range(n + 1)
    )


@functools.cache
def h_minor(step, offsets, mask):
    """Determinant of e_(a + j) over the rows a in offsets, top to bottom, and
    the columns j set in mask, one per row; e_n is divided_powers(n, step),
    for a family step of 1 or 2 only (ValueError otherwise).

    A one-row minor is e_(a + j) itself, built directly.  A taller one is
    expanded along the top row, each entry e_n read through complete_h or
    q_fun and each sub-minor from _top_row.  On the rows lam_i - i, family 1
    (e_n = h_n) gives S_lam and family 2 (e_n = q_n) gives S_lam|odd.
    """
    if step not in (1, 2):
        raise ValueError(f"h_minor family must be 1 or 2, got {step!r}")
    if not mask:
        return Polynomial.one()
    if len(offsets) == 1:
        return divided_powers(offsets[0] + mask.bit_length() - 1, step)
    piece = complete_h if step == 1 else q_fun
    return sum_of_products(
        (sign, piece(n), minor) for sign, n, minor in _top_row(step, offsets, mask)
    )


def _top_row(step, offsets, mask):
    """(sign, n, minor) for each column j set in mask whose top-row entry e_n,
    n = offsets[0] + j, is not zero, that is n >= 0: sign is the parity of
    the column's position among the set ones and minor the h_minor on the
    rows below without column j, read through _shared_minor.  A zero entry
    builds no minor.
    """
    top, below = offsets[0], offsets[1:]
    sign, rest = 1, mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        n = top + bit.bit_length() - 1
        if n >= 0:
            yield sign, n, _shared_minor(step, below, mask ^ bit)
        sign = -sign


def _shared_minor(step, offsets, mask):
    """h_minor keyed with its lowest column at bit 0.

    Adding s to every offset and taking s from every column leaves each entry
    e_(a + j) as it was, so two minors that differ by such a shift share one
    cache entry, whichever shape first asked for it.
    """
    shift = (mask & -mask).bit_length() - 1
    if shift > 0:
        offsets, mask = tuple(a + shift for a in offsets), mask >> shift
    return h_minor(step, offsets, mask)


def _oriented(lam):
    """(tall, row offsets, column mask) of lam's h determinant in its smaller
    orientation.  A tall shape, with fewer columns than rows, gives its
    conjugate's rows, whose S is omega of lam's (S_lam' = omega(S_lam),
    omega: tj -> (-1)^(j+1) tj); the offsets are the rows' parts p_i - i and
    the mask sets columns 0 .. rows-1, none for the empty shape.
    """
    parts = lam.parts
    tall = bool(parts) and parts[0] < len(parts)
    if tall:
        parts = lam.conjugate().parts
    return tall, tuple(p - i for i, p in enumerate(parts)), (1 << len(parts)) - 1


def schur_s(lam):
    """S-polynomial of a partition: det of the h matrix h_(lam_i + j - i).

    The determinant has size min(len(lam), lam_1).  A shape with at least as
    many columns as rows returns its h_minor entry itself.  A tall one returns
    omega of its conjugate's stored S, built on each call and kept nowhere.
    """
    if not isinstance(lam, Partition):
        raise TypeError(f"schur_s: lam must be a Partition, got {lam!r}")
    tall, offsets, mask = _oriented(lam)
    s = h_minor(1, offsets, mask)
    return omega(s) if tall else s


def s_sum(terms):
    """sum c * S_lam over (int c, Partition lam) pairs, grouped along one top row.

    The determinant is linear in its top row, so the members of one
    orientation, expanded along their top rows h_lam1 .. h_(lam1 + rows - 1),
    sum to sum over n of h_n times the signed sum of the minors that meet h_n:
    one product per distinct entry.  The tall members do this in their
    conjugates' orientation, and that side's total is mapped back by one
    omega; the empty shape is c * h_0.  When no two members of one
    orientation meet a common entry, grouping saves no product, and each
    member adds its schur_s instead, which h_minor stores for later callers.
    """
    terms = list(terms)
    if len(terms) < 2 or not _shares_entries(terms):
        return sum_of_products((c, _ONE, schur_s(lam)) for c, lam in terms)
    rows = ({}, {})  # {n: [(c, 1, minor), ...]}: the wide members', the tall ones'
    for c, lam in terms:
        is_tall, offsets, mask = _oriented(lam)
        row = rows[is_tall]
        for sign, n, minor in _top_row(1, offsets, mask) if mask else ((1, 0, _ONE),):
            row.setdefault(n, []).append((sign * c, _ONE, minor))
    wide, tall = map(_row_products, rows)
    if tall:
        wide.append((1, _ONE, omega(sum_of_products(tall))))
    return sum_of_products(wide)


def _row_products(row):
    """(c, h_n, minor) for each entry n of a {n: [(c, 1, minor), ...]} row:
    a lone minor keeps its c, and several are summed first."""
    return [
        (minors[0][0], complete_h(n), minors[0][2])
        if len(minors) == 1
        else (1, complete_h(n), sum_of_products(minors))
        for n, minors in row.items()
    ]


def _shares_entries(terms):
    """Whether two members of one orientation meet a common top-row entry.

    A shape with r rows and c columns meets h_max(r, c) .. h_(r + c - 1) in
    its smaller orientation, so no conjugate is built to tell.
    """
    seen = (set(), set())  # the entries of the wide members, of the tall ones
    for _, lam in terms:
        if lam.parts:
            rows, cols = len(lam.parts), lam.parts[0]
            entries = range(max(rows, cols), rows + cols)
            side = seen[cols < rows]
            if not side.isdisjoint(entries):
                return True
            side.update(entries)
    return False


@functools.cache
def q_minor(parts):
    """Q-polynomial of a strict partition given by its parts tuple, expanded
    along its head.

    Odd length tuples get a single trailing 0, so the padded parts strictly
    decrease and a pair (m, n) is q_pair(m, n) itself, (n,) being q_fun(n).  A
    longer tuple pairs its head with each later b: the entry is the pair's own
    q_minor, (head,) for the zero pad, and the minor the q_minor of what is
    left after removing the head, b and the 0.
    """
    if not parts:
        return Polynomial.one()
    head, *rest = parts if len(parts) % 2 == 0 else parts + (0,)
    if len(rest) == 1:
        return q_pair(head, rest[0])
    return sum_of_products(
        (
            (-1) ** k,
            q_minor((head, b) if b else (head,)),
            q_minor(tuple(p for p in rest if p and p != b)),
        )
        for k, b in enumerate(rest)
    )


def schur_q(lam):
    """Q-polynomial of a strict partition: its q_minor entry itself."""
    if not isinstance(lam, StrictPartition):
        raise TypeError(f"schur_q: lam must be a StrictPartition, got {lam!r}")
    return q_minor(lam.parts)


def rect_schur(a, b):
    """S-polynomial of the a x b rectangle; 1 on an empty edge, 0 on a negative one."""
    if a < 0 or b < 0:
        return Polynomial.zero()
    if a == 0 or b == 0:
        return Polynomial.one()
    return schur_s(Partition((b,) * a))

