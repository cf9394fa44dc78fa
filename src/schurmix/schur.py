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
    the columns j set in mask, one per row; e_n is divided_powers(n, step).

    A one-row minor is e_(a + j) itself, built directly.  A taller one is
    expanded along the top row, each entry's sign the parity of its column's
    position among the set ones, each entry read through complete_h or q_fun
    and each sub-minor through _shared_minor.  On the rows lam_i - i, family
    1 (e_n = h_n) gives S_lam and family 2 (e_n = q_n) gives S_lam|odd.
    """
    if not mask:
        return Polynomial.one()
    top, below = offsets[0], offsets[1:]
    if not below:
        return divided_powers(top + mask.bit_length() - 1, step)
    piece = complete_h if step == 1 else q_fun

    def terms():
        sign, rest = 1, mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = piece(top + bit.bit_length() - 1)
            if not entry.is_zero:
                yield sign, entry, _shared_minor(step, below, mask ^ bit)
            sign = -sign

    return sum_of_products(terms())


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


def schur_s(lam):
    """S-polynomial of a partition: det of the h matrix h_(lam_i + j - i).

    The determinant has size min(len(lam), lam_1).  A shape with at least as
    many columns as rows returns its h_minor entry itself, row offsets
    lam_i - i and columns j = 0 .. n-1.  When lam_1 < len(lam) the result is
    omega of the conjugate's stored S, built on each call and kept nowhere.
    """
    if not isinstance(lam, Partition):
        raise TypeError(f"schur_s: lam must be a Partition, got {lam!r}")
    parts = lam.parts
    n = len(parts)
    if n and parts[0] < n:
        return omega(schur_s(lam.conjugate()))
    return h_minor(1, tuple(p - i for i, p in enumerate(parts)), (1 << n) - 1)


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

