"""Complete pieces h_n, odd pieces q_n, S- and Q-polynomials, rectangles.

h_n is the coefficient of z^n in exp(sum_k t_k z^k) and q_n the coefficient of
z^n in exp(sum_k odd t_k z^k).  Expanding the exponential term by term, h_n is
the sum of prod tj^mj / mj! over every monomial of weighted degree n, and q_n
the same sum over monomials in odd variables only; both are built directly as
such sums of divided powers.  S-polynomials come from the h Jacobi-Trudi
determinant in the smaller of its two orientations: a shape with fewer columns
than rows is built from its conjugate, whose determinant has size lam_1 rather
than len(lam), and mapped back by the involution omega (S_lam' = omega(S_lam),
omega: tj -> (-1)^(j+1) tj).  Q-polynomials come from the Pfaffian of the
two-row building blocks.
"""

from __future__ import annotations

import functools

from .partitions import Partition
from .polyring import Polynomial, determinant, divided_powers, omega, pfaffian, sum_of_products


@functools.cache
def complete_h(n):
    """h_n: every monomial of weighted degree n as a divided power, 0 for n < 0."""
    return divided_powers(n, 1)


@functools.cache
def q_fun(n):
    """q_n: every monomial of weighted degree n in odd variables as a divided power."""
    return divided_powers(n, 2)


@functools.cache
def q_pair(m, n):
    """Two-row building block q_(m,n) for m > n >= 0, the only pairs schur_q asks for."""
    if not m > n >= 0:
        raise ValueError(f"q_pair needs m > n >= 0, got ({m}, {n})")
    # q_m q_n + 2 * sum over 0 < i <= n of (-1)^i q_(m+i) q_(n-i)
    return sum_of_products(
        ((-1) ** i * (2 if i else 1), q_fun(m + i), q_fun(n - i)) for i in range(n + 1)
    )


@functools.cache
def schur_s(lam):
    """S-polynomial of a partition: det of the h matrix h_(lam_i + j - i).

    The determinant has size min(len(lam), lam_1): when lam_1 < len(lam) the
    result is omega of the S-polynomial of the conjugate partition.
    """
    parts = lam.parts
    n = len(parts)
    if n and parts[0] < n:
        return omega(schur_s(lam.conjugate()))
    return determinant([[complete_h(parts[i] + j - i) for j in range(n)] for i in range(n)])


@functools.cache
def schur_q(lam):
    """Q-polynomial of a strict partition: Pfaffian of the q_pair matrix.

    Odd length partitions get a single trailing 0, so seq strictly decreases
    and the upper triangle, all pfaffian reads, holds q_pair(a, b) with a > b.
    """
    parts = lam.parts
    seq = parts if len(parts) % 2 == 0 else parts + (0,)
    return pfaffian([[q_pair(a, b) for b in seq[k + 1 :]] for k, a in enumerate(seq)])


def rect_schur(a, b):
    """S-polynomial of the a x b rectangle; 1 on an empty edge, 0 on a negative one."""
    if a < 0 or b < 0:
        return Polynomial.zero()
    if a == 0 or b == 0:
        return Polynomial.one()
    return schur_s(Partition((b,) * a))

