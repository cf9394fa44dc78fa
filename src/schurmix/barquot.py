"""Three-runner bar abacus, the quotient bijection, and the bead pair sign.

A strict partition decomposes into an integer charge, a strict partition read
off the even parts, and an ordinary partition read off the Maya diagram of
the parts congruent to 1 and 3 mod 4.  The map is a bijection; see
:func:`quotient` and :func:`inverse_quotient`.

Both directions take checked partitions only: a StrictPartition to split, a
StrictPartition and a Partition to join (TypeError otherwise); :func:`abacus`
and :func:`delta_sign` take a StrictPartition too.  The partitions the two
directions return are built from those checked parts, are valid by
construction and are not checked again; each is built by ``object.__new__``
and the slot setter, and the triple by ``tuple.__new__``, with no constructor
running Python code.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .partitions import Partition, StrictPartition, _new, _set_parts


class QuotientTriple(NamedTuple):
    charge: int
    q0: StrictPartition
    q1: Partition


# The NamedTuple constructor is a Python function; this is the C call it makes.
_new_tuple = tuple.__new__


def quotient(lam):
    """Split a strict partition into (charge, even part halves, Maya partition).

    The Maya diagram is the strictly decreasing sequence e_1 > e_2 > ... whose
    non-negative entries are k for each part 4k+1 and whose negative entries
    are all j < 0 except -k-1 for each part 4k+3.  The charge is the count of
    parts 1 mod 4 minus the count of parts 3 mod 4, and e_k = charge - k for
    all large k, so q1_k = e_k + k - charge is a partition.

    One pass over the parts, largest first, reads all three, with no set,
    sort or scan.  The k-th part 4t+1 gives q1_k = t + k - charge.  A
    negative entry j that is not excluded gets the number of excluded entries
    below j, so with X parts 3 mod 4 the tail of q1 is X - s repeated gap_s
    times, gap_s counting the entries strictly between the s-th and the
    (s+1)-th excluded entry from the top (the 0-th being 0).  Each run is a
    stretch of entries falling by one, and a negative entry inside a run of
    equal parts leaves no hole.  With X > 0 every part of q1 is at least X,
    so only with no part 3 mod 4 can the heads end in zeros to strip.
    """
    if not isinstance(lam, StrictPartition):
        raise TypeError(f"quotient: lam must be a StrictPartition, got {lam!r}")
    halves = []
    heads = []  # t + k for the k-th part 4t+1
    tail = []  # q1's tail, smallest entries first
    ones = threes = above = 0
    for p in lam.parts:
        if not p & 1:
            halves.append(p >> 1)
        elif p & 2:
            # the (above - p)/4 - 1 entries strictly between the excluded
            # -(p+1)/4 and -(above+1)/4 have the threes passed so far below
            if threes:
                tail += [threes] * (((above - p) >> 2) - 1)
            threes += 1
            above = p
        else:
            ones += 1
            heads.append((p >> 2) + ones)
    charge = ones - threes
    parts = [h - charge for h in heads] if charge else heads
    if threes:
        # the (above - 3)/4 entries from -1 down to the top excluded one have
        # all below; every tail entry is at least 1, and so is every head
        tail += [threes] * (above >> 2)
        tail.reverse()
        parts += tail
    else:
        while parts and not parts[-1]:
            parts.pop()
    q0 = _new(StrictPartition)
    _set_parts(q0, tuple(halves))
    q1 = _new(Partition)
    _set_parts(q1, tuple(parts))
    return _new_tuple(QuotientTriple, (charge, q0, q1))


def inverse_quotient(charge, q0, q1):
    """Rebuild the strict partition with the given quotient data.

    Inverse of :func:`quotient`: the k-th Maya entry is e_k = q1_k + charge - k,
    non-negative entries e give parts 4e+1, missing negative entries j give
    parts -4j-1, and q0 doubles back into the even parts.

    One pass over q1 reads the entries from the top; the negatives skipped
    between two entries are the missing ones.  Inside a run of equal parts
    the entries fall by one, so a negative entry there leaves no hole and
    needs no scan.  Past q1 the entries are charge - k, all present, so the
    pass ends with the non-negative ones among them and the negatives
    skipped above the first of them.
    """
    charge = index(charge)
    if not isinstance(q0, StrictPartition):
        raise TypeError(f"inverse_quotient: q0 must be a StrictPartition, got {q0!r}")
    if not isinstance(q1, Partition):
        raise TypeError(f"inverse_quotient: q1 must be a Partition, got {q1!r}")
    parts = [s << 1 for s in q0.parts]
    gap = 3  # part -4j-1 of the highest negative j not yet passed
    offset = charge  # charge - k at the k-th entry
    for q in q1.parts:
        offset -= 1
        e = q + offset
        if e >= 0:
            parts.append(4 * e + 1)
        else:
            stop = -4 * e - 1
            if gap != stop:
                parts += range(gap, stop, 4)
            gap = stop + 4
    # the first entry past q1; it and every later one are present
    top = offset - 1
    parts += range(4 * top + 1, 0, -4)
    parts += range(gap, -4 * top - 1, 4)
    parts.sort(reverse=True)
    mu = _new(StrictPartition)
    _set_parts(mu, tuple(parts))
    return mu


def abacus(lam, core_index):
    """Bead positions of lam on the three runner bar abacus, as a frozenset.

    A bead sits on every part; position 0 also carries a bead exactly when
    core_index < 0 and lam has -core_index parts.  A position's runner is its
    residue: even positions are on the left runner, positions 1 mod 4 on the
    central runner and positions 3 mod 4 on the right runner.
    """
    if not isinstance(lam, StrictPartition):
        raise TypeError(f"abacus: lam must be a StrictPartition, got {lam!r}")
    core_index = index(core_index)
    beads = frozenset(lam.parts)
    if core_index < 0 and len(lam.parts) == -core_index:
        beads |= {0}
    return beads


def render_abacus(beads):
    """Plain text picture of a bead set, beads bracketed, one runner per column."""
    top = max(beads, default=0)
    periods = top // 4 + 2
    # the brackets and one space, so that no two cells touch
    width = len(str(4 * periods - 1)) + 3

    def cell(pos):
        s = f"[{pos}]" if pos in beads else str(pos)
        return s.rjust(width)

    lines = []
    for r in range(periods):
        lines.append(cell(4 * r) + cell(4 * r + 1) + cell(4 * r + 3))
        lines.append(cell(4 * r + 2))
    return "\n".join(lines)


def delta_sign(lam, core_index):
    """Parity sign of lam: -1 to the number of bead pairs (central, left)
    with the central bead strictly above the left one.

    One pass over the parts, smallest first, keeps the parity of the left
    beads seen so far, the bead on 0 included, and flips the sign's parity
    at each central bead that has an odd count below it.
    """
    if not isinstance(lam, StrictPartition):
        raise TypeError(f"delta_sign: lam must be a StrictPartition, got {lam!r}")
    parts = lam.parts
    core_index = index(core_index)
    odd_left = core_index < 0 and len(parts) == -core_index
    odd = False
    for p in reversed(parts):
        if not p & 1:
            odd_left = not odd_left
        elif odd_left and not p & 2:
            odd = not odd
    return -1 if odd else 1
