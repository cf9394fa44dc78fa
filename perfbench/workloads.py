"""Workload definitions for the schurmix benchmark.

Every workload is a list of *children*; each child is a list of operations
that one fresh interpreter runs in order, so caches start cold the way a CLI
user finds them.  One pass over all children is a *unit*; a run repeats the
unit until its time budget is spent and reports medians over units.  The seed
decides the inputs; the program only ever sees the generated operations.

Operations are JSON lists:

    ["verify", case, m, n]        schurmix.mixed.verify(case, m, n)
    ["cli_verify", case, m, n]    schurmix.cli.main(["verify", ..., "--json"])
    ["schur_q", parts]            schurmix.schur.schur_q(StrictPartition(parts))
    ["lemma", color, core, ell]   schurmix.fock.lemma_co_sides(color, core, ell)
                                  and the comparison of both sides
    ["addset", color, core, ell]  add_set of the core, then quotient,
                                  inverse_quotient and delta_sign on each result

Why each workload exists
------------------------
sweep   The paper's identity end to end: ``verify`` for both cases, m <= 5 and
        every n in 0..2m+3 (108 checks, the acceptance-2 set) in one child, so
        checks share the h, S and Q caches.  m ascends as in ``verify-all``
        and the seed permutes the checks of each m.  The RHS ``rect_schur``
        determinants dominate, and neighbouring (m, n) reuse rectangles and
        h polynomials, so cross-check sharing and determinant or arithmetic
        speed-ups show here.
large   A few big single ``verify`` calls through ``schurmix.cli.main``, one
        fresh child per call, so nothing is shared between calls: the 6x5
        rectangle of ``zero 5 6``, the thin 8x4 of ``one 6 4`` and the thinner
        9x3 of ``one 6 3``.  A cross-check memo predicts no gain here, faster
        arithmetic does; computing the rectangle in its cheaper orientation
        should help the thin shapes and leave 6x5 unchanged.  Also covers CLI
        parsing and printing.  The seed permutes the call order.
qpfaff  ``schur_q`` on seeded strict partitions of length 6 to 8 (Pfaffians
        of size 6x6 and 8x8), a fixed number drawn from each (length, weight)
        class so that the seed changes the inputs but hardly the cost.  The
        Pfaffian's first-row recursion is not memoised and no determinant
        runs here, so a determinant or RHS change predicts no change.
fock    ``lemma_co_sides`` for the cores 6 and -6 at every ell up to the window
        edge, the add_set/quotient/inverse_quotient/delta_sign round trips
        over the same addition sets, and one big addition set (core 12, ell
        10, 58278 partitions).  The only workload that runs ``fock`` and
        leans on ``partitions`` and ``barquot``; it builds no polynomial.
        ``FockVector`` has its own sparse accumulator, so merging the two
        accumulators shows here, and a streaming ``add_set`` should lower
        ``peak_rss_mb``.  No operation here shares a cache, so the seed only
        permutes the order.

Which end-to-end metric each layer metric should move
-----------------------------------------------------
polyring.determinant (.max_size, .out_terms)  wall_s, op tail on sweep and
    large; no change on qpfaff or fock.
polyring.pfaffian (.max_size, .out_terms)     wall_s, op tail on qpfaff.
schur.rect_schur, schur.complete_h            wall_s on sweep and large.
schur.schur_s, schur.schur_q (.distinct)      wall_s on sweep; peak_rss_mb on
    sweep and large.  distinct/calls is the share a cache can save.
schur.q_pair, polyring.shift2                 wall_s on qpfaff and sweep.
mixed.lhs, mixed.rhs, mixed.verify, mixed.terms,
mixed.qs_product_s, mixed.sum_s               wall_s on sweep.
fock.lemma_co_sides, fock.f_chev, fock.f_inf (.useful_ratio),
partitions.add_set (.results), barquot.quotient, barquot.inverse_quotient,
barquot.delta_sign                            wall_s and peak_rss_mb on fock.
cli.main                                      wall_s and setup_s on large.
"""

from __future__ import annotations

import random

SWEEP_MAX_M = 5
LARGE_CALLS = (("zero", 5, 6), ("one", 6, 4), ("one", 6, 3))
# (length, weight, draws): every class is enumerated in full by all_ops, so
# the reference covers any seed.
QPFAFF_CLASSES = (
    (6, 30, 4),
    (6, 34, 4),
    (7, 34, 4),
    (7, 38, 4),
    (8, 40, 4),
    (8, 42, 4),
    (8, 44, 4),
)
FOCK_CORES = (6, -6)
FOCK_BIG_ADDSET = (1, 12, 10)

WORKLOADS = ("sweep", "large", "qpfaff", "fock")


def strict_partitions(weight, length, max_part=None):
    """All strict partitions of weight with exactly length parts, decreasing."""
    if max_part is None:
        max_part = weight
    if length == 0:
        if weight == 0:
            yield ()
        return
    for first in range(min(weight, max_part), 0, -1):
        for rest in strict_partitions(weight - first, length - 1, first - 1):
            yield (first,) + rest


def fock_window(core):
    """Color and largest ell with a nonempty addition set for a signed core."""
    color = 1 if core > 0 else 0
    return color, 2 * abs(core) + (1 - color)


def _sweep_ops():
    return [
        ["verify", case, m, n]
        for case in ("one", "zero")
        for m in range(SWEEP_MAX_M + 1)
        for n in range(2 * m + 4)
    ]


def _fock_ops():
    ops = []
    for core in FOCK_CORES:
        color, edge = fock_window(core)
        for ell in range(edge + 1):
            ops.append(["lemma", color, core, ell])
            ops.append(["addset", color, core, ell])
    ops.append(["addset", *FOCK_BIG_ADDSET])
    return ops


def build(name, seed):
    """Children of one unit of the named workload, each a list of operations."""
    rng = random.Random(seed)
    if name == "sweep":
        # m ascends as in verify-all, so smaller checks warm the caches that
        # larger ones reuse, the way a user's sweep does.
        ops = []
        for m in range(SWEEP_MAX_M + 1):
            block = [op for op in _sweep_ops() if op[2] == m]
            rng.shuffle(block)
            ops += block
        return [ops]
    if name == "large":
        calls = [["cli_verify", *call] for call in LARGE_CALLS]
        rng.shuffle(calls)
        return [[call] for call in calls]
    if name == "qpfaff":
        ops = []
        for length, weight, draws in QPFAFF_CLASSES:
            pool = list(strict_partitions(weight, length))
            ops += [["schur_q", list(parts)] for parts in rng.sample(pool, draws)]
        rng.shuffle(ops)
        return [ops]
    if name == "fock":
        ops = _fock_ops()
        rng.shuffle(ops)
        return [ops]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def all_ops():
    """Every operation any seed can produce, for building the reference."""
    ops = _sweep_ops()
    ops += [["cli_verify", *call] for call in LARGE_CALLS]
    for length, weight, _ in QPFAFF_CLASSES:
        ops += [["schur_q", list(p)] for p in strict_partitions(weight, length)]
    ops += _fock_ops()
    return ops


def op_key(op):
    """Reference key of an operation; a CLI verify shares the library's key."""
    kind, *args = op
    if kind == "cli_verify":
        kind = "verify"
    if kind == "schur_q":
        args = [",".join(str(p) for p in args[0])]
    return ":".join([kind, *(str(a) for a in args)])
