"""Acceptance checks. Each test prints one ACCEPTANCE line and enforces
its stated runtime bound, so a plain pytest run doubles as the sign-off
record for the whole kit.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import helpers

import schurmix.cli as cli
from schurmix.barquot import delta_sign, inverse_quotient, quotient
from schurmix.fock import lemma_co_sides
from schurmix.mixed import verify
from schurmix.partitions import Partition, StrictPartition, add_set, bar_core
from schurmix.polyring import determinant, pfaffian
from schurmix.schur import schur_s


def report(number, ok, detail, failures=()):
    """Print the ACCEPTANCE line; a check with failures fails and names the
    first failing input."""
    if failures:
        ok = False
        detail += f"; first failing input: {failures[0]}"
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_acceptance_1_cli_verifies_worked_examples():
    start = time.monotonic()
    ok = True
    code, out = run_cli(["verify", "--case", "one", "--m", "3", "--n", "2"])
    ok &= code == 0 and out.splitlines()[-1] == "equal: true"
    code, out = run_cli(["expand", "--case", "one", "--m", "3", "--n", "2"])
    ok &= code == 0 and out.splitlines() == [
        "+ mu=11,5,1 q0= q1=1,1,1,1",
        "+ mu=10,6,1 q0=5,3 q1=",
        "- mu=10,5,2 q0=5,1 q1=1",
        "+ mu=9,7,1 q0= q1=2,1,1",
        "+ mu=9,6,2 q0=3,1 q1=2",
        "+ mu=9,5,3 q0= q1=2,2",
    ]
    elapsed_one = time.monotonic() - start
    start = time.monotonic()
    code, out = run_cli(["verify", "--case", "zero", "--m", "2", "--n", "2"])
    ok &= code == 0 and out.splitlines()[-1] == "equal: true"
    code, out = run_cli(["expand", "--case", "zero", "--m", "2", "--n", "2"])
    ok &= code == 0 and out.splitlines() == [
        "- mu=9,3 q0= q1=3",
        "+ mu=8,4 q0=4,2 q1=",
        "+ mu=8,3,1 q0=4 q1=1",
        "- mu=7,5 q0= q1=2,1",
        "+ mu=7,4,1 q0=2 q1=1,1",
    ]
    elapsed_zero = time.monotonic() - start
    ok &= elapsed_one < 1.0 and elapsed_zero < 1.0
    report(1, ok, f"cli worked examples, {elapsed_one:.2f}s/{elapsed_zero:.2f}s")


def test_acceptance_2_expansion_sweep():
    # n < 2m + 4, so these 108 checks are exactly those of verify-all --max-m 5
    start = time.monotonic()
    checks = 0
    failures = []
    for case in ("one", "zero"):
        for m in range(6):
            for n in range(2 * m + 4):
                if not verify(case, m, n).equal:
                    failures.append(f"{case} m={m} n={n}")
                checks += 1
    elapsed = time.monotonic() - start
    detail = f"{checks} expansions equal in {elapsed:.2f}s (< 60s)"
    report(2, elapsed < 60.0, detail, failures)


def test_acceptance_3_node_addition_sets():
    core = bar_core(-2)
    ok = [mu.parts for mu in add_set(core, 0, 1)] == [(8, 3), (7, 4), (7, 3, 1)]
    ok &= {mu.parts for mu in add_set(core, 0, 2)} == {
        (9, 3), (8, 4), (8, 3, 1), (7, 5), (7, 4, 1),
    }
    ok &= {mu.parts for mu in add_set(core, 0, 3)} == {
        (9, 4), (8, 5), (9, 3, 1), (8, 4, 1), (7, 5, 1),
    }
    report(3, ok, "addition sets of the index -2 core, 1 <= ell <= 3")


def test_acceptance_4_quotient_and_sign_fixtures():
    tri = quotient(StrictPartition((11, 9, 6, 2, 1)))
    ok = (tri.charge, tri.q0.parts, tri.q1.parts) == (1, (3, 1), (2, 1, 1, 1))
    ok &= delta_sign(StrictPartition((11, 5, 2)), 3) == -1
    ok &= delta_sign(StrictPartition((15, 13, 8, 5)), -4) == -1
    report(4, ok, "quotient and bead sign fixtures")


def test_acceptance_5_round_trips():
    rng = random.Random(20240816)
    start = time.monotonic()
    failures = []
    for _ in range(1000):
        lam = StrictPartition(helpers.random_strict_parts(rng, max_weight=60))
        tri = quotient(lam)
        if inverse_quotient(tri.charge, tri.q0, tri.q1) != lam:
            failures.append(f"lam={lam}")
    for _ in range(1000):
        charge = rng.randint(-5, 5)
        q0 = StrictPartition(helpers.random_strict_parts(rng, max_weight=20, max_part=9))
        q1 = Partition(helpers.random_weak_parts(rng, max_weight=20, max_part=6))
        lam = inverse_quotient(charge, q0, q1)
        tri = quotient(lam)
        if (tri.charge, tri.q0, tri.q1) != (charge, q0, q1):
            failures.append(f"charge={charge} q0={q0} q1={q1}")
    elapsed = time.monotonic() - start
    report(5, elapsed < 5.0, f"2000 quotient round trips in {elapsed:.2f}s (< 5s)", failures)


def test_acceptance_6_classical_schur_points():
    rng = random.Random(97)
    start = time.monotonic()
    shapes = [
        Partition(parts)
        for w in range(7)
        for parts in helpers.partitions_of(w)
    ]
    failures = []
    for _ in range(20):
        xs = tuple(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)
        )
        assignment = helpers.power_sum_assignment(xs, 6)
        for lam in shapes:
            if schur_s(lam).eval(assignment) != helpers.classical_schur_value(lam.parts, xs):
                failures.append(f"lam={lam} xs={','.join(map(str, xs))}")
    elapsed = time.monotonic() - start
    detail = f"{len(shapes)}x20 classical specializations in {elapsed:.2f}s (< 30s)"
    report(6, elapsed < 30.0, detail, failures)


def test_acceptance_7_pfaffian_squares_to_determinant():
    rng = random.Random(4242)
    failures = []
    for k in range(50):
        size = (2, 4, 6)[k % 3]
        mat = helpers.random_skew_matrix(rng, size)
        if pfaffian(helpers.upper_triangle(mat)) ** 2 != determinant(mat):
            failures.append(f"matrix {k} of size {size}")
    report(7, True, "pfaffian squared matches determinant on 50 skew matrices", failures)


def test_acceptance_8_divided_power_lemma():
    start = time.monotonic()
    checks = 0
    ok = True
    for i, sign in ((1, 1), (0, -1)):
        for m in range(4):
            core_index = sign * m
            window = 2 * m + (1 if i == 0 else 0)
            for ell in range(window + 1):
                left, right = lemma_co_sides(i, core_index, ell)
                ok &= left == right
                expected = {mu.parts for mu in add_set(bar_core(core_index), i, ell)}
                ok &= {lam.parts for lam in left} == expected
                checks += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    report(8, ok, f"{checks} divided power checks in {elapsed:.2f}s (< 30s)")


def test_acceptance_9_addition_sets_empty_beyond_window():
    ok = True
    for m in range(1, 6):
        ok &= list(add_set(bar_core(m), 1, 2 * m + 1)) == []
        ok &= list(add_set(bar_core(-m), 0, 2 * m + 2)) == []
    report(9, ok, "addition sets vanish past the window, 1 <= m <= 5")
