import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmix.barquot import (
    abacus,
    delta_sign,
    inverse_quotient,
    quotient,
    render_abacus,
)
from schurmix.fock import lemma_co_sides
from schurmix.partitions import Partition, StrictPartition, add_set, bar_core

from helpers import (
    inverse_by_maya,
    partitions_of,
    quotient_by_maya,
    random_strict_parts,
    random_weak_parts,
    strict_partitions_of,
    strict_parts,
)


def addition_set_results():
    """(mu, core index) for every add_set result of the cores -7..7 at every ell."""
    for core_index in range(-7, 8):
        core = bar_core(core_index)
        for i in (0, 1) if core_index == 0 else (int(core_index > 0),):
            for ell in range(2 * len(core) + 2):
                for mu in add_set(core, i, ell):
                    yield mu, core_index


def assert_checks_pass(x):
    """x, built without a check, holds a tuple that the checking constructor accepts."""
    assert type(x.parts) is tuple, x
    assert type(x)(x.parts) == x


def assert_bijection_builds_checked(mu):
    tri = quotient(mu)
    assert_checks_pass(tri.q0)
    assert_checks_pass(tri.q1)
    assert_checks_pass(inverse_quotient(tri.charge, tri.q0, tri.q1))


def bead_pair_sign(lam, core_index):
    """-1 to the number of (central, left) bead pairs, central above, on the abacus."""
    beads = abacus(lam, core_index)
    central = [b for b in beads if b % 4 == 1]
    lefts = [b for b in beads if b % 2 == 0]
    return (-1) ** sum(1 for c in central for left in lefts if c > left)


def runner_columns(text):
    """{bead: column} read off a rendered abacus, columns 0, 1, 2 from the left."""
    lines = text.splitlines()
    width = len(lines[0]) // 3
    columns = {}
    for line in lines:
        for col in range(len(line) // width):
            cell = line[col * width : (col + 1) * width].strip()
            if cell.startswith("["):
                columns[int(cell[1:-1])] = col
    return columns


def test_quotient_worked_example():
    tri = quotient(StrictPartition((11, 9, 6, 2, 1)))
    assert tri.charge == 1
    assert tri.q0.parts == (3, 1)
    assert tri.q1.parts == (2, 1, 1, 1)


def test_quotient_of_cores_is_trivial():
    for m in range(-6, 7):
        tri = quotient(bar_core(m))
        assert tri.charge == m
        assert tri.q0.parts == ()
        assert tri.q1.parts == ()


def test_quotient_small_cases():
    assert quotient(StrictPartition()).charge == 0
    tri = quotient(StrictPartition((2,)))
    assert (tri.charge, tri.q0.parts, tri.q1.parts) == (0, (1,), ())
    tri = quotient(StrictPartition((11, 5, 1)))
    assert (tri.charge, tri.q0.parts, tri.q1.parts) == (1, (), (1, 1, 1, 1))
    tri = quotient(StrictPartition((10, 6, 1)))
    assert (tri.charge, tri.q0.parts, tri.q1.parts) == (1, (5, 3), ())
    tri = quotient(StrictPartition((9, 6, 2)))
    assert (tri.charge, tri.q0.parts, tri.q1.parts) == (1, (3, 1), (2,))


def test_inverse_worked_example():
    lam = inverse_quotient(1, StrictPartition((3, 1)), Partition((2, 1, 1, 1)))
    assert lam.parts == (11, 9, 6, 2, 1)


def test_inverse_of_trivial_data_gives_cores():
    for m in range(-6, 7):
        assert inverse_quotient(m, StrictPartition(), Partition()) == bar_core(m)


def test_quotient_matches_maya_scan_on_addition_sets():
    # The round trips cannot see an error that quotient and inverse_quotient
    # share; the Maya scan is built another way.
    count = 0
    for mu, _ in addition_set_results():
        assert quotient(mu) == quotient_by_maya(mu), mu
        count += 1
    assert count == 9840


@settings(max_examples=300, deadline=None)
@given(strict_parts(max_part=40, max_len=9))
def test_quotient_matches_maya_scan_property(parts):
    mu = StrictPartition(parts)
    assert quotient(mu) == quotient_by_maya(mu)


@settings(max_examples=200, deadline=None)
@given(strict_parts(max_part=40, max_len=9))
def test_quotient_round_trip_property(parts):
    mu = StrictPartition(parts)
    tri = quotient(mu)
    assert inverse_quotient(tri.charge, tri.q0, tri.q1) == mu
    assert_bijection_builds_checked(mu)


def test_round_trip_random():
    rng = random.Random(411)
    for _ in range(200):
        parts = random_strict_parts(rng)
        lam = StrictPartition(parts)
        tri = quotient(lam)
        assert inverse_quotient(tri.charge, tri.q0, tri.q1) == lam
    for _ in range(200):
        charge = rng.randint(-5, 5)
        q0 = StrictPartition(random_strict_parts(rng, max_weight=20, max_part=8, max_len=4))
        q1 = Partition(random_weak_parts(rng))
        lam = inverse_quotient(charge, q0, q1)
        tri = quotient(lam)
        assert (tri.charge, tri.q0, tri.q1) == (charge, q0, q1)


def test_everything_built_unchecked_passes_the_checks():
    count = 0
    for mu, _ in addition_set_results():
        assert type(mu) is StrictPartition
        assert_checks_pass(mu)
        assert_bijection_builds_checked(mu)
        count += 1
    assert count == 9840
    for core_index in range(-7, 8):
        core = bar_core(core_index)
        for i in (0, 1) if core_index == 0 else (int(core_index > 0),):
            for ell in range(2 * len(core) + 2):
                for side in lemma_co_sides(i, core_index, ell):
                    for lam in side:
                        assert type(lam) is StrictPartition
                        assert_checks_pass(lam)


def test_inverse_quotient_window_edges():
    # The Maya entries come from q1, then from the tail charge - k past it:
    # q1 empty leaves them all to the tail, one part splits them, and more
    # parts than |charge| leave the tail only negative entries.
    q1s = [(), (1,), (4,), (2, 2, 1), (5, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1), (1,) * 14]
    for charge in range(-12, 13):
        for q0 in map(StrictPartition, ((), (1,), (6, 3, 2))):
            for q1 in map(Partition, q1s):
                lam = inverse_quotient(charge, q0, q1)
                assert_checks_pass(lam)
                assert quotient_by_maya(lam) == (charge, q0, q1), (charge, q0, q1)


def test_inverse_quotient_matches_maya_set():
    # Every q0 of weight <= 6 and q1 of weight <= 10 at charges -8..8: q1
    # empty, charges past the end of q1, and tails of q1 with every shape up
    # to weight 10 below the non-negative entries.
    q0s = [StrictPartition(p) for w in range(7) for p in strict_partitions_of(w)]
    q1s = [Partition(p) for w in range(11) for p in partitions_of(w)]
    count = 0
    for charge in range(-8, 9):
        for q1 in q1s:
            for q0 in q0s:
                lam = inverse_quotient(charge, q0, q1)
                assert lam == inverse_by_maya(charge, q0, q1), (charge, q0, q1)
                count += 1
    assert count == 17 * 139 * 14


# every strict partition of weight <= 12, the q0 of the long-run property
SMALL_Q0 = [StrictPartition(p) for w in range(13) for p in strict_partitions_of(w)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-12, 12),
    st.sampled_from(SMALL_Q0),
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 16)), min_size=1, max_size=3),
)
def test_inverse_quotient_matches_maya_set_on_long_runs(charge, q0, runs):
    # q1 of up to three runs of equal parts, each up to 16 long: inside a run
    # the negative entries fall by one and leave no hole, and each change of
    # part below the non-negative entries opens one
    q1 = Partition(sorted((part for part, length in runs for _ in range(length)), reverse=True))
    lam = inverse_quotient(charge, q0, q1)
    assert lam == inverse_by_maya(charge, q0, q1)
    assert_checks_pass(lam)
    assert quotient(lam) == (charge, q0, q1)


def test_bijection_refuses_unchecked_input():
    # A Partition is not checked to be strict, so the map would read repeated
    # parts as if they were distinct.
    for parts in ((3, 3), (2, 2), (3, 1)):
        with pytest.raises(TypeError, match="quotient: lam must be a StrictPartition"):
            quotient(Partition(parts))
    with pytest.raises(TypeError, match="quotient: lam must be a StrictPartition"):
        quotient((3, 1))
    with pytest.raises(TypeError, match="delta_sign: lam must be a StrictPartition"):
        delta_sign(Partition((5, 5)), 0)
    with pytest.raises(TypeError, match="delta_sign: lam must be a StrictPartition"):
        delta_sign((5,), 0)
    with pytest.raises(TypeError, match="inverse_quotient: q0 must be a StrictPartition"):
        inverse_quotient(0, Partition((2, 2)), Partition())
    with pytest.raises(TypeError, match="inverse_quotient: q0 must be a StrictPartition"):
        inverse_quotient(0, (1,), Partition())
    with pytest.raises(TypeError, match="inverse_quotient: q1 must be a Partition"):
        inverse_quotient(0, StrictPartition(), (2, 1))
    with pytest.raises(TypeError, match="inverse_quotient: q1 must be a Partition"):
        inverse_quotient(0, StrictPartition(), [0])
    with pytest.raises(TypeError):
        inverse_quotient(1.0, StrictPartition(), Partition())


def test_core_index_must_be_an_int():
    # a float or Fraction core index is refused at the call, as inverse_quotient
    # refuses such a charge, not compared with the length
    lam = StrictPartition((11, 5, 2))
    for bad in (2.5, 3.0, -3.0, Fraction(3)):
        with pytest.raises(TypeError):
            delta_sign(lam, bad)
        with pytest.raises(TypeError):
            abacus(lam, bad)


def test_abacus_refuses_unchecked_input():
    # a Partition's repeated parts would merge into one bead
    with pytest.raises(TypeError, match="abacus: lam must be a StrictPartition"):
        abacus(Partition((3, 3, 1)), 0)
    with pytest.raises(TypeError, match="abacus: lam must be a StrictPartition"):
        abacus((3, 1), 0)


def test_abacus_runner_assignment():
    # even positions on the left runner, 1 mod 4 central, 3 mod 4 right
    for parts, core_index, columns in (
        ((11, 5, 2), 3, {2: 0, 5: 1, 11: 2}),
        ((15, 13, 8, 5), -4, {0: 0, 8: 0, 5: 1, 13: 1, 15: 2}),
    ):
        text = render_abacus(abacus(StrictPartition(parts), core_index))
        assert runner_columns(text) == columns, parts


def test_abacus_zero_bead_rule():
    # bead on 0 exactly when the core index is negative and matches the length
    assert abacus(StrictPartition((15, 13, 8, 5)), -4) == {0, 5, 8, 13, 15}
    assert abacus(StrictPartition((8, 3, 1)), -2) == {1, 3, 8}
    assert abacus(StrictPartition((12, 9, 3)), -3) == {0, 3, 9, 12}
    assert abacus(StrictPartition((9, 3)), 2) == {3, 9}
    beads = abacus(StrictPartition(), 0)
    assert type(beads) is frozenset and not beads


def test_delta_sign_fixtures():
    assert delta_sign(StrictPartition((11, 5, 2)), 3) == -1
    assert delta_sign(StrictPartition((15, 13, 8, 5)), -4) == -1
    assert delta_sign(StrictPartition((12, 9, 3)), -3) == -1
    assert delta_sign(StrictPartition((15, 13, 9, 4, 1)), -4) == 1
    assert delta_sign(StrictPartition((10, 5, 2)), 3) == -1
    assert delta_sign(StrictPartition((9, 3)), -2) == -1


def test_delta_sign_of_opposite_core_is_positive():
    # all parts of a negative index core sit on the right runner
    for m in range(1, 6):
        assert delta_sign(bar_core(-m), m) == 1


def test_delta_sign_counts_bead_pairs():
    rng = random.Random(77)
    for _ in range(100):
        lam = StrictPartition(random_strict_parts(rng, max_weight=40))
        core_index = rng.randint(-6, 6)
        assert delta_sign(lam, core_index) == bead_pair_sign(lam, core_index)


def test_delta_sign_matches_bead_pairs_on_addition_sets():
    count = zero_bead = 0
    for mu, core_index in addition_set_results():
        assert delta_sign(mu, core_index) == bead_pair_sign(mu, core_index), (mu, core_index)
        count += 1
        zero_bead += core_index < 0 and len(mu) == -core_index
    assert count == 9840 and 0 < zero_bead < count


def test_delta_sign_counts_the_zero_bead():
    # The bead on 0 is below every central bead, so it flips the sign exactly
    # when the central runner holds an odd number of beads.
    for parts, core_index, sign in (
        ((5,), -1, -1),  # 5 > 0
        ((5,), 1, 1),
        ((5,), -2, 1),  # length 1, not 2: no bead on 0
        ((9, 4, 3), -3, 1),  # 9 > 4, 9 > 0
        ((9, 4, 3), 3, -1),  # 9 > 4
        ((13, 9, 5, 2), -4, 1),  # each of 13, 9, 5 above 2 and 0
        ((13, 9, 5, 2), -3, -1),
        ((9, 4, 1), -3, -1),  # 9 > 4, 9 > 0, 1 > 0
        ((9, 4, 1), 0, -1),  # 9 > 4
        ((3,), -1, 1),  # no central bead
    ):
        lam = StrictPartition(parts)
        assert delta_sign(lam, core_index) == sign, (parts, core_index)
        assert bead_pair_sign(lam, core_index) == sign, (parts, core_index)


def test_render_marks_beads():
    text = render_abacus(abacus(StrictPartition((11, 9, 6, 2, 1)), 1))
    lines = text.splitlines()
    assert lines[0].split() == ["0", "[1]", "3"]
    assert lines[1].split() == ["[2]"]
    # cells never touch, so every row splits on whitespace
    assert lines[4].split() == ["8", "[9]", "[11]"]
    for bead in ("[6]", "[9]", "[11]"):
        assert bead in text
    assert "[3]" not in text and "[0]" not in text
