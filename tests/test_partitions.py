import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmix import partitions
from schurmix.barquot import inverse_quotient, quotient
from schurmix.partitions import (
    Partition,
    StrictPartition,
    _new,
    _set_parts,
    add_set,
    bar_core,
)

from helpers import closure_oracle, color, line_budget, partition_error, strict_parts


def test_color_period():
    assert [color(j) for j in range(1, 13)] == [0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]


class _IntSubclass(int):
    pass


def test_partition_validation():
    assert Partition((3, 3, 1)).parts == (3, 3, 1)
    assert Partition().parts == ()
    assert StrictPartition((10**30, 2, 1)).parts == (10**30, 2, 1)
    # Parts are int, never truncated or parsed.  Each rejection has its
    # exception type and a message that names the bad part or tuple; the
    # first bad part decides, whatever follows it.
    for cls, parts, error, message in (
        (Partition, (True,), TypeError, "must be int, got True"),
        (Partition, (2, False), TypeError, "must be int, got False"),
        (Partition, (2.7, 1), TypeError, "must be int, got 2.7"),
        (Partition, (3, 1.0), TypeError, "must be int, got 1.0"),
        (Partition, ("3", "1"), TypeError, "must be int, got '3'"),
        (Partition, (_IntSubclass(7), 1), TypeError, "must be int, got 7"),
        (Partition, (0,), ValueError, "must be positive, got 0"),
        (Partition, (3, 0), ValueError, "must be positive, got 0"),
        (Partition, (3, -2), ValueError, "must be positive, got -2"),
        (Partition, (1, 2), ValueError, "must be decreasing, got (1, 2)"),
        (Partition, (3, 1, 2), ValueError, "must be decreasing, got (3, 1, 2)"),
        (Partition, (3, 0, "x"), ValueError, "must be positive, got 0"),
        (Partition, (1, 2, "x"), ValueError, "must be decreasing, got (1, 2, 'x')"),
        (Partition, (3, "x", 0), TypeError, "must be int, got 'x'"),
        (StrictPartition, (3, 3), ValueError, "strictly decreasing, got (3, 3)"),
        (StrictPartition, (5, 2, 2), ValueError, "strictly decreasing, got (5, 2, 2)"),
        (StrictPartition, (3, 3, 4), ValueError, "must be decreasing, got (3, 3, 4)"),
        (StrictPartition, (3.9, 1), TypeError, "must be int, got 3.9"),
        (StrictPartition, (True,), TypeError, "must be int, got True"),
        (StrictPartition, (_IntSubclass(7),), TypeError, "must be int, got 7"),
        (StrictPartition, (-1,), ValueError, "must be positive, got -1"),
    ):
        with pytest.raises(error) as info:
            cls(parts)
        assert message in str(info.value), (parts, str(info.value))
    assert Partition.from_text("3,1").parts == (3, 1)
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition((1,)) != 1 and not Partition((1,)) == 1


# Parts that break each rule: other types, an int subclass, non-positive ints,
# and a few small ints so that ties and rises come up often.
_mixed_parts = st.one_of(
    st.integers(1, 4),
    st.integers(-2, 0),
    st.booleans(),
    st.floats(-2, 4),
    st.text(max_size=1),
    st.integers(0, 4).map(_IntSubclass),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_mixed_parts, max_size=6), st.lists(st.integers(0, 4), max_size=6))
def test_partition_check_matches_spec(mixed, plain):
    # plain keeps ties and rises among valid ints, which mixed often hides
    # behind an earlier bad part
    for parts in (tuple(mixed), tuple(plain), tuple(sorted(plain, reverse=True))):
        for cls in (Partition, StrictPartition):
            expected = partition_error(parts, cls is StrictPartition)
            try:
                got = cls(parts)
            except (TypeError, ValueError) as exc:
                assert (type(exc), str(exc)) == expected, (cls, parts)
            else:
                assert expected is None, (cls, parts)
                assert got.parts == parts


def test_partitions_cannot_be_changed():
    # The bijection trusts a StrictPartition without checking it again, so a
    # changed q0 would come back as the non-strict 6,6.
    q = quotient(StrictPartition((6, 2)))
    mu = next(add_set(bar_core(2), 1, 3))
    for lam in (StrictPartition((6, 2)), Partition((2, 2)), mu, q.q0, q.q1):
        with pytest.raises(AttributeError):
            lam.parts = (3, 3)
        with pytest.raises(AttributeError):
            del lam.parts
        with pytest.raises(AttributeError):
            lam.extra = 1
    assert q.q0.parts == (3, 1)
    assert inverse_quotient(q.charge, q.q0, q.q1) == StrictPartition((6, 2))
    # a copy or a pickle round trip is still the same partition, checked again
    for lam in (StrictPartition((5, 1)), Partition((2, 2)), mu):
        for twin in (copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
            assert type(twin) is type(lam) and twin == lam
    # so a bad partition built without the check does not survive either
    bad = _new(StrictPartition)
    _set_parts(bad, (3, 3))
    for duplicate in (copy.copy, copy.deepcopy):
        with pytest.raises(ValueError, match="strictly decreasing"):
            duplicate(bad)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(bad, protocol)
        with pytest.raises(ValueError, match="strictly decreasing"):
            pickle.loads(data)


def test_partition_basics():
    lam = Partition((4, 2, 2))
    assert lam.weight == 8
    assert len(lam) == 3
    assert list(lam) == [4, 2, 2]
    assert lam == Partition((4, 2, 2))
    assert hash(lam) == hash(Partition((4, 2, 2)))
    assert StrictPartition((3, 1)) == Partition((3, 1))


def test_text_round_trip():
    for text in ("", "1", "11,9,6,2,1"):
        assert Partition.from_text(text).to_text() == text
    assert StrictPartition.from_text(" 5, 3 ,1 ").parts == (5, 3, 1)
    assert Partition.from_text("").parts == ()
    with pytest.raises(ValueError):
        Partition.from_text("3,x")
    with pytest.raises(ValueError):
        StrictPartition.from_text("3,3")


def test_bar_core_values():
    assert bar_core(3).parts == (9, 5, 1)
    assert bar_core(1).parts == (1,)
    assert bar_core(0).parts == ()
    assert bar_core(-1).parts == (3,)
    assert bar_core(-2).parts == (7, 3)
    assert bar_core(-3).parts == (11, 7, 3)


def test_bar_core_weights():
    for m in range(1, 7):
        assert bar_core(m).weight == m * (2 * m - 1)
        assert bar_core(-m).weight == m * (2 * m + 1)


def test_add_set_known_set_on_positive_core():
    got = {mu.parts for mu in add_set(bar_core(3), 1, 2)}
    assert got == {(11, 5, 1), (10, 6, 1), (10, 5, 2), (9, 7, 1), (9, 6, 2), (9, 5, 3)}


def test_add_set_output_order_is_decreasing_lex():
    for lam, i in ((bar_core(-2), 0), (bar_core(3), 1), (StrictPartition((4, 2)), 0)):
        for ell in range(4):
            parts = [mu.parts for mu in add_set(lam, i, ell)]
            assert parts == sorted(parts, reverse=True)
            assert len(parts) == len(set(parts))


def test_add_set_zero_nodes_returns_input():
    lam = StrictPartition((5, 2))
    assert [mu.parts for mu in add_set(lam, 0, 0)] == [(5, 2)]
    assert [mu.parts for mu in add_set(StrictPartition(), 1, 0)] == [()]


def test_add_set_new_rows_only_for_color_zero():
    # color 1 never opens a row: column 1 has color 0
    for m in (1, 2, 3):
        for ell in range(1, 2 * m + 1):
            for mu in add_set(bar_core(m), 1, ell):
                assert len(mu) == m
    # color 0 opens at most one row of length one
    assert (7, 3, 1) in {mu.parts for mu in add_set(bar_core(-2), 0, 1)}


def test_add_set_emptiness_windows():
    for m in range(1, 5):
        assert list(add_set(bar_core(m), 1, 2 * m + 1)) == []
        assert list(add_set(bar_core(-m), 0, 2 * m + 2)) == []
    assert list(add_set(bar_core(0), 1, 1)) == []


def test_add_set_saturated_window_reaches_opposite_core():
    for m in range(1, 5):
        assert [mu.parts for mu in add_set(bar_core(m), 1, 2 * m)] == [bar_core(-m).parts]


def test_add_set_membership_invariants():
    lam = StrictPartition((6, 3, 1))
    for i in (0, 1):
        for ell in range(5):
            for mu in add_set(lam, i, ell):
                assert mu.weight == lam.weight + ell
                padded = lam.parts + (0,) * (len(mu) - len(lam))
                assert all(m >= l for m, l in zip(mu.parts, padded))
                for row, (m, l) in enumerate(zip(mu.parts, padded)):
                    for col in range(l + 1, m + 1):
                        assert color(col) == i


def test_add_set_matches_single_step_closure():
    # each bar core -6..6 at every ell up to 2 * len + 1, the most nodes of
    # one color it can take; as lists, so a misplaced result fails too
    seeds = [(), (1,), (4, 2, 1), (5, 4, 2)]
    seeds += [bar_core(k).parts for k in range(-6, 7)]
    for parts in seeds:
        lam = StrictPartition(parts)
        for i in (0, 1):
            for ell in range(max(5, 2 * len(parts) + 2)):
                got = [mu.parts for mu in add_set(lam, i, ell)]
                assert got == sorted(closure_oracle(parts, i, ell), reverse=True)


@settings(max_examples=150, deadline=None)
@given(strict_parts(), st.sampled_from((0, 1)), st.data())
def test_add_set_matches_closure_on_random_partitions(parts, i, data):
    # ell runs past 2 * len + 1, the most nodes of one color parts can take
    ell = data.draw(st.integers(0, 2 * len(parts) + 3), label="ell")
    # a list, so a repeated or misplaced result fails too
    got = [mu.parts for mu in add_set(StrictPartition(parts), i, ell)]
    assert got == sorted(closure_oracle(parts, i, ell), reverse=True)


def test_add_set_matches_closure_across_the_table_boundary():
    # add_set splits lam's rows and the fresh row at mid = max(rows // 2, 1)
    # and joins each fill of the upper half to the fills of the lower half
    # whose first part is below its last.  For each length, the two parts
    # beside mid differ by 1 and then by 2, the fresh row's 0 counting as a
    # part, so a lower fill's first part can reach or pass the upper fill's
    # last, and that join must be skipped; the upper fills must also be
    # walked in decreasing order across their budgets
    shapes = [()]
    for length in range(1, 11):
        mid = max((length + 1) // 2, 1)
        for gap in (1, 2):
            # gaps[j] = parts[j] - parts[j + 1], the fresh row's 0 below the
            # last part: 2 and 1 in turn, but gap at mid
            gaps = [2 - j % 2 for j in range(length)]
            gaps[mid - 1] = gap
            shapes.append(tuple(sum(gaps[j:]) for j in range(length)))
    assert len(shapes) == 21
    for parts in shapes + [
        (10, 9, 8, 7, 5, 4, 2, 1),
        (9, 8, 7, 6, 5, 4, 3),
        (13, 11, 10, 8, 7, 6, 4, 3, 2, 1),
    ]:
        for i in (0, 1):
            for ell in range(7):
                got = [mu.parts for mu in add_set(StrictPartition(parts), i, ell)]
                assert got == sorted(closure_oracle(parts, i, ell), reverse=True), (parts, i, ell)


@settings(max_examples=100, deadline=None)
@given(strict_parts(max_part=14, min_len=7, max_len=10), st.sampled_from((0, 1)), st.integers(0, 6))
def test_add_set_matches_closure_on_long_random_partitions(parts, i, ell):
    got = [mu.parts for mu in add_set(StrictPartition(parts), i, ell)]
    assert got == sorted(closure_oracle(parts, i, ell), reverse=True)


def test_add_set_past_its_bound_returns_without_searching(monkeypatch):
    # at the bound a core still has exactly one result
    small = bar_core(-4)
    assert len(list(add_set(small, 0, 2 * len(small) + 1))) == 1
    core = bar_core(-12)

    def no_search(*args):
        raise AssertionError("add_set searched past its bound")

    monkeypatch.setattr(partitions, "_grow", no_search)
    for ell in (2 * len(core) + 2, 100, 10**12):
        assert list(add_set(core, 0, ell)) == []
        assert list(add_set(core, 1, ell)) == []
    assert list(add_set(StrictPartition(), 0, 2)) == []
    # part 2 ends before column 3, of color 1, so only the fresh row takes a
    # color 0 node: the bound is that one node, not two per row
    for ell in (2, 3):
        assert list(add_set(StrictPartition((2,)), 0, ell)) == []


def test_add_set_near_the_top_of_the_window_cannot_hang():
    # Without pruning by what the rows above can still bring, core 30 at the
    # top of its window lists every fill of each half, about 3^15 partial
    # rows.  At the top every row takes two nodes; one below it, one row
    # takes one node fewer, or (color 0) the new row of length 1 stays
    # empty.  The budget counts the join and the table it fills both halves
    # from.
    for core_index, i, ell, count in (
        (14, 1, 28, 1),
        (14, 1, 27, 14),
        (-14, 0, 29, 1),
        (-14, 0, 28, 15),
        (30, 1, 60, 1),
        (30, 1, 59, 30),
        (-30, 0, 61, 1),
        (-30, 0, 60, 31),
    ):
        core = bar_core(core_index)
        with line_budget(10**5, partitions._grow.__code__, partitions._fills.__code__):
            got = list(add_set(core, i, ell))
        assert len(got) == count
        assert got == sorted(set(got), key=lambda mu: mu.parts, reverse=True)
        for mu in got:
            assert mu.weight == core.weight + ell
            padded = core.parts + (0,) * (len(mu) - len(core))
            for base, part in zip(padded, mu.parts):
                assert all(color(col) == i for col in range(base + 1, part + 1))


def test_add_set_rejects_bad_arguments():
    lam = StrictPartition((3, 1))
    with pytest.raises(ValueError):
        add_set(lam, 2, 1)
    with pytest.raises(ValueError):
        add_set(lam, 0, -1)
    # results are not checked again, so a non-strict lam is refused up front
    for bad in (Partition((3, 1)), Partition((2, 2)), (3, 1)):
        with pytest.raises(TypeError, match="add_set: lam must be a StrictPartition"):
            add_set(bad, 0, 1)
