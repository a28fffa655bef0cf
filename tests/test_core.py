import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzstop import (
    DomainError, LimitError, StepLimitError, is_parity_prefix, shortcut_step,
    stopping_record, trajectory,
)


def test_step_examples():
    assert shortcut_step(7) == (11, 1)
    assert shortcut_step(8) == (4, 0)
    assert shortcut_step(1) == (2, 1)


def test_step_rejects_zero():
    with pytest.raises(DomainError):
        shortcut_step(0)


def test_stopping_examples():
    rec = stopping_record(3)
    assert (rec.s, rec.r, rec.q.bits, rec.value) == (4, 2, "1100", 2)
    rec = stopping_record(7)
    assert (rec.s, rec.r, rec.q.bits, rec.value) == (7, 4, "1110100", 5)
    rec = stopping_record(2)
    assert (rec.s, rec.r, rec.q.bits, rec.value) == (1, 0, "0", 1)


def test_stopping_27():
    rec = stopping_record(27)
    assert rec.value == 23
    assert rec.q.s > 15
    assert rec.s == 59


def test_stopping_rejects_small():
    for n in (1, 0, -5):
        with pytest.raises(DomainError):
            stopping_record(n)


@pytest.mark.step_cap(10)  # 27 needs 59 steps
def test_step_cap_carries_partial_walk():
    from collatzstop import parse_sequence

    with pytest.raises(StepLimitError) as info:
        stopping_record(27)
    err = info.value
    assert err.start == 27 and err.steps == 10
    assert len(err.word) == 10 and err.value >= 27
    assert is_parity_prefix(parse_sequence(err.word), 27)


def test_trajectory_examples():
    assert trajectory(5, 10) == [(8, 1), (4, 0), (2, 0), (1, 0)]
    assert trajectory(1, 3) == [(2, 1), (1, 0), (2, 1)]
    walk = trajectory(27, 200)
    assert walk[-1][0] == 1 and len(walk) == 70


def test_trajectory_rejects():
    with pytest.raises(DomainError):
        trajectory(0, 5)
    with pytest.raises(DomainError):
        trajectory(5, 0)


@pytest.mark.step_cap(10)
def test_trajectory_limit_is_the_step_cap():
    # every row is kept, so the one walk cap bounds a trajectory's memory too
    assert len(trajectory(1, 10)) == 10
    with pytest.raises(LimitError, match="trajectory limit 11 exceeds the cap 10"):
        trajectory(1, 11)


@given(st.integers(min_value=2, max_value=10 ** 9))
def test_descent_and_replay(n):
    rec = stopping_record(n)
    assert rec.value < n
    assert rec.q.s == rec.s and rec.q.r == rec.r
    # replaying the word step by step must reproduce the record
    v = n
    for i, b in enumerate(rec.q.bits):
        assert (v >= n) if i else True
        v, bit = shortcut_step(v)
        assert str(bit) == b
    assert v == rec.value


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_even_and_one_mod_four_shapes(k):
    even = 2 * k
    if even >= 2:
        rec = stopping_record(even)
        assert (rec.s, rec.r, rec.q.bits) == (1, 0, "0")
    n = 4 * k + 1
    if n > 1:
        rec = stopping_record(n)
        assert (rec.s, rec.q.bits) == (2, "10")
        assert rec.value == (3 * n + 1) // 4


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_hard_classes_need_four_steps(i):
    for res in (3, 7, 11):
        assert stopping_record(12 * i + res).s >= 4


@pytest.mark.step_cap(100)
def test_trivial_cycle_member_is_detected():
    from collatzstop import CycleDetectedError
    from collatzstop.core import descend

    with pytest.raises(CycleDetectedError, match="1 returned to itself after 2 steps"):
        descend(1)


@given(st.integers(min_value=3, max_value=10 ** 6))
def test_word_shape_for_longer_stops(n):
    # an odd step always grows the value, so every descent ends on a halving;
    # words longer than two steps open with two odd steps
    rec = stopping_record(n)
    if rec.q.s > 2:
        assert rec.q.bits.startswith("11")
    assert rec.q.bits.endswith("0")
