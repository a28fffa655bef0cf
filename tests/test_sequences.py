import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzstop import (
    ParseError, apply_closed_form, is_parity_prefix, lower_unit_numerator,
    parse_sequence, shortcut_step, sigma, stopping_record, weighted_sum,
)

words = st.text(alphabet="01", min_size=1, max_size=40)


def test_parse_fields():
    q = parse_sequence("1110110100")
    assert q.s == 10
    assert q.r == 6
    assert q.one_positions == [1, 2, 3, 5, 6, 8]


def test_parse_trivial_word():
    q = parse_sequence("0")
    assert (q.s, q.r, q.one_positions) == (1, 0, [])


@pytest.mark.parametrize("bad", ["", "10x", "210", "1 0", "0b1"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_sequence(bad)


@pytest.mark.parametrize("bits,total", [
    ("10", 1),
    ("1110110100", 881),   # 243+162+108+144+96+128
    ("1100", 5),           # 3*1 + 1*2
    ("1110100", 73),       # 27+18+12+16
    ("0", 0),
])
def test_weighted_sum(bits, total):
    assert weighted_sum(parse_sequence(bits)) == total


def _literal_weighted_sum(bits):
    # the closed form's W written out: sum over the ones of 3^(r-i) 2^(p_i - 1)
    ones = [p for p, b in enumerate(bits, 1) if b == "1"]
    return sum(3 ** (len(ones) - i) * 2 ** (p - 1) for i, p in enumerate(ones, 1))


def test_weighted_sum_matches_literal_sum_exhaustive():
    for s in range(1, 13):
        for packed in range(1 << s):
            bits = format(packed, "b").zfill(s)
            assert weighted_sum(parse_sequence(bits)) == _literal_weighted_sum(bits)


@given(words)
def test_weighted_sum_matches_literal_sum(bits):
    assert weighted_sum(parse_sequence(bits)) == _literal_weighted_sum(bits)


def test_weighted_sum_zero_iff_no_ones():
    for bits in ("0", "00", "0000"):
        assert weighted_sum(parse_sequence(bits)) == 0
    assert weighted_sum(parse_sequence("0001")) > 0


def test_closed_form_examples():
    out = apply_closed_form(parse_sequence("1110110100"), 423)
    assert out.exact and out.value == 302
    out = apply_closed_form(parse_sequence("1100"), 3)
    assert out.exact and out.value == 2
    out = apply_closed_form(parse_sequence("10"), 4)
    assert not out.exact and out.value == Fraction(13, 4)


def test_sigma_examples():
    assert sigma(parse_sequence("1100")) == Fraction(5, 16)
    assert sigma(parse_sequence("0")) == 0
    assert sigma(parse_sequence("1110100")) == Fraction(73, 128)


def test_is_parity_prefix_examples():
    assert is_parity_prefix(parse_sequence("1110100"), 7)
    assert not is_parity_prefix(parse_sequence("10"), 4)
    assert is_parity_prefix(parse_sequence("1100"), 51)


def test_is_parity_prefix_agrees_with_closed_form():
    # a word is n's parity prefix exactly when its closed form is an integer
    for s in range(1, 9):
        for packed in range(1 << s):
            q = parse_sequence(format(packed, "b").zfill(s))
            for n in range(1, 257):
                assert is_parity_prefix(q, n) == apply_closed_form(q, n).exact


def test_append_recurrence_exhaustive():
    # appending 0 keeps W; appending 1 at length L maps W -> 3W + 2^L
    for s in range(1, 13):
        for packed in range(1 << s):
            bits = format(packed, "b").zfill(s)
            w = weighted_sum(parse_sequence(bits))
            assert weighted_sum(parse_sequence(bits + "0")) == w
            assert weighted_sum(parse_sequence(bits + "1")) == 3 * w + (1 << s)


def test_min_weighted_sum_exhaustive():
    # over words of fixed (r, s) the minimum of W sits at positions 1..r
    # and equals 3^r - 2^r; the conservative unit 3^(r-1) - 2^(r-1) stays below
    for s in range(1, 13):
        for r in range(1, s + 1):
            best = min(
                sum(3 ** (r - i) * 2 ** (p - 1) for i, p in enumerate(pos, 1))
                for pos in itertools.combinations(range(1, s + 1), r)
            )
            front = weighted_sum(parse_sequence("1" * r + "0" * (s - r)))
            assert best == front == 3 ** r - 2 ** r
            assert lower_unit_numerator(r) < best


@given(words)
def test_sigma_matches_weighted_sum(bits):
    q = parse_sequence(bits)
    assert sigma(q) == Fraction(weighted_sum(q), 2 ** q.s)


@given(words, st.integers(min_value=1, max_value=10 ** 18))
def test_closed_form_decomposition(bits, n):
    # value = (3^r / 2^s) n + sigma, exactly, for every word and start
    q = parse_sequence(bits)
    out = apply_closed_form(q, n)
    assert out.value == Fraction(3 ** q.r, 2 ** q.s) * n + sigma(q)
    assert out.exact == (out.value.denominator == 1)


@given(st.integers(min_value=1, max_value=10 ** 15), st.integers(min_value=1, max_value=60))
def test_closed_form_agrees_with_iteration(n, steps):
    # walk any fixed number of steps; the parity word taken satisfies the
    # closed form exactly
    v, bits = n, []
    for _ in range(steps):
        v, b = shortcut_step(v)
        bits.append(str(b))
    q = parse_sequence("".join(bits))
    assert is_parity_prefix(q, n)
    out = apply_closed_form(q, n)
    assert out.exact and out.value == v


@settings(max_examples=300)
@given(st.integers(min_value=2, max_value=10 ** 12))
def test_stopping_word_closed_form_roundtrip(n):
    rec = stopping_record(n)
    out = apply_closed_form(rec.q, n)
    assert out.exact and out.value == rec.value
