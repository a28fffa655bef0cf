import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzstop import (
    ClassLabel, DomainError, LimitError, ResidueFamily, apply_closed_form,
    class_transition, classify, enumerate_minimal, family_member,
    is_parity_prefix, parse_sequence, shortcut_step, stopping_record,
    table2_rows, two_step_reduce,
)
from collatzstop.core import walk
from collatzstop.residues import _dying_classes, _minimal_word, census
from reference_tables import TABLE2, TABLE2_DEFECTS, TABLE3


def oracle_minimal(s):
    """The census of length s by brute force over every m = 3 mod 4 below
    2^s, each walked at most s steps: what the sieve replaced, kept here as
    the oracle."""
    return [(m, q) for m in range(3, 1 << s, 4) if (q := _minimal_word(m, s)) is not None]


def test_classify_examples():
    assert classify(7) == ClassLabel(mod3="3i+1", mod12="12i+7")
    assert (classify(9).mod3, classify(9).mod12) == ("3i", "12i+9")
    assert (classify(12).mod3, classify(12).mod12) == ("3i", None)


def test_classify_rejects():
    with pytest.raises(DomainError):
        classify(0)


def test_class_transition_table():
    assert class_transition(0) == "3i"
    assert class_transition(2) == "3i+1"
    assert class_transition(4) == "3i+2"
    for odd in (1, 3, 5):
        assert class_transition(odd) == "3i+2"
    with pytest.raises(DomainError):
        class_transition(6)


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_class_transition_matches_map(n):
    nxt, _ = shortcut_step(n)
    assert classify(nxt).mod3 == class_transition(n % 6)


def test_two_step_reduce_examples():
    assert two_step_reduce(13) == 10
    assert two_step_reduce(5) == 4
    assert two_step_reduce(9) == 7


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_two_step_reduce_properties(k):
    n = 4 * k + 1
    out = two_step_reduce(n)
    assert out < n and out % 3 == 1
    # equals two applications of the map
    v, _ = shortcut_step(n)
    v, _ = shortcut_step(v)
    assert v == out


@pytest.mark.parametrize("bad", [4, 3, 1, 15, 0])
def test_two_step_reduce_rejects(bad):
    with pytest.raises(DomainError):
        two_step_reduce(bad)


def test_family_member_examples():
    assert family_member(ResidueFamily(s=4, m=3, k=0), 1) == 51
    assert family_member(ResidueFamily(s=5, m=11, k=1), 0) == 43
    assert family_member(ResidueFamily(s=6, m=5, k=0), 0) == 5


def test_family_validation():
    with pytest.raises(DomainError):
        ResidueFamily(s=4, m=4, k=0)   # even m
    with pytest.raises(DomainError):
        ResidueFamily(s=4, m=17, k=0)  # m >= 2^s
    with pytest.raises(DomainError):
        ResidueFamily(s=4, m=3, k=3)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=1000))
def test_family_members_share_residue(s, k, j):
    m = 2 * (j % (1 << (s - 1))) + 1 if s > 1 else 1
    fam = ResidueFamily(s=s, m=m, k=k)
    n = family_member(fam, j)
    assert n % (1 << s) == m and n & 1


def test_census_small_lengths():
    assert enumerate_minimal(4) == [(3, stopping_record(3).q)]
    assert [(m, q.bits) for m, q in enumerate_minimal(5)] == [
        (11, "11010"), (23, "11100")]
    assert enumerate_minimal(6) == []
    assert [(m, q.bits) for m, q in enumerate_minimal(7)] == [
        (7, "1110100"), (15, "1111000"), (59, "1101100")]


@pytest.mark.parametrize("s", [1, 2, 3, 6, 9, 11])
def test_census_empty_lengths(s):
    assert enumerate_minimal(s) == []


def test_census_cap():
    with pytest.raises(LimitError):
        enumerate_minimal(25)
    with pytest.raises(DomainError):
        enumerate_minimal(0)


def test_census_equals_the_brute_force_oracle_through_length_20():
    oracle = {s: oracle_minimal(s) for s in range(1, 21)}
    for s, rows in oracle.items():
        assert enumerate_minimal(s) == rows, s
    # census orders by s, then by class mod 12, then by m
    want = sorted(((s, m, q) for s in range(4, 21) for m, q in oracle[s]),
                  key=lambda row: (row[0], row[1] % 12, row[1]))
    assert list(census(4, 20)) == want
    assert len(want) == 4402


def test_every_class_the_sieve_drops_has_descended():
    # the census tests catch a wrong prune only when it loses a row; this
    # pins the death rule itself on every member below 2^16
    members = 0
    for j, classes in enumerate(_dying_classes(16)):
        for c in classes:
            for n in range(c, 1 << 16, 1 << j):
                steps, _, _, _, value, capped = walk(n, j)
                assert value < n and steps <= j and not capped, (j, c, n)
                members += 1
    assert members == 14270  # of the 16,384 n = 3 mod 4 below 2^16


def test_census_matches_reference_through_length_10():
    for s in (4, 5, 7, 8, 10):
        got = {}
        for m, q in enumerate_minimal(s):
            got.setdefault(m % 12, []).append((m, q.bits))
        want = {k: v for k, v in TABLE3[s].items() if v}
        assert got == want


def test_census_is_prefix_free_against_shorter_lengths():
    # the word of an exactly-s stopper never descends at any earlier cut
    for s in (4, 5, 7, 8, 10):
        for m, q in enumerate_minimal(s):
            for cut in range(1, s):
                out = apply_closed_form(parse_sequence(q.bits[:cut]), m)
                assert not (out.exact and out.value < m)


def test_census_words_are_true_stopping_words():
    for s in (4, 5, 7, 8, 10, 12):
        for m, q in enumerate_minimal(s):
            rec = stopping_record(m)
            assert rec.s == s and rec.q == q


def test_descent_transfer_small():
    # each census row covers three progressions of starters sharing the word
    for s in (4, 5, 7, 8):
        for m, q in enumerate_minimal(s):
            for k in (0, 1, 2):
                fam = ResidueFamily(s=s, m=m, k=k)
                for j in (0, 1, 2, 7):
                    n = family_member(fam, j)
                    assert is_parity_prefix(q, n)
                    out = apply_closed_form(q, n)
                    assert out.exact and out.value < n


def test_table2_rows_spot_values():
    rows = {n: (q.bits if q else None, v) for n, _, q, v in table2_rows(467)}
    assert rows[35] == ("1100", 20)
    assert rows[27] == (None, 23)
    assert rows[423] == ("1110110100", 302)
    assert rows[127] == ("111111101000100", 77)


def test_table2_rows_match_reference():
    rows = {n: (q.bits if q else None, v) for n, _, q, v in table2_rows(467)}
    assert set(rows) == set(TABLE2)
    mismatched = {n for n in rows if rows[n] != TABLE2[n]}
    assert mismatched == set(TABLE2_DEFECTS)
    for n in TABLE2_DEFECTS:
        assert rows[n] == TABLE2_DEFECTS[n]["actual"]


def test_table2_rows_grouped_by_class():
    rows = table2_rows(100)
    labels = [label for _, label, _, _ in rows]
    assert labels == sorted(labels, key=("12i+3", "12i+7", "12i+11").index)
    with pytest.raises(DomainError):
        table2_rows(2)
