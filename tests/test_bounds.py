import hashlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzstop import (
    DomainError, LimitError, check_ratio_constraints, cycle_candidate,
    cycle_lower_bound, cycle_upper_bound, enumerate_cycle_candidates, log3_2,
    matveev_constant, matveev_constant_value, matveev_log10_gap_bound,
    parse_sequence, ratio_records, stopping_number_bounds, unique_s_for_r,
)
from collatzstop.bounds import DIGITS, ratio_record
from collatzstop.cli import main
from reference_tables import TABLE4


def test_log3_2_digits():
    with mp.workdps(80):
        want = Decimal(mp.nstr(mp.log(2) / mp.log(3), 60))
    assert log3_2() == want
    assert len(log3_2().as_tuple().digits) == 60


def test_ratio_constraints_examples():
    assert check_ratio_constraints(4, 2).all_hold()
    assert check_ratio_constraints(12, 7).all_hold()
    flags = check_ratio_constraints(3, 2)
    assert not flags.power and not flags.linear and not flags.ratio_upper
    assert flags.ratio_lower


def _decimal_ratio_flags(s, r):
    """The ratio halves as decimal comparisons at DIGITS: the oracle
    for the exact window, (1 - 1/s) log3(2) < r/s and r/s < log3(2)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        l32 = log3_2()
        return l32 * (s - 1) < r, r < l32 * s


def _assert_flags_match_decimal(s, r):
    flags = check_ratio_constraints(s, r)
    lower, upper = _decimal_ratio_flags(s, r)
    assert (flags.ratio_lower, flags.ratio_upper) == (lower, upper), (s, r)
    assert flags.power == (lower and upper), (s, r)
    assert flags.linear == (3 * r < 2 * s), (s, r)


def test_ratio_constraints_match_decimal_oracle_small():
    for s in range(1, 700):
        for r in range(s + 2):
            _assert_flags_match_decimal(s, r)


def test_ratio_constraints_match_decimal_oracle_near_boundaries():
    rng = random.Random(20211)
    l32 = float(log3_2())
    for _ in range(80):  # each pair builds a 3^r of up to 300,000 bits
        s = rng.randrange(700, 300_000)
        # the floors of s log3(2) and (s - 1) log3(2), and their neighbours
        for r0 in {int(s * l32), int((s - 1) * l32)}:
            for r in (r0 - 1, r0, r0 + 1, r0 + 2):
                _assert_flags_match_decimal(s, r)


def test_ratio_record_refuses_pairs_outside_the_window():
    with pytest.raises(DomainError, match=r"r/s = 1306/485 is not below log3\(2\)"):
        ratio_record(485, 1306)
    with pytest.raises(DomainError, match=r"r/s = 307/485 is not below log3\(2\)"):
        ratio_record(485, 307)
    with pytest.raises(DomainError, match=r"r/s = 3/1000 is not above \(1 - 1/s\) log3\(2\)"):
        ratio_record(1000, 3)
    with pytest.raises(DomainError, match=r"r/s = 305/485 is not above \(1 - 1/s\) log3\(2\)"):
        ratio_record(485, 305)
    assert ratio_record(485, 306) == ratio_records(485, 485)[0]


def test_unique_s_examples():
    assert unique_s_for_r(1) == 2
    assert unique_s_for_r(2) == 4
    assert unique_s_for_r(306) == 485
    with pytest.raises(DomainError):
        unique_s_for_r(0)


def test_unique_s_cross_check():
    # agrees with ceil(r log2 3) and the exact power bracket
    for r in range(1, 10001):
        s = unique_s_for_r(r)
        assert s == math.ceil(r * math.log2(3))
    for r in (1, 2, 17, 306, 971, 5000):
        s = unique_s_for_r(r)
        assert (1 << (s - 1)) < 3 ** r < (1 << s)


def test_cycle_candidate_examples():
    c = cycle_candidate(parse_sequence("10"))
    assert c.m1 == 1 and c.is_integer and (c.numerator, c.denominator) == (1, 1)
    c = cycle_candidate(parse_sequence("1100"))
    assert c.m1 == Fraction(5, 7) and not c.is_integer
    c = cycle_candidate(parse_sequence("1010"))
    assert c.m1 == 1 and c.is_integer
    with pytest.raises(DomainError):
        cycle_candidate(parse_sequence("110"))
    with pytest.raises(DomainError):
        cycle_candidate(parse_sequence("00"))


def test_cycle_enumeration_small():
    got = [(c.q.bits, c.m1) for c in enumerate_cycle_candidates(4)]
    assert got == [("10", 1), ("1010", 1)]
    got = [(c.q.bits, c.m1) for c in enumerate_cycle_candidates(2)]
    assert got == [("10", 1)]
    with pytest.raises(LimitError):
        enumerate_cycle_candidates(21)


def test_cycle_enumeration_through_12():
    cands = enumerate_cycle_candidates(12)
    assert [c.q.bits for c in cands] == ["10" * k for k in range(1, 7)]
    assert all(c.m1 == 1 for c in cands)


def test_cli_cycles_through_20_is_pinned(tmp_path):
    # SHA-256 of `cycles --s-max 20` as the literal-sum search wrote it, which
    # the golden cases (s <= 12) do not reach
    out = tmp_path / "c.csv"
    assert main(["cycles", "--s-max", "20", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "f00ef8cbe1fd640e9943fb435de3eab1619f41b22136b5067489b13e23b7d86b"


def test_cycle_upper_bound_examples():
    assert cycle_upper_bound(1, 2) == 0
    assert cycle_upper_bound(7, 12) == Fraction(40 * 665, 1909)
    big = cycle_upper_bound(306, 485)
    assert abs(float(big) - 13036.6) < 0.1
    with pytest.raises(DomainError):
        cycle_upper_bound(2, 3)


def _lower_oracle(r, s):
    # independent high-precision evaluation of the same floor
    mp.mp.dps = 60
    eps = 1 - mp.mpf(3) ** r / mp.mpf(2) ** s
    small = mp.power(2, -((1 - mp.log(2) / mp.log(3)) * s + 1))
    return (1 - eps - 3 * small) / (3 * eps)


@pytest.mark.parametrize("r,s", [(306, 485), (1, 2), (2, 4), (7, 12), (41, 65)])
def test_cycle_lower_bound_against_oracle(r, s):
    got = cycle_lower_bound(r, s)
    want = _lower_oracle(r, s)
    assert abs(float(got) - float(want)) < 1e-9


def test_cycle_lower_bound_values():
    assert abs(float(cycle_lower_bound(306, 485)) - 325.91492418) < 1e-6
    assert float(cycle_lower_bound(1, 2)) < 0  # loose pair: floor is vacuous
    with pytest.raises(DomainError):
        cycle_lower_bound(2, 3)


def test_matveev_constant():
    c = matveev_constant()
    assert 821013299 <= c <= 821013303
    value = matveev_constant_value()
    print(f"matveev evaluation: {value}")
    assert int(value.to_integral_value()) == c
    # independent oracle
    mp.mp.dps = 50
    want = mp.e * mp.power(2, mp.mpf("3.5")) * 30 ** 5 * mp.log(3)
    assert abs(float(value) - float(want)) < 1e-3


def test_matveev_log10_gap_bound():
    c = matveev_constant()
    assert matveev_log10_gap_bound(1) == pytest.approx(-c * math.log10(math.e))
    got = matveev_log10_gap_bound(485)
    assert got == pytest.approx(-c * math.log10(math.e * 485))
    assert -2.57e9 < got < -2.55e9


def test_stopping_number_bounds_examples():
    lower, upper = stopping_number_bounds(7, 4, 7)
    assert lower == Fraction(81, 128) + Fraction(19, 128 * 7)
    assert lower < Fraction(5, 7) < upper
    lower, upper = stopping_number_bounds(3, 2, 4)
    assert lower == Fraction(9, 16) + Fraction(1, 48)
    assert upper == Fraction(9, 16) + Fraction(40, 48)
    assert lower < Fraction(2, 3) < upper
    with pytest.raises(DomainError):
        stopping_number_bounds(4, 2, 4)


def test_ratio_records_first_rows():
    records = ratio_records(485, 3000)
    assert [(rec.s, rec.r) for rec in records] == [(485, 306), (1539, 971), (2593, 1636)]
    assert all(check_ratio_constraints(rec.s, rec.r).all_hold() for rec in records)
    gaps = [rec.gap for rec in records]
    assert gaps == sorted(gaps, reverse=True)
    assert float(records[0].log10_gap) == pytest.approx(-5.717033689, abs=1e-8)


def test_ratio_records_match_oracle_log10():
    mp.mp.dps = 60
    l32 = mp.log(2) / mp.log(3)
    for rec in ratio_records(485, 26000):
        want = mp.log10(l32 - mp.mpf(rec.r) / rec.s)
        assert abs(float(rec.log10_gap) - float(want)) < 1e-12
        assert float(rec.gap) == pytest.approx(float(l32 - mp.mpf(rec.r) / rec.s))


def test_ratio_records_reference_prefix():
    records = ratio_records(485, 26000)
    want = [(s, r) for s, r, _ in TABLE4 if s <= 26000]
    assert [(rec.s, rec.r) for rec in records] == want


def test_ratio_records_from_2_pinned():
    # the records the Decimal and fixed-point filters emitted, now certified
    # by the exact window alone
    assert [(rec.s, rec.r) for rec in ratio_records(2, 20000)] == [
        (2, 1), (5, 3), (8, 5), (27, 17), (46, 29), (65, 41), (149, 94), (233, 147),
        (317, 200), (401, 253), (485, 306), (1539, 971), (2593, 1636), (3647, 2301),
        (4701, 2966), (5755, 3631), (6809, 4296), (7863, 4961), (8917, 5626),
        (9971, 6291), (11025, 6956), (12079, 7621), (13133, 8286), (14187, 8951),
        (15241, 9616), (16295, 10281), (17349, 10946), (18403, 11611), (19457, 12276)]


def test_ratio_records_validation():
    with pytest.raises(DomainError):
        ratio_records(1, 100)
    with pytest.raises(DomainError):
        ratio_records(485, 100)


@given(st.integers(min_value=2, max_value=2000))
def test_floor_ratio_always_upper_ok(s):
    r = int(s * float(log3_2()))
    flags = check_ratio_constraints(s, r)
    if 3 ** r < 2 ** s:  # guard against float slop in r
        assert flags.ratio_upper
