"""Ratio constraints, cycle-number candidates and bounds, and record ratios.

A word of length s with r odd steps can only witness a descent when r/s
lies in the window ((1 - 1/s) log3(2), log3(2)).  Since log is increasing,
that is exactly the integer bracket 2^(s-1) < 3^r < 2^s, and `_window`
alone decides it, for the ratio flags, the record ratios and the cycle
denominators 2^s - 3^r alike.  Only values that are themselves irrational
(log3(2), the cells of a record, the cycle lower bound, the Matveev
constant) run in decimals, under one rule: each is computed from the one
cached log3(2) with _GUARD_DIGITS digits beyond DIGITS, then rounded once
to DIGITS significant digits, so no result depends on binary floating point
and no caller chooses a precision.

Each length whose cost grows with it has one cap, which the producer checks
before it writes and `verify` checks before it builds a power: CYCLE_CAP
on a cycle word, RECORD_S_CAP on a record's s, BOUND_R_CAP on a bound's r.
The rules a report's rows obey are decided here, once, for the producer and
`verify` alike: `fixed_point` takes a cycles row's word, `ratio_record`
a table4 row's pair, and `gap_falls` orders one record after another.
The cycle-number bounds read one envelope, ALPHA, and no caller chooses
another, so a cycles or bounds row's alpha cell re-derives like any other.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import DomainError, check_cap
from .sequences import ParitySequence, lower_unit_numerator, weighted_sum, word_bits

DIGITS = 50  # the working precision: every decimal result has this many significant digits
_GUARD_DIGITS = 10  # working digits beyond the result's before it is rounded

# the envelope W / (3^(r-1) - 2^(r-1)) <= ALPHA: observed, not proven; scans
# report each breach, and it is the one alpha of the cycle-number bounds,
# which every cycles and bounds row prints and `verify` re-derives
ALPHA = 40

CYCLE_CAP = 20  # the word tree of a cycle search grows as 2^s
RECORD_S_CAP = 10 ** 7  # a record builds 3^r, whose cost grows about as s^1.6
BOUND_R_CAP = 10 ** 5  # a bound row builds 3^r and 2^s with s about 1.58 r
DEFAULT_RECORDS_START = 485


def _rounded(raw: Callable[[], Decimal], digits: int = DIGITS) -> Decimal:
    """raw() computed with _GUARD_DIGITS digits beyond `digits`, then rounded
    half-even to `digits` significant digits; both steps run in fresh
    contexts, so the caller's decimal context cannot change a result."""
    with localcontext(Context(prec=digits + _GUARD_DIGITS)):
        value = raw()
    return Context(prec=digits).plus(value)


@lru_cache(maxsize=None)
def log3_2() -> Decimal:
    """log base 3 of 2 to DIGITS + _GUARD_DIGITS significant digits: the
    working value that every other decimal result is computed from."""
    return _rounded(lambda: Decimal(2).ln() / Decimal(3).ln(), DIGITS + _GUARD_DIGITS)


@dataclass(frozen=True)
class RatioFlags:
    """The four descent constraints on an (s, r) pair."""

    linear: bool       # 3r < 2s
    power: bool        # 2^(s-1) < 3^r < 2^s: both halves below
    ratio_lower: bool  # (1 - 1/s) log3(2) < r/s, i.e. 2^(s-1) < 3^r
    ratio_upper: bool  # r/s < log3(2), i.e. 3^r < 2^s

    def all_hold(self) -> bool:
        return self.linear and self.power and self.ratio_lower and self.ratio_upper


@dataclass(frozen=True)
class CycleCandidate:
    """A word whose closed form could fix a point: m1 = W / (2^s - 3^r)."""

    q: ParitySequence
    numerator: int
    denominator: int
    m1: Fraction
    is_integer: bool


@dataclass(frozen=True)
class RatioRecord:
    """An (s, r) pair inside the descent window with the cells of its table4
    row at DIGITS: the window's lower edge (1 - 1/s) log3(2), the ratio r/s,
    the gap log3(2) - r/s and the gap's log10.  ratio_records emits one for
    each new strict minimum of the gap."""

    s: int
    r: int
    lower: Decimal
    ratio: Decimal
    gap: Decimal
    log10_gap: Decimal


def _window(s: int, r: int) -> tuple[bool, bool]:
    """The descent window 2^(s-1) < 3^r < 2^s as its (lower, upper) halves,
    in exact integers.

    Since 2^(3/2) < 3 < 2^2, a pair with 3r >= 2s is above the window and
    one with 2r < s below it, so 3^r is only built for r in [s/2, 2s/3).
    """
    if 3 * r >= 2 * s or 2 * r < s:
        return 3 * r >= 2 * s, 2 * r < s  # (True, False) above, (False, True) below
    p3 = 3 ** r
    return (1 << (s - 1)) < p3, p3 < (1 << s)


def _cycle_denominator(s: int, r: int) -> int:
    """2^s - 3^r for a word with r >= 1 odd steps; refused unless it is
    positive, i.e. unless r/s is below log3(2)."""
    if r < 1:
        raise DomainError(f"a cycle word needs at least one odd step, got r = {r}")
    if not _window(s, r)[1]:
        raise DomainError(f"2^{s} <= 3^{r}: r/s = {r}/{s} is not below log3(2)")
    return (1 << s) - 3 ** r


def check_ratio_constraints(s: int, r: int) -> RatioFlags:
    """Evaluate all four constraints, each in exact integers."""
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    lower, upper = _window(s, r)
    return RatioFlags(linear=3 * r < 2 * s, power=lower and upper,
                      ratio_lower=lower, ratio_upper=upper)


def unique_s_for_r(r: int) -> int:
    """The unique s with 2^(s-1) < 3^r < 2^s, by exact comparison.

    Equality is impossible (3^r is odd), so s is the bit length of 3^r.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return (3 ** r).bit_length()


def cycle_candidate(q: ParitySequence) -> CycleCandidate:
    """Candidate fixed point of q's closed form, as an exact rational."""
    den = _cycle_denominator(q.s, q.r)
    num = weighted_sum(q)
    m1 = Fraction(num, den)
    return CycleCandidate(q=q, numerator=num, denominator=den, m1=m1,
                          is_integer=m1.denominator == 1)


def fixed_point(q: ParitySequence) -> CycleCandidate:
    """The candidate of q, a word the cycle search writes: no longer than
    CYCLE_CAP, starting with an odd step, with an integer m1 >= 1.  Any other
    word is refused.  The search and `verify` both take a cycles row by it."""
    check_cap("cycle search to length", q.s, CYCLE_CAP)
    cand = cycle_candidate(q)
    if q.bits[0] != "1" or not cand.is_integer or cand.m1 < 1:
        raise DomainError(f"word {q.bits} does not start with 1 or has no integer m1 >= 1")
    return cand


def enumerate_cycle_candidates(s_max: int) -> list[CycleCandidate]:
    """All words of length <= s_max whose fixed point m1 is an integer >= 1.

    Every cycle of the map must contain an odd member (an all-even cycle
    would descend forever), so words are canonicalized to start with an odd
    step: only first-bit-1 words are searched.  The walk over the word tree
    carries the walk kernel's state (s, r, W, packed word), grows W by its
    rule, and prunes subtrees whose odd-step count already forces 3^r above
    2^s_max.  Only a word whose W is a multiple of 2^s - 3^r > 0 is decoded
    to text, and `fixed_point` takes it (W >= 1, so m1 >= 1 follows).
    """
    if s_max < 1:
        raise DomainError(f"s_max must be >= 1, got {s_max}")
    check_cap("cycle search to length", s_max, CYCLE_CAP)
    pow3 = [3 ** i for i in range(s_max + 2)]
    top = 1 << s_max
    found: list[CycleCandidate] = []

    def walk(s: int, r: int, w: int, word: int) -> None:
        den = (1 << s) - pow3[r]
        if den > 0 and w % den == 0:
            found.append(fixed_point(ParitySequence(word_bits(word, s))))
        if s == s_max:
            return
        walk(s + 1, r, w, word << 1)
        if pow3[r + 1] < top:
            walk(s + 1, r + 1, 3 * w + (1 << s), (word << 1) | 1)

    walk(1, 1, 1, 1)
    found.sort(key=lambda c: (c.q.s, c.q.bits))
    return found


def cycle_upper_bound(r: int, s: int) -> Fraction:
    """ALPHA * (3^(r-1) - 2^(r-1)) / (2^s - 3^r), exact."""
    return ALPHA * Fraction(lower_unit_numerator(r), _cycle_denominator(s, r))


def cycle_lower_bound(r: int, s: int) -> Decimal:
    """(1 - e1 - 3*e2) / (3*e1) with e1 = 1 - 3^r/2^s and
    e2 = 2^-((1 - log3(2)) s + 1).

    Meaningful as a floor only when 3^r/2^s is close to 1; for loose pairs
    the value can be negative and is returned as-is.
    """
    den = _cycle_denominator(s, r)

    def raw() -> Decimal:
        e1 = Decimal(den) / Decimal(1 << s)
        exponent = (1 - log3_2()) * s + 1
        e2 = Decimal(2) ** (-exponent)
        return (1 - e1 - 3 * e2) / (3 * e1)
    return _rounded(raw)


def matveev_constant_value() -> Decimal:
    """e * 2^3.5 * 30^5 * ln 3 to DIGITS significant digits."""
    return _rounded(lambda: (Decimal(1).exp() * (Decimal(2) ** Decimal("3.5"))
                             * (30 ** 5) * Decimal(3).ln()))


def matveev_constant() -> int:
    """The transcendence-theory constant rounded to the nearest integer."""
    return round(matveev_constant_value())  # half-even, whatever the decimal context


def matveev_log10_gap_bound(s: int) -> float:
    """log10 of the floor (e*s)^-C on 1 - 3^r/2^s, i.e. -C * log10(e*s).

    The raw floor underflows every fixed-width format, so only its log10 is
    returned, as a binary float.
    """
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    return -matveev_constant() * math.log10(math.e * s)


def stopping_number_bounds(m: int, r: int, s: int) -> tuple[Fraction, Fraction]:
    """Exact band for value/m of a stopping walk from odd m:

        3^r/2^s + U/(2^s m)  <=  value/m  <  3^r/2^s + ALPHA * U/(2^s m)

    with U = 3^(r-1) - 2^(r-1).  The ALPHA side is the observed envelope,
    not a theorem.
    """
    if m < 3 or not (m & 1):
        raise DomainError(f"m must be odd and >= 3, got {m}")
    base = Fraction(3 ** r, 1 << s)
    unit = Fraction(lower_unit_numerator(r), (1 << s) * m)
    return base + unit, base + ALPHA * unit


def ratio_record(s: int, r: int) -> RatioRecord:
    """The record of (s, r) with its cells at DIGITS.  A pair past
    RECORD_S_CAP or outside the descent window is refused, whichever half
    it fails."""
    check_cap("record at s =", s, RECORD_S_CAP)
    lower, upper = _window(s, r)
    if not upper:
        raise DomainError(f"r/s = {r}/{s} is not below log3(2)")
    if not lower:
        raise DomainError(f"r/s = {r}/{s} is not above (1 - 1/s) log3(2)")
    return RatioRecord(s=s, r=r, lower=_rounded(lambda: log3_2() * (s - 1) / s),
                       ratio=_rounded(lambda: Decimal(r) / s),
                       gap=_rounded(lambda: log3_2() - Decimal(r) / s),
                       log10_gap=_rounded(lambda: (log3_2() - Decimal(r) / s).log10()))


def gap_falls(prev: tuple[int, int], pair: tuple[int, int]) -> bool:
    """Whether the record pair (s, r) may follow (s0, r0): s rises and the gap
    log3(2) - r/s falls strictly.  Both gaps are positive inside the descent
    window, so the gap falls exactly when r/s rises; ratio_records emits its
    records by it and `verify` orders table4 rows by it."""
    (s0, r0), (s, r) = prev, pair
    return s > s0 and r * s0 > r0 * s


def ratio_records(s_min: int, s_max: int) -> list[RatioRecord]:
    """Scan s ascending with r = floor(s * log3(2)); emit a record whenever
    the gap log3(2) - r/s sets a new strict minimum (`gap_falls` from the last
    candidate, starting at (1, 0)) and (s, r) is inside the descent window.

    r comes from the integer fixed-point image of log3(2) at DIGITS digits;
    only candidates touch big powers or decimals, so scanning to a few
    hundred thousand is cheap.  s_max past RECORD_S_CAP is refused before
    the scan starts.  The window alone implies r = floor(s * log3(2)), so
    every emitted record is exact whatever the fixed-point precision.
    """
    if s_min < 2:
        raise DomainError(f"s_min must be >= 2, got {s_min}")
    if s_max < s_min:
        raise DomainError(f"s_max must be >= s_min, got {s_max} < {s_min}")
    check_cap("record at s =", s_max, RECORD_S_CAP)

    scale = 10 ** DIGITS
    scaled = int(_rounded(lambda: log3_2().scaleb(DIGITS)))

    records = []
    best = (1, 0)
    for s in range(s_min, s_max + 1):
        pair = (s, s * scaled // scale)
        if gap_falls(best, pair):
            with suppress(DomainError):  # outside the window: no record
                records.append(ratio_record(*pair))
            best = pair
    return records
