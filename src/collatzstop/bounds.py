"""Ratio constraints, cycle-number candidates and bounds, and record ratios.

A word of length s with r odd steps can only witness a descent when
3r < 2s and 2^(s-1) < 3^r < 2^s; equivalently r/s is squeezed into
((1 - 1/s) log3(2), log3(2)).  Power comparisons are always exact big-int;
everything irrational runs in fixed-point decimals with a configurable
number of significant digits (default 50, or the COLLATZSTOP_DIGITS
environment variable), so no result depends on binary floating point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, LimitError
from .sequences import ParitySequence, lower_unit_numerator, weighted_sum

DEFAULT_DIGITS = 50
DIGITS_ENV_VAR = "COLLATZSTOP_DIGITS"

DEFAULT_CYCLE_CAP = 20
DEFAULT_RECORDS_START = 485


def default_digits() -> int:
    """Significant decimal digits used when an operation gets digits=None."""
    raw = os.environ.get(DIGITS_ENV_VAR)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise DomainError(f"{DIGITS_ENV_VAR} must be an integer, got {raw!r}") from None
    if digits < 30:
        raise DomainError(f"{DIGITS_ENV_VAR} must be >= 30, got {digits}")
    return digits


@lru_cache(maxsize=None)
def log3_2(digits: int) -> Decimal:
    """log base 3 of 2 to `digits` significant digits."""
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    with localcontext() as ctx:
        ctx.prec = digits + 10
        raw = Decimal(2).ln() / Decimal(3).ln()
    with localcontext() as ctx:
        ctx.prec = digits
        return +raw


@dataclass(frozen=True)
class RatioFlags:
    """The four descent constraints on an (s, r) pair."""

    linear: bool       # 3r < 2s
    power: bool        # 2^(s-1) < 3^r < 2^s, exact integers
    ratio_lower: bool  # (1 - 1/s) log3(2) < r/s
    ratio_upper: bool  # r/s < log3(2)

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
    """An (s, r) pair setting a new strict minimum of log3(2) - r/s."""

    s: int
    r: int
    gap: Decimal
    log10_gap: float
    lower_ok: bool
    ratio_ok: bool


def check_ratio_constraints(s: int, r: int, digits: int | None = None) -> RatioFlags:
    """Evaluate all four constraints; powers exactly, ratios in decimals."""
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    digits = default_digits() if digits is None else digits
    p3 = 3 ** r
    power = (1 << (s - 1)) < p3 < (1 << s)
    with localcontext() as ctx:
        ctx.prec = digits
        l32 = log3_2(digits)
        # cross-multiplied forms keep the comparisons division-free
        ratio_lower = l32 * (s - 1) < r
        ratio_upper = r < l32 * s
    return RatioFlags(
        linear=3 * r < 2 * s,
        power=power,
        ratio_lower=ratio_lower,
        ratio_upper=ratio_upper,
    )


def unique_s_for_r(r: int) -> int:
    """The unique s with 2^(s-1) < 3^r < 2^s, by exact comparison.

    Equality is impossible (3^r is odd), so s is the bit length of 3^r.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return (3 ** r).bit_length()


def cycle_candidate(q: ParitySequence) -> CycleCandidate:
    """Candidate fixed point of q's closed form, as an exact rational."""
    r, s = q.r, q.s
    if r < 1:
        raise DomainError("a cycle word needs at least one odd step")
    den = (1 << s) - 3 ** r
    if den <= 0:
        raise DomainError(f"2^{s} <= 3^{r}: fixed-point denominator not positive")
    num = weighted_sum(q)
    m1 = Fraction(num, den)
    return CycleCandidate(q=q, numerator=num, denominator=den, m1=m1,
                          is_integer=m1.denominator == 1)


def enumerate_cycle_candidates(s_max: int, cap: int = DEFAULT_CYCLE_CAP) -> list[CycleCandidate]:
    """All words of length <= s_max whose fixed point m1 is an integer >= 1.

    Every cycle of the map must contain an odd member (an all-even cycle
    would descend forever), so words are canonicalized to start with an odd
    step: only first-bit-1 words are searched.  The walk over the word tree
    carries (r, W) incrementally and prunes subtrees whose odd-step count
    already forces 3^r above 2^s_max.
    """
    if s_max < 1:
        raise DomainError(f"s_max must be >= 1, got {s_max}")
    if s_max > cap:
        raise LimitError(f"cycle search to length {s_max} exceeds the cap {cap}")
    pow3 = [3 ** i for i in range(s_max + 2)]
    top = 1 << s_max
    found: list[CycleCandidate] = []
    bits = ["1"]

    def walk(s: int, r: int, w: int) -> None:
        den = (1 << s) - pow3[r]
        if den > 0 and w >= den and w % den == 0:
            found.append(cycle_candidate(ParitySequence("".join(bits))))
        if s == s_max:
            return
        bits.append("0")
        walk(s + 1, r, w)
        bits.pop()
        if pow3[r + 1] < top:
            bits.append("1")
            walk(s + 1, r + 1, 3 * w + (1 << s))
            bits.pop()

    walk(1, 1, 1)
    found.sort(key=lambda c: (c.q.s, c.q.bits))
    return found


def cycle_upper_bound(r: int, s: int, alpha: Fraction | int = 40) -> Fraction:
    """alpha * (3^(r-1) - 2^(r-1)) / (2^s - 3^r), exact."""
    den = (1 << s) - 3 ** r
    if den <= 0:
        raise DomainError(f"2^{s} <= 3^{r}: bound denominator not positive")
    return Fraction(alpha) * Fraction(lower_unit_numerator(r), den)


def cycle_lower_bound(r: int, s: int, digits: int | None = None) -> Decimal:
    """(1 - e1 - 3*e2) / (3*e1) with e1 = 1 - 3^r/2^s and
    e2 = 2^-((1 - log3(2)) s + 1).

    Meaningful as a floor only when 3^r/2^s is close to 1; for loose pairs
    the value can be negative and is returned as-is.
    """
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    den = (1 << s) - 3 ** r
    if den <= 0:
        raise DomainError(f"2^{s} <= 3^{r}: gap not positive")
    digits = default_digits() if digits is None else digits
    with localcontext() as ctx:
        ctx.prec = digits + 10
        e1 = Decimal(den) / Decimal(1 << s)
        exponent = (1 - log3_2(digits + 10)) * s + 1
        e2 = Decimal(2) ** (-exponent)
        raw = (1 - e1 - 3 * e2) / (3 * e1)
    with localcontext() as ctx:
        ctx.prec = digits
        return +raw


def matveev_constant_value(digits: int = 40) -> Decimal:
    """e * 2^3.5 * 30^5 * ln 3 evaluated to `digits` significant digits."""
    if digits < 30:
        raise DomainError(f"digits must be >= 30 for a trustworthy rounding, got {digits}")
    with localcontext() as ctx:
        ctx.prec = digits + 10
        raw = (Decimal(1).exp() * (Decimal(2) ** Decimal("3.5"))
               * (30 ** 5) * Decimal(3).ln())
    with localcontext() as ctx:
        ctx.prec = digits
        return +raw


def matveev_constant() -> int:
    """The transcendence-theory constant rounded to the nearest integer."""
    with localcontext() as ctx:
        ctx.prec = 50
        return int(matveev_constant_value(40).to_integral_value())


def matveev_log10_gap_bound(s: int) -> float:
    """log10 of the floor (e*s)^-C on 1 - 3^r/2^s, i.e. -C * log10(e*s).

    The raw floor underflows every fixed-width format, so only its log10 is
    returned, as a binary float.
    """
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    return -matveev_constant() * math.log10(math.e * s)


def stopping_number_bounds(m: int, r: int, s: int,
                           alpha: Fraction | int = 40) -> tuple[Fraction, Fraction]:
    """Exact band for value/m of a stopping walk from odd m:

        3^r/2^s + U/(2^s m)  <=  value/m  <  3^r/2^s + alpha * U/(2^s m)

    with U = 3^(r-1) - 2^(r-1).  The alpha side is the observed envelope,
    not a theorem; alpha = 1 collapses the band onto the floor.
    """
    if m < 3 or not (m & 1):
        raise DomainError(f"m must be odd and >= 3, got {m}")
    base = Fraction(3 ** r, 1 << s)
    unit = Fraction(lower_unit_numerator(r), (1 << s) * m)
    return base + unit, base + Fraction(alpha) * unit


def _gap_raw(s: int, r: int, digits: int) -> Decimal:
    """log3(2) - r/s with ten guard digits beyond `digits`."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        return log3_2(digits + 10) - Decimal(r) / Decimal(s)


def _record_from(s: int, r: int, digits: int) -> RatioRecord:
    gap_raw = _gap_raw(s, r, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 10
        log10_raw = gap_raw.log10()
    with localcontext() as ctx:
        ctx.prec = digits
        gap = +gap_raw
        log10_gap = float(+log10_raw)
    flags = check_ratio_constraints(s, r, digits)
    return RatioRecord(s=s, r=r, gap=gap, log10_gap=log10_gap,
                       lower_ok=flags.ratio_lower, ratio_ok=flags.power)


def ratio_records(s_min: int, s_max: int, digits: int | None = None) -> list[RatioRecord]:
    """Scan s ascending with r = floor(s * log3(2)); emit a record whenever
    the gap log3(2) - r/s sets a new strict minimum and both the lower ratio
    bound and the exact power bracket hold.

    The scan itself runs on the integer fixed-point image of log3(2) at
    `digits` digits; only emitted records touch decimals or big powers, so
    scanning to a few hundred thousand is cheap.
    """
    if s_min < 2:
        raise DomainError(f"s_min must be >= 2, got {s_min}")
    if s_max < s_min:
        raise DomainError(f"s_max must be >= s_min, got {s_max} < {s_min}")
    digits = default_digits() if digits is None else digits
    if digits < 30:
        raise DomainError(f"digits must be >= 30, got {digits}")

    scale = 10 ** digits
    with localcontext() as ctx:
        ctx.prec = digits + 10
        scaled = int(log3_2(digits).scaleb(digits).to_integral_value())

    records = []
    best_frac = best_s = None
    for s in range(s_min, s_max + 1):
        r, frac = divmod(s * scaled, scale)
        # gap(s) = frac / (scale * s); strict-minimum test by cross product
        if best_frac is None or frac * best_s < best_frac * s:
            if frac < scaled:  # fractional part below log3(2): lower bound holds
                p3 = 3 ** r
                if (1 << (s - 1)) < p3 < (1 << s):
                    records.append(_record_from(s, r, digits))
            best_frac, best_s = frac, s
    return records
