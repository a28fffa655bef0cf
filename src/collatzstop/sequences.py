"""Parity words and the exact closed form for iterating the halved Collatz map.

A parity word records, left to right, the parity of each value along a walk:
"1" for an odd step n -> (3n+1)/2 and "0" for an even step n -> n/2.  Walking
s steps from n, with ones at (1-based) positions p_1 < ... < p_r, lands on

    (3^r * n + W) / 2^s      where  W = sum_i 3^(r-i) * 2^(p_i - 1),

an identity that holds as an exact rational for any word, and yields an
integer exactly when the word really is the parity word of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError, quote

WORD_CAP = 10 ** 5  # the longest word `seq` takes: its arithmetic is quadratic in the length


@dataclass(frozen=True)
class ParitySequence:
    """A finite word over {1,0}; the leftmost bit is the first step taken."""

    bits: str

    def __post_init__(self):
        if not self.bits:
            raise ParseError("parity word must be nonempty")
        if self.bits.strip("01"):
            raise ParseError(f"parity word may only contain 1 and 0: {quote(self.bits)}")

    @property
    def s(self) -> int:
        """Word length (total number of steps)."""
        return len(self.bits)

    @property
    def r(self) -> int:
        """Number of odd steps."""
        return self.bits.count("1")

    @property
    def one_positions(self) -> list[int]:
        """Ascending 1-based positions of the odd steps."""
        return [i + 1 for i, b in enumerate(self.bits) if b == "1"]

    def __str__(self) -> str:
        return self.bits


@dataclass(frozen=True)
class ExactOutcome:
    """A closed-form value plus whether it is an exact integer."""

    value: Fraction
    exact: bool


def parse_sequence(text: str) -> ParitySequence:
    """Parse a {1,0} word; raises ParseError on empty or foreign symbols."""
    return ParitySequence(text)


def word_bits(word: int, s: int) -> str:
    """The {1,0} text of a parity word of length s >= 1 packed as an integer,
    as the walk kernel packs it: the first step is the most significant bit."""
    return format(word, "b").zfill(s)


def weighted_sum(q: ParitySequence) -> int:
    """The additive term W of the closed form, an exact nonnegative integer.

    Grown along the word as the walk kernel grows it: an odd step at length
    L maps W -> 3W + 2^L, an even step leaves it unchanged.  Zero exactly
    when the word has no odd step.
    """
    w = 0
    for length, bit in enumerate(q.bits):
        if bit == "1":
            w = 3 * w + (1 << length)
    return w


def apply_closed_form(q: ParitySequence, n: int) -> ExactOutcome:
    """Evaluate (3^r * n + W) / 2^s as an exact reduced rational.

    Well defined for any word; the result is an integer iff 2^s divides the
    numerator, which happens exactly when q matches n's parities.
    """
    if n < 1:
        raise DomainError(f"start value must be >= 1, got {n}")
    value = Fraction(3 ** q.r * n + weighted_sum(q), 1 << q.s)
    return ExactOutcome(value=value, exact=value.denominator == 1)


def sigma(q: ParitySequence) -> Fraction:
    """The start-independent term W / 2^s of the closed form."""
    return Fraction(weighted_sum(q), 1 << q.s)


def lower_unit_numerator(r: int) -> int:
    """3^(r-1) - 2^(r-1): the conservative per-word floor used by every bound
    here (sigma floors, the alpha envelope, cycle-number bounds).

    Note this undershoots the true minimum of weighted_sum over words with r
    odd steps, 3^r - 2^r (all ones leading); the bound chain is built on this
    weaker unit.  Zero when r = 1.
    """
    if r < 1:
        raise DomainError(f"need at least one odd step, got r={r}")
    return 3 ** (r - 1) - 2 ** (r - 1)
