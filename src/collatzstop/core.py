"""The halved Collatz map and stopping-time walks with exact integers.

`walk` is the one loop that walks to descent.  Its rows become records in
one place, `_record`, which builds both the StoppingRecord of a walk that
descended and the CappedWalk of one that hit its step cap; scans and
`stopping_record` alike go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import CycleDetectedError, DomainError, StepLimitError, check_cap
from .sequences import ParitySequence, word_bits

DEFAULT_STEP_CAP = 10 ** 6


@dataclass(frozen=True)
class StoppingRecord:
    """The minimal descent of a start value.

    value is the first iterate strictly below n, reached after s steps of
    which r were odd; q is the exact parity word of those steps.
    """

    n: int
    s: int
    r: int
    q: ParitySequence
    value: int


@dataclass(frozen=True)
class CappedWalk:
    """A row whose walk hit the step cap before descending."""

    n: int
    steps: int
    r: int
    q_prefix: ParitySequence
    last_value: int


def _record(n: int, s: int, r: int, w: int, word: int, value: int,
            capped: bool) -> StoppingRecord | CappedWalk:
    """The record of one kernel row: n, then the tuple walk returns.

    The only place a StoppingRecord or a CappedWalk is built; w is unused,
    as neither record keeps it.
    """
    return (CappedWalk if capped else StoppingRecord)(
        n, s, r, ParitySequence(word_bits(word, s)), value)


def shortcut_step(n: int) -> tuple[int, int]:
    """One application of the map: (n/2, 0) for even n, ((3n+1)/2, 1) for odd."""
    if n < 1:
        raise DomainError(f"the map is defined on positive integers, got {n}")
    if n & 1:
        return (3 * n + 1) >> 1, 1
    return n >> 1, 0


def walk(n: int, cap: int) -> tuple[int, int, int, int, int, bool]:
    """Walk from n until the first value < n or until cap steps; never raises.

    Returns (s, r, w, word, value, capped) where w is the weighted sum of the
    walk's parity word and word is that word packed as an integer (leftmost
    step = most significant bit).  The weighted sum is grown incrementally:
    an odd step at length L maps w -> 3w + 2^L, an even step leaves it
    unchanged.  capped is true when the walk took cap steps without
    descending.  This is the only loop in the package that walks to descent.
    """
    v = n
    s = r = w = word = 0
    while v >= n:
        if s >= cap:
            return s, r, w, word, v, True
        if v & 1:
            w = 3 * w + (1 << s)
            v = (3 * v + 1) >> 1
            word = (word << 1) | 1
            r += 1
        else:
            v >>= 1
            word <<= 1
        s += 1
    return s, r, w, word, v, False


def descend(n: int) -> tuple[int, int, int, int, int]:
    """(s, r, w, word, value) of walk(n, DEFAULT_STEP_CAP), which must descend.

    The cap is read at each call, so every walk to descent stops at the one
    cap the scans and `verify` walk under too.  A walk that never drops below
    n can only end at the cap; only then is it searched for a return to n
    (CycleDetectedError) before StepLimitError reports the partial walk.
    """
    s, r, w, word, v, capped = walk(n, DEFAULT_STEP_CAP)
    if capped:
        for step, (u, _) in enumerate(islice(_iterates(n), s), 1):
            if u == n:
                raise CycleDetectedError(f"{n} returned to itself after {step} steps")
        raise StepLimitError(n, s, r, word_bits(word, s), v)
    return s, r, w, word, v


def stopping_record(n: int) -> StoppingRecord:
    """Minimal descent record for n >= 2.

    n = 1 is rejected: it sits on the 1-2-1 loop and never descends.  A walk
    that takes DEFAULT_STEP_CAP steps without descending raises
    StepLimitError carrying the partial walk.
    """
    if n < 2:
        raise DomainError(f"stopping is defined for n >= 2, got {n}")
    return _record(n, *descend(n), False)


def is_parity_prefix(q: ParitySequence, n: int) -> bool:
    """True iff the parities of the first s iterates of n equal q bit for bit.

    Steps the map itself, so it stays an independent check of the closed form.
    """
    if n < 1:
        raise DomainError(f"start value must be >= 1, got {n}")
    v = n
    for bit in q.bits:
        v, parity = shortcut_step(v)
        if bit != "01"[parity]:
            return False
    return True


def _iterates(n: int) -> Iterator[tuple[int, int]]:
    """(value, parity_bit) of each step from n, ending once an iterate
    reaches 1; for n = 1 it loops the 1-2-1 cycle forever."""
    v = n
    while True:
        v, b = shortcut_step(v)
        yield v, b
        if v == 1 and n != 1:
            return


def trajectory(n: int, limit: int) -> list[tuple[int, int]]:
    """Up to `limit` iterates of n as (value, parity_bit) pairs.

    Stops early once an iterate reaches 1; for n = 1 the walk simply loops
    the 1-2-1 cycle for exactly `limit` steps.  Truncation is visible in the
    result (length == limit without reaching 1), never an error.  A limit
    past DEFAULT_STEP_CAP, read at each call, is a LimitError: every row is
    kept, so the limit bounds the memory.
    """
    if n < 1:
        raise DomainError(f"the map is defined on positive integers, got {n}")
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    check_cap("trajectory limit", limit, DEFAULT_STEP_CAP)
    return list(islice(_iterates(n), limit))
