"""The halved Collatz map and stopping-time walks with exact integers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import CycleDetectedError, DomainError, StepLimitError
from .sequences import ParitySequence

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


def descend(n: int, step_cap: int) -> tuple[int, int, int, int, int]:
    """(s, r, w, word, value) of walk(n, step_cap), which must descend.

    A walk that never drops below n can only end at the cap; only then is it
    searched for a return to n (CycleDetectedError) before StepLimitError
    reports the partial walk.
    """
    s, r, w, word, v, capped = walk(n, step_cap)
    if capped:
        u = n
        for step in range(1, s + 1):
            u, _ = shortcut_step(u)
            if u == n:
                raise CycleDetectedError(f"{n} returned to itself after {step} steps")
        raise StepLimitError(n, s, r, format(word, "b").zfill(s), v)
    return s, r, w, word, v


def stopping_record(n: int, step_cap: int = DEFAULT_STEP_CAP) -> StoppingRecord:
    """Minimal descent record for n >= 2.

    n = 1 is rejected: it sits on the 1-2-1 loop and never descends.  A walk
    that exceeds step_cap raises StepLimitError carrying the partial walk.
    """
    if n < 2:
        raise DomainError(f"stopping is defined for n >= 2, got {n}")
    s, r, _, word, value = descend(n, step_cap)
    q = ParitySequence(format(word, "b").zfill(s))
    return StoppingRecord(n=n, s=s, r=r, q=q, value=value)


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
    result (length == limit without reaching 1), never an error.
    """
    if n < 1:
        raise DomainError(f"the map is defined on positive integers, got {n}")
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    return list(islice(_iterates(n), limit))
