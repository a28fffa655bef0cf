"""Residue classes of start values and the census of minimal stopping words.

Every positive integer falls in one of 3i / 3i+1 / 3i+2; odd numbers refine
to the six classes mod 12.  Odd numbers in 12i+1 / 12i+5 / 12i+9 descend in
exactly two steps; the remaining odd classes 12i+3 / 12i+7 / 12i+11 need at
least four.  For an odd m < 2^s whose stopping word q has length s, every
n = 2^s(3j+k) + m, k in {0,1,2}, shares the prefix q and descends the same
way, so one census row covers three arithmetic progressions of starters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_STEP_CAP, descend, walk
from .errors import DomainError, LimitError
from .sequences import ParitySequence, word_bits

DEFAULT_CENSUS_CAP = 24
DEFAULT_Q_CAP = 15  # table 2 blanks a word longer than this

_MOD3 = ("3i", "3i+1", "3i+2")

# mod-3 class of f(n) as a function of n mod 6
_TRANSITION = {0: "3i", 2: "3i+1", 4: "3i+2", 1: "3i+2", 3: "3i+2", 5: "3i+2"}


@dataclass(frozen=True)
class ClassLabel:
    """Residue classification; mod12 is present only for odd numbers."""

    mod3: str
    mod12: str | None


@dataclass(frozen=True)
class ResidueFamily:
    """The arithmetic progression j -> 2^s(3j+k) + m of odd starters."""

    s: int
    m: int
    k: int

    def __post_init__(self):
        if self.s < 1:
            raise DomainError(f"s must be >= 1, got {self.s}")
        if self.k not in (0, 1, 2):
            raise DomainError(f"k must be 0, 1 or 2, got {self.k}")
        if not (self.m & 1) or not 0 < self.m < (1 << self.s):
            raise DomainError(f"m must be odd and in (0, 2^{self.s}), got {self.m}")


def classify(n: int) -> ClassLabel:
    if n < 1:
        raise DomainError(f"classification is defined for n >= 1, got {n}")
    mod12 = f"12i+{n % 12}" if n & 1 else None
    return ClassLabel(mod3=_MOD3[n % 3], mod12=mod12)


def class_transition(n_mod_6: int) -> str:
    """Mod-3 class of f(n), determined by n mod 6 alone."""
    if n_mod_6 not in _TRANSITION:
        raise DomainError(f"residue must lie in [0, 5], got {n_mod_6}")
    return _TRANSITION[n_mod_6]


def two_step_reduce(n: int) -> int:
    """(3n+1)/4 for odd n = 1 mod 4, n > 1: two steps, always a descent
    into the class 3i+1."""
    if n <= 1 or not (n & 1) or n % 4 != 1:
        raise DomainError(f"need an odd n = 1 mod 4 with n > 1, got {n}")
    return (3 * n + 1) >> 2


def family_member(fam: ResidueFamily, j: int) -> int:
    if j < 0:
        raise DomainError(f"j must be >= 0, got {j}")
    return (1 << fam.s) * (3 * j + fam.k) + fam.m


def enumerate_minimal(s: int, cap: int = DEFAULT_CENSUS_CAP) -> list[tuple[int, ParitySequence]]:
    """All odd m < 2^s with stopping time exactly s, with their words,
    ascending in m.

    Brute force over the residues m = 3 mod 4, each walked at most s steps,
    so the census is its own oracle.  No m = 1 mod 4 is ever in a census:
    m = 1 never descends, every other one descends in exactly two steps
    (two_step_reduce), and the only odd m below 2^2 is 1.  Empty whenever
    no r satisfies 2^(s-1) < 3^r < 2^s.
    """
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    if s > cap:
        raise LimitError(f"census of length {s} exceeds the cap {cap}")
    out = []
    for m in range(3, 1 << s, 4):
        steps, _, _, word, _, capped = walk(m, s)
        if steps == s and not capped:
            out.append((m, ParitySequence(word_bits(word, s))))
    return out


def table2_row(n: int, q_cap: int = DEFAULT_Q_CAP) -> tuple[int, str, ParitySequence | None, int]:
    """Stopping row (n, class, q or None, value) of one n in 12i+3, 12i+7
    or 12i+11, the classes table 2 holds; q is None when the word is longer
    than q_cap."""
    if n < 1 or n % 12 not in (3, 7, 11):
        raise DomainError(f"table 2 holds only 12i+3, 12i+7 and 12i+11, not {n}")
    s, _, _, word, value = descend(n, DEFAULT_STEP_CAP)
    q = ParitySequence(word_bits(word, s)) if s <= q_cap else None
    return n, f"12i+{n % 12}", q, value


def table2_rows(max_n: int,
                q_cap: int = DEFAULT_Q_CAP) -> list[tuple[int, str, ParitySequence | None, int]]:
    """Stopping rows (n, class, q or None, value) for every n <= max_n in
    12i+3 / 12i+7 / 12i+11"""
    if max_n < 3:
        raise DomainError(f"max_n must be >= 3, got {max_n}")
    return [table2_row(n, q_cap) for res in (3, 7, 11) for n in range(res, max_n + 1, 12)]
