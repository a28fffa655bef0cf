"""Residue classes of start values and the census of minimal stopping words.

Every positive integer falls in one of 3i / 3i+1 / 3i+2; odd numbers refine
to the six classes mod 12.  Odd numbers in 12i+1 / 12i+5 / 12i+9 descend in
exactly two steps; the remaining odd classes 12i+3 / 12i+7 / 12i+11 need at
least four.  For an odd m < 2^s whose stopping word q has length s, every
n = 2^s(3j+k) + m, k in {0,1,2}, shares the prefix q and descends the same
way, so one census row covers three arithmetic progressions of starters.
The census's rules are decided here, for `table3` and `verify` alike:
`enumerate_minimal` finds the candidates of one length by the exact sieve
of residue classes mod 2^j (Terras 1976; Oliveira e Silva 2010), walking
only the classes that have not yet descended; `census` checks a window and
orders its rows; and one walk, `_minimal_word`, decides each row for the
census and for `census_word` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import descend, walk
from .errors import DomainError, check_cap
from .sequences import ParitySequence, word_bits

CENSUS_CAP = 24  # the sieve to depth 24 walks 367,697 living classes
Q_CAP = 15  # table 2 blanks a word longer than this

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


def _minimal_word(m: int, s: int) -> ParitySequence | None:
    """m's stopping word when m stops in exactly s steps, else None: one
    walk capped at s, which stops there exactly when m does."""
    steps, _, _, word, _, capped = walk(m, s)
    return ParitySequence(word_bits(word, s)) if steps == s and not capped else None


def _dying_classes(s: int) -> list[list[int]]:
    """The classes c mod 2^j, c = 3 mod 4, that die at depth j, for each
    j <= s: the sieve of Terras (1976) and Oliveira e Silva (2010), walked
    depth first over the classes that have not yet descended.

    A node (j, c, v, p) stands for T^j(c + 2^j k) = p k + v with p = 3^r,
    r the odd steps among the j; its lifts c and c + 2^j enter step j + 1
    from v and v + p.  A class dies once v < c: v = (3^r c + w) / 2^j with
    w >= 0, so then 3^r < 2^j as well, and every member has descended
    within j steps.  A dead class is not lifted further.
    """
    dying = [[] for _ in range(s + 1)]
    stack = [(2, 3, 8, 9)] if s > 2 else []  # T^2(3 + 4k) = 9k + 8
    while stack:
        j, c, v, p = stack.pop()
        for c, u in ((c, v), (c + (1 << j), v + p)):
            v1, p1 = ((3 * u + 1) >> 1, 3 * p) if u & 1 else (u >> 1, p)
            if v1 < c:
                dying[j + 1].append(c)
            elif j + 1 < s:
                stack.append((j + 1, c, v1, p1))
    return dying


def enumerate_minimal(s: int) -> list[tuple[int, ParitySequence]]:
    """All odd m < 2^s with stopping time exactly s, with their words,
    ascending in m.

    An m that stops in exactly s steps lies in a class that is alive at
    every depth j < s, as m itself has not descended, and that dies at s.
    So the classes dying at depth s are the only candidates, and
    _minimal_word decides each one: the walk, not the class, makes a row.
    No m = 1 mod 4 is ever in a census: m = 1 never descends, every other
    one descends in exactly two steps (two_step_reduce), and the only odd m
    below 2^2 is 1.  Empty whenever no r satisfies 2^(s-1) < 3^r < 2^s.
    """
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    check_cap("census of length", s, CENSUS_CAP)
    return [(m, q) for m in sorted(_dying_classes(s)[s])
            if (q := _minimal_word(m, s)) is not None]


def census(s_min: int, s_max: int) -> Iterator[tuple[int, int, ParitySequence]]:
    """The census rows (s, m, q) for s_min <= s <= s_max: grouped by s, then
    by mod-12 class, then ascending in m.  The window and the cap are checked
    here, before any census runs."""
    if s_min < 1 or s_max < s_min:
        raise DomainError(f"need 1 <= s_min <= s_max, got ({s_min}, {s_max})")
    check_cap("census of length", s_max, CENSUS_CAP)
    # sorting is stable, so m stays ascending within each class
    return ((s, m, q) for s in range(s_min, s_max + 1)
            for m, q in sorted(enumerate_minimal(s), key=lambda mq: mq[0] % 12))


def census_word(s: int, m: int) -> ParitySequence:
    """The word of the census row (s, m), refused unless the census of
    length s holds m: s past CENSUS_CAP, m not odd with 1 < m < 2^s, or m
    not stopping in exactly s steps.  `verify` checks a table3 row by it."""
    check_cap("census of length", s, CENSUS_CAP)
    if m % 2 == 0 or m < 3 or m.bit_length() > s:
        raise DomainError(f"m = {m} is not an odd residue with 1 < m < 2^{s}")
    if (q := _minimal_word(m, s)) is None:
        raise DomainError(f"{m} does not stop in exactly {s} steps")
    return q


def table2_row(n: int) -> tuple[int, str, ParitySequence | None, int]:
    """Stopping row (n, class, q or None, value) of one n in 12i+3, 12i+7
    or 12i+11, the classes table 2 holds; q is None when the word is longer
    than Q_CAP."""
    if n < 1 or n % 12 not in (3, 7, 11):
        raise DomainError(f"table 2 holds only 12i+3, 12i+7 and 12i+11, not {n}")
    s, _, _, word, value = descend(n)
    q = ParitySequence(word_bits(word, s)) if s <= Q_CAP else None
    return n, f"12i+{n % 12}", q, value


def table2_rows(max_n: int) -> list[tuple[int, str, ParitySequence | None, int]]:
    """Stopping rows (n, class, q or None, value) for every n <= max_n in
    12i+3 / 12i+7 / 12i+11"""
    if max_n < 3:
        raise DomainError(f"max_n must be >= 3, got {max_n}")
    return [table2_row(n) for res in (3, 7, 11) for n in range(res, max_n + 1, 12)]
