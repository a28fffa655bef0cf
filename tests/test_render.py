"""The integer renderer and the per-word cell caches against the Decimal
renderer they replaced, kept here as the oracle."""

import functools
import random
from decimal import Decimal, localcontext

import pytest

from collatzstop import reports
from collatzstop.core import DEFAULT_STEP_CAP, walk
from collatzstop.reports import format_fig2_row, format_fig3_row, render_ratio
from collatzstop.sequences import lower_unit_numerator


def oracle_ratio(num: int, den: int) -> str:
    """num/den divided in Decimal at 25 digits, then rounded to 15 and
    written in plain notation: the renderer's byte contract."""
    with localcontext() as ctx:
        ctx.prec = 25
        d = Decimal(num) / Decimal(den)
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 15
        d = +d
        d = d.quantize(Decimal((0, (1,), d.adjusted() - 14)))
    return format(d, "f")


def fig2_pairs(n: int, s: int, r: int, w: int, v: int) -> list[tuple[int, int]]:
    return [(r, s), (3 ** r, 1 << s)]


def fig3_pairs(n: int, s: int, r: int, w: int, v: int) -> list[tuple[int, int]]:
    unit = lower_unit_numerator(r)
    return [(3 ** r, 1 << s), (w, 1 << s), (unit, 1 << s), (w, unit), (v, n)]


def stopping_rows(ns):
    for n in ns:
        s, r, w, _, v, capped = walk(n, DEFAULT_STEP_CAP)
        assert not capped
        yield n, s, r, w, v


def report_pairs() -> list[tuple[int, int]]:
    """Every ratio cell of fig3 over 12i+7 in 7..60,000 and of fig2 over odd n < 20,000."""
    pairs = [p for row in stopping_rows(range(7, 60_001, 12)) for p in fig3_pairs(*row)]
    pairs += [p for row in stopping_rows(range(3, 20_000, 2)) for p in fig2_pairs(*row)]
    return pairs


def random_pairs(count: int) -> list[tuple[int, int]]:
    """(num, den) of 1 to 60 digits each, some num negative."""
    rng = random.Random(8)
    pairs = []
    for _ in range(count):
        num = rng.randrange(1, 10 ** rng.randint(1, 60))
        den = rng.randrange(1, 10 ** rng.randint(1, 60))
        pairs.append((-num if rng.random() < 0.1 else num, den))
    return pairs


def false_tie_pairs(count: int) -> list[tuple[int, int]]:
    """num/den within 10^-30 relative of a 16-digit d...d5 * 10^k, on either
    side: the 25-digit rounding makes such a value an exact tie at digit 16
    (or moves it off one), which one exact rounding would settle otherwise."""
    rng = random.Random(16)
    pairs = []
    for _ in range(count):
        tie = rng.randrange(10 ** 14, 10 ** 15) * 10 + 5   # 16 digits, ending in 5
        k = rng.randint(-40, 40)
        den = rng.randrange(1, 10 ** rng.randint(1, 20))
        scale = 10 ** 30                                   # 30 digits below the tie
        num = tie * den * scale * 10 ** max(k, 0) + rng.choice((-1, 1)) * rng.randrange(0, 10 ** 6)
        pairs.append((num, den * scale * 10 ** max(-k, 0)))
    return pairs


EDGE_PAIRS = [
    (99999999999999995, 10),            # the 15-digit rounding carries
    (10 ** 25 - 1, 10 ** 10),
    (10 ** 26 - 1, 1),                  # the 25-digit rounding carries, to 10^25
    (10 ** 25 - 5, 1),
    # false ties: the 25-digit rounding lands on ...5000000000 at digit 16
    (12345678901234549999999997, 1),    # from below; half-even then rounds up
    (12345678901234450000000003, 1),    # from above; half-even then rounds down
    (12345678901234650000000003, 10 ** 40),
    (3 ** 400, 2), (1, 3 ** 400), (2 ** 300, 3 ** 10),
    (0, 1), (0, 7), (0, -3), (5, 1), (1, 1), (2, 1), (10 ** 20, 1), (1, 4), (1, 3),
    (123456789012345, 1), (1234567890123456, 1), (10 ** 24, 1),
    (-7, 3), (7, -3), (-7, -3), (-1, 10 ** 30), (-(3 ** 400), 7),
]


@pytest.mark.parametrize("pairs", [
    pytest.param(EDGE_PAIRS, id="edges"),
    pytest.param(report_pairs(), id="fig2-fig3-cells"),
    pytest.param(random_pairs(20_000), id="random-1-60-digits"),
    pytest.param(false_tie_pairs(5_000), id="false-ties"),
])
def test_render_ratio_matches_decimal(pairs):
    bad = [(num, den) for num, den in pairs if render_ratio(num, den) != oracle_ratio(num, den)]
    assert bad == []


def test_render_ratio_examples():
    assert render_ratio(1, 4) == "0.250000000000000"
    assert render_ratio(99999999999999995, 10) == "10000000000000000"
    assert render_ratio(10 ** 20, 1) == "100000000000000000000"
    assert render_ratio(1, 10 ** 20) == "0.0000000000000000000100000000000000"
    assert render_ratio(-7, 3) == "-2.33333333333333"
    assert render_ratio(0, 5) == "0"
    with pytest.raises(ZeroDivisionError):
        render_ratio(1, 0)


@functools.cache  # unbounded, so the oracle itself never evicts
def oracle_cells(pairs: tuple) -> str:
    return ",".join(oracle_ratio(*p) for p in pairs)


def oracle_fig2(n, s, r, w, v) -> str:
    return f"{n},{s},{r},{oracle_cells(tuple(fig2_pairs(n, s, r, w, v)))}"


def oracle_fig3(n, s, r, w, v) -> str:
    *word_pairs, row_pair = fig3_pairs(n, s, r, w, v)
    return f"{n},{s},{r},{oracle_cells(tuple(word_pairs))},{oracle_ratio(*row_pair)}"


def test_word_cell_caches_match_oracle_under_eviction():
    """Every fig3 row of --class all over 3..150,000, and every fig2 row of odd
    n < 150,000: their 5,628 distinct words overflow the 4,096-entry caches."""
    reports._fig2_word_cells.cache_clear()
    reports._fig3_word_cells.cache_clear()
    for n in range(3, 150_001):
        s, r, w, word, v, capped = walk(n, DEFAULT_STEP_CAP)
        row = (n, s, r, w, word, v, capped)
        if n & 1:
            assert format_fig2_row(row) == oracle_fig2(n, s, r, w, v), n
        if n & 1 and r >= 2:
            assert format_fig3_row(row) == oracle_fig3(n, s, r, w, v), n
    assert reports._fig2_word_cells.cache_info().maxsize == 4096
    info = reports._fig3_word_cells.cache_info()
    assert info.maxsize == 4096 and info.misses > info.maxsize  # evictions ran
