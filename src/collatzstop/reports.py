"""Report builders, CSV/JSON rendering, and the row-by-row verify mode.

A row function returns typed cells: an int for every integer column, a str
for everything else (words, classes, marks, rationals, decimals).  The CSV
line is `csv_line(row)`, the cells joined by commas; a JSON object maps
each header name to its cell, so a JSON value is a number exactly when the
cell is an int.  Rendering rules, fixed so repeated runs are byte-identical:
  * integers and {1,0} words are written verbatim;
  * exact rationals are written as p/q (plain p when the denominator is 1);
  * approximate values (ratios meant for plotting, gap logarithms) are
    written as plain decimals with exactly 15 significant digits, trailing
    zeros kept and no exponent;
  * a ratio num/den is rounded half-even to 25 significant digits, then
    half-even to 15 (`render_ratio`, in integers only); fig2 and fig3
    render the cells that depend only on a row's stopping word once per
    word, through a bounded cache;
  * fields never need quoting, the separator is a comma, newline is LF.

Every CSV row is self-contained, so `verify` can re-derive each row from
its own key columns with the same row function, render it with the same
`csv_line`, and fail on any byte difference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from . import bounds as bnd
from . import residues as res
from . import scan as scn
# descend is unused here but must stay importable as reports.descend:
# perfbench/tracing.py wraps that name when it times a run
from .core import (DEFAULT_STEP_CAP, _iterates, descend, is_parity_prefix,  # noqa: F401
                   stopping_record, trajectory)
from .errors import DomainError, LimitError
from .sequences import (ParitySequence, apply_closed_form, lower_unit_numerator,
                        parse_sequence, sigma, weighted_sum, word_bits)

SIG_DIGITS = 15


def render_sig(d: Decimal) -> str:
    """Plain decimal string with exactly SIG_DIGITS significant digits."""
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = SIG_DIGITS
        d = +d
        d = d.quantize(Decimal((0, (1,), d.adjusted() - (SIG_DIGITS - 1))))
    return format(d, "f")


_GUARD = 10  # render_ratio rounds first to SIG_DIGITS + _GUARD significant digits
_P_LOW, _P_HIGH = 10 ** (SIG_DIGITS + _GUARD - 1), 10 ** (SIG_DIGITS + _GUARD)
_P_GUARD, _P_SIG = 10 ** _GUARD, 10 ** SIG_DIGITS


def render_ratio(num: int, den: int) -> str:
    """num/den as a SIG_DIGITS-digit plain decimal, in integers only.

    The quotient is rounded half-even to SIG_DIGITS + _GUARD significant digits,
    then that is rounded half-even to SIG_DIGITS: two roundings, as a Decimal
    division at that precision followed by render_sig made them, to the byte.
    """
    if not den:
        raise ZeroDivisionError("ratio with a zero denominator")
    if not num:
        return "0"
    sign = "-" if (num < 0) != (den < 0) else ""
    num, den = abs(num), abs(den)
    # e, the decimal exponent of the quotient's leading digit: estimated from
    # the bit lengths (1233/4096 is just below log10 2), then corrected exactly
    e = ((num.bit_length() - den.bit_length()) * 1233) >> 12
    while True:
        k = SIG_DIGITS + _GUARD - 1 - e
        n, d = (num * 10 ** k, den) if k >= 0 else (num, den * 10 ** -k)
        q, rem = divmod(n, d)
        if q < _P_LOW:
            e -= 1
        elif q >= _P_HIGH:
            e += 1
        else:
            break
    # half-even: up past the half, or at it when q is odd; a first rounding
    # that carries to 10^25 rounds to 10^15 next, which the carry below takes
    q += (2 * rem, q & 1) > (d, 0)
    q, rem = divmod(q, _P_GUARD)
    q += (2 * rem, q & 1) > (_P_GUARD, 0)
    if q == _P_SIG:
        q, e = _P_SIG // 10, e + 1
    digits, point = str(q), e + 1  # the value is q * 10^(point - SIG_DIGITS)
    if point >= SIG_DIGITS:
        return sign + digits + "0" * (point - SIG_DIGITS)
    if point > 0:
        return f"{sign}{digits[:point]}.{digits[point:]}"
    return f"{sign}0.{'0' * -point}{digits}"


def render_rational(f: Fraction) -> str:
    """Exact rational as p/q, or plain p for integers."""
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


Row = list[int | str]


@dataclass
class Report:
    """A CSV header and rows of typed cells."""

    header: str
    rows: Iterable[Row]


def csv_line(row: Row) -> str:
    """The CSV line of one row, without its newline: each cell as str() renders it."""
    # an f-string renders like str() but skips map's generic call of the str type,
    # which took twice as long per cell on CPython 3.11
    return ",".join([f"{cell}" for cell in row])


def write_csv(report: Report, fh) -> int:
    """Write the report as CSV bytes to a binary stream; returns row count."""
    fh.write((report.header + "\n").encode("ascii"))
    count = 0
    for row in report.rows:
        fh.write((csv_line(row) + "\n").encode("ascii"))
        count += 1
    return count


def write_jsonl(report: Report, fh) -> int:
    """One JSON object per row; int cells become numbers, str cells strings."""
    names = report.header.split(",")
    count = 0
    for row in report.rows:
        obj = dict(zip(names, row))
        fh.write((json.dumps(obj, separators=(",", ":")) + "\n").encode("ascii"))
        count += 1
    return count


# ---------------------------------------------------------------- table 1

_TABLE1_HEADER = "i,3i,3i+2,3i+1,12i+3,12i+7,12i+11,marks"


def _table1_row(i: int) -> Row:
    trio = (3 * i, 3 * i + 2, 3 * i + 1)
    marks = " ".join(f"{v}{'r' if v % 4 == 1 else 'b'}" for v in trio if v & 1)
    return [i, *trio, 12 * i + 3, 12 * i + 7, 12 * i + 11, marks]


def table1_report(rows: int) -> Report:
    """The three mod-3 columns and the three hard mod-12 columns, one row
    per i; odd entries are marked r (descends in two steps) or b (needs
    four or more)."""
    if rows < 1:
        raise DomainError(f"rows must be >= 1, got {rows}")
    return Report(_TABLE1_HEADER, [_table1_row(i) for i in range(rows)])


# ---------------------------------------------------------------- table 2

_TABLE2_HEADER = "n,q,F"


def _table2_row(row: tuple[int, str, ParitySequence | None, int]) -> Row:
    n, _, q, value = row
    return [n, q.bits if q else "", value]


def table2_report(max_n: int, q_cap: int = res.DEFAULT_Q_CAP) -> Report:
    """Stopping rows for every n <= max_n in 12i+3, then 12i+7, then 12i+11;
    the word is left blank when longer than q_cap."""
    return Report(_TABLE2_HEADER, [_table2_row(row) for row in res.table2_rows(max_n, q_cap)])


# ---------------------------------------------------------------- table 3

_TABLE3_HEADER = "s,r,3r,2s,3^r,2^s,class,m,q"


def _table3_row(s: int, m: int, q: ParitySequence) -> Row:
    r = q.r
    return [s, r, 3 * r, 2 * s, 3 ** r, 1 << s, f"12i+{m % 12}", m, q.bits]


def table3_report(s_min: int, s_max: int, cap: int = res.DEFAULT_CENSUS_CAP) -> Report:
    """Minimal-census rows grouped by length, then by mod-12 class, then m.

    The cap is checked before any census runs, so nothing is written for a
    window that cannot complete.
    """
    if s_min < 1 or s_max < s_min:
        raise DomainError(f"need 1 <= s_min <= s_max, got ({s_min}, {s_max})")
    if s_max > cap:
        raise LimitError(f"census of length {s_max} exceeds the cap {cap}")

    def rows() -> Iterator[Row]:
        for s in range(s_min, s_max + 1):
            # sorting is stable, so m stays ascending within each class
            for m, q in sorted(res.enumerate_minimal(s, cap), key=lambda mq: mq[0] % 12):
                yield _table3_row(s, m, q)

    return Report(_TABLE3_HEADER, rows())


# ---------------------------------------------------------------- table 4

_TABLE4_HEADER = "s,r,lower,ratio,log3_2,log10_gap"


def _table4_row(s: int, r: int, digits: int) -> Row:
    gap = bnd._gap_raw(s, r, digits)
    if gap <= 0:
        raise DomainError(f"r/s = {r}/{s} is not below log3(2)")
    with localcontext() as ctx:
        ctx.prec = digits
        gap = +gap  # the record's gap: log3(2) - r/s rounded to `digits`
        l32 = bnd.log3_2(digits)
        lower = l32 * (s - 1) / s
        ratio = Decimal(r) / Decimal(s)
        log10_gap = gap.log10()
    return [s, r, render_sig(lower), render_sig(ratio), render_sig(l32), render_sig(log10_gap)]


def table4_report(s_max: int, digits: int | None = None,
                  s_min: int = bnd.DEFAULT_RECORDS_START) -> Report:
    digits = bnd.default_digits() if digits is None else digits
    records = bnd.ratio_records(s_min, s_max, digits)
    return Report(_TABLE4_HEADER, [_table4_row(rec.s, rec.r, digits) for rec in records])


# ---------------------------------------------------------------- cycles

_CYCLES_HEADER = "s,r,q,numerator,denominator,m1,alpha,m1_upper"


def _cycles_row(cand: bnd.CycleCandidate, alpha: Fraction) -> Row:
    upper = bnd.cycle_upper_bound(cand.q.r, cand.q.s, alpha)
    return [cand.q.s, cand.q.r, cand.q.bits, cand.numerator, cand.denominator,
            render_rational(cand.m1), render_rational(alpha), render_rational(upper)]


def cycles_report(s_max: int, alpha: Fraction | int = bnd.ALPHA,
                  cap: int = bnd.DEFAULT_CYCLE_CAP) -> Report:
    alpha = bnd.envelope_alpha(alpha)  # checked before any row, so nothing is written
    return Report(_CYCLES_HEADER, [_cycles_row(cand, alpha)
                                   for cand in bnd.enumerate_cycle_candidates(s_max, cap)])


# ---------------------------------------------------------------- bounds

_BOUNDS_HEADER = "r,s,alpha,pow_ratio,m1_upper,m1_lower,lower_positive"


def _bounds_row(r: int, alpha: Fraction, digits: int) -> Row:
    s = bnd.unique_s_for_r(r)
    upper = bnd.cycle_upper_bound(r, s, alpha)
    lower = bnd.cycle_lower_bound(r, s, digits)
    return [r, s, render_rational(alpha), render_ratio(3 ** r, 1 << s),
            render_ratio(upper.numerator, upper.denominator), render_sig(lower),
            int(lower > 0)]


def bounds_report(r_max: int, alpha: Fraction | int = bnd.ALPHA,
                  digits: int | None = None) -> Report:
    """Cycle-number bound curves for r = 1 .. r_max at each r's unique s.

    The arguments are checked before any row is built, so nothing is
    written for a report that cannot complete.
    """
    if r_max < 1:
        raise DomainError(f"r must be >= 1, got {r_max}")
    digits = bnd.default_digits() if digits is None else digits
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    alpha = bnd.envelope_alpha(alpha)
    return Report(_BOUNDS_HEADER, (_bounds_row(r, alpha, digits) for r in range(1, r_max + 1)))


# ---------------------------------------------------------------- scans

_SCAN_HEADER = "n,class,s,r,q,value,capped"
_FIG2_HEADER = "n,s,r,r_over_s,pow_ratio"
_FIG3_HEADER = "m,s,r,pow_ratio,sigma,lower_unit,alpha_ratio,F_over_m"


# the class cell of n >= 1, indexed by n % 12: the mod-12 class of an odd n,
# the mod-3 class of an even one (12..23 stand in for the residues 0..11,
# since classify starts at 1)
_CLASS_CELLS = tuple(lab.mod12 or lab.mod3 for lab in map(res.classify, range(12, 24)))


def format_scan_row(row: tuple) -> str:
    n, s, r, _, word, v, capped = row
    return ",".join((str(n), _CLASS_CELLS[n % 12], str(s), str(r),
                     word_bits(word, s), str(v), "1" if capped else "0"))


# The fig2 and fig3 cells that depend only on a row's stopping word are
# rendered once per word: about 4,000 distinct words in 25,000 fig3 rows of
# 12i+7 near 3*10^5.  The size bounds the memory (about 1.2 MB) on scans with
# many words; each key is exactly the values its cells are computed from.
_WORD_CELLS_CACHE = 4096


@lru_cache(maxsize=_WORD_CELLS_CACHE)
def _fig2_word_cells(s: int, r: int) -> str:
    return f"{render_ratio(r, s)},{render_ratio(3 ** r, 1 << s)}"


@lru_cache(maxsize=_WORD_CELLS_CACHE)
def _fig3_word_cells(s: int, r: int, w: int) -> str:
    unit = lower_unit_numerator(r)
    return ",".join((render_ratio(3 ** r, 1 << s), render_ratio(w, 1 << s),
                     render_ratio(unit, 1 << s), render_ratio(w, unit)))


def format_fig2_row(row: tuple) -> str | None:
    n, s, r, _, word, v, capped = row
    if capped or not (n & 1):
        return None
    return f"{n},{s},{r},{_fig2_word_cells(s, r)}"


def format_fig3_row(row: tuple) -> str | None:
    n, s, r, w, word, v, capped = row
    if capped or not (n & 1) or r < 2:
        return None
    return f"{n},{s},{r},{_fig3_word_cells(s, r, w)},{render_ratio(v, n)}"


# kind -> (header, formatter); the formatters are the scan hot path, so each
# builds its line directly from a raw row instead of going through csv_line
_SCAN_KINDS: dict[str, tuple] = {
    "scan": (_SCAN_HEADER, format_scan_row),
    "fig2": (_FIG2_HEADER, format_fig2_row),
    "fig3": (_FIG3_HEADER, format_fig3_row),
}


def scan_to_csv(kind: str, cfg: scn.ScanConfig, out_path: str,
                max_chunks: int | None = None) -> tuple[scn.ScanStats, bool]:
    """Run a checkpointed scan writing one of the scan-backed schemas."""
    header, formatter = _SCAN_KINDS[kind]
    return scn.run_scan(cfg, out_path, header, formatter, max_chunks)


# ---------------------------------------------------------------- single records

_STOP_HEADER = "n,s,r,q,value"
_TRAJ_HEADER = "n,step,value,parity"
_SEQ_HEADER = "q,s,r,weighted_sum,sigma"
_SEQ_APPLY_HEADER = _SEQ_HEADER + ",n,value,exact,prefix_match"


def _stop_row(n: int, step_cap: int) -> Row:
    rec = stopping_record(n, step_cap)
    return [rec.n, rec.s, rec.r, rec.q.bits, rec.value]


def stop_report(n: int, step_cap: int = DEFAULT_STEP_CAP) -> Report:
    return Report(_STOP_HEADER, [_stop_row(n, step_cap)])


def _traj_rows(n: int, steps: Iterable[tuple[int, int]]) -> Iterator[Row]:
    return ([n, i, v, b] for i, (v, b) in enumerate(steps, 1))


def traj_report(n: int, limit: int) -> Report:
    return Report(_TRAJ_HEADER, list(_traj_rows(n, trajectory(n, limit))))


def _seq_row(text: str, apply_n: int | None) -> Row:
    q = parse_sequence(text)
    row = [q.bits, q.s, q.r, weighted_sum(q), render_rational(sigma(q))]
    if apply_n is None:
        return row
    out = apply_closed_form(q, apply_n)
    return row + [apply_n, render_rational(out.value), int(out.exact),
                  int(is_parity_prefix(q, apply_n))]


def seq_report(text: str, apply_n: int | None = None) -> Report:
    return Report(_SEQ_HEADER if apply_n is None else _SEQ_APPLY_HEADER,
                  [_seq_row(text, apply_n)])


# ---------------------------------------------------------------- verify

class VerifyError(DomainError):
    """A CSV row does not match its re-derivation."""


def _walk_row(n: int, s: int) -> tuple:
    """Re-derive a raw scan row with one walk capped at the recorded length:
    it stops there exactly when the row did, and is capped there otherwise."""
    return (n, *scn._scan_one(n, s))


def _scan_kind_line(kind: str, n: int, s: int) -> str:
    if n < 2:
        raise DomainError(f"no scan starts below 2, got {n}")
    if s < 1:
        raise DomainError(f"no scan walk takes fewer than 1 step, got s = {s}")
    line = _SCAN_KINDS[kind][1](_walk_row(n, s))
    if line is None:
        raise DomainError(f"row for {n} should not appear in {kind}")
    return line


def _table3_check(s: int, m: int) -> Row:
    if m % 2 == 0 or m < 3 or m.bit_length() > s:
        raise DomainError(f"m = {m} is not an odd residue with 1 < m < 2^{s}")
    _, steps, _, _, word, _, capped = _walk_row(m, s)
    if steps != s or capped:
        raise DomainError(f"{m} does not stop in exactly {s} steps")
    return _table3_row(s, m, ParitySequence(word_bits(word, s)))


def verify_csv(path: str, digits: int | None = None, q_cap: int = res.DEFAULT_Q_CAP) -> int:
    """Re-derive every row of a CSV produced by this package.

    Streams the file and returns the number of verified rows; raises
    VerifyError naming the file and line on the first row that does not
    parse or whose line differs from the re-derived row's `csv_line`.  Each
    row is re-derived from its own key cells;
    traj rows must instead follow the walk from the first row's n, step
    1, 2, 3, ..., and may not go past the point where it reaches 1.  A traj
    file that stops early still verifies, since `traj --limit` writes one.
    Reports parameterized by precision or caps are re-derived at the given
    values, which must match the producing run.
    """
    digits = bnd.default_digits() if digits is None else digits
    traj_walk: Iterator[Row] | None = None  # traj only: the rows still expected

    def traj_row(c: list[str]) -> Row:
        nonlocal traj_walk
        if traj_walk is None:
            n = int(c[0])
            traj_walk = _traj_rows(n, _iterates(n))
        want = next(traj_walk, None)
        if want is None:
            raise DomainError(f"the walk from {c[0]} has already reached 1")
        return want

    rederive = {  # header -> key cells -> expected row, or line for the scan kinds
        _TABLE1_HEADER: lambda c: _table1_row(int(c[0])),
        _TABLE2_HEADER: lambda c: _table2_row(res.table2_row(int(c[0]), q_cap)),
        _TABLE3_HEADER: lambda c: _table3_check(int(c[0]), int(c[7])),
        _TABLE4_HEADER: lambda c: _table4_row(int(c[0]), int(c[1]), digits),
        _CYCLES_HEADER: lambda c: _cycles_row(
            bnd.cycle_candidate(parse_sequence(c[2])), Fraction(c[6])),
        _BOUNDS_HEADER: lambda c: _bounds_row(int(c[0]), Fraction(c[2]), digits),
        _SCAN_HEADER: lambda c: _scan_kind_line("scan", int(c[0]), int(c[2])),
        _FIG2_HEADER: lambda c: _scan_kind_line("fig2", int(c[0]), int(c[1])),
        _FIG3_HEADER: lambda c: _scan_kind_line("fig3", int(c[0]), int(c[1])),
        _STOP_HEADER: lambda c: _stop_row(int(c[0]), DEFAULT_STEP_CAP),
        _TRAJ_HEADER: traj_row,
        _SEQ_HEADER: lambda c: _seq_row(c[0], None),
        _SEQ_APPLY_HEADER: lambda c: _seq_row(c[0], int(c[5])),
    }
    # undecodable bytes stay in their cells, so they fail on their own line
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline()
        if not header:
            raise VerifyError(f"{path}: empty file")
        header = header.rstrip("\n")
        row_of = rederive.get(header)
        if row_of is None:
            raise VerifyError(f"{path}: unrecognized header {header!r}")
        count = 0
        for line_no, line in enumerate(fh, 2):
            got = line.rstrip("\n")
            try:
                want = row_of(got.split(","))
            except (ValueError, IndexError, ArithmeticError, LimitError) as exc:
                raise VerifyError(f"{path}:{line_no}: cannot re-derive row {got!r}: "
                                  f"{exc}") from None
            if not isinstance(want, str):
                want = csv_line(want)
            if got != want:
                raise VerifyError(f"{path}:{line_no}: row {got!r} does not re-derive; "
                                  f"expected {want!r}")
            count += 1
    return count
