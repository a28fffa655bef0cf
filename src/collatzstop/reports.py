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

`verify` re-derives each row with the same row function, renders it with
the same `csv_line` or scan formatter, and fails on any byte difference: a
row of most reports from its own key columns, a scan, fig2 or fig3 file by
replaying the one run its rows imply.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from . import bounds as bnd
from . import core
from . import residues as res
from . import scan as scn
# descend is unused here but must stay importable as reports.descend:
# perfbench/tracing.py wraps that name when it times a run
from .core import (_iterates, descend, is_parity_prefix, stopping_record,  # noqa: F401
                   trajectory)
from .errors import DomainError, LimitError, check_cap, quote
from .sequences import (WORD_CAP, ParitySequence, apply_closed_form, lower_unit_numerator,
                        parse_sequence, sigma, weighted_sum, word_bits)

SIG_DIGITS = 15


def render_sig(d: Decimal) -> str:
    """Plain decimal string with exactly SIG_DIGITS significant digits, rounded
    half-even in a fresh context, so the caller's decimal context cannot change it."""
    if d == 0:
        return "0"
    with localcontext(Context(prec=SIG_DIGITS)):
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
    if i < 0:
        raise DomainError(f"i must be >= 0, got {i}")
    trio = (3 * i, 3 * i + 2, 3 * i + 1)
    marks = " ".join(f"{v}{'r' if v % 4 == 1 else 'b'}" for v in trio if v & 1)
    return [i, *trio, 12 * i + 3, 12 * i + 7, 12 * i + 11, marks]


def table1_report(rows: int) -> Report:
    """The three mod-3 columns and the three hard mod-12 columns, one row
    per i; odd entries are marked r (descends in two steps) or b (needs
    four or more)."""
    if rows < 1:
        raise DomainError(f"rows must be >= 1, got {rows}")
    return Report(_TABLE1_HEADER, (_table1_row(i) for i in range(rows)))


# ---------------------------------------------------------------- table 2

_TABLE2_HEADER = "n,q,F"


def _table2_row(row: tuple[int, str, ParitySequence | None, int]) -> Row:
    n, _, q, value = row
    return [n, q.bits if q else "", value]


def table2_report(max_n: int) -> Report:
    """Stopping rows for every n <= max_n in 12i+3, then 12i+7, then 12i+11;
    the word is left blank when longer than residues.Q_CAP."""
    return Report(_TABLE2_HEADER, [_table2_row(row) for row in res.table2_rows(max_n)])


# ---------------------------------------------------------------- table 3

_TABLE3_HEADER = "s,r,3r,2s,3^r,2^s,class,m,q"


def _table3_row(s: int, m: int, q: ParitySequence) -> Row:
    r = q.r
    return [s, r, 3 * r, 2 * s, 3 ** r, 1 << s, f"12i+{m % 12}", m, q.bits]


def table3_report(s_min: int, s_max: int) -> Report:
    """Minimal-census rows grouped by length, then by mod-12 class, then m.

    residues.census checks the window and the cap before any census runs,
    so nothing is written for a window that cannot complete.
    """
    return Report(_TABLE3_HEADER, (_table3_row(s, m, q) for s, m, q in res.census(s_min, s_max)))


# ---------------------------------------------------------------- table 4

_TABLE4_HEADER = "s,r,lower,ratio,log3_2,log10_gap"


def _table4_row(rec: bnd.RatioRecord) -> Row:
    return [rec.s, rec.r, *map(render_sig, (rec.lower, rec.ratio, bnd.log3_2(), rec.log10_gap))]


def table4_report(s_max: int, s_min: int = bnd.DEFAULT_RECORDS_START) -> Report:
    return Report(_TABLE4_HEADER, [_table4_row(rec) for rec in bnd.ratio_records(s_min, s_max)])


# ---------------------------------------------------------------- cycles

_CYCLES_HEADER = "s,r,q,numerator,denominator,m1,alpha,m1_upper"


def _cycles_row(cand: bnd.CycleCandidate) -> Row:
    upper = bnd.cycle_upper_bound(cand.q.r, cand.q.s)
    return [cand.q.s, cand.q.r, cand.q.bits, cand.numerator, cand.denominator,
            str(cand.m1), str(bnd.ALPHA), str(upper)]


def cycles_report(s_max: int) -> Report:
    return Report(_CYCLES_HEADER, [_cycles_row(c) for c in bnd.enumerate_cycle_candidates(s_max)])


# ---------------------------------------------------------------- bounds

_BOUNDS_HEADER = "r,s,alpha,pow_ratio,m1_upper,m1_lower,lower_positive"


def _bounds_row(r: int) -> Row:
    check_cap("bound at r =", r, bnd.BOUND_R_CAP)
    s = bnd.unique_s_for_r(r)
    upper = bnd.cycle_upper_bound(r, s)
    lower = bnd.cycle_lower_bound(r, s)
    return [r, s, str(bnd.ALPHA), render_ratio(3 ** r, 1 << s),
            render_ratio(upper.numerator, upper.denominator), render_sig(lower),
            int(lower > 0)]


def bounds_report(r_max: int) -> Report:
    """Cycle-number bound curves for r = 1 .. r_max at each r's unique s,
    at the one envelope bounds.ALPHA.

    r_max is checked before any row is built, so nothing is written for a
    report that cannot complete.
    """
    if r_max < 1:
        raise DomainError(f"r must be >= 1, got {r_max}")
    check_cap("bound at r =", r_max, bnd.BOUND_R_CAP)
    return Report(_BOUNDS_HEADER, (_bounds_row(r) for r in range(1, r_max + 1)))


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


def _stop_row(n: int) -> Row:
    rec = stopping_record(n)
    return [rec.n, rec.s, rec.r, rec.q.bits, rec.value]


def stop_report(n: int) -> Report:
    return Report(_STOP_HEADER, [_stop_row(n)])


def _printable(rows: list[list]) -> list[list]:
    """rows, refused if a cell is an integer, or a rational with a part, of
    more digits than str() writes: sys.get_int_max_str_digits(), 0 meaning
    no limit, counted exactly.  The eager reports check their rows before the
    first is written, so a refused report writes nothing."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    top = 10 ** limit
    if limit and any(abs(c.numerator) >= top or c.denominator >= top
                     for row in rows for c in row if not isinstance(c, str)):
        raise DomainError(f"a cell would have more than {limit} digits, Python's int-to-str limit")
    return rows


def _traj_rows(n: int, steps: Iterable[tuple[int, int]]) -> Iterator[Row]:
    return ([n, i, v, b] for i, (v, b) in enumerate(steps, 1))


def traj_report(n: int, limit: int) -> Report:
    return Report(_TRAJ_HEADER, _printable(list(_traj_rows(n, trajectory(n, limit)))))


def _seq_row(text: str, apply_n: int | None) -> Row:
    q = parse_sequence(text)
    check_cap("parity word of length", q.s, WORD_CAP)
    row = [q.bits, q.s, q.r, weighted_sum(q), sigma(q)]
    if apply_n is not None:
        out = apply_closed_form(q, apply_n)
        row += [apply_n, out.value, int(out.exact), int(is_parity_prefix(q, apply_n))]
    # the rationals are rendered once the row is known to be printable
    return [str(c) if isinstance(c, Fraction) else c for c in _printable([row])[0]]


def seq_report(text: str, apply_n: int | None = None) -> Report:
    return Report(_SEQ_HEADER if apply_n is None else _SEQ_APPLY_HEADER,
                  [_seq_row(text, apply_n)])


# ---------------------------------------------------------------- verify

class VerifyError(DomainError):
    """A CSV row does not match its re-derivation."""


def _walk_row(n: int) -> tuple:
    """The raw scan row of n, re-derived by the producer's walk under the
    producer's cap, core.DEFAULT_STEP_CAP."""
    return (n, *scn._scan_one(n, core.DEFAULT_STEP_CAP))


_KIND_OF = {header: kind for kind, (header, _) in _SCAN_KINDS.items()}
_ONE_CLASS = {1 << k: k for k in scn._RESIDUE.values() if k is not None}  # n % 12 bits -> class


def _replayed(kind: str, path: str) -> Callable[[str], str]:
    """got -> the line that the one run a scan-kind file implies writes in
    got's place, each call the next line.

    Pass 1 reads each row's n, up to the first row that fails its own
    checks: n >= 2 and n rising.  The run the rows before it imply spans the
    first n to the last, in the one hard class every row lies in, or all.
    The calls replay that run by the producer's enumeration, walk, step cap
    and formatter, and parse got only when it differs.  Once the run is out,
    the next line is the row pass 1 stopped at, and its fault is raised.
    """
    first, last, seen, fault = None, 1, 0, None
    with open(path, encoding="ascii", errors="surrogateescape", newline="\n") as fh:
        next(fh)
        try:
            for line in fh:
                n = int(line.split(",", 1)[0])
                if n < 2:
                    raise DomainError(f"no scan starts below 2, got {n}")
                if n <= last:
                    raise DomainError(f"{n} does not follow {last}: n must rise")
                first, last, seen = first or n, n, seen | 1 << n % 12
        except ValueError as exc:
            fault = exc

    def run() -> Iterator[tuple[int, str]]:
        formatter, line = _SCAN_KINDS[kind][1], ""
        for m in scn._chunk_starts(first or 2, last, _ONE_CLASS.get(seen)):
            line = formatter(_walk_row(m))
            if line is not None:
                yield m, line
            elif m == first:  # the first row is refused, so walk no further
                return
        if line is not None and fault:  # the run wrote the last row: the fault is next
            raise fault

    rows = run()

    def line_for(got: str) -> str:
        m, want = next(rows, (None, None))
        if got != want:
            n = int(got.split(",", 1)[0])
            if m is None or m > n:
                raise DomainError(f"row for {n} should not appear in {kind}")
            if m < n:
                raise DomainError(f"{n} leaves out {m}: n must rise by the scan's one step")
        return want
    return line_for


def verify_csv(path: str) -> int:
    """Re-derive every row of a CSV produced by this package.

    Streams the file and returns the number of verified rows; raises
    VerifyError naming the file and line on the first row that does not
    parse or whose line differs from the re-derived row's `csv_line` (a CR
    before the LF is such a difference, since only LF ends a line), or on
    a last line without its LF.  Each
    row of the other reports is re-derived from its own key cells by the
    rule its producer uses (residues.census_word for table3,
    bounds.fixed_point for cycles, bounds.ratio_record for table4), under
    the producer's constants (core.DEFAULT_STEP_CAP on every walk and traj
    row; sequences.WORD_CAP; residues.Q_CAP, CENSUS_CAP; bounds.CYCLE_CAP,
    RECORD_S_CAP, BOUND_R_CAP; bounds.ALPHA in every cycles and bounds row),
    each length cap checked before the row's arithmetic starts.  Three
    rules span rows: traj rows must follow the walk from the first row's n,
    step 1, 2, 3, ..., and may not go past the point where it reaches 1 (a
    traj file that stops early still verifies, since `traj --limit` writes
    one); each table4 row after the first must
    follow the row before it by bounds.gap_falls; and a scan, fig2 or fig3
    file must be exactly what one run writes for the range and class its
    rows imply (`_replayed`).
    Whether a table4 row is a record from the producing `--s-min` on is
    not checked: any row inside the descent window can open a file.  The
    other reports are checked row by row, so a repeated row still verifies.
    """
    traj_walk: Iterator[Row] | None = None  # traj only: the rows still expected
    last_pair = (1, 0)  # table4 only: the last row's (s, r); ratio_records starts from (1, 0)

    def traj_row(c: list[str]) -> Row:
        nonlocal traj_walk
        if traj_walk is None:
            n = int(c[0])
            traj_walk = _traj_rows(n, _iterates(n))
        want = next(traj_walk, None)
        if want is None:
            raise DomainError(f"the walk from {c[0]} has already reached 1")
        check_cap("trajectory step", want[1], core.DEFAULT_STEP_CAP)
        return want

    def table4_row(c: list[str]) -> Row:
        nonlocal last_pair
        last, last_pair = last_pair, (int(c[0]), int(c[1]))
        want = _table4_row(bnd.ratio_record(*last_pair))  # its own faults show first
        if not bnd.gap_falls(last, last_pair):
            raise DomainError(f"{last_pair} does not follow {last}: s must rise and the gap must fall")
        return want

    rederive = {  # header -> key cells -> expected row
        _TABLE1_HEADER: lambda c: _table1_row(int(c[0])),
        _TABLE2_HEADER: lambda c: _table2_row(res.table2_row(int(c[0]))),
        _TABLE3_HEADER: lambda c: _table3_row(int(c[0]), int(c[7]),
                                              res.census_word(int(c[0]), int(c[7]))),
        _TABLE4_HEADER: table4_row,
        _CYCLES_HEADER: lambda c: _cycles_row(bnd.fixed_point(parse_sequence(c[2]))),
        _BOUNDS_HEADER: lambda c: _bounds_row(int(c[0])),
        _STOP_HEADER: lambda c: _stop_row(int(c[0])),
        _TRAJ_HEADER: traj_row,
        _SEQ_HEADER: lambda c: _seq_row(c[0], None),
        _SEQ_APPLY_HEADER: lambda c: _seq_row(c[0], int(c[5])),
    }
    # undecodable bytes stay in their cells, so they fail on their own line;
    # only LF ends a line, so a CR stays in its line, and no header or row
    # re-derives with one; only the last line can lack its LF
    with open(path, encoding="ascii", errors="surrogateescape", newline="\n") as fh:
        line_no, line = 1, fh.readline()  # a row's line number less 1 counts the rows
        if not line:
            raise VerifyError(f"{path}: empty file")
        header = line.rstrip("\n")
        kind, rule = _KIND_OF.get(header), rederive.get(header)
        if kind is None and rule is None:
            raise VerifyError(f"{path}:1: unrecognized header {quote(header)}")
        row_of = _replayed(kind, path) if kind else lambda got: csv_line(rule(got.split(",")))
        for line_no, line in enumerate(fh, 2):
            got = line.rstrip("\n")
            try:
                want = row_of(got)
            except (ValueError, IndexError, ArithmeticError, LimitError) as exc:
                raise VerifyError(f"{path}:{line_no}: cannot re-derive row {quote(got)}: "
                                  f"{exc}") from None
            if got != want:
                raise VerifyError(f"{path}:{line_no}: row {quote(got)} does not re-derive; "
                                  f"expected {quote(want)}")
        if not line.endswith("\n"):  # the last line, the header when no row follows
            raise VerifyError(f"{path}:{line_no}: line {quote(line)} does not end in LF")
    return line_no - 1
