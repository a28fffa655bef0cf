"""Report builders, CSV/JSON rendering, and the row-by-row verify mode.

Rendering rules, fixed so repeated runs are byte-identical:
  * integers and {1,0} words are written verbatim;
  * exact rationals are written as p/q (plain p when the denominator is 1);
  * approximate values (ratios meant for plotting, gap logarithms) are
    written as plain decimals with exactly 15 significant digits;
  * fields never need quoting, the separator is a comma, newline is LF.

Every CSV row is self-contained, so `verify` can re-derive and re-render
each row from its own key columns and fail on any byte difference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Iterator

from . import bounds as bnd
from . import residues as res
from . import scan as scn
# descend is unused here but must stay importable as reports.descend:
# perfbench/tracing.py wraps that name when it times a run
from .core import DEFAULT_STEP_CAP, _iterates, descend, stopping_record, trajectory  # noqa: F401
from .errors import DomainError, LimitError
from .sequences import (ParitySequence, apply_closed_form, is_parity_prefix,
                        lower_unit_numerator, parse_sequence, sigma, weighted_sum)

SIG_DIGITS = 15


def render_sig(d: Decimal, sig: int = SIG_DIGITS) -> str:
    """Plain decimal string with exactly `sig` significant digits."""
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = sig
        d = +d
        d = d.quantize(Decimal((0, (1,), d.adjusted() - (sig - 1))))
    return format(d, "f")


def render_ratio(num: int, den: int, sig: int = SIG_DIGITS) -> str:
    """num/den as a `sig`-digit plain decimal."""
    with localcontext() as ctx:
        ctx.prec = sig + 10
        d = Decimal(num) / Decimal(den)
    return render_sig(d, sig)


def render_rational(f: Fraction) -> str:
    """Exact rational as p/q, or plain p for integers."""
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


@dataclass
class Report:
    """A header, per-column kinds for JSON typing, and rendered rows."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column name, kind: int|str|dec|rat)
    rows: Iterable[list[str]]

    @property
    def header(self) -> str:
        return ",".join(name for name, _ in self.columns)


def write_csv(report: Report, fh) -> int:
    """Write the report as CSV bytes to a binary stream; returns row count."""
    fh.write((report.header + "\n").encode("ascii"))
    count = 0
    for row in report.rows:
        fh.write((",".join(row) + "\n").encode("ascii"))
        count += 1
    return count


def write_jsonl(report: Report, fh) -> int:
    """One JSON object per row; int columns become numbers, the rest strings."""
    count = 0
    for row in report.rows:
        obj = {}
        for (name, kind), cell in zip(report.columns, row):
            obj[name] = int(cell) if kind == "int" and cell != "" else cell
        fh.write((json.dumps(obj, separators=(",", ":")) + "\n").encode("ascii"))
        count += 1
    return count


# ---------------------------------------------------------------- table 1

_TABLE1_COLUMNS = (("i", "int"), ("3i", "int"), ("3i+2", "int"), ("3i+1", "int"),
                   ("12i+3", "int"), ("12i+7", "int"), ("12i+11", "int"),
                   ("marks", "str"))


def _table1_row(i: int) -> list[str]:
    trio = (3 * i, 3 * i + 2, 3 * i + 1)
    marks = " ".join(f"{v}{'r' if v % 4 == 1 else 'b'}" for v in trio if v & 1)
    return [str(i), str(trio[0]), str(trio[1]), str(trio[2]),
            str(12 * i + 3), str(12 * i + 7), str(12 * i + 11), marks]


def table1_report(rows: int) -> Report:
    """The three mod-3 columns and the three hard mod-12 columns, one row
    per i; odd entries are marked r (descends in two steps) or b (needs
    four or more)."""
    if rows < 1:
        raise DomainError(f"rows must be >= 1, got {rows}")
    return Report("table1", _TABLE1_COLUMNS, [_table1_row(i) for i in range(rows)])


# ---------------------------------------------------------------- table 2

_TABLE2_COLUMNS = (("n", "int"), ("q", "str"), ("F", "int"))


def _table2_row(row: tuple[int, str, ParitySequence | None, int]) -> list[str]:
    n, _, q, value = row
    return [str(n), q.bits if q else "", str(value)]


def table2_report(max_n: int, q_cap: int = 15) -> Report:
    """Stopping rows for every n <= max_n in 12i+3, then 12i+7, then 12i+11;
    the word is left blank when longer than q_cap."""
    return Report("table2", _TABLE2_COLUMNS,
                  [_table2_row(row) for row in res.table2_rows(max_n, q_cap)])


# ---------------------------------------------------------------- table 3

_TABLE3_COLUMNS = (("s", "int"), ("r", "int"), ("3r", "int"), ("2s", "int"),
                   ("3^r", "int"), ("2^s", "int"), ("class", "str"),
                   ("m", "int"), ("q", "str"))


def _table3_row(s: int, m: int, q: ParitySequence) -> list[str]:
    r = q.r
    return [str(s), str(r), str(3 * r), str(2 * s), str(3 ** r), str(1 << s),
            f"12i+{m % 12}", str(m), q.bits]


def table3_report(s_min: int, s_max: int, cap: int = res.DEFAULT_CENSUS_CAP) -> Report:
    """Minimal-census rows grouped by length, then by mod-12 class, then m.

    The cap is checked before any census runs, so nothing is written for a
    window that cannot complete.
    """
    if s_min < 1 or s_max < s_min:
        raise DomainError(f"need 1 <= s_min <= s_max, got ({s_min}, {s_max})")
    if s_max > cap:
        raise LimitError(f"census of length {s_max} exceeds the cap {cap}")

    def rows() -> Iterator[list[str]]:
        for s in range(s_min, s_max + 1):
            # sorting is stable, so m stays ascending within each class
            for m, q in sorted(res.enumerate_minimal(s, cap), key=lambda mq: mq[0] % 12):
                yield _table3_row(s, m, q)

    return Report("table3", _TABLE3_COLUMNS, rows())


# ---------------------------------------------------------------- table 4

_TABLE4_COLUMNS = (("s", "int"), ("r", "int"), ("lower", "dec"), ("ratio", "dec"),
                   ("log3_2", "dec"), ("log10_gap", "dec"))


def _table4_row(s: int, r: int, gap: Decimal, digits: int) -> list[str]:
    with localcontext() as ctx:
        ctx.prec = digits
        gap = +gap  # rounds a guard-digit gap; a record's gap is already rounded
        l32 = bnd.log3_2(digits)
        lower = l32 * (s - 1) / s
        ratio = Decimal(r) / Decimal(s)
        log10_gap = gap.log10()
    return [str(s), str(r), render_sig(lower), render_sig(ratio),
            render_sig(l32), render_sig(log10_gap)]


def table4_report(s_max: int, digits: int | None = None,
                  s_min: int = bnd.DEFAULT_RECORDS_START) -> Report:
    digits = bnd.default_digits() if digits is None else digits
    records = bnd.ratio_records(s_min, s_max, digits)
    rows = [_table4_row(rec.s, rec.r, rec.gap, digits) for rec in records]
    return Report("table4", _TABLE4_COLUMNS, rows)


# ---------------------------------------------------------------- cycles

_CYCLES_COLUMNS = (("s", "int"), ("r", "int"), ("q", "str"), ("numerator", "int"),
                   ("denominator", "int"), ("m1", "rat"), ("alpha", "rat"),
                   ("m1_upper", "rat"))


def _cycles_row(cand: bnd.CycleCandidate, alpha: Fraction) -> list[str]:
    upper = bnd.cycle_upper_bound(cand.q.r, cand.q.s, alpha)
    return [str(cand.q.s), str(cand.q.r), cand.q.bits, str(cand.numerator),
            str(cand.denominator), render_rational(cand.m1),
            render_rational(alpha), render_rational(upper)]


def cycles_report(s_max: int, alpha: Fraction | int = 40,
                  cap: int = bnd.DEFAULT_CYCLE_CAP) -> Report:
    alpha = Fraction(alpha)
    return Report("cycles", _CYCLES_COLUMNS,
                  [_cycles_row(cand, alpha)
                   for cand in bnd.enumerate_cycle_candidates(s_max, cap)])


# ---------------------------------------------------------------- bounds

_BOUNDS_COLUMNS = (("r", "int"), ("s", "int"), ("alpha", "rat"), ("pow_ratio", "dec"),
                   ("m1_upper", "dec"), ("m1_lower", "dec"), ("lower_positive", "int"))


def _bounds_row(r: int, alpha: Fraction, digits: int) -> list[str]:
    s = bnd.unique_s_for_r(r)
    upper = bnd.cycle_upper_bound(r, s, alpha)
    lower = bnd.cycle_lower_bound(r, s, digits)
    return [str(r), str(s), render_rational(alpha),
            render_ratio(3 ** r, 1 << s),
            render_ratio(upper.numerator, upper.denominator),
            render_sig(lower), "1" if lower > 0 else "0"]


def bounds_report(r_max: int, alpha: Fraction | int = 40,
                  digits: int | None = None) -> Report:
    """Cycle-number bound curves for r = 1 .. r_max at each r's unique s."""
    if r_max < 1:
        raise DomainError(f"r must be >= 1, got {r_max}")
    digits = bnd.default_digits() if digits is None else digits
    alpha = Fraction(alpha)
    return Report("bounds", _BOUNDS_COLUMNS,
                  (_bounds_row(r, alpha, digits) for r in range(1, r_max + 1)))


# ---------------------------------------------------------------- scans

_SCAN_COLUMNS = (("n", "int"), ("class", "str"), ("s", "int"), ("r", "int"),
                 ("q", "str"), ("value", "int"), ("capped", "int"))

_FIG2_COLUMNS = (("n", "int"), ("s", "int"), ("r", "int"), ("r_over_s", "dec"),
                 ("pow_ratio", "dec"))

_FIG3_COLUMNS = (("m", "int"), ("s", "int"), ("r", "int"), ("pow_ratio", "dec"),
                 ("sigma", "dec"), ("lower_unit", "dec"), ("alpha_ratio", "dec"),
                 ("F_over_m", "dec"))


def _class_cell(n: int) -> str:
    label = res.classify(n)
    return label.mod12 if label.mod12 is not None else label.mod3


def format_scan_row(row: tuple) -> str:
    n, s, r, _, word, v, capped = row
    return ",".join((str(n), _class_cell(n), str(s), str(r),
                     format(word, "b").zfill(s), str(v), "1" if capped else "0"))


def format_fig2_row(row: tuple) -> str | None:
    n, s, r, _, word, v, capped = row
    if capped or not (n & 1):
        return None
    return ",".join((str(n), str(s), str(r), render_ratio(r, s),
                     render_ratio(3 ** r, 1 << s)))


def format_fig3_row(row: tuple) -> str | None:
    n, s, r, w, word, v, capped = row
    if capped or not (n & 1) or r < 2:
        return None
    unit = lower_unit_numerator(r)
    return ",".join((str(n), str(s), str(r),
                     render_ratio(3 ** r, 1 << s),
                     render_ratio(w, 1 << s),
                     render_ratio(unit, 1 << s),
                     render_ratio(w, unit),
                     render_ratio(v, n)))


_SCAN_KINDS: dict[str, tuple] = {
    "scan": (_SCAN_COLUMNS, format_scan_row),
    "fig2": (_FIG2_COLUMNS, format_fig2_row),
    "fig3": (_FIG3_COLUMNS, format_fig3_row),
}


def scan_to_csv(kind: str, cfg: scn.ScanConfig, out_path: str,
                max_chunks: int | None = None) -> tuple[scn.ScanStats, bool]:
    """Run a checkpointed scan writing one of the scan-backed schemas."""
    columns, formatter = _SCAN_KINDS[kind]
    header = ",".join(name for name, _ in columns)
    return scn.run_scan(cfg, out_path, header, formatter, max_chunks)


# ---------------------------------------------------------------- single records

_STOP_COLUMNS = (("n", "int"), ("s", "int"), ("r", "int"), ("q", "str"),
                 ("value", "int"))

_TRAJ_COLUMNS = (("n", "int"), ("step", "int"), ("value", "int"), ("parity", "int"))

_SEQ_COLUMNS = (("q", "str"), ("s", "int"), ("r", "int"), ("weighted_sum", "int"),
                ("sigma", "rat"))

_SEQ_APPLY_COLUMNS = _SEQ_COLUMNS + (("n", "int"), ("value", "rat"),
                                     ("exact", "int"), ("prefix_match", "int"))


def _stop_row(n: int, step_cap: int) -> list[str]:
    rec = stopping_record(n, step_cap)
    return [str(rec.n), str(rec.s), str(rec.r), rec.q.bits, str(rec.value)]


def stop_report(n: int, step_cap: int = DEFAULT_STEP_CAP) -> Report:
    return Report("stop", _STOP_COLUMNS, [_stop_row(n, step_cap)])


def _traj_rows(n: int, steps: Iterable[tuple[int, int]]) -> Iterator[list[str]]:
    return ([str(n), str(i), str(v), str(b)] for i, (v, b) in enumerate(steps, 1))


def traj_report(n: int, limit: int) -> Report:
    return Report("traj", _TRAJ_COLUMNS, list(_traj_rows(n, trajectory(n, limit))))


def _seq_row(text: str, apply_n: int | None) -> list[str]:
    q = parse_sequence(text)
    row = [q.bits, str(q.s), str(q.r), str(weighted_sum(q)), render_rational(sigma(q))]
    if apply_n is None:
        return row
    out = apply_closed_form(q, apply_n)
    return row + [str(apply_n), render_rational(out.value),
                  "1" if out.exact else "0",
                  "1" if is_parity_prefix(q, apply_n) else "0"]


def seq_report(text: str, apply_n: int | None = None) -> Report:
    columns = _SEQ_COLUMNS if apply_n is None else _SEQ_APPLY_COLUMNS
    return Report("seq", columns, [_seq_row(text, apply_n)])


# ---------------------------------------------------------------- verify

class VerifyError(DomainError):
    """A CSV row does not match its re-derivation."""


def _walk_row(n: int, s: int) -> tuple:
    """Re-derive a raw scan row with one walk capped at the recorded length:
    it stops there exactly when the row did, and is capped there otherwise."""
    return (n, *scn._scan_one(n, s))


def _scan_kind_row(kind: str, n: int, s: int) -> list[str]:
    line = _SCAN_KINDS[kind][1](_walk_row(n, s))
    if line is None:
        raise DomainError(f"row for {n} should not appear in {kind}")
    return line.split(",")


def _table3_check(s: int, m: int) -> list[str]:
    _, steps, _, _, word, _, capped = _walk_row(m, s)
    if steps != s or capped:
        raise DomainError(f"{m} does not stop in exactly {s} steps")
    return _table3_row(s, m, ParitySequence(format(word, "b").zfill(s)))


def verify_csv(path: str, digits: int | None = None, q_cap: int = 15) -> int:
    """Re-derive every row of a CSV produced by this package.

    Streams the file and returns the number of verified rows; raises
    VerifyError naming the file and line on the first row that does not
    parse or does not match.  Each row is re-derived from its own key cells;
    traj rows must instead follow the walk from the first row's n, step
    1, 2, 3, ..., and may not go past the point where it reaches 1.  A traj
    file that stops early still verifies, since `traj --limit` writes one.
    Reports parameterized by precision or caps are re-derived at the given
    values, which must match the producing run.
    """
    digits = bnd.default_digits() if digits is None else digits
    traj_walk: Iterator[list[str]] | None = None  # traj only: the rows still expected

    def traj_row(c: list[str]) -> list[str]:
        nonlocal traj_walk
        if traj_walk is None:
            n = int(c[0])
            traj_walk = _traj_rows(n, _iterates(n))
        want = next(traj_walk, None)
        if want is None:
            raise DomainError(f"the walk from {c[0]} has already reached 1")
        return want

    rederive = [  # (columns, key cells -> expected row)
        (_TABLE1_COLUMNS, lambda c: _table1_row(int(c[0]))),
        (_TABLE2_COLUMNS, lambda c: _table2_row(res.table2_row(int(c[0]), q_cap))),
        (_TABLE3_COLUMNS, lambda c: _table3_check(int(c[0]), int(c[7]))),
        (_TABLE4_COLUMNS, lambda c: _table4_row(
            int(c[0]), int(c[1]), bnd._gap_raw(int(c[0]), int(c[1]), digits), digits)),
        (_CYCLES_COLUMNS, lambda c: _cycles_row(
            bnd.cycle_candidate(parse_sequence(c[2])), Fraction(c[6]))),
        (_BOUNDS_COLUMNS, lambda c: _bounds_row(int(c[0]), Fraction(c[2]), digits)),
        (_SCAN_COLUMNS, lambda c: _scan_kind_row("scan", int(c[0]), int(c[2]))),
        (_FIG2_COLUMNS, lambda c: _scan_kind_row("fig2", int(c[0]), int(c[1]))),
        (_FIG3_COLUMNS, lambda c: _scan_kind_row("fig3", int(c[0]), int(c[1]))),
        (_STOP_COLUMNS, lambda c: _stop_row(int(c[0]), DEFAULT_STEP_CAP)),
        (_TRAJ_COLUMNS, traj_row),
        (_SEQ_COLUMNS, lambda c: _seq_row(c[0], None)),
        (_SEQ_APPLY_COLUMNS, lambda c: _seq_row(c[0], int(c[5]))),
    ]
    # undecodable bytes stay in their cells, so they fail on their own line
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline()
        if not header:
            raise VerifyError(f"{path}: empty file")
        header = header.rstrip("\n")
        row_of = next((fn for columns, fn in rederive
                       if header == ",".join(name for name, _ in columns)), None)
        if row_of is None:
            raise VerifyError(f"{path}: unrecognized header {header!r}")
        count = 0
        for line_no, line in enumerate(fh, 2):
            got = line.rstrip("\n").split(",")
            try:
                want = row_of(got)
            except (ValueError, IndexError, ArithmeticError, LimitError) as exc:
                raise VerifyError(f"{path}:{line_no}: cannot re-derive row {got!r}: "
                                  f"{exc}") from None
            if got != want:
                raise VerifyError(f"{path}:{line_no}: row {got!r} does not re-derive; "
                                  f"expected {want!r}")
            count += 1
    return count
