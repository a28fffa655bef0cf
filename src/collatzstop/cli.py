"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 domain error (bad values, failed
verification, caps), 3 persistence or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import reports
from .bounds import ALPHA, DEFAULT_RECORDS_START
from .core import DEFAULT_STEP_CAP
from .errors import (CheckpointError, CycleDetectedError, DomainError,
                     LimitError)
from .residues import DEFAULT_Q_CAP
from .scan import CLASS_FILTERS, ScanConfig


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _emit(report: reports.Report, args) -> int:
    writer = reports.write_jsonl if args.json else reports.write_csv
    if args.out:
        with open(args.out, "wb") as fh:
            writer(report, fh)
    else:
        writer(report, sys.stdout.buffer)
        sys.stdout.buffer.flush()
    return 0


def _report_command(sub, name: str, help: str, build) -> Parser:
    """A command that writes the report build(args) returns, as CSV or JSON
    lines, to --out or stdout; the caller adds the command's own arguments."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--json", action="store_true",
                   help="emit JSON objects (one per row) instead of CSV")
    p.set_defaults(func=lambda a: _emit(build(a), a))
    return p


def _scan_command(sub, kind: str, help: str, *, start: int, end: int, cls: str) -> None:
    """A checkpointed scan writing the `kind` schema to --out."""
    p = sub.add_parser(kind, help=help)
    p.add_argument("--start", type=int, default=start)
    p.add_argument("--end", type=int, default=end)
    p.add_argument("--class", dest="class_filter", choices=CLASS_FILTERS, default=cls)
    p.add_argument("--workers", type=int, default=ScanConfig.workers)
    p.add_argument("--checkpoint", help="ledger file enabling resume")
    p.add_argument("--step-cap", type=int, default=ScanConfig.step_cap)
    p.add_argument("--chunk-size", type=int, default=ScanConfig.chunk_size)
    p.add_argument("--max-chunks", type=int,
                   help="stop cleanly after this many chunks (resume later)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=lambda a: _run_scan(kind, a))


def build_parser() -> Parser:
    parser = Parser(prog="collatzstop",
                    description="Exact stopping-time analysis of the halved Collatz map")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _report_command(sub, "stop", "minimal descent record of one start value",
                        lambda a: reports.stop_report(a.n, a.step_cap))
    p.add_argument("n", type=int)
    p.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)

    p = _report_command(sub, "traj", "iterates of one start value",
                        lambda a: reports.traj_report(a.n, a.limit))
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, required=True)

    p = _report_command(sub, "seq", "facts about a parity word, optionally applied to n",
                        lambda a: reports.seq_report(a.q, a.apply_n))
    p.add_argument("q")
    p.add_argument("--apply", type=int, dest="apply_n")

    p = _report_command(sub, "table1", "mod-3 / mod-12 classification rows",
                        lambda a: reports.table1_report(a.rows))
    p.add_argument("--rows", type=int, required=True)

    p = _report_command(sub, "table2", "stopping rows for the hard odd classes",
                        lambda a: reports.table2_report(a.max_n, a.q_cap))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--q-cap", type=int, default=DEFAULT_Q_CAP,
                   help="blank the word when longer than this")

    p = _report_command(sub, "table3", "census of minimal stopping words by length",
                        lambda a: reports.table3_report(a.s_min, a.s_max))
    p.add_argument("--s-min", type=int, default=4)
    p.add_argument("--s-max", type=int, default=13)

    p = _report_command(sub, "table4", "record ratios closest to log3(2)",
                        lambda a: reports.table4_report(a.s_max, a.digits, a.s_min))
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--s-min", type=int, default=DEFAULT_RECORDS_START)
    p.add_argument("--digits", type=int, default=None)

    p = _report_command(sub, "cycles", "integer fixed-point candidates over all words",
                        lambda a: reports.cycles_report(a.s_max, a.alpha))
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--alpha", type=Fraction, default=Fraction(ALPHA))

    p = _report_command(sub, "bounds", "cycle-number bound curves for r = 1..R",
                        lambda a: reports.bounds_report(a.r_max, a.alpha, a.digits))
    p.add_argument("--r", dest="r_max", type=int, required=True)
    p.add_argument("--alpha", type=Fraction, default=Fraction(ALPHA))
    p.add_argument("--digits", type=int, default=None)

    _scan_command(sub, "scan", "stopping records over a range, to CSV",
                  start=2, end=10 ** 5, cls="all")
    _scan_command(sub, "fig2", "step-ratio observations for odd starters, to CSV",
                  start=3, end=10 ** 6, cls="all")
    _scan_command(sub, "fig3", "sigma, envelope and value ratios, to CSV",
                  start=7, end=2_400_007, cls="12i+7")

    p = sub.add_parser("verify", help="re-derive every row of a CSV produced here")
    p.add_argument("path")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--q-cap", type=int, default=DEFAULT_Q_CAP)
    p.set_defaults(func=_run_verify)

    return parser


def _run_scan(kind: str, args) -> int:
    cfg = ScanConfig(start=args.start, end=args.end, class_filter=args.class_filter,
                     step_cap=args.step_cap, workers=args.workers,
                     checkpoint_path=args.checkpoint, chunk_size=args.chunk_size)
    stats, done = reports.scan_to_csv(kind, cfg, args.out, args.max_chunks)
    ratio = stats.max_alpha_ratio
    print("rows={} max_alpha_ratio={} argmax_n={} complete={}".format(
        stats.count,
        f"{ratio.numerator}/{ratio.denominator}" if ratio is not None else "-",
        stats.argmax_n if stats.argmax_n is not None else "-",
        1 if done else 0))
    for n, kind_ in stats.violations:
        print(f"violation: n={n} constraint={kind_}")
    return 0


def _run_verify(args) -> int:
    count = reports.verify_csv(args.path, args.digits, args.q_cap)
    print(f"verified {count} rows")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, LimitError, CycleDetectedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
