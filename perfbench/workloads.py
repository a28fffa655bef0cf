"""The benchmark's workloads: op lists built from a seed, with their checks.

Every scan window is shifted by ``12 * (seed % 1000)``: a multiple of 12
keeps each residue class, and so every row count, the same for any seed,
while the inputs differ.  The shift is at most 4% of the fig3 and scan
windows, so the work per row barely changes with the seed.

Every op runs in its own forked process (see ``run.py``); ``call`` runs
there and returns a small picklable value that the parent checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("fig3-hard", "scan-resume", "census")

# Window sizes per size: "full" is the benchmark, "tiny" the self-check.
SIZES = {
    "full": {"fig3_span": 299_997, "scan_chunk": 10_000, "scan_chunks": 30,
             "table3_s_max": 20, "table3_rows": 4402, "cycles_s_max": 20,
             "cycles_rows": 10, "table4_s_max": 302_000, "table4_rows": 27,
             "bounds_r": 300, "table2_max_n": 100_000},
    "tiny": {"fig3_span": 19_993, "scan_chunk": 500, "scan_chunks": 8,
             "table3_s_max": 12, "table3_rows": 55, "cycles_s_max": 12,
             "cycles_rows": 6, "table4_s_max": 3_000, "table4_rows": 3,
             "bounds_r": 30, "table2_max_n": 2_000},
}


def shift(seed: int) -> int:
    return 12 * (seed % 1000)


@dataclass
class Op:
    """One call into the package, and what its output must be."""

    label: str
    role: str                 # "produce" or "verify"
    workers: int
    rows: int                 # rows this op adds to its output, or verifies
    call: Callable[[], object]
    out: Path | None = None   # file the op writes
    file_rows: int | None = None      # data rows the file must hold afterwards
    summary: tuple[int, int] | None = None  # scan summary (rows=, complete=)
    same_as: str | None = None        # op whose output must be byte-identical
    seed_free: bool = False           # output is the same for every seed
    finish: Callable[[object], dict] | None = None  # untimed, in the op's process


def cli(argv: list) -> Callable[[], dict]:
    """``collatzstop.cli.main`` on argv, capturing what it prints."""
    argv = [str(a) for a in argv]

    def call() -> dict:
        from collatzstop import cli as cli_mod
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_mod.main(argv)
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return call


def collect(start: int, end: int, workers: int) -> Callable[[], tuple]:
    """``scan_collect`` plus ``empirical_alpha`` over its records."""

    def call() -> tuple:
        from collatzstop import scan
        records, stats = scan.scan_collect(
            scan.ScanConfig(start=start, end=end, workers=workers))
        alpha = scan.empirical_alpha(
            r for r in records if isinstance(r, scan.StoppingRecord))
        return records, stats, alpha
    return call


def summarize_collect(value: tuple) -> dict:
    """What the parent checks of a collect op: counts, the two alpha
    computations side by side, and a digest of every record."""
    records, stats, (ratio, argmax) = value
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec.n},{rec.s},{rec.r},{rec.q.bits},{rec.value}\n".encode())
    return {"count": len(records), "stats_count": stats.count,
            "alpha_agrees": stats.max_alpha_ratio == ratio and stats.argmax_n == argmax,
            "digest": h.hexdigest()}


def fig3_hard(seed: int, size: str, work: Path, nproc: int) -> list[Op]:
    """fig3 over 12i+7 at 1 and nproc workers, each output verified."""
    start = 7 + shift(seed)
    end = start + SIZES[size]["fig3_span"]
    rows = (end - start) // 12 + 1
    base = ["fig3", "--class", "12i+7", "--start", start, "--end", end]
    w1, wn = work / "fig3-w1.csv", work / "fig3-wN.csv"
    return [
        Op("fig3-w1", "produce", 1, rows, cli(base + ["--workers", 1, "--out", w1]),
           out=w1, file_rows=rows, summary=(rows, 1)),
        Op("verify-w1", "verify", 1, rows, cli(["verify", w1])),
        Op("fig3-wN", "produce", nproc, rows, cli(base + ["--workers", nproc, "--out", wn]),
           out=wn, file_rows=rows, summary=(rows, 1), same_as="fig3-w1"),
        Op("verify-wN", "verify", 1, rows, cli(["verify", wn])),
    ]


def scan_resume(seed: int, size: str, work: Path, nproc: int) -> list[Op]:
    """A checkpointed scan stopped at half its chunks, resumed and verified,
    then the same window uninterrupted at 1 worker."""
    chunk, chunks = SIZES[size]["scan_chunk"], SIZES[size]["scan_chunks"]
    start = 2 + shift(seed)
    rows = chunk * chunks
    half = chunk * (chunks // 2)
    base = ["scan", "--class", "all", "--start", start, "--end", start + rows - 1,
            "--chunk-size", chunk]
    resumed, whole = work / "scan-wN.csv", work / "scan-w1.csv"
    par = base + ["--workers", nproc, "--checkpoint", work / "scan-wN.ledger", "--out", resumed]
    return [
        Op("scan-stop", "produce", nproc, half,
           cli(par + ["--max-chunks", chunks // 2]),
           out=resumed, file_rows=half, summary=(half, 0)),
        Op("scan-resume", "produce", nproc, rows - half, cli(par),
           out=resumed, file_rows=rows, summary=(rows, 1)),
        Op("verify-resumed", "verify", 1, rows, cli(["verify", resumed])),
        Op("scan-w1", "produce", 1, rows,
           cli(base + ["--workers", 1, "--checkpoint", work / "scan-w1.ledger", "--out", whole]),
           out=whole, file_rows=rows, summary=(rows, 1), same_as="scan-resume"),
    ]


def census(seed: int, size: str, work: Path, nproc: int) -> list[Op]:
    """The exact searches, each verified, plus scan_collect at 1 and nproc workers."""
    sz = SIZES[size]
    max_n = sz["table2_max_n"] + shift(seed)
    table2_rows = sum((max_n - res) // 12 + 1 for res in (3, 7, 11))
    start = 2 + shift(seed)
    end = start + sz["scan_chunk"] * sz["scan_chunks"] - 1
    reports = [  # name, argv, rows, whether the output depends on the seed
        ("table3", ["table3", "--s-min", 4, "--s-max", sz["table3_s_max"]], sz["table3_rows"], False),
        ("cycles", ["cycles", "--s-max", sz["cycles_s_max"]], sz["cycles_rows"], False),
        ("table4", ["table4", "--s-max", sz["table4_s_max"]], sz["table4_rows"], False),
        ("bounds", ["bounds", "--r", sz["bounds_r"]], sz["bounds_r"], False),
        ("table2", ["table2", "--max-n", max_n], table2_rows, True),
    ]
    ops = []
    for name, argv, rows, seeded in reports:
        path = work / f"{name}.csv"
        ops.append(Op(name, "produce", 1, rows, cli(argv + ["--out", path]),
                      out=path, file_rows=rows, seed_free=not seeded))
        ops.append(Op(f"verify-{name}", "verify", 1, rows, cli(["verify", path])))
    rows = end - start + 1
    ops.append(Op("collect-w1", "produce", 1, rows, collect(start, end, 1),
                  finish=summarize_collect))
    ops.append(Op("collect-wN", "produce", nproc, rows, collect(start, end, nproc),
                  finish=summarize_collect, same_as="collect-w1"))
    return ops


BUILDERS = {"fig3-hard": fig3_hard, "scan-resume": scan_resume, "census": census}
