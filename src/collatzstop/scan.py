"""Parallel, checkpointed range scans of stopping records.

Work is cut into fixed chunks of the integer line; workers claim chunks and
the single writer emits rows in ascending n no matter how many workers run,
so output bytes are a pure function of the scan configuration.  A checkpoint
is a text ledger, one line per completed chunk, that lets an interrupted
scan resume and produce byte-identical remaining output.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .core import StoppingRecord, walk as _scan_one  # walks every scanned and verified row
from .errors import CheckpointError, DomainError
from .sequences import ParitySequence, lower_unit_numerator, weighted_sum

ALPHA = 40  # the empirical envelope constant checked during scans

CLASS_FILTERS = ("all", "12i+3", "12i+7", "12i+11")
_RESIDUE = {"all": None, "12i+3": 3, "12i+7": 7, "12i+11": 11}

CHECKPOINT_MAGIC = "collatzstop-scan"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ScanConfig:
    start: int
    end: int
    class_filter: str = "all"
    step_cap: int = 10 ** 5
    workers: int = 1
    checkpoint_path: str | None = None
    chunk_size: int = 10_000

    def __post_init__(self):
        if self.start < 2:
            raise DomainError(f"start must be >= 2, got {self.start}")
        if self.end < self.start:
            raise DomainError(f"end must be >= start, got {self.end} < {self.start}")
        if self.class_filter not in CLASS_FILTERS:
            raise DomainError(f"class_filter must be one of {CLASS_FILTERS}")
        if self.step_cap < 1:
            raise DomainError("step_cap must be >= 1")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.chunk_size < 1:
            raise DomainError("chunk_size must be >= 1")


@dataclass
class ScanStats:
    """Exact aggregates over a scan's rows.

    The ratio tracked is W / (3^(r-1) - 2^(r-1)), kept as an exact integer
    pair; rows with r < 2 (two-step reducers and evens) have a zero unit and
    are excluded from it.  violations lists only breaches of the empirical
    alpha envelope; a breach of a proven bound is a bug, not a statistic.
    """

    count: int = 0
    ratio_num: int = 0
    ratio_den: int = 1
    argmax_n: int | None = None
    violations: list[tuple[int, str]] = field(default_factory=list)

    @property
    def max_alpha_ratio(self) -> Fraction | None:
        if self.argmax_n is None:
            return None
        return Fraction(self.ratio_num, self.ratio_den)

    def _merge(self, chunk: tuple) -> None:
        count, num, den, argmax, violations = chunk
        self.count += count
        if argmax is not None and num * self.ratio_den > self.ratio_num * den:
            self.ratio_num, self.ratio_den, self.argmax_n = num, den, argmax
        self.violations.extend(violations)


@dataclass(frozen=True)
class CappedWalk:
    """A row whose walk hit the step cap before descending."""

    n: int
    steps: int
    r: int
    q_prefix: ParitySequence
    last_value: int


def _chunk_starts(lo: int, hi: int, residue: int | None) -> range:
    if residue is None:
        return range(lo, hi + 1)
    first = lo + (residue - lo) % 12
    return range(first, hi + 1, 12)


def _chunk_worker(args: tuple) -> tuple[list, tuple]:
    lo, hi, residue, cap = args
    rows = []
    count = 0
    best_num, best_den, argmax = 0, 1, None
    violations = []
    for n in _chunk_starts(lo, hi, residue):
        s, r, w, word, v, capped = _scan_one(n, cap)
        rows.append((n, s, r, w, word, v, capped))
        count += 1
        if not capped and r >= 2:
            unit = lower_unit_numerator(r)
            if w * best_den > best_num * unit:
                best_num, best_den, argmax = w, unit, n
            if w > ALPHA * unit:
                violations.append((n, "alpha"))
    return rows, (count, best_num, best_den, argmax, violations)


def _chunks(cfg: ScanConfig) -> list[tuple[int, int]]:
    return [(a, min(a + cfg.chunk_size - 1, cfg.end))
            for a in range(cfg.start, cfg.end + 1, cfg.chunk_size)]


def _chunk_results(cfg: ScanConfig, chunks: list[tuple[int, int]]) -> Iterator[tuple[list, tuple]]:
    """Results for the given chunks, in order, parallel when asked."""
    residue = _RESIDUE[cfg.class_filter]
    args = [(lo, hi, residue, cfg.step_cap) for lo, hi in chunks]
    if cfg.workers == 1 or len(args) <= 1:
        for a in args:
            yield _chunk_worker(a)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(cfg.workers) as pool:
        yield from pool.imap(_chunk_worker, args, chunksize=1)


def _row_to_record(row: tuple) -> StoppingRecord | CappedWalk:
    n, s, r, _, word, v, capped = row
    q = ParitySequence(format(word, "b").zfill(s))
    if capped:
        return CappedWalk(n=n, steps=s, r=r, q_prefix=q, last_value=v)
    return StoppingRecord(n=n, s=s, r=r, q=q, value=v)


def scan_range(cfg: ScanConfig, stats: ScanStats | None = None) -> Iterator[StoppingRecord | CappedWalk]:
    """Stream records for every in-filter n in [start, end], ascending.

    Pass a ScanStats to collect aggregates while streaming; it is complete
    once the iterator is exhausted.  Content is independent of worker count
    and chunk size.
    """
    for rows, chunk_stats in _chunk_results(cfg, _chunks(cfg)):
        if stats is not None:
            stats._merge(chunk_stats)
        for row in rows:
            yield _row_to_record(row)


def scan_collect(cfg: ScanConfig) -> tuple[list[StoppingRecord | CappedWalk], ScanStats]:
    """Eager scan_range, for ranges that comfortably fit in memory."""
    stats = ScanStats()
    records = list(scan_range(cfg, stats))
    return records, stats


def empirical_alpha(records: Iterable[StoppingRecord]) -> tuple[Fraction, int]:
    """Max of W / (3^(r-1) - 2^(r-1)) over the records, with its argmax.

    Records with r < 2 have a zero denominator unit and are skipped; an
    input with no eligible record raises DomainError.
    """
    best: Fraction | None = None
    argmax = None
    for rec in records:
        if rec.r < 2:
            continue
        ratio = Fraction(weighted_sum(rec.q), lower_unit_numerator(rec.r))
        if best is None or ratio > best:
            best, argmax = ratio, rec.n
    if best is None:
        raise DomainError("no record with r >= 2: the alpha ratio is undefined")
    return best, argmax


def _config_hash(cfg: ScanConfig, header: str) -> str:
    blob = json.dumps({
        "version": CHECKPOINT_VERSION,
        "start": cfg.start,
        "end": cfg.end,
        "class_filter": cfg.class_filter,
        "step_cap": cfg.step_cap,
        "chunk_size": cfg.chunk_size,
        "header": header,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CheckpointState:
    config_hash: str
    completed: list[tuple[int, int]]
    stats: ScanStats
    out_bytes: int


def checkpoint_save(path: str, config_hash: str, chunk: tuple[int, int],
                    stats: ScanStats, out_bytes: int) -> None:
    """Append one completed-chunk ledger line, creating the file on first use."""
    line = "{},{},{},{},{},{}\n".format(
        chunk[0], chunk[1], stats.count,
        f"{stats.ratio_num}/{stats.ratio_den}" if stats.argmax_n is not None else "-",
        stats.argmax_n if stats.argmax_n is not None else "-",
        out_bytes,
    )
    fresh = not os.path.exists(path)
    with open(path, "a", encoding="ascii") as fh:
        if fresh:
            fh.write(f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {config_hash}\n")
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def checkpoint_resume(path: str) -> CheckpointState:
    """Parse a checkpoint ledger back into resumable state."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}; delete the --checkpoint "
            "argument to start fresh") from exc
    if not lines:
        raise CheckpointError(f"checkpoint {path!r} is empty; delete it to start fresh")
    head = lines[0].split()
    if len(head) != 3 or head[0] != CHECKPOINT_MAGIC or head[1] != f"v{CHECKPOINT_VERSION}":
        raise CheckpointError(f"checkpoint {path!r} has an unrecognized header; "
                              "delete it to start fresh")
    state = CheckpointState(config_hash=head[2], completed=[], stats=ScanStats(), out_bytes=0)
    prev_hi = None
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise CheckpointError(f"checkpoint {path!r} has a corrupt ledger line: {ln!r}; "
                                  "delete it to start fresh")
        lo, hi, count, ratio, argmax, out_bytes = parts
        lo, hi = int(lo), int(hi)
        if prev_hi is not None and lo != prev_hi + 1:
            raise CheckpointError(f"checkpoint {path!r} has non-contiguous chunks; "
                                  "delete it to start fresh")
        prev_hi = hi
        state.completed.append((lo, hi))
        state.stats.count = int(count)
        if ratio != "-":
            num, den = ratio.split("/")
            state.stats.ratio_num, state.stats.ratio_den = int(num), int(den)
            state.stats.argmax_n = int(argmax)
        state.out_bytes = int(out_bytes)
    return state


def run_scan(cfg: ScanConfig, out_path: str, header: str,
             format_row: Callable[[tuple], str | None],
             max_chunks: int | None = None) -> tuple[ScanStats, bool]:
    """Scan to a CSV file, checkpointing each chunk; returns (stats, done).

    format_row maps a raw row tuple (n, s, r, w, word, value, capped) to one
    CSV line without the newline, or None to leave the row out of this
    schema.  With max_chunks set, the scan stops
    cleanly at a chunk boundary after that many chunks (done=False), which
    is also the supported cancellation point.  Resuming from a checkpoint
    reproduces the uninterrupted file byte for byte; stats do not count
    alpha violations inside already-completed chunks again.
    """
    chunks = _chunks(cfg)
    cfg_hash = _config_hash(cfg, header)
    stats = ScanStats()
    done_chunks = 0

    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        state = checkpoint_resume(cfg.checkpoint_path)
        if state.config_hash != cfg_hash:
            raise CheckpointError(
                f"checkpoint {cfg.checkpoint_path!r} belongs to a different scan "
                "(config hash mismatch); delete it or fix the arguments")
        if state.completed and state.completed != chunks[:len(state.completed)]:
            raise CheckpointError(
                f"checkpoint {cfg.checkpoint_path!r} chunks do not align with "
                "this scan; delete it to start fresh")
        if not os.path.exists(out_path):
            raise CheckpointError(
                f"checkpoint {cfg.checkpoint_path!r} exists but output {out_path!r} "
                "is missing; delete the checkpoint to start fresh")
        have = os.path.getsize(out_path)
        if have < state.out_bytes:
            raise CheckpointError(
                f"output {out_path!r} has {have} bytes but checkpoint "
                f"{cfg.checkpoint_path!r} records {state.out_bytes}; delete the "
                "checkpoint to start fresh")
        done_chunks = len(state.completed)
        stats = state.stats
        out = open(out_path, "r+b")
        out.truncate(state.out_bytes)  # drop any partial tail from an unclean stop
        out.seek(state.out_bytes)
        out_bytes = state.out_bytes
    else:
        out = open(out_path, "wb")
        out_bytes = out.write((header + "\n").encode("ascii"))

    todo = chunks[done_chunks:]
    if max_chunks is not None:
        todo = todo[:max_chunks]

    try:
        for (lo, hi), (rows, chunk_stats) in zip(todo, _chunk_results(cfg, todo)):
            lines = (format_row(row) for row in rows)
            payload = "".join(ln + "\n" for ln in lines if ln is not None).encode("ascii")
            out_bytes += out.write(payload)
            out.flush()
            os.fsync(out.fileno())
            stats._merge(chunk_stats)
            done_chunks += 1
            if cfg.checkpoint_path:
                checkpoint_save(cfg.checkpoint_path, cfg_hash, (lo, hi), stats, out_bytes)
    finally:
        out.close()
    return stats, done_chunks == len(chunks)
