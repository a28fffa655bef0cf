"""Parallel, checkpointed range scans of stopping records.

Work is cut into fixed chunks of the integer line; workers claim chunks and
the single writer emits rows in ascending n no matter how many workers run,
so output bytes are a pure function of the scan configuration.  A checkpoint
is a two-line snapshot, replaced whole after each chunk, that lets an
interrupted scan resume and produce byte-identical remaining output: the
chunks done, the scan's running stats, the output size and a SHA-256 of
that output prefix and the snapshot's other fields.  The snapshot is
written to a side file and renamed over the old one, so a crash leaves the
old snapshot or the new one, never a mix; the checkpoint path is resolved
first, so a symbolic link keeps pointing at the ledger it names.  A fresh
scan is a resume from the empty snapshot (no chunk, no stats, no output
byte), so every run opens, truncates and extends its output one way.
Workers return raw kernel rows; `scan_range` turns each into its record
with `core._record`, the one builder `stopping_record` uses too.  Chunks
are a range of their first n, so a scan builds no chunk before it runs it.
`_chunk_starts` is the one rule for which n a scan walks: `verify` replays
a scan, fig2 or fig3 file with it, so no other code decides which n such a
file holds.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NoReturn

from . import core  # core.DEFAULT_STEP_CAP is read at each scan, so it caps every walk
from .core import CappedWalk, StoppingRecord, _record, walk as _scan_one  # walks every scanned and verified row
from .errors import CheckpointError, DomainError, quote
from .bounds import ALPHA  # the envelope checked during scans; tests patch scan.ALPHA
from .sequences import lower_unit_numerator, weighted_sum

_RESIDUE = {"all": None, "12i+3": 3, "12i+7": 7, "12i+11": 11}
CLASS_FILTERS = tuple(_RESIDUE)

CHECKPOINT_MAGIC = "collatzstop-scan"
CHECKPOINT_VERSION = 5


@dataclass(frozen=True)
class ScanConfig:
    start: int
    end: int
    class_filter: str = "all"
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
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        if self.chunk_size < 1:
            raise DomainError("chunk_size must be >= 1")
        # a range of more chunks than sys.maxsize has no len()
        if (self.end - self.start) // self.chunk_size >= sys.maxsize:
            raise DomainError(f"a scan may have at most {sys.maxsize} chunks; raise chunk_size")


@dataclass
class ScanStats:
    """Exact aggregates over a scan's rows.

    count is the rows a scan holds: every n walked for `scan_range`, the
    lines the kind's formatter kept for `run_scan`.  The ratio tracked is
    W / (3^(r-1) - 2^(r-1)), kept as an exact integer pair; rows with r < 2
    (two-step reducers and evens) have a zero unit and are excluded from it.
    violations lists the n of each breach of the empirical alpha envelope,
    the only constraint a scan checks; a breach of a proven bound is a bug,
    not a statistic.
    """

    count: int = 0
    ratio_num: int = 0
    ratio_den: int = 1
    argmax_n: int | None = None
    violations: list[int] = field(default_factory=list)

    @property
    def max_alpha_ratio(self) -> Fraction | None:
        if self.argmax_n is None:
            return None
        return Fraction(self.ratio_num, self.ratio_den)

    def _merge(self, chunk: ScanStats) -> None:
        self.count += chunk.count
        if (chunk.argmax_n is not None
                and chunk.ratio_num * self.ratio_den > self.ratio_num * chunk.ratio_den):
            self.ratio_num, self.ratio_den = chunk.ratio_num, chunk.ratio_den
            self.argmax_n = chunk.argmax_n
        self.violations.extend(chunk.violations)


def _chunk_starts(lo: int, hi: int, residue: int | None) -> range:
    if residue is None:
        return range(lo, hi + 1)
    first = lo + (residue - lo) % 12
    return range(first, hi + 1, 12)


def _chunk_worker(args: tuple) -> tuple[list, ScanStats]:
    lo, hi, residue, cap = args
    rows = []
    best_num, best_den, argmax = 0, 1, None
    violations = []
    for n in _chunk_starts(lo, hi, residue):
        s, r, w, word, v, capped = _scan_one(n, cap)
        rows.append((n, s, r, w, word, v, capped))
        if not capped and r >= 2:
            unit = lower_unit_numerator(r)
            if w * best_den > best_num * unit:
                best_num, best_den, argmax = w, unit, n
            if w > ALPHA * unit:
                violations.append(n)
    return rows, ScanStats(len(rows), best_num, best_den, argmax, violations)


def _chunks(cfg: ScanConfig) -> range:
    """The first n of each chunk: a range, so no chunk is built before it runs."""
    return range(cfg.start, cfg.end + 1, cfg.chunk_size)


def _span(cfg: ScanConfig, lo: int) -> tuple[int, int]:
    """The (lo, hi) of the chunk that starts at lo."""
    return lo, min(lo + cfg.chunk_size - 1, cfg.end)


def _chunk_results(cfg: ScanConfig, chunks: range) -> Iterator[tuple[list, ScanStats]]:
    """Results for the given chunks, in order, parallel when asked."""
    args = ((*_span(cfg, lo), _RESIDUE[cfg.class_filter], core.DEFAULT_STEP_CAP) for lo in chunks)
    procs = min(cfg.workers, len(chunks), os.cpu_count() or 1)  # no idle workers, none past the CPUs
    if procs <= 1:
        yield from map(_chunk_worker, args)
        return
    with multiprocessing.get_context("fork").Pool(procs) as pool:
        yield from pool.imap(_chunk_worker, args, chunksize=1)


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
            yield _record(*row)


def scan_collect(cfg: ScanConfig) -> tuple[list[StoppingRecord | CappedWalk], ScanStats]:
    """Eager scan_range, for ranges that comfortably fit in memory."""
    stats = ScanStats()
    return list(scan_range(cfg, stats)), stats


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
        "start": cfg.start,
        "end": cfg.end,
        "class_filter": cfg.class_filter,
        "step_cap": core.DEFAULT_STEP_CAP,
        "chunk_size": cfg.chunk_size,
        "header": header,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _seal(digest, fields: list[str]) -> str:
    """The hex SHA-256 of the output prefix that digest has taken, followed
    by the state line's fields but its digest, joined by commas and ended by
    a newline; digest itself is left as it was."""
    sealed = digest.copy()
    sealed.update((",".join(fields) + "\n").encode("ascii"))
    return sealed.hexdigest()


def checkpoint_save(path: str, config_hash: str, done: int,
                    stats: ScanStats, out_bytes: int, digest) -> None:
    """Replace the ledger with the header line and one state line.

    The state line is `done,count,num/den,argmax|-,out_bytes,sha256[,n,...]`:
    the chunks done, the running stats after them (count being the rows
    written), the output size, the `_seal` of digest (the SHA-256 of the
    output so far, header included) and of the line's other fields, and
    the n of each alpha violation.  Both lines go to `<path>.tmp`, which is
    flushed, fsynced and renamed over path, so a crash leaves the old
    ledger or the new one; a lost rename only makes a resume redo a chunk.
    """
    own = [str(f) for f in (done, stats.count, f"{stats.ratio_num}/{stats.ratio_den}",
                             "-" if stats.argmax_n is None else stats.argmax_n, out_bytes)]
    viol = [str(n) for n in stats.violations]
    with open(path + ".tmp", "w", encoding="ascii") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {config_hash}\n")
        fh.write(",".join([*own, _seal(digest, own + viol), *viol]) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(path + ".tmp", path)


def checkpoint_resume(cfg: ScanConfig, header: str,
                      out_path: str) -> tuple[int, ScanStats, int, object]:
    """Decide whether the ledger at cfg.checkpoint_path resumes this scan,
    writing the `header` schema to out_path, and return what the resume
    continues from: (chunks done, the running stats after them, the output
    size, the SHA-256 of that output prefix).  A fresh scan starts from
    (0, ScanStats(), 0, hashlib.sha256()).

    The checks run cheapest first: the ledger's first line must name this
    scan; the rest must be one LF-ended state line that parses, with
    1 <= done <= the scan's chunks; the output must hold at least the bytes
    the line records; and the line's digest must match that output prefix.
    Each check after the header refuses in one form, which says to delete
    the ledger.  Neither file is changed.
    """
    path = cfg.checkpoint_path
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}; delete the --checkpoint "
            "argument to start fresh") from exc
    head, _, body = data.decode("ascii", errors="surrogateescape").partition("\n")
    want = f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {_config_hash(cfg, header)}"
    if head != want:
        raise CheckpointError(
            f"checkpoint {path!r} has header {quote(head)}, expected {want!r}: "
            "it was written by another scan or version; fix the arguments or delete it")

    def refuse(reason: str) -> NoReturn:
        raise CheckpointError(f"checkpoint {path!r} {reason}; delete it to start fresh") from None

    line, lf, rest = body.partition("\n")
    try:
        cells = line.split(",")
        done, count, ratio, argmax, out_bytes, hexdigest, *viol = cells
        num, den = ratio.split("/")
        done, count, num, den, out_bytes = map(int, (done, count, num, den, out_bytes))
        if (not lf or rest or count < 0 or den < 1 or out_bytes < 0
                or len(hexdigest) != 64 or hexdigest.strip("0123456789abcdef")):
            raise ValueError
        stats = ScanStats(count, num, den, None if argmax == "-" else int(argmax),
                          [int(n) for n in viol])
    except ValueError:
        refuse(f"has a corrupt ledger line: {quote(body)}")
    if not 1 <= done <= len(_chunks(cfg)):
        refuse(f"chunks do not align with this scan: it records {done} chunks done, "
               f"and the scan has {len(_chunks(cfg))}")
    if not os.path.exists(out_path):
        refuse(f"exists but output {out_path!r} is missing")
    have = os.path.getsize(out_path)
    if have < out_bytes:
        refuse(f"records {out_bytes} output bytes, but output {out_path!r} has {have}")
    digest = hashlib.sha256()
    with open(out_path, "rb") as out:
        for pos in range(0, out_bytes, 1 << 16):  # in 64 KiB blocks, so memory stays flat
            digest.update(out.read(min(1 << 16, out_bytes - pos)))
    if _seal(digest, cells[:5] + viol) != hexdigest:
        refuse(f"does not match output {out_path!r} after chunk {done} (prefix digest differs)")
    return done, stats, out_bytes, digest


def run_scan(cfg: ScanConfig, out_path: str, header: str,
             format_row: Callable[[tuple], str | None],
             max_chunks: int | None = None) -> tuple[ScanStats, bool]:
    """Scan to a CSV file, checkpointing each chunk; returns (stats, done).

    format_row maps a raw row tuple (n, s, r, w, word, value, capped) to one
    CSV line without the newline, or None to leave the row out of this
    schema; the stats count the lines it keeps, so their count, and the
    ledger's, is the file's rows.  With max_chunks set, the scan stops
    cleanly at a chunk boundary after that many chunks (done=False), which
    is also the supported cancellation point.  Resuming from a checkpoint
    reproduces the uninterrupted file byte for byte, and the same stats,
    violations included: the ledger holds the running stats after its last
    chunk.  The checkpoint path is resolved once, so the side file sits
    beside a link's target and the rename replaces the target.  A negative
    max_chunks, or an out_path that resolves to the checkpoint or to its
    side file `<checkpoint>.tmp`, is a DomainError raised before either
    file is opened.
    """
    if max_chunks is not None and max_chunks < 0:
        raise DomainError(f"max_chunks must be >= 0, got {max_chunks}")
    ck = cfg.checkpoint_path and os.path.realpath(cfg.checkpoint_path)  # a link stays a link
    if ck and os.path.realpath(out_path) in map(os.path.realpath, (ck, ck + ".tmp")):
        raise DomainError(f"the checkpoint and the output are the same file {out_path!r}: the "
                          f"output may be neither the checkpoint nor its side file {ck + '.tmp'!r}")
    chunks = _chunks(cfg)
    cfg_hash = _config_hash(cfg, header)
    done, stats, out_bytes, digest = 0, ScanStats(), 0, hashlib.sha256()  # the empty snapshot
    if ck and os.path.exists(ck):
        done, stats, out_bytes, digest = checkpoint_resume(cfg, header, out_path)
    out = open(out_path, "r+b" if done else "wb")
    out.truncate(out_bytes)  # drop any partial tail from an unclean stop
    out.seek(out_bytes)
    if not done:  # no chunk is on the ledger yet, so the output starts with its header
        head = (header + "\n").encode("ascii")
        out_bytes = out.write(head)
        digest.update(head)

    todo = chunks[done:][:max_chunks]

    try:
        for k, (rows, chunk_stats) in enumerate(_chunk_results(cfg, todo), done + 1):
            lines = (format_row(row) for row in rows)
            payload = "".join(ln + "\n" for ln in lines if ln is not None).encode("ascii")
            chunk_stats.count = payload.count(b"\n")  # the lines kept, not the n walked
            out_bytes += out.write(payload)
            out.flush()
            os.fsync(out.fileno())
            stats._merge(chunk_stats)
            if ck:
                digest.update(payload)
                checkpoint_save(ck, cfg_hash, k, stats, out_bytes, digest)
    finally:
        out.close()
    return stats, len(todo) == len(chunks) - done
