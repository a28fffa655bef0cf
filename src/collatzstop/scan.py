"""Parallel, checkpointed range scans of stopping records.

Work is cut into fixed chunks of the integer line; workers claim chunks and
the single writer emits rows in ascending n no matter how many workers run,
so output bytes are a pure function of the scan configuration.  A checkpoint
is a text ledger, one line per completed chunk, that lets an interrupted
scan resume and produce byte-identical remaining output.  Each ledger
line holds its chunk's own stats, so a resume rebuilds the scan's stats
with the same merge a live scan makes, and a running SHA-256 of the output
and the ledger so far, which a resume checks before it trusts the line.
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
from .bounds import ALPHA  # the envelope checked during scans; tests patch scan.ALPHA
from .sequences import ParitySequence, lower_unit_numerator, weighted_sum, word_bits

CLASS_FILTERS = ("all", "12i+3", "12i+7", "12i+11")
_RESIDUE = {"all": None, "12i+3": 3, "12i+7": 7, "12i+11": 11}

CHECKPOINT_MAGIC = "collatzstop-scan"
CHECKPOINT_VERSION = 3


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
    q = ParitySequence(word_bits(word, s))
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
    completed: list[tuple[int, int]] = field(default_factory=list)
    stats: ScanStats = field(default_factory=ScanStats)
    out_bytes: int = 0
    torn_bytes: int = 0  # length of a final ledger line that lacks its newline
    # the running SHA-256 after the last whole line, which later lines continue
    digest: object = field(default_factory=hashlib.sha256, repr=False, compare=False)


def _seal(digest, fields: list[str]) -> str:
    """Add a ledger line's own fields (all but its digest), joined by commas
    and ended by a newline, to the running hash; return the hex digest that
    line carries."""
    digest.update((",".join(fields) + "\n").encode("ascii"))
    return digest.hexdigest()


def checkpoint_save(path: str, config_hash: str, chunk: tuple[int, int],
                    chunk_stats: tuple, out_bytes: int, digest) -> None:
    """Append one completed chunk's ledger line, creating the file on first use.

    The line is `lo,hi,count,num/den,argmax|-,out_bytes,sha256[,n,...]`: the
    chunk's own stats as _chunk_worker returned them, the output size after
    the chunk, the running digest, and the n of each alpha violation in the
    chunk.  digest is the running SHA-256 of the output so far (header
    included) and of every earlier line's fields; this line's fields are
    added to it before the hex digest is taken.
    """
    count, num, den, argmax, violations = chunk_stats
    own = [str(f) for f in (*chunk, count, f"{num}/{den}",
                             "-" if argmax is None else argmax, out_bytes)]
    viol = [str(n) for n, _ in violations]
    line = ",".join([*own, _seal(digest, own + viol), *viol])
    fresh = not os.path.exists(path)
    with open(path, "a", encoding="ascii") as fh:
        if fresh:
            fh.write(f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {config_hash}\n")
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def checkpoint_resume(cfg: ScanConfig, header: str, out_path: str) -> CheckpointState:
    """Decide whether the ledger at cfg.checkpoint_path resumes this scan,
    writing the `header` schema to out_path, and parse it back into
    resumable state.

    The checks run cheapest first: the ledger's first line must name this
    scan; each whole line must parse and hold the scan's next chunk; the
    output must hold every byte the ledger records; and each line's digest
    must match the output prefix it vouches for.  A final line without its
    newline is an append torn by a crash: it is left out of the state and
    its length is reported as torn_bytes.  Neither file is changed.
    """
    path = cfg.checkpoint_path
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}; delete the --checkpoint "
            "argument to start fresh") from exc
    # one character per byte, so the torn tail's length is its length on disk
    lines = data.decode("ascii", errors="surrogateescape").split("\n")
    torn = lines.pop()  # "" unless the last append was torn
    want = f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} {_config_hash(cfg, header)}"
    if lines[:1] != [want]:  # a ledger torn inside its header has no whole line
        raise CheckpointError(
            f"checkpoint {path!r} has header {lines[0] if lines else torn!r}, expected {want!r}: "
            "it was written by another scan or version; fix the arguments or delete it")
    chunks = _chunks(cfg)
    state = CheckpointState(torn_bytes=len(torn))
    sealed = []  # per whole line: (out_bytes, its fields but the digest, the digest)
    for i, ln in enumerate(lines[1:]):
        try:
            cells = ln.split(",")
            lo, hi, count, ratio, argmax, out_bytes, hexdigest, *viol = cells
            num, den = ratio.split("/")
            lo, hi, count, num, den, out_bytes = map(int, (lo, hi, count, num, den, out_bytes))
            if count < 0 or den < 1 or out_bytes < state.out_bytes:
                raise ValueError
            chunk = (count, num, den, None if argmax == "-" else int(argmax),
                     [(int(n), "alpha") for n in viol])  # alpha: the one envelope scans check
        except ValueError:
            raise CheckpointError(f"checkpoint {path!r} has a corrupt ledger line: {ln!r}; "
                                  "delete it to start fresh") from None
        if chunks[i:i + 1] != [(lo, hi)]:
            raise CheckpointError(
                f"checkpoint {path!r} chunks do not align with this scan: line {i + 2} "
                f"holds {lo}..{hi}; delete it to start fresh")
        state.completed.append((lo, hi))
        state.stats._merge(chunk)  # the merge a live scan makes after each chunk
        state.out_bytes = out_bytes
        sealed.append((out_bytes, cells[:6] + viol, hexdigest))
    if not os.path.exists(out_path):
        raise CheckpointError(
            f"checkpoint {path!r} exists but output {out_path!r} "
            "is missing; delete the checkpoint to start fresh")
    have = os.path.getsize(out_path)
    if have < state.out_bytes:
        raise CheckpointError(
            f"output {out_path!r} has {have} bytes but checkpoint "
            f"{path!r} records {state.out_bytes}; delete the "
            "checkpoint to start fresh")
    with open(out_path, "rb") as out:
        for (lo, hi), (out_bytes, fields, hexdigest) in zip(state.completed, sealed):
            state.digest.update(out.read(out_bytes - out.tell()))
            if _seal(state.digest, fields) != hexdigest:
                raise CheckpointError(
                    f"checkpoint {path!r} does not match output {out_path!r} "
                    f"at chunk {lo}..{hi} (prefix digest differs); delete the "
                    "checkpoint to start fresh")
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
    reproduces the uninterrupted file byte for byte, and the same stats,
    violations included: the ledger holds each chunk's own stats, which
    resume merges as the live scan did.  A negative max_chunks, or a
    checkpoint that resolves to out_path, is a DomainError raised before
    either file is opened.
    """
    if max_chunks is not None and max_chunks < 0:
        raise DomainError(f"max_chunks must be >= 0, got {max_chunks}")
    if cfg.checkpoint_path and (os.path.realpath(cfg.checkpoint_path)
                                == os.path.realpath(out_path)):
        raise DomainError(f"the checkpoint and the output are the same file {out_path!r}")
    chunks = _chunks(cfg)
    cfg_hash = _config_hash(cfg, header)
    state = CheckpointState()
    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path):
        state = checkpoint_resume(cfg, header, out_path)
        if state.torn_bytes:  # cut the torn append, so its chunk is redone
            os.truncate(cfg.checkpoint_path,
                        os.path.getsize(cfg.checkpoint_path) - state.torn_bytes)
    stats, done_chunks = state.stats, len(state.completed)
    if done_chunks:
        out = open(out_path, "r+b")
        out.truncate(state.out_bytes)  # drop any partial tail from an unclean stop
        out.seek(state.out_bytes)
        out_bytes, digest = state.out_bytes, state.digest
    else:  # no chunk is on the ledger yet, so the output starts over
        out = open(out_path, "wb")
        head = (header + "\n").encode("ascii")
        out_bytes, digest = out.write(head), hashlib.sha256(head)

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
                digest.update(payload)
                checkpoint_save(cfg.checkpoint_path, cfg_hash, (lo, hi), chunk_stats,
                                out_bytes, digest)
    finally:
        out.close()
    return stats, done_chunks == len(chunks)
