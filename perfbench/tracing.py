"""Spans and call counts for one benchmark op, taken from outside the package.

Nothing under ``src/`` changes.  Inside the forked process that runs one op,
``install`` replaces the names the package looks up at call time (module
globals, the scan-kind table, ``os`` and ``open`` as seen by ``scan``, and
``ParitySequence.__post_init__``) with timed wrappers.  The process exits
after the op, so nothing is ever restored.

Every traced call is added to an edge ``(name, parent name)`` with its call
count, total time and self time (its duration minus its traced children).
Coarse boundaries (chunks, writes, fsyncs, ledger lines, verify, census
calls) are also kept as spans ``(id, parent id, name, start, end, self)``.
Per-row calls (render, format, walk) are kept only as edges: one span per
row would cost more memory than the op itself.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import types
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.words: set[tuple[int, int]] = set()
        self._stack = [[0, "op", 0.0]]  # per open call: span id, name, child seconds
        self._ids = itertools.count(1)

    def timed(self, name: str, fn, keep: bool = False):
        """fn, adding each call to the edge (name, caller); with keep, also a span.

        Written out in one function: it wraps every rendered row, so each
        extra call here shows in the trace overhead.
        """
        stack, edges, spans, ids = self._stack, self.edges, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids) if keep else 0, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent[2] += dur
                edge = edges.get((name, parent[1]))
                if edge is None:
                    edge = edges[(name, parent[1])] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[2]
                if keep:
                    spans.append((frame[0], parent[0], name, start, end, dur - frame[2]))
        return wrapper

    def payload(self) -> dict:
        return {"spans": self.spans,
                "edges": [[n, p, *v] for (n, p), v in self.edges.items()],
                "counts": dict(self.counts, distinct_words=len(self.words))}


class _TracedFile:
    """The scan output file: writes, flushes and the resume reposition are spans."""

    def __init__(self, fh, tracer: Tracer) -> None:
        self._fh = fh
        self.write = tracer.timed("scan.write", fh.write, keep=True)
        self.flush = tracer.timed("scan.flush", fh.flush, keep=True)
        self.truncate = tracer.timed("scan.reopen", fh.truncate, keep=True)
        self.seek = tracer.timed("scan.reopen", fh.seek, keep=True)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _TracedOs:
    """``os`` as ``scan`` sees it, with ``fsync`` timed."""

    def __init__(self, tracer: Tracer) -> None:
        self.fsync = tracer.timed("scan.fsync", os.fsync, keep=True)

    def __getattr__(self, name):
        return getattr(os, name)


def _chunk_worker(tracer: Tracer, fn):
    """Walk spans plus row counts, the words seen and the pickled result size.

    In pool workers (another pid) it calls straight through: their spans
    would be lost, and the parent's wait is traced as ``scan.chunk_results``.
    """
    walk = tracer.timed("scan.chunk_worker", fn, keep=True)

    @functools.wraps(fn)
    def wrapper(args):
        if os.getpid() != tracer.pid:
            return fn(args)
        result = walk(args)
        rows = result[0]
        tracer.counts["walk_rows"] += len(rows)
        tracer.counts["walk_steps"] += sum(row[1] for row in rows)
        tracer.counts["handoff_bytes"] += len(pickle.dumps(result))
        tracer.words.update((row[1], row[4]) for row in rows)
        return result
    return wrapper


def _chunk_results(tracer: Tracer, fn):
    """Each ``next()`` on the chunk results is a ``scan.chunk_results`` span,
    save two: the first ``next()`` is ``scan.chunk_results.first`` and the
    ``close()`` after the last chunk is ``scan.chunk_results.end``.  With a
    pool these also start it and tear it down, so they are kept apart from
    the waits for results.
    """
    first = tracer.timed("scan.chunk_results.first", next, keep=True)
    wait = tracer.timed("scan.chunk_results", next, keep=True)
    end = tracer.timed("scan.chunk_results.end", lambda it: it.close(), keep=True)

    @functools.wraps(fn)
    def wrapper(cfg, chunks):
        it = fn(cfg, chunks)
        try:
            for i in range(len(chunks)):
                yield (first if i == 0 else wait)(it)
        finally:
            end(it)
    return wrapper


def install(tracer: Tracer, role: str) -> None:
    """Wrap the package's call-time names for one op with the given role."""
    from collatzstop import bounds, reports, residues, scan, sequences

    scan._chunk_worker = _chunk_worker(tracer, scan._chunk_worker)
    scan._chunk_results = _chunk_results(tracer, scan._chunk_results)
    scan.checkpoint_save = tracer.timed("scan.ledger", scan.checkpoint_save, keep=True)
    scan.checkpoint_resume = tracer.timed("scan.resume", scan.checkpoint_resume, keep=True)
    scan.scan_collect = tracer.timed("scan.scan_collect", scan.scan_collect, keep=True)
    scan.os = _TracedOs(tracer)
    traced_open = tracer.timed("scan.reopen", open, keep=True)

    def scan_open(path, mode="r", *args, **kwargs):
        if mode == "wb":
            return _TracedFile(open(path, mode, *args, **kwargs), tracer)
        if mode == "r+b":
            return _TracedFile(traced_open(path, mode, *args, **kwargs), tracer)
        return open(path, mode, *args, **kwargs)
    scan.open = scan_open

    # render_ratio keeps calling the unwrapped render_sig: one wrapper per
    # rendered field instead of two.
    render_ratio = reports.render_ratio
    render_ratio = types.FunctionType(render_ratio.__code__, dict(render_ratio.__globals__),
                                      render_ratio.__name__, render_ratio.__defaults__)
    reports.render_ratio = tracer.timed("reports.render_ratio", render_ratio)
    reports.render_sig = tracer.timed("reports.render_sig", reports.render_sig)
    for kind, (columns, formatter) in list(reports._SCAN_KINDS.items()):
        reports._SCAN_KINDS[kind] = (columns, tracer.timed(f"reports.format_{kind}_row", formatter))
    reports.verify_csv = tracer.timed("reports.verify_csv", reports.verify_csv, keep=True)
    for name in dir(reports):
        if name.startswith("_verify_"):
            setattr(reports, name, tracer.timed("reports.verify_rows", getattr(reports, name), keep=True))
    reports._walk_row = tracer.timed("reports.walk_row", reports._walk_row)
    if role == "verify":
        # Only here: the same name is the walk of every produced row.
        scan._scan_one = tracer.timed("scan.scan_one", scan._scan_one)
    reports._bounds_row = tracer.timed("bounds.bound_row", reports._bounds_row)
    reports.descend = tracer.timed("core.descend", reports.descend)
    residues.descend = tracer.timed("core.descend", residues.descend)
    residues.enumerate_minimal = tracer.timed("residues.enumerate_minimal",
                                              residues.enumerate_minimal, keep=True)
    bounds.enumerate_cycle_candidates = tracer.timed(
        "bounds.enumerate_cycle_candidates", bounds.enumerate_cycle_candidates, keep=True)
    bounds.ratio_records = tracer.timed("bounds.ratio_records", bounds.ratio_records, keep=True)

    post_init = sequences.ParitySequence.__post_init__

    def counted_post_init(self):
        tracer.counts["word_objects"] += 1
        post_init(self)
    sequences.ParitySequence.__post_init__ = counted_post_init
