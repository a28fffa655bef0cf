"""Crash-point sweep of a checkpointed scan.

Every state a crash can leave must resume to the bytes, ledger and summary
of an uninterrupted run, and leave no side file `<ledger>.tmp` behind.  The
ledger is replaced whole by renaming its side file over it, so a crash
leaves the snapshot of the last chunk whose rename happened, beside an
output that may hold more.  The crash states follow the crash-state
exploration of Pillai et al. (OSDI 2014, "All File Systems Are Not Created
Equal"):

- byte cuts: the ledger at the snapshot before a chunk (none before the
  first), the output cut at every byte of that chunk's payload, and the
  side file absent, empty, cut in half or whole (the next snapshot);
- stopped runs: a forked child ends just before its k-th open, write,
  flush, fsync, truncate, seek or replace, for every k, as `scan` sees
  those calls through its module names `open` and `os`; a fresh run
  truncates and seeks its output as a resume does, so both starts are
  swept.
"""

import contextlib
import functools
import io
import os

import pytest

import collatzstop.cli as cli
import collatzstop.scan as scan
from collatzstop.cli import main

ARGV = ["scan", "--end", "25", "--chunk-size", "6"]  # 4 chunks
STOPPED = 99  # the exit code of a child stopped by the gate


def _run(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    return path.read_bytes() if path.exists() else None


def _place(path, data):
    if data is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(data)


@pytest.fixture(autouse=True)
def _one_parser(monkeypatch):
    # building the parser is most of the time of a run this small
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))


@pytest.fixture(scope="module")
def whole(tmp_path_factory):
    """The uninterrupted run: (output, ledger, summary), and the ledger after
    each chunk, each from a run stopped by --max-chunks, with where its
    chunk ends in the output (None and 0 before the first chunk)."""
    d = tmp_path_factory.mktemp("whole")
    plain = _run(ARGV + ["--out", str(d / "p.csv")])
    code, summary, _ = _run(ARGV + ["--out", str(d / "w.csv"), "--checkpoint", str(d / "w.ck")])
    out, ledger = (d / "w.csv").read_bytes(), (d / "w.ck").read_bytes()
    assert code == plain[0] == 0 and summary == plain[1] and out == (d / "p.csv").read_bytes()
    snaps, out_ends = [None], [0]
    for k in range(1, 5):
        ck = d / f"{k}.ck"
        assert _run(ARGV + ["--out", str(d / f"{k}.csv"), "--checkpoint", str(ck),
                            "--max-chunks", str(k)])[0] == 0
        snaps.append(ck.read_bytes())
        out_ends.append((d / f"{k}.csv").stat().st_size)
    assert snaps[-1] == ledger and out_ends[-1] == len(out)
    return out, ledger, summary, snaps, out_ends


def _resume(d, whole):
    """Resume from the crash state in d; None if it resumes to the
    uninterrupted run and leaves no side file, else what went wrong."""
    out, ck = d / "o.csv", d / "o.ck"
    code, summary, err = _run(ARGV + ["--out", str(out), "--checkpoint", str(ck)])
    if (code, _read(out), _read(ck), summary) == (0, *whole[:3]):
        return "a side file is left" if (d / "o.ck.tmp").exists() else None
    return f"exit {code}, {err.strip() or 'other bytes or summary'}"


def test_resume_after_every_byte_cut(tmp_path, whole):
    out, ledger, _, snaps, out_ends = whole
    states = [(out, ledger, None)]  # the run completed
    for k in range(1, len(snaps)):
        side = [None, b"", snaps[k][:len(snaps[k]) // 2], snaps[k]]
        states += [(out[:c], snaps[k - 1], tmp)
                   for c in range(out_ends[k - 1], out_ends[k] + 1) for tmp in side]
    failures = []
    for i, (out_bytes, ck_bytes, tmp_bytes) in enumerate(states):
        _place(tmp_path / "o.csv", out_bytes)
        _place(tmp_path / "o.ck", ck_bytes)
        _place(tmp_path / "o.ck.tmp", tmp_bytes)
        why = _resume(tmp_path, whole)
        if why:
            failures.append((i, len(out_bytes), ck_bytes and len(ck_bytes), tmp_bytes, why))
    assert len(states) > 2000
    assert failures == []


class _Gated:
    """Calls through to target, but its named methods pass the gate first."""

    def __init__(self, target, gate, names):
        self._target = target
        for name in names:
            setattr(self, name, gate(getattr(target, name)))

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._target.close()


def _stop_before(k):
    """Make `scan` end this process, unflushed, just before its k-th open,
    write, flush, fsync, truncate, seek or replace."""
    calls = iter(range(1, k))

    def gate(fn):
        def call(*args, **kwargs):
            if next(calls, None) is None:
                os._exit(STOPPED)
            return fn(*args, **kwargs)
        return call

    scan.os = _Gated(os, gate, ("fsync", "replace"))
    scan.open = lambda *args, **kwargs: _Gated(gate(open)(*args, **kwargs), gate,
                                               ("write", "flush", "truncate", "seek"))


def _stopped_run(d, k):
    """Run the scan in a forked child that stops before its k-th side
    effect; its exit code, STOPPED if the gate ended it."""
    pid = os.fork()
    if pid == 0:  # the child must never return into the test runner
        code = 98
        try:
            _stop_before(k)
            code = _run(ARGV + ["--out", str(d / "o.csv"), "--checkpoint", str(d / "o.ck")])[0]
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.parametrize("start", ["fresh", "resumed"])
def test_resume_after_every_stopped_run(tmp_path, whole, start):
    out, ledger, _, snaps, out_ends = whole
    # resumed: two chunks done, then a stop left a partial output row and
    # half of the third chunk's side file, so the run truncates the one and
    # rewrites the other
    begin = {"fresh": (None, None, None),
             "resumed": (out[:out_ends[2]] + b"9", snaps[2], snaps[3][:20])}[start]
    saves = {"fresh": 4, "resumed": 2}[start]
    failures, whole_side = [], 0
    for k in range(1, 200):
        _place(tmp_path / "o.csv", begin[0])
        _place(tmp_path / "o.ck", begin[1])
        _place(tmp_path / "o.ck.tmp", begin[2])
        code = _stopped_run(tmp_path, k)
        if code != STOPPED:  # k is past the run's last side effect
            break
        whole_side += _read(tmp_path / "o.ck.tmp") in snaps[1:]
        why = _resume(tmp_path, whole)
        if why:
            failures.append((k, why))
    assert code == 0 and k > 20  # the unstopped run completed, after 20-odd side effects
    assert (_read(tmp_path / "o.csv"), _read(tmp_path / "o.ck")) == (out, ledger)
    assert not (tmp_path / "o.ck.tmp").exists()
    assert whole_side == 2 * saves  # each save was stopped before its fsync and its replace
    assert failures == []
