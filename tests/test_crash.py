"""Crash-point sweep of a checkpointed scan.

Every state a crash can leave must either resume to the bytes and summary
of an uninterrupted run, or be refused with exit 3 by a message that names
the ledger, with both files left as they were.  A refusal is accepted only
while the ledger holds no whole line, since such a ledger vouches for
nothing.  The crash states follow the crash-state exploration of Pillai et
al. (OSDI 2014, "All File Systems Are Not Created Equal"):

- byte cuts: the output cut at every byte of each chunk's payload, with the
  ledger whole through the chunk before, and the ledger cut at every byte
  of each appended line, with the output whole through that chunk;
- stopped runs: a forked child ends just before its k-th open, write,
  flush, fsync or truncate, for every k, as `scan` sees those calls
  through its module names `open` and `os`.
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
    """The uninterrupted run: (output, ledger, summary), and where each
    chunk ends in the output and in the ledger (0 before the first)."""
    d = tmp_path_factory.mktemp("whole")
    plain = _run(ARGV + ["--out", str(d / "p.csv")])
    code, summary, _ = _run(ARGV + ["--out", str(d / "w.csv"), "--checkpoint", str(d / "w.ck")])
    out, ledger = (d / "w.csv").read_bytes(), (d / "w.ck").read_bytes()
    assert code == plain[0] == 0 and summary == plain[1] and out == (d / "p.csv").read_bytes()
    lines = ledger.splitlines(keepends=True)
    out_ends = [0] + [int(ln.split(b",")[5]) for ln in lines[1:]]
    ledger_ends = [0] + [sum(map(len, lines[:i + 1])) for i in range(1, len(lines))]
    return out, ledger, summary, out_ends, ledger_ends


def _resume(d, whole):
    """Resume from the crash state in d; None if it is handled, else what went wrong."""
    out, ck = d / "o.csv", d / "o.ck"
    before = _read(out), _read(ck)
    code, summary, err = _run(ARGV + ["--out", str(out), "--checkpoint", str(ck)])
    if before[1] is not None and b"\n" not in before[1]:  # no whole ledger line
        if code == 3 and str(ck) in err and (_read(out), _read(ck)) == before:
            return None
    if code == 0 and (_read(out), _read(ck), summary) == whole[:3]:
        return None
    return f"exit {code}, {err.strip() or 'other bytes or summary'}"


def test_resume_after_every_byte_cut(tmp_path, whole):
    out, ledger, _, out_ends, ledger_ends = whole
    states = []
    for k in range(1, len(out_ends)):
        kept = ledger[:ledger_ends[k - 1]] if k > 1 else None  # no ledger before chunk 1
        states += [(out[:c], kept) for c in range(out_ends[k - 1], out_ends[k] + 1)]
        states += [(out[:out_ends[k]], ledger[:c])
                   for c in range(ledger_ends[k - 1], ledger_ends[k] + 1)]
    failures = []
    for i, (out_bytes, ck_bytes) in enumerate(states):
        _place(tmp_path / "o.csv", out_bytes)
        _place(tmp_path / "o.ck", ck_bytes)
        why = _resume(tmp_path, whole)
        if why:
            failures.append((i, len(out_bytes), ck_bytes and len(ck_bytes), why))
    assert len(states) > 800
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
    write, flush, fsync or truncate."""
    calls = iter(range(1, k))

    def gate(fn):
        def call(*args, **kwargs):
            if next(calls, None) is None:
                os._exit(STOPPED)
            return fn(*args, **kwargs)
        return call

    scan.os = _Gated(os, gate, ("fsync", "truncate"))
    scan.open = lambda *args, **kwargs: _Gated(gate(open)(*args, **kwargs), gate,
                                               ("write", "flush", "truncate"))


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
    out, ledger, _, out_ends, ledger_ends = whole
    # resumed: two chunks done, then a stop left a partial output row and
    # cut the last ledger line, so the run truncates both and redoes chunk 2
    begin = {"fresh": (None, None),
             "resumed": (out[:out_ends[2]] + b"9", ledger[:ledger_ends[2] - 3])}[start]
    failures = []
    for k in range(1, 200):
        _place(tmp_path / "o.csv", begin[0])
        _place(tmp_path / "o.ck", begin[1])
        code = _stopped_run(tmp_path, k)
        if code != STOPPED:  # k is past the run's last side effect
            break
        why = _resume(tmp_path, whole)
        if why:
            failures.append((k, why))
    assert code == 0 and k > 20  # the unstopped run completed, after 20-odd side effects
    assert (_read(tmp_path / "o.csv"), _read(tmp_path / "o.ck")) == (out, ledger)
    assert failures == []
