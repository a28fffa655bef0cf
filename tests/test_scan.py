import hashlib
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzstop import (
    CappedWalk, CheckpointError, DomainError, ScanConfig, ScanStats,
    StepLimitError, StoppingRecord, checkpoint_resume, empirical_alpha,
    scan_collect, scan_range, stopping_record,
)
import collatzstop.scan as scan_mod
from collatzstop import core
from collatzstop.cli import main
from collatzstop.reports import _SCAN_HEADER, scan_to_csv


def test_single_value_scan():
    records, stats = scan_collect(ScanConfig(start=7, end=7, class_filter="12i+7"))
    assert len(records) == 1 == stats.count
    rec = records[0]
    assert (rec.n, rec.s, rec.r, rec.q.bits, rec.value) == (7, 7, 4, "1110100", 5)


def test_small_dense_scan():
    records, stats = scan_collect(ScanConfig(start=2, end=10))
    assert stats.count == len(records) == 9
    assert [r.n for r in records] == list(range(2, 11))
    for rec in records:
        assert rec == stopping_record(rec.n)


def test_class_filter_counts():
    _, stats = scan_collect(ScanConfig(start=7, end=2407, class_filter="12i+7"))
    assert stats.count == (2407 - 7) // 12 + 1


def test_worker_count_is_invisible(tmp_path):
    cfg1 = ScanConfig(start=2, end=5000, chunk_size=512, workers=1)
    cfg8 = ScanConfig(start=2, end=5000, chunk_size=512, workers=8)
    recs1, stats1 = scan_collect(cfg1)
    recs8, stats8 = scan_collect(cfg8)
    assert recs1 == recs8
    assert stats1 == stats8


def inline_pool(monkeypatch) -> list[int]:
    """A stand-in pool context that records each pool size it is asked for
    and maps in this process, so a test starts no worker; the sizes."""
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, args, chunksize=1):
            return map(fn, args)

    class InlineContext:
        Pool = InlinePool

    monkeypatch.setattr(scan_mod.multiprocessing, "get_context", lambda method: InlineContext)
    return sizes


def test_pool_starts_no_idle_workers(tmp_path, monkeypatch):
    sizes = inline_pool(monkeypatch)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: 16)  # more CPUs than chunks
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    scan_to_csv("scan", ScanConfig(start=2, end=3001, chunk_size=1000, workers=1), str(out1))
    assert sizes == []  # one worker runs without a pool
    stats, done = scan_to_csv("scan", ScanConfig(start=2, end=3001, chunk_size=1000, workers=8),
                              str(out8))
    assert sizes == [3] and done and stats.count == 3000
    assert out8.read_bytes() == out1.read_bytes()


@pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
def test_pool_never_outnumbers_the_cpus(tmp_path, monkeypatch, cpus, pools):
    # 100,000 workers over 199 one-row chunks ask for no more processes
    # than the CPUs; an unknown CPU count counts as one, which needs no pool
    sizes = inline_pool(monkeypatch)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: cpus)
    out1, out_many = tmp_path / "w1.csv", tmp_path / "many.csv"
    scan_to_csv("scan", ScanConfig(start=2, end=200, chunk_size=1, workers=1), str(out1))
    stats, done = scan_to_csv("scan", ScanConfig(start=2, end=200, chunk_size=1, workers=100_000),
                              str(out_many))
    assert sizes == pools and done and stats.count == 199
    assert out_many.read_bytes() == out1.read_bytes()


def test_chunk_size_is_invisible():
    a = scan_collect(ScanConfig(start=2, end=3000, chunk_size=37))
    b = scan_collect(ScanConfig(start=2, end=3000, chunk_size=2999))
    assert a == b


def test_stats_cross_check_with_empirical_alpha():
    cfg = ScanConfig(start=3, end=4001, class_filter="12i+3")
    records, stats = scan_collect(cfg)
    ratio, argmax = empirical_alpha(records)
    assert ratio == stats.max_alpha_ratio
    assert argmax == stats.argmax_n


def test_empirical_alpha_examples():
    ratio, argmax = empirical_alpha([stopping_record(3)])
    assert ratio == 5 and argmax == 3
    ratio, argmax = empirical_alpha([stopping_record(7)])
    assert ratio == Fraction(73, 19)
    with pytest.raises(DomainError):
        empirical_alpha([])
    with pytest.raises(DomainError):
        empirical_alpha([stopping_record(5)])  # r = 1, unit is zero


@pytest.mark.step_cap(5)
def test_capped_rows_are_flagged_not_dropped():
    cfg = ScanConfig(start=25, end=31)
    records, stats = scan_collect(cfg)
    assert stats.count == 7
    capped = {r.n for r in records if isinstance(r, CappedWalk)}
    assert 27 in capped  # 27 needs 59 steps
    for rec in records:
        if isinstance(rec, CappedWalk):
            assert rec.steps == 5 and rec.last_value >= rec.n
        else:
            assert rec.value < rec.n


@given(st.integers(min_value=2, max_value=10 ** 12))
def test_scan_record_is_the_stopping_record(n):
    assert list(scan_range(ScanConfig(start=n, end=n))) == [stopping_record(n)]


@pytest.mark.parametrize("cap", range(1, 11))
def test_capped_walk_is_the_step_limit_error(monkeypatch, cap):
    monkeypatch.setattr(core, "DEFAULT_STEP_CAP", cap)
    capped = 0
    for rec in scan_range(ScanConfig(start=2, end=100)):
        if isinstance(rec, StoppingRecord):
            assert rec == stopping_record(rec.n)
            continue
        capped += 1
        with pytest.raises(StepLimitError) as info:
            stopping_record(rec.n)
        err = info.value
        assert (err.start, err.steps, err.odd_steps, err.word, err.value) == (
            rec.n, rec.steps, rec.r, rec.q_prefix.bits, rec.last_value)
    assert capped > 0


def test_alpha_violation_reporting():
    # a synthetic envelope breach: ratio for 3 is 5, so alpha 40 holds; force
    # a violation by scanning with the module constant monkeypatched
    import collatzstop.scan as scan_mod

    old = scan_mod.ALPHA
    scan_mod.ALPHA = 4
    try:
        _, stats = scan_collect(ScanConfig(start=3, end=3))
        assert stats.violations == [3]
    finally:
        scan_mod.ALPHA = old


def _csv_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_scan_csv_deterministic_across_workers(tmp_path):
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    scan_to_csv("scan", ScanConfig(start=2, end=20000, chunk_size=1024, workers=1), str(out1))
    scan_to_csv("scan", ScanConfig(start=2, end=20000, chunk_size=1024, workers=8), str(out8))
    assert _csv_bytes(out1) == _csv_bytes(out8)


def test_scan_resume_byte_identical(tmp_path):
    cfg = dict(start=2, end=9000, chunk_size=1000)
    whole = tmp_path / "whole.csv"
    scan_to_csv("scan", ScanConfig(**cfg), str(whole))

    part = tmp_path / "part.csv"
    ck = tmp_path / "part.ck"
    stats, done = scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)),
                              str(part), max_chunks=3)
    assert not done
    done, stats, out_bytes, digest = checkpoint_resume(
        ScanConfig(**cfg, checkpoint_path=str(ck)), _SCAN_HEADER, str(part))
    assert (done, stats.count, out_bytes) == (3, 3000, part.stat().st_size)
    assert digest.hexdigest() == hashlib.sha256(part.read_bytes()).hexdigest()

    stats2, done2 = scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part))
    assert done2
    assert _csv_bytes(part) == _csv_bytes(whole)
    # resumed stats cover the whole range
    _, ref_stats = scan_collect(ScanConfig(**cfg))
    assert stats2.count == ref_stats.count
    assert stats2.max_alpha_ratio == ref_stats.max_alpha_ratio
    assert stats2.argmax_n == ref_stats.argmax_n


def test_a_stopped_scan_and_its_resume_build_no_chunk_they_do_not_run(tmp_path):
    # 10^6 chunks of 10 n each: a run stopped after one chunk, then its resume
    cfg = ScanConfig(start=2, end=10 ** 7 + 1, chunk_size=10,
                     checkpoint_path=str(tmp_path / "s.ck"))
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        counts = [scan_to_csv("scan", cfg, str(out), max_chunks=1)[0].count for _ in range(2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [10, 20]
    assert len(out.read_text().splitlines()) == 21
    assert peak < 2 ** 20


def test_resume_truncates_partial_tail(tmp_path):
    cfg = dict(start=2, end=5000, chunk_size=1000)
    whole = tmp_path / "whole.csv"
    scan_to_csv("scan", ScanConfig(**cfg), str(whole))

    part = tmp_path / "part.csv"
    ck = tmp_path / "part.ck"
    scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part), max_chunks=2)
    size = part.stat().st_size
    with open(part, "ab") as fh:
        fh.write(b"999999,torn row")  # unclean stop wrote garbage past the ledger
    # a resume that runs no chunk drops the tail too
    scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part), max_chunks=0)
    assert part.stat().st_size == size
    scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part))
    assert _csv_bytes(part) == _csv_bytes(whole)


def test_resume_refuses_short_output(tmp_path, capsys):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    size = out.stat().st_size
    with open(out, "r+b") as fh:
        fh.truncate(3000)  # lost the tail the ledger vouches for
    err = _assert_refused(argv, out, ck, capsys)
    assert f"records {size} output bytes, but output {str(out)!r} has 3000" in err


def test_resume_rejects_mismatched_config(tmp_path):
    out = tmp_path / "a.csv"
    ck = tmp_path / "a.ck"
    scan_to_csv("scan", ScanConfig(start=2, end=3000, chunk_size=500,
                                   checkpoint_path=str(ck)), str(out), max_chunks=2)
    with pytest.raises(CheckpointError):
        scan_to_csv("scan", ScanConfig(start=2, end=4000, chunk_size=500,
                                       checkpoint_path=str(ck)), str(out))


def test_resume_with_other_arguments_names_the_header(tmp_path, capsys):
    # the ledger is checked against this scan before the output is looked at
    argv, out, ck = _ledger_scan(tmp_path, 2)
    out.unlink()
    before = ck.read_bytes()
    capsys.readouterr()
    assert main([a if a != "3000" else "4000" for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint error: checkpoint {str(ck)!r} has header ")
    assert "fix the arguments or delete it" in err and "missing" not in err
    assert not out.exists() and ck.read_bytes() == before


@pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink", "side-file"])
def test_checkpoint_path_equal_to_out_is_refused(tmp_path, capsys, spelling):
    out = tmp_path / ("same.ck.tmp" if spelling == "side-file" else "same.csv")
    ck = {"same": out, "dotdot": tmp_path / "d" / ".." / "same.csv",
          "symlink": tmp_path / "link.csv", "side-file": tmp_path / "same.ck"}[spelling]
    (tmp_path / "d").mkdir()
    (tmp_path / "link.csv").symlink_to(out)
    argv = ["scan", "--end", "3000", "--chunk-size", "1000", "--out", str(out),
            "--checkpoint", str(ck)]
    assert main(argv) == 2
    assert "the checkpoint and the output are the same file" in capsys.readouterr().err
    assert not out.exists()


def test_resume_rejects_corrupt_checkpoint(tmp_path):
    ck, out = tmp_path / "bad.ck", str(tmp_path / "bad.csv")
    cfg = ScanConfig(start=2, end=10, checkpoint_path=str(ck))
    ck.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointError):
        checkpoint_resume(cfg, _SCAN_HEADER, out)
    ck.write_text("")  # a crash never leaves an empty ledger, so it is refused too
    with pytest.raises(CheckpointError, match="has header ''"):
        checkpoint_resume(cfg, _SCAN_HEADER, out)
    with pytest.raises(CheckpointError):
        checkpoint_resume(ScanConfig(start=2, end=10, checkpoint_path=str(tmp_path / "missing.ck")),
                          _SCAN_HEADER, out)


def test_resume_requires_output_file(tmp_path, capsys):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    out.unlink()
    err = _assert_refused(argv, out, ck, capsys)
    assert f"exists but output {str(out)!r} is missing" in err and not out.exists()


def test_a_symlinked_checkpoint_stays_a_link(tmp_path, capsys):
    # the ledger is saved beside the link's target and renamed over it
    (tmp_path / "real").mkdir()
    link, real, out = tmp_path / "link.ck", tmp_path / "real" / "real.ck", tmp_path / "s.csv"
    link.symlink_to(real)
    argv = ["scan", "--end", "50", "--chunk-size", "10", "--out", str(out), "--checkpoint", str(link)]
    assert main(argv + ["--max-chunks", "1"]) == 0
    assert link.is_symlink() and real.read_text().splitlines()[1].startswith("1,10,")
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(" complete=1\n")
    assert link.is_symlink() and len(real.read_text().splitlines()) == 2
    assert [p.name for p in tmp_path.rglob("*.tmp")] == []
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "verified 49 rows\n"


def test_config_validation():
    with pytest.raises(DomainError):
        ScanConfig(start=1, end=10)
    with pytest.raises(DomainError):
        ScanConfig(start=10, end=9)
    with pytest.raises(DomainError):
        ScanConfig(start=2, end=10, class_filter="12i+5")
    assert scan_mod.CLASS_FILTERS == ("all", "12i+3", "12i+7", "12i+11")
    with pytest.raises(DomainError):
        ScanConfig(start=2, end=10, workers=0)


def test_a_scan_of_more_chunks_than_a_range_counts_is_refused(tmp_path, capsys):
    # len() of a range of more than sys.maxsize chunks overflows; the last
    # countable scan is accepted, and one more chunk is refused
    top = 2 + sys.maxsize * 10 - 1  # the last n of chunk number sys.maxsize
    assert len(scan_mod._chunks(ScanConfig(start=2, end=top, chunk_size=10))) == sys.maxsize
    with pytest.raises(DomainError, match=f"at most {sys.maxsize} chunks"):
        ScanConfig(start=2, end=top + 1, chunk_size=10)
    out, ck = tmp_path / "o.csv", tmp_path / "o.ck"
    scan = ["scan", "--start", "2", "--end", str(10 ** 29), "--chunk-size", "10", "--out", str(out)]
    for extra in ([], ["--max-chunks", "1"], ["--checkpoint", str(ck)]):
        assert main(scan + extra) == 2
        assert capsys.readouterr().err == (f"error: a scan may have at most {sys.maxsize} "
                                           "chunks; raise chunk_size\n")
        assert not out.exists() and not ck.exists()


def test_scan_stats_streaming():
    stats = ScanStats()
    seen = []
    for rec in scan_range(ScanConfig(start=2, end=100), stats):
        seen.append(rec.n)
    assert seen == list(range(2, 101))
    assert stats.count == 99
    assert isinstance(seen[0], int)
    assert all(isinstance(r, (StoppingRecord, CappedWalk)) for r in
               scan_range(ScanConfig(start=2, end=5)))


def test_resume_keeps_alpha_violations(tmp_path, capsys, monkeypatch):
    import collatzstop.scan as scan_mod

    monkeypatch.setattr(scan_mod, "ALPHA", 3)  # breached all over the range
    argv = ["scan", "--end", "3000", "--chunk-size", "1000"]
    assert main(argv + ["--out", str(tmp_path / "whole.csv")]) == 0
    want = capsys.readouterr().out
    assert "violation: n=" in want

    resumed = argv + ["--out", str(tmp_path / "r.csv"), "--checkpoint", str(tmp_path / "r.ck")]
    assert main(resumed + ["--max-chunks", "2"]) == 0
    capsys.readouterr()
    assert main(resumed) == 0
    assert capsys.readouterr().out == want


def test_a_resumed_fig2_prints_the_uninterrupted_summary(tmp_path, capsys):
    argv = ["fig2", "--start", "3", "--end", "3000", "--chunk-size", "500"]
    assert main(argv + ["--out", str(tmp_path / "whole.csv")]) == 0
    want = capsys.readouterr().out
    assert want.startswith("rows=1499 ") and want.endswith(" complete=1\n")

    ck = tmp_path / "r.ck"
    resumed = argv + ["--out", str(tmp_path / "r.csv"), "--checkpoint", str(ck)]
    # a fresh run of no chunk writes over what was there: the header, and no ledger
    (tmp_path / "r.csv").write_text("stale\n" * 1000)
    assert main(resumed + ["--max-chunks", "0"]) == 0
    assert capsys.readouterr().out == "rows=0 max_alpha_ratio=- argmax_n=- complete=0\n"
    assert (tmp_path / "r.csv").read_text() == "n,s,r,r_over_s,pow_ratio\n" and not ck.exists()
    assert main(resumed + ["--max-chunks", "2"]) == 0
    assert capsys.readouterr().out.startswith("rows=500 ")  # the odd n of 3..1002
    assert ck.read_text().splitlines()[1].split(",")[:2] == ["2", "500"]
    assert main(resumed) == 0
    assert capsys.readouterr().out == want
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # the state line counts the rows the file holds after its chunks
    assert ck.read_text().splitlines()[1].split(",")[:2] == ["6", "1499"]


def _ledger_scan(tmp_path, done):
    out, ck = tmp_path / "l.csv", tmp_path / "l.ck"
    argv = ["scan", "--end", "3000", "--chunk-size", "1000",
            "--out", str(out), "--checkpoint", str(ck)]
    assert main(argv + ["--max-chunks", str(done)]) == 0
    return argv, out, ck


def _assert_refused(argv, out, ck, capsys, ending="; delete it to start fresh"):
    """Run argv, which the ledger must refuse with exit 3 and one short
    stderr line that names the ledger and ends in `ending`, leaving both
    files as they were (an absent output stays absent)."""
    def files():
        return out.read_bytes() if out.exists() else None, ck.read_bytes()

    before = files()
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and str(ck) in err
    assert err.count("\n") == 1 and err.endswith(ending + "\n") and len(err) < 1024
    assert files() == before
    return err


_HEADER_REFUSAL = "; fix the arguments or delete it"


# fields of the state line: done,count,num/den,argmax,out_bytes,sha256; None drops the field
@pytest.mark.parametrize("field,value", [
    (0, "a"), (1, "a"), (2, "a"), (2, "a/1"), (2, "1/a"), (3, "a"), (4, "a"),
    (2, "5"), (2, "-1"), (2, "5/0"), (1, "-1"), (4, "-1"), (3, None),
    (3, "a/1"), (3, "1/a"), (3, "5/0"), (5, "a"),
])
def test_resume_refuses_corrupt_ledger_field(tmp_path, capsys, field, value):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    *head, last = ck.read_text().splitlines()
    cells = last.split(",")
    if value is None:
        del cells[field]
    else:
        cells[field] = value
    ck.write_text("\n".join([*head, ",".join(cells)]) + "\n")
    assert "corrupt ledger line" in _assert_refused(argv, out, ck, capsys)


# a crash leaves the old ledger or the new one whole, so any other shape is damage
@pytest.mark.parametrize("edit", [
    lambda b: b[:-1],                     # the state line without its LF
    lambda b: b[:-3],                     # cut mid-line
    lambda b: b + b.split(b"\n")[1] + b"\n",  # a second state line
    lambda b: b.split(b"\n")[0] + b"\n" + b"x" * 10 ** 6 + b"\n",  # quoted cut short
], ids=["cut-lf", "cut-mid-line", "two-state-lines", "long-line"])
def test_resume_refuses_a_ledger_of_another_shape(tmp_path, capsys, edit):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    ck.write_bytes(edit(ck.read_bytes()))
    assert "corrupt ledger line" in _assert_refused(argv, out, ck, capsys)


def _write_sealed(ck, out, lines):
    """Write the header and the state line with its digest recomputed by the
    v5 rule: the SHA-256 of the output's first out_bytes bytes, then the
    line's other fields joined by commas with a newline."""
    head, state = lines
    cells = state.split(",")
    own = cells[:5] + cells[6:]
    digest = hashlib.sha256(out.read_bytes()[:int(cells[4])])
    digest.update((",".join(own) + "\n").encode("ascii"))
    ck.write_text(f"{head}\n" + ",".join(cells[:5] + [digest.hexdigest()] + cells[6:]) + "\n")


def _set_done(ck, out, done):
    head, state = ck.read_text().splitlines()
    _write_sealed(ck, out, [head, f"{done}," + state.split(",", 1)[1]])


@pytest.mark.parametrize("done", [0, -1])
def test_resume_refuses_misplaced_chunks(tmp_path, capsys, done):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    _set_done(ck, out, done)  # a whole, well-sealed ledger that is still wrong
    assert "do not align" in _assert_refused(argv, out, ck, capsys)


def test_resume_refuses_chunk_past_the_end(tmp_path, capsys):
    argv, out, ck = _ledger_scan(tmp_path, 3)  # all 3 chunks
    _set_done(ck, out, 4)
    assert "do not align" in _assert_refused(argv, out, ck, capsys)


# v1 kept running totals and no violations, v2 no digest, v3 counted the n a
# chunk walked, v4 appended a line per chunk: each is refused at its header
@pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4"])
def test_resume_refuses_an_older_ledger(tmp_path, capsys, version):
    argv, out, ck = _ledger_scan(tmp_path, 1)
    head, rest = ck.read_text().split("\n", 1)
    magic, _, cfg_hash = head.split()
    ck.write_text(f"{magic} {version} {cfg_hash}\n{rest}")
    err = _assert_refused(argv, out, ck, capsys, _HEADER_REFUSAL)
    assert repr(f"{magic} {version} {cfg_hash}") in err and repr(head) in err


def test_resume_refuses_a_ledger_written_under_another_step_cap(tmp_path, capsys, monkeypatch):
    # the cap is in the header's hash: 10^5 was the scans' own default cap
    with monkeypatch.context() as m:
        m.setattr(core, "DEFAULT_STEP_CAP", 10 ** 5)
        argv, out, ck = _ledger_scan(tmp_path, 1)
    head = ck.read_text().split("\n", 1)[0]
    err = _assert_refused(argv, out, ck, capsys, _HEADER_REFUSAL)
    assert repr(head) in err


def test_resume_refuses_ledger_that_is_no_header_prefix(tmp_path, capsys):
    # a ledger without its whole header is refused, this scan's header cut short too
    argv, out, ck = _ledger_scan(tmp_path, 2)
    head = ck.read_text().split("\n", 1)[0]
    for cut in (b"hello", head[:-1].encode()):
        ck.write_bytes(cut)
        err = _assert_refused(argv, out, ck, capsys, _HEADER_REFUSAL)
        assert f"has header {cut.decode()!r}" in err


def test_ledger_is_sealed_by_the_v5_rule(tmp_path):
    _, out, ck = _ledger_scan(tmp_path, 2)
    lines = ck.read_text().splitlines()
    _write_sealed(ck, out, lines)
    assert ck.read_text().splitlines() == lines


def _edit_last_line(ck, edit):
    *head, last = ck.read_text().splitlines()
    cells = last.split(",")
    edit(cells)
    ck.write_text("\n".join([*head, ",".join(cells)]) + "\n")


# whole lines that parse but are not what the scan wrote: each must be refused
@pytest.mark.parametrize("edit", [
    lambda c: c.__setitem__(4, str(int(c[4]) - 40)),   # out_bytes lowered by 40
    lambda c: c.__setitem__(1, str(int(c[1]) + 1)),    # count
    lambda c: c.__setitem__(2, "1/1"),                 # ratio
    lambda c: c.__setitem__(3, "7"),                   # argmax
    lambda c: c.append("5"),                           # an appended violation n
    lambda c: c.__setitem__(0, "1"),                   # done, at the output size of 2
], ids=["out_bytes-40", "count", "ratio", "argmax", "violation", "done"])
def test_resume_refuses_edited_ledger_line(tmp_path, capsys, edit):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    _edit_last_line(ck, edit)
    err = _assert_refused(argv, out, ck, capsys)
    assert "prefix digest differs" in err and str(out) in err


@pytest.mark.parametrize("offset", [0, 100, 30000])  # header, first chunk, second chunk
def test_resume_refuses_flipped_output_byte(tmp_path, capsys, offset):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    data = bytearray(out.read_bytes())
    data[offset] ^= 1
    out.write_bytes(bytes(data))
    err = _assert_refused(argv, out, ck, capsys)
    assert "prefix digest differs" in err and str(out) in err
