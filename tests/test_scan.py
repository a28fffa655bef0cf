import hashlib
import os
from fractions import Fraction

import pytest

from collatzstop import (
    CappedWalk, CheckpointError, DomainError, ScanConfig, ScanStats,
    StoppingRecord, checkpoint_resume, empirical_alpha, scan_collect,
    scan_range, stopping_record,
)
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


def test_capped_rows_are_flagged_not_dropped():
    cfg = ScanConfig(start=25, end=31, step_cap=5)
    records, stats = scan_collect(cfg)
    assert stats.count == 7
    capped = {r.n for r in records if isinstance(r, CappedWalk)}
    assert 27 in capped  # 27 needs 59 steps
    for rec in records:
        if isinstance(rec, CappedWalk):
            assert rec.steps == 5 and rec.last_value >= rec.n
        else:
            assert rec.value < rec.n


def test_alpha_violation_reporting():
    # a synthetic envelope breach: ratio for 3 is 5, so alpha 40 holds; force
    # a violation by scanning with the module constant monkeypatched
    import collatzstop.scan as scan_mod

    old = scan_mod.ALPHA
    scan_mod.ALPHA = 4
    try:
        _, stats = scan_collect(ScanConfig(start=3, end=3))
        assert stats.violations == [(3, "alpha")]
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
    state = checkpoint_resume(ScanConfig(**cfg, checkpoint_path=str(ck)), _SCAN_HEADER, str(part))
    assert len(state.completed) == 3
    assert state.completed[-1] == (2002, 3001)

    stats2, done2 = scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part))
    assert done2
    assert _csv_bytes(part) == _csv_bytes(whole)
    # resumed stats cover the whole range
    _, ref_stats = scan_collect(ScanConfig(**cfg))
    assert stats2.count == ref_stats.count
    assert stats2.max_alpha_ratio == ref_stats.max_alpha_ratio
    assert stats2.argmax_n == ref_stats.argmax_n


def test_resume_truncates_partial_tail(tmp_path):
    cfg = dict(start=2, end=5000, chunk_size=1000)
    whole = tmp_path / "whole.csv"
    scan_to_csv("scan", ScanConfig(**cfg), str(whole))

    part = tmp_path / "part.csv"
    ck = tmp_path / "part.ck"
    scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part), max_chunks=2)
    with open(part, "ab") as fh:
        fh.write(b"999999,torn row")  # unclean stop wrote garbage past the ledger
    scan_to_csv("scan", ScanConfig(**cfg, checkpoint_path=str(ck)), str(part))
    assert _csv_bytes(part) == _csv_bytes(whole)


def test_resume_refuses_short_output(tmp_path, capsys):
    out, ck = tmp_path / "s.csv", tmp_path / "s.ck"
    argv = ["scan", "--end", "5000", "--chunk-size", "1000",
            "--out", str(out), "--checkpoint", str(ck)]
    assert main(argv + ["--max-chunks", "2"]) == 0
    with open(out, "r+b") as fh:
        fh.truncate(3000)  # lost the tail the ledger vouches for
    assert main(argv) == 3
    assert "checkpoint error" in capsys.readouterr().err
    assert out.stat().st_size == 3000
    assert b"\0" not in out.read_bytes()


@pytest.mark.parametrize("done", [1, 2])  # with 1, the torn line was the ledger's first
def test_resume_drops_torn_ledger_line(tmp_path, capsys, done):
    whole = tmp_path / "whole.csv"
    assert main(["scan", "--end", "3000", "--chunk-size", "1000", "--out", str(whole)]) == 0
    want_summary = capsys.readouterr().out

    out, ck = tmp_path / "w.csv", tmp_path / "w.ck"
    argv = ["scan", "--end", "3000", "--chunk-size", "1000",
            "--out", str(out), "--checkpoint", str(ck)]
    assert main(argv + ["--max-chunks", str(done)]) == 0
    capsys.readouterr()
    os.truncate(ck, ck.stat().st_size - 3)  # a crash cut the last append short
    assert main(argv) == 0
    assert capsys.readouterr().out == want_summary
    assert out.read_bytes() == whole.read_bytes()
    assert ck.read_text().endswith("\n")
    cfg = ScanConfig(start=2, end=3000, chunk_size=1000, checkpoint_path=str(ck))
    assert len(checkpoint_resume(cfg, _SCAN_HEADER, str(out)).completed) == 3


def test_rejected_resume_leaves_torn_ledger_alone(tmp_path):
    out, ck = tmp_path / "t.csv", tmp_path / "t.ck"
    cfg = ScanConfig(start=2, end=3000, chunk_size=500, checkpoint_path=str(ck))
    scan_to_csv("scan", cfg, str(out), max_chunks=2)
    os.truncate(ck, ck.stat().st_size - 3)
    torn = ck.read_bytes()
    assert checkpoint_resume(cfg, _SCAN_HEADER, str(out)).torn_bytes == \
        len(torn) - len(torn.rstrip(b"0123456789abcdef,/-"))
    assert ck.read_bytes() == torn
    with pytest.raises(CheckpointError):
        scan_to_csv("scan", ScanConfig(start=2, end=4000, chunk_size=500,
                                       checkpoint_path=str(ck)), str(out))
    assert ck.read_bytes() == torn


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


@pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink"])
def test_checkpoint_path_equal_to_out_is_refused(tmp_path, capsys, spelling):
    out = tmp_path / "same.csv"
    ck = {"same": out, "dotdot": tmp_path / "d" / ".." / "same.csv",
          "symlink": tmp_path / "link.csv"}[spelling]
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
    ck.write_text("")
    with pytest.raises(CheckpointError):
        checkpoint_resume(cfg, _SCAN_HEADER, out)
    with pytest.raises(CheckpointError):
        checkpoint_resume(ScanConfig(start=2, end=10, checkpoint_path=str(tmp_path / "missing.ck")),
                          _SCAN_HEADER, out)


def test_resume_requires_output_file(tmp_path):
    out = tmp_path / "b.csv"
    ck = tmp_path / "b.ck"
    scan_to_csv("scan", ScanConfig(start=2, end=3000, chunk_size=500,
                                   checkpoint_path=str(ck)), str(out), max_chunks=2)
    os.unlink(out)
    with pytest.raises(CheckpointError):
        scan_to_csv("scan", ScanConfig(start=2, end=3000, chunk_size=500,
                                       checkpoint_path=str(ck)), str(out))


def test_config_validation():
    with pytest.raises(DomainError):
        ScanConfig(start=1, end=10)
    with pytest.raises(DomainError):
        ScanConfig(start=10, end=9)
    with pytest.raises(DomainError):
        ScanConfig(start=2, end=10, class_filter="12i+5")
    with pytest.raises(DomainError):
        ScanConfig(start=2, end=10, workers=0)


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


def _ledger_scan(tmp_path, done):
    out, ck = tmp_path / "l.csv", tmp_path / "l.ck"
    argv = ["scan", "--end", "3000", "--chunk-size", "1000",
            "--out", str(out), "--checkpoint", str(ck)]
    assert main(argv + ["--max-chunks", str(done)]) == 0
    return argv, out, ck


def _assert_refused(argv, out, ck, capsys):
    before = out.read_bytes(), ck.read_bytes()
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and str(ck) in err
    assert (out.read_bytes(), ck.read_bytes()) == before
    return err


# fields of a ledger line: lo,hi,count,num/den,argmax,out_bytes,sha256; None drops the field
@pytest.mark.parametrize("field,value", [
    (0, "a"), (1, "a"), (2, "a"), (3, "a/1"), (3, "1/a"), (4, "a"), (5, "a"),
    (3, "5"), (3, "5/0"), (2, "-1"), (5, "-1"), (3, None),
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


def _write_sealed(ck, out, lines):
    """Write ledger lines with each line's digest recomputed by the v3 rule:
    a running SHA-256 over the output up to the line's out_bytes, then the
    line's other fields joined by commas with a newline."""
    data, digest, pos = out.read_bytes(), hashlib.sha256(), 0
    sealed = lines[:1]
    for ln in lines[1:]:
        cells = ln.split(",")
        own = cells[:6] + cells[7:]
        digest.update(data[pos:int(cells[5])])
        pos = int(cells[5])
        digest.update((",".join(own) + "\n").encode("ascii"))
        sealed.append(",".join(cells[:6] + [digest.hexdigest()] + cells[7:]))
    ck.write_text("\n".join(sealed) + "\n")


@pytest.mark.parametrize("line,lo,reason", [
    (2, 1003, "do not align"),            # the second chunk does not follow the first
    (1, 3, "do not align"),               # contiguous, but not this scan's chunks
])
def test_resume_refuses_misplaced_chunks(tmp_path, capsys, line, lo, reason):
    argv, out, ck = _ledger_scan(tmp_path, 2)
    lines = ck.read_text().splitlines()
    lines[line] = f"{lo}," + lines[line].split(",", 1)[1]
    _write_sealed(ck, out, lines)  # a whole, well-sealed ledger that is still wrong
    assert reason in _assert_refused(argv, out, ck, capsys)


def test_resume_refuses_chunk_past_the_end(tmp_path, capsys):
    argv, out, ck = _ledger_scan(tmp_path, 3)
    lines = ck.read_text().splitlines()
    lines.append("3001,4000," + lines[-1].split(",", 2)[2])  # contiguous, past the end
    _write_sealed(ck, out, lines)
    assert "do not align" in _assert_refused(argv, out, ck, capsys)


def test_resume_refuses_v1_ledger(tmp_path, capsys):
    argv, out, ck = _ledger_scan(tmp_path, 1)
    head, rest = ck.read_text().split("\n", 1)
    magic, _, cfg_hash = head.split()
    ck.write_text(f"{magic} v1 {cfg_hash}\n{rest}")
    assert repr(f"{magic} v1 {cfg_hash}") in _assert_refused(argv, out, ck, capsys)


def test_resume_refuses_v2_ledger(tmp_path, capsys):
    argv, out, ck = _ledger_scan(tmp_path, 1)
    head, rest = ck.read_text().split("\n", 1)
    magic, _, cfg_hash = head.split()
    ck.write_text(f"{magic} v2 {cfg_hash}\n{rest}")
    assert repr(f"{magic} v2 {cfg_hash}") in _assert_refused(argv, out, ck, capsys)


def test_ledger_is_sealed_by_the_v3_rule(tmp_path):
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
    lambda c: c.__setitem__(5, str(int(c[5]) - 40)),   # out_bytes lowered by 40
    lambda c: c.__setitem__(2, str(int(c[2]) + 1)),    # count
    lambda c: c.__setitem__(3, "1/1"),                 # ratio
    lambda c: c.__setitem__(4, "7"),                   # argmax
    lambda c: c.append("5"),                           # an appended violation n
], ids=["out_bytes-40", "count", "ratio", "argmax", "violation"])
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
