import os
from fractions import Fraction

import pytest

from collatzstop import (
    CappedWalk, CheckpointError, DomainError, ScanConfig, ScanStats,
    StoppingRecord, checkpoint_resume, empirical_alpha, scan_collect,
    scan_range, stopping_record,
)
from collatzstop.cli import main
from collatzstop.reports import scan_to_csv


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
    state = checkpoint_resume(str(ck))
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


def test_resume_rejects_mismatched_config(tmp_path):
    out = tmp_path / "a.csv"
    ck = tmp_path / "a.ck"
    scan_to_csv("scan", ScanConfig(start=2, end=3000, chunk_size=500,
                                   checkpoint_path=str(ck)), str(out), max_chunks=2)
    with pytest.raises(CheckpointError):
        scan_to_csv("scan", ScanConfig(start=2, end=4000, chunk_size=500,
                                       checkpoint_path=str(ck)), str(out))


def test_resume_rejects_corrupt_checkpoint(tmp_path):
    ck = tmp_path / "bad.ck"
    ck.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointError):
        checkpoint_resume(str(ck))
    ck.write_text("")
    with pytest.raises(CheckpointError):
        checkpoint_resume(str(ck))
    with pytest.raises(CheckpointError):
        checkpoint_resume(str(tmp_path / "missing.ck"))


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
