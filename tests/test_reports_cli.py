import io
import json
from decimal import Decimal

import pytest

from collatzstop.cli import main
from collatzstop.reports import (
    Report, VerifyError, bounds_report, cycles_report, render_rational,
    render_sig, scan_to_csv, seq_report, stop_report, table1_report,
    table2_report, table3_report, table4_report, traj_report, verify_csv,
    write_csv, write_jsonl,
)
from collatzstop.scan import ScanConfig
from fractions import Fraction


def csv_text(report: Report) -> str:
    buf = io.BytesIO()
    write_csv(report, buf)
    return buf.getvalue().decode()


def test_render_sig():
    assert render_sig(Decimal("0.5")) == "0.500000000000000"
    assert render_sig(Decimal("-12.71123253735459876")) == "-12.7112325373546"
    assert render_sig(Decimal("0.630929753571457437")) == "0.630929753571457"
    assert render_sig(Decimal(0)) == "0"
    assert render_sig(Decimal("123456")) == "123456.000000000"


def test_render_rational():
    assert render_rational(Fraction(5, 16)) == "5/16"
    assert render_rational(Fraction(8, 4)) == "2"
    assert render_rational(Fraction(-3, 7)) == "-3/7"


def test_table1_rows_and_marks():
    text = csv_text(table1_report(4))
    lines = text.splitlines()
    assert lines[0] == "i,3i,3i+2,3i+1,12i+3,12i+7,12i+11,marks"
    assert lines[1] == "0,0,2,1,3,7,11,1r"
    assert lines[2] == "1,3,5,4,15,19,23,3b 5r"
    assert lines[4] == "3,9,11,10,39,43,47,9r 11b"


def test_table2_blank_and_printed():
    text = csv_text(table2_report(35))
    lines = text.splitlines()
    assert lines[0] == "n,q,F"
    assert "27,,23" in lines
    assert "3,1100,2" in lines
    # grouped by class: all 12i+3 rows before 12i+7 rows
    assert lines.index("3,1100,2") < lines.index("7,1110100,5")


def test_table3_first_row():
    lines = csv_text(table3_report(4, 4)).splitlines()
    assert lines[1] == "4,2,6,8,9,16,12i+3,3,1100"


def test_table4_first_row():
    lines = csv_text(table4_report(s_max=600, digits=50)).splitlines()
    assert lines[0] == "s,r,lower,ratio,log3_2,log10_gap"
    s, r, lower, ratio, l32, lg = lines[1].split(",")
    assert (s, r) == ("485", "306")
    assert lower == "0.629628867481619"
    assert ratio == "0.630927835051546"
    assert l32 == "0.630929753571457"
    assert lg.startswith("-5.7170336891")


def test_cycles_report():
    lines = csv_text(cycles_report(6, 40)).splitlines()
    assert lines[0] == "s,r,q,numerator,denominator,m1,alpha,m1_upper"
    assert lines[1] == "2,1,10,1,1,1,40,0"
    assert lines[2] == "4,2,1010,7,7,1,40,40/7"


def test_bounds_report():
    lines = csv_text(bounds_report(3, 40, 50)).splitlines()
    assert lines[0] == "r,s,alpha,pow_ratio,m1_upper,m1_lower,lower_positive"
    r, s, alpha, pow_ratio, upper, lower, positive = lines[1].split(",")
    assert (r, s, alpha) == ("1", "2", "40")
    assert pow_ratio == "0.750000000000000"
    assert upper == "0"
    assert positive == "0"


def test_stop_traj_seq_reports():
    assert csv_text(stop_report(423)).splitlines()[1] == "423,10,6,1110110100,302"
    lines = csv_text(traj_report(5, 10)).splitlines()
    assert lines == ["n,step,value,parity", "5,1,8,1", "5,2,4,0", "5,3,2,0", "5,4,1,0"]
    lines = csv_text(seq_report("1100", 3)).splitlines()
    assert lines[1] == "1100,4,2,5,5/16,3,2,1,1"
    lines = csv_text(seq_report("10", 4)).splitlines()
    assert lines[1] == "10,2,1,1,1/4,4,13/4,0,0"


def test_jsonl_typing():
    buf = io.BytesIO()
    write_jsonl(stop_report(423), buf)
    obj = json.loads(buf.getvalue().decode())
    assert obj == {"n": 423, "s": 10, "r": 6, "q": "1110110100", "value": 302}


def test_csv_byte_identical_reruns(tmp_path):
    a = csv_text(table4_report(2000, 50))
    b = csv_text(table4_report(2000, 50))
    assert a == b
    out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
    scan_to_csv("fig3", ScanConfig(start=7, end=3000, class_filter="12i+7"), str(out1))
    scan_to_csv("fig3", ScanConfig(start=7, end=3000, class_filter="12i+7"), str(out2))
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("build", [
    lambda: table1_report(30),
    lambda: table2_report(467),
    lambda: table3_report(4, 10),
    lambda: table4_report(2000, 50),
    lambda: cycles_report(10, 40),
    lambda: bounds_report(10, 40, 50),
    lambda: stop_report(27),
    lambda: traj_report(27, 100),
    lambda: seq_report("1110100"),
    lambda: seq_report("1110100", 7),
])
def test_verify_roundtrip(tmp_path, build):
    path = tmp_path / "report.csv"
    with open(path, "wb") as fh:
        write_csv(build(), fh)
    assert verify_csv(str(path), digits=50) > 0


@pytest.mark.parametrize("kind,cfg", [
    ("scan", dict(start=2, end=400)),
    ("scan", dict(start=25, end=40, step_cap=5)),
    ("fig2", dict(start=3, end=500)),
    ("fig3", dict(start=7, end=2000, class_filter="12i+7")),
])
def test_verify_scan_roundtrip(tmp_path, kind, cfg):
    path = tmp_path / f"{kind}.csv"
    scan_to_csv(kind, ScanConfig(**cfg), str(path))
    assert verify_csv(str(path)) > 0


def test_verify_detects_tampering(tmp_path):
    path = tmp_path / "t.csv"
    with open(path, "wb") as fh:
        write_csv(table2_report(100), fh)
    text = path.read_text().replace("3,1100,2", "3,1100,4")
    path.write_text(text)
    with pytest.raises(VerifyError):
        verify_csv(str(path))


def test_verify_rejects_unknown_header(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(VerifyError):
        verify_csv(str(path))


# ------------------------------------------------------------------ CLI

def test_cli_stop_json(capsys):
    assert main(["stop", "423", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"n": 423, "s": 10, "r": 6, "q": "1110110100",
                               "value": 302}


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["stop", "1"]) == 2
    assert main(["nonsense"]) == 1
    assert main(["table2"]) == 1          # missing required --max-n
    assert main(["seq", "10x"]) == 2
    assert main(["cycles", "--s-max", "99"]) == 2
    bad_ck = tmp_path / "bad.ck"
    bad_ck.write_text("garbage\n")
    assert main(["scan", "--start", "2", "--end", "50",
                 "--out", str(tmp_path / "o.csv"), "--checkpoint", str(bad_ck)]) == 3
    capsys.readouterr()


def test_cli_table3_over_cap_writes_nothing(tmp_path, capsys):
    out = tmp_path / "t3.csv"
    assert main(["table3", "--s-max", "30", "--out", str(out)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("build,bad_row", [
    (lambda: table1_report(3), "x,0,2,1,3,7,11,1r"),   # non-integer key cell
    (lambda: table4_report(2000, 50), "485"),           # row cut short
])
def test_cli_verify_malformed_row(tmp_path, capsys, build, bad_row):
    path = tmp_path / "bad.csv"
    lines = csv_text(build()).splitlines()
    lines[2] = bad_row
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:3: ")


def test_cli_bounds_bad_digits_writes_nothing(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--r", "5", "--digits", "0", "--out", str(out)]) == 2
    assert "digits must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_table3_row_outside_census(tmp_path, capsys):
    # 19 stops in 4 steps with word 1100, but the census of length 4 has m < 16
    path = tmp_path / "t3.csv"
    path.write_text("s,r,3r,2s,3^r,2^s,class,m,q\n4,2,6,8,9,16,12i+7,19,1100\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ")
    assert "m = 19 is not an odd residue with 1 < m < 2^4" in err


def test_cli_verify_table4_ratio_above_log3_2(tmp_path, capsys):
    path = tmp_path / "t4.csv"
    lines = csv_text(table4_report(2000, 50)).splitlines()
    lines[1] = lines[1].replace("485,306,", "485,1306,", 1)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path), "--digits", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ")
    assert "r/s = 1306/485 is not below log3(2)" in err


@pytest.mark.parametrize("text,line,reason", [
    ("n,class,s,r,q,value,capped\n1,12i+1,2,1,10,1,1\n", 2, "no scan starts below 2"),
    ("n,class,s,r,q,value,capped\n27,12i+3,0,0,0,27,1\n", 2,
     "no scan walk takes fewer than 1 step, got s = 0"),
    ("n,q,F\n4,0,2\n5,10,4\n", 2, "table 2 holds only 12i+3, 12i+7 and 12i+11"),
    ("n,s,r,r_over_s,pow_ratio\n3,4,2,0.500000000000000,0.562500000000000\n"
     "4,1,0,0,0.500000000000000\n", 3, "row for 4 should not appear in fig2"),
    ("s,r,3r,2s,3^r,2^s,class,m,q\n5,3,9,10,27,32,12i+3,3,11010\n", 2,
     "3 does not stop in exactly 5 steps"),
    ("n,step,value,parity\n5,1,8,1\n5,2,4,0\n5,3,2,0\n5,4,1,0\n5,5,2,1\n", 6,
     "the walk from 5 has already reached 1"),
    ("s,r,q,numerator,denominator,m1,alpha,m1_upper\n2,1,10,1,1,1,-1,0\n", 2,
     "alpha must be > 0, got -1"),
    ("r,s,alpha,pow_ratio,m1_upper,m1_lower,lower_positive\n"
     "1,2,0,0.750000000000000,0,-0.199023144560607,0\n", 2, "alpha must be > 0, got 0"),
], ids=["scan-n-below-2", "scan-zero-steps", "table2-class-12i+4", "fig2-even-n", "table3-wrong-length",
        "traj-past-1", "cycles-negative-alpha", "bounds-zero-alpha"])
def test_cli_verify_refuses_unproducible_row(tmp_path, capsys, text, line, reason):
    path = tmp_path / "r.csv"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")
    assert reason in err


def test_cli_verify_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: empty file\n"


@pytest.mark.parametrize("argv,reason", [
    (["scan", "--end", "50", "--step-cap", "0"], "step_cap must be >= 1"),
    (["scan", "--end", "50", "--chunk-size", "0"], "chunk_size must be >= 1"),
    (["table1", "--rows", "0"], "rows must be >= 1"),
    (["table3", "--s-min", "9", "--s-max", "5"], "need 1 <= s_min <= s_max"),
    (["bounds", "--r", "0"], "r must be >= 1"),
    (["cycles", "--s-max", "6", "--alpha=-1"], "alpha must be > 0, got -1"),
    (["cycles", "--s-max", "6", "--alpha", "0"], "alpha must be > 0, got 0"),
    (["bounds", "--r", "3", "--alpha=-7/3"], "alpha must be > 0, got -7/3"),
    (["bounds", "--r", "3", "--alpha", "0"], "alpha must be > 0, got 0"),
    (["stop", "27", "--step-cap", "0"], "step_cap must be >= 1, got 0"),
    (["stop", "27", "--step-cap", "-1"], "step_cap must be >= 1, got -1"),
    (["scan", "--end", "3000", "--chunk-size", "1000", "--max-chunks", "-1"],
     "max_chunks must be >= 0, got -1"),
    (["fig3", "--end", "1000", "--chunk-size", "100", "--max-chunks", "-2"],
     "max_chunks must be >= 0, got -2"),
])
def test_cli_out_of_domain_arguments_write_nothing(tmp_path, capsys, argv, reason):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_cli_table3_csv(capsys):
    assert main(["table3", "--s-min", "4", "--s-max", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "4,2,6,8,9,16,12i+3,3,1100"
    assert out[2] == "5,3,9,10,27,32,12i+11,11,11010"


def test_cli_scan_and_verify(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--start", "2", "--end", "1000", "--out", str(out),
                 "--workers", "2", "--chunk-size", "100"])
    assert code == 0
    summary = capsys.readouterr().out
    assert "rows=999" in summary and "complete=1" in summary
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_cli_fig2_defaults_overridable(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--start", "3", "--end", "99", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,s,r,r_over_s,pow_ratio"
    assert all(int(ln.split(",")[0]) % 2 == 1 for ln in lines[1:])
    capsys.readouterr()


def test_cli_traj_matches_walk(capsys):
    assert main(["traj", "5", "--limit", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "5,4,1,0"


def test_cli_table4(capsys):
    assert main(["table4", "--s-max", "1600", "--digits", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[1].startswith("485,306,") and out[2].startswith("1539,971,")


def test_cli_out_file(tmp_path):
    path = tmp_path / "t1.csv"
    assert main(["table1", "--rows", "5", "--out", str(path)]) == 0
    assert path.read_text().splitlines()[1] == "0,0,2,1,3,7,11,1r"
