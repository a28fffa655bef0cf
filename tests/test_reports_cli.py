import io
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import ROUND_DOWN, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzstop import core
from collatzstop.bounds import cycle_candidate, cycle_upper_bound, log3_2, matveev_constant
from collatzstop.cli import main
from collatzstop.core import stopping_record
from collatzstop.errors import CollatzStopError, DomainError
from collatzstop.reports import (
    Report, VerifyError, _printable, bounds_report, cycles_report, render_sig,
    scan_to_csv, seq_report, stop_report, table1_report,
    table2_report, table3_report, table4_report, traj_report, verify_csv,
    write_csv, write_jsonl,
)
from collatzstop.scan import CLASS_FILTERS, ScanConfig
from collatzstop.sequences import parse_sequence
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
    lines = csv_text(table4_report(s_max=600)).splitlines()
    assert lines[0] == "s,r,lower,ratio,log3_2,log10_gap"
    s, r, lower, ratio, l32, lg = lines[1].split(",")
    assert (s, r) == ("485", "306")
    assert lower == "0.629628867481619"
    assert ratio == "0.630927835051546"
    assert l32 == "0.630929753571457"
    assert lg.startswith("-5.7170336891")


def test_cycles_report():
    lines = csv_text(cycles_report(6)).splitlines()
    assert lines[0] == "s,r,q,numerator,denominator,m1,alpha,m1_upper"
    assert lines[1] == "2,1,10,1,1,1,40,0"
    assert lines[2] == "4,2,1010,7,7,1,40,40/7"


def test_bounds_report():
    lines = csv_text(bounds_report(3)).splitlines()
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
    a = csv_text(table4_report(2000))
    b = csv_text(table4_report(2000))
    assert a == b
    out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
    scan_to_csv("fig3", ScanConfig(start=7, end=3000, class_filter="12i+7"), str(out1))
    scan_to_csv("fig3", ScanConfig(start=7, end=3000, class_filter="12i+7"), str(out2))
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("build", [
    lambda: table1_report(30),
    lambda: table2_report(467),
    lambda: table3_report(4, 10),
    lambda: table4_report(2000),
    lambda: cycles_report(10),
    lambda: bounds_report(10),
    lambda: stop_report(27),
    lambda: traj_report(27, 100),
    lambda: seq_report("1110100"),
    lambda: seq_report("1110100", 7),
])
def test_verify_roundtrip(tmp_path, build):
    path = tmp_path / "report.csv"
    with open(path, "wb") as fh:
        write_csv(build(), fh)
    assert verify_csv(str(path)) > 0


def _single_byte_mutants(data: bytes) -> set[bytes]:
    """data with one byte deleted, doubled, or replaced by one of `0159,-/.`,
    LF, `x` and `a`; data itself is left out."""
    mutants = set()
    for i in range(len(data)):
        head, byte, tail = data[:i], data[i:i + 1], data[i + 1:]
        news = (b"", byte * 2, *(bytes([c]) for c in b"0159,-/.\nxa"))
        mutants.update(head + new + tail for new in news)
    mutants.discard(data)
    return mutants


@pytest.mark.parametrize("argv", [["cycles", "--s-max", "8"], ["bounds", "--r", "4"]],
                         ids=["cycles", "bounds"])
def test_verify_refuses_every_single_byte_mutant(tmp_path, argv):
    # every row's alpha cell included, the r = 1 row's too, whose unit 0 makes
    # m1_upper 0 at any alpha
    path = tmp_path / "o.csv"
    assert main(argv + ["--out", str(path)]) == 0
    survivors = []
    for mutant in sorted(_single_byte_mutants(path.read_bytes())):
        path.write_bytes(mutant)
        try:
            verify_csv(str(path))
        except CollatzStopError:
            continue
        survivors.append(mutant.decode("ascii"))
    assert survivors == []


@pytest.mark.parametrize("kind,cfg", [
    ("scan", dict(start=2, end=400)),
    pytest.param("scan", dict(start=25, end=40), marks=pytest.mark.step_cap(5)),
    ("fig2", dict(start=3, end=500)),
    ("fig3", dict(start=7, end=2000, class_filter="12i+7")),
    ("scan", dict(start=2, end=500, class_filter="12i+3")),
    ("scan", dict(start=2, end=500, class_filter="12i+11")),
    # its first rows, 23 and 35, both lie in 12i+11, and 43 in 12i+7
    pytest.param("fig3", dict(start=20, end=400), marks=pytest.mark.step_cap(7)),
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


def _rows(report: Report) -> list[str]:
    return csv_text(report).splitlines()[1:]


def _table2_key_row(draw) -> str:
    # the walk's row for any n, also for n outside the three classes table 2 holds
    n = draw(st.integers(2, 600))
    rec = stopping_record(n)
    return f"{n},{rec.q.bits if rec.s <= 15 else ''},{rec.value}"


def _table3_key_row(draw) -> str:
    # the first s parities of any odd m below 2^(s+1), whether or not m stops at s
    s = draw(st.integers(1, 12))
    m = 2 * draw(st.integers(0, (1 << s) - 1)) + 1
    bits, x = "", m
    for _ in range(s):
        bits += str(x & 1)
        x = (3 * x + 1) // 2 if x & 1 else x // 2
    r = bits.count("1")
    return f"{s},{r},{3 * r},{2 * s},{3 ** r},{1 << s},12i+{m % 12},{m},{bits}"


def _table4_key_row(draw) -> str:
    # the cells of (s, r) for r at or next to floor(s log3 2), inside the
    # descent window or not; a stub row when r/s is not below log3(2)
    s = draw(st.integers(2, 3000))
    r = s * 630929753571457 // 10 ** 15 + draw(st.sampled_from([0, 0, -1, 1]))
    with localcontext() as ctx:
        ctx.prec = 60
        l32 = log3_2()
        gap = l32 - Decimal(r) / s
        if gap <= 0:
            return f"{s},{r},0,0,0,0"
        cells = (l32 * (s - 1) / s, Decimal(r) / s, l32, gap.log10())
    return ",".join([str(s), str(r), *map(render_sig, cells)])


def _cycles_key_row(draw) -> str:
    # the closed-form row of any word, whether or not its m1 is an integer >= 1
    bits = draw(st.text("01", min_size=1, max_size=12))
    q = parse_sequence(bits)
    try:
        c = cycle_candidate(q)
    except DomainError:
        return f"{q.s},{q.r},{bits},0,1,0,40,0"
    return ",".join(map(str, (q.s, q.r, bits, c.numerator, c.denominator,
                              c.m1, 40, cycle_upper_bound(q.r, q.s))))


# kind -> (header, rows of a run that covers every drawn key, key row);
# table4's rows are records from 2, and each opens the output of a run whose
# --s-min is its own s, which is the output a table4 row is checked against
_PRODUCERS = {
    "table2": ("n,q,F", lambda: _rows(table2_report(600)), _table2_key_row),
    "table3": ("s,r,3r,2s,3^r,2^s,class,m,q", lambda: _rows(table3_report(1, 12)),
               _table3_key_row),
    "table4": ("s,r,lower,ratio,log3_2,log10_gap", lambda: _rows(table4_report(3000, 2)),
               _table4_key_row),
    "cycles": ("s,r,q,numerator,denominator,m1,alpha,m1_upper", lambda: _rows(cycles_report(12)),
               _cycles_key_row),
}


@pytest.mark.parametrize("kind", sorted(_PRODUCERS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_verify_accepts_a_row_exactly_when_the_producer_writes_it(tmp_path_factory, kind, data):
    header, produced, key_row = _PRODUCERS[kind]
    rows = produced()
    line = data.draw(st.sampled_from(rows)) if data.draw(st.booleans()) else key_row(data.draw)
    if data.draw(st.booleans()):
        line += "0"  # the last cell changed
    if kind == "table4":
        s = int(line.split(",")[0])
        rows = _rows(table4_report(s, s))
    path = tmp_path_factory.mktemp(kind) / "one.csv"
    path.write_text(f"{header}\n{line}\n")
    try:
        verified = verify_csv(str(path)) == 1
    except VerifyError:
        verified = False
    assert verified == (line in rows)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["scan", "fig2", "fig3"]), cls=st.sampled_from(CLASS_FILTERS),
       start=st.integers(2, 200), span=st.integers(0, 300), cap=st.integers(1, 30),
       data=st.data())
def test_verify_accepts_a_scan_file_exactly_as_one_run_writes_it(tmp_path_factory, kind, cls,
                                                                 start, span, cap, data):
    path = tmp_path_factory.mktemp(kind) / "run.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "DEFAULT_STEP_CAP", cap)  # the producer's and verify's one cap
        scan_to_csv(kind, ScanConfig(start, start + span, cls), str(path))
        lines = path.read_text().splitlines(keepends=True)
        assert verify_csv(str(path)) == len(lines) - 1
        if len(lines) < 4:  # no row between the first and the last
            return
        cut = data.draw(st.integers(2, len(lines) - 2), label="cut")  # lines[cut] is file line cut + 1
        path.write_text("".join(lines[:cut] + lines[cut + 1:]))
        left = {int(ln.split(",")[0]) % 12 for ln in lines[1:cut] + lines[cut + 1:]}
        # a file left in one hard class, not the cut row's, is that class's run
        if (len(left) == 1 and left <= {3, 7, 11}
                and int(lines[cut].split(",")[0]) % 12 not in left):
            assert verify_csv(str(path)) == len(lines) - 2
        else:
            with pytest.raises(VerifyError, match=f":{cut + 1}: .*n must rise by the scan's one step"):
                verify_csv(str(path))


# ------------------------------------------------------------------ CLI

def test_cli_stop_json(capsys):
    assert main(["stop", "423", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"n": 423, "s": 10, "r": 6, "q": "1110110100",
                               "value": 302}


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["stop", "1"]) == 2
    assert main(["stop", "27", "--step-cap", "10"]) == 1  # every walk stops at the one cap
    for kind in ("scan", "fig2", "fig3"):
        out = tmp_path / f"{kind}.csv"
        assert main([kind, "--end", "50", "--step-cap", "5", "--out", str(out)]) == 1
        assert not out.exists()
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
    (lambda: table4_report(2000), "485"),               # row cut short
])
def test_cli_verify_malformed_row(tmp_path, capsys, build, bad_row):
    path = tmp_path / "bad.csv"
    lines = csv_text(build()).splitlines()
    lines[2] = bad_row
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:3: ")


@pytest.mark.parametrize("argv", [["table4", "--s-max", "2000", "--out", "out.csv", "--digits", "50"],
                                  ["bounds", "--r", "5", "--out", "out.csv", "--digits", "50"],
                                  ["verify", "t4.csv", "--digits", "50"],
                                  ["table2", "--max-n", "300", "--out", "out.csv", "--q-cap", "8"],
                                  ["verify", "t4.csv", "--q-cap", "15"]])
def test_cli_digits_is_refused(tmp_path, capsys, argv):
    # one working precision and one word cap: no command takes --digits or --q-cap
    (tmp_path / "t4.csv").write_text("s,r,lower,ratio,log3_2,log10_gap\n")
    argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and argv[-2] in captured.err
    assert not (tmp_path / "out.csv").exists()


def test_cli_ignores_digits_variable(tmp_path, capsys, monkeypatch):
    # the outputs and their verify are the same whatever COLLATZSTOP_DIGITS holds
    runs = {"table4": ["table4", "--s-max", "20000"], "bounds": ["bounds", "--r", "40"],
            "scan": ["scan", "--end", "500"]}

    def produce_and_verify(tag):
        files, printed = {}, []
        for name, argv in runs.items():
            out = tmp_path / f"{name}-{tag}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            assert main(["verify", str(out)]) == 0
            files[name] = out.read_bytes()
            printed.append(capsys.readouterr().out)
        return files, printed

    monkeypatch.delenv("COLLATZSTOP_DIGITS", raising=False)
    plain = produce_and_verify("plain")
    monkeypatch.setenv("COLLATZSTOP_DIGITS", "abc")
    assert produce_and_verify("abc") == plain


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
    lines = csv_text(table4_report(2000)).splitlines()
    lines[1] = lines[1].replace("485,306,", "485,1306,", 1)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ")
    assert "r/s = 1306/485 is not below log3(2)" in err


_T4_485 = "485,306,0.629628867481619,0.630927835051546,0.630929753571457,-5.71703368918797\n"
_T4_1539 = "1539,971,0.630519792717935,0.630929174788824,0.630929753571457,-6.23748450843968\n"
_SCAN_2_7 = ("n,class,s,r,q,value,capped\n2,3i+2,1,0,0,1,0\n3,12i+3,4,2,1100,2,0\n"
             "4,3i+1,1,0,0,2,0\n5,12i+5,2,1,10,4,0\n6,3i,1,0,0,3,0\n7,12i+7,7,4,1110100,5,0\n")
_FIG3_7 = "7,7,4,0.632812500000000,0.570312500000000,0.148437500000000,3.84210526315789,0.714285714285714\n"
_FIG3_19 = "19,4,2,0.562500000000000,0.312500000000000,0.0625000000000000,5.00000000000000,0.578947368421053\n"


@pytest.mark.parametrize("text,line,reason", [
    ("n,class,s,r,q,value,capped\n1,12i+1,2,1,10,1,1\n", 2, "no scan starts below 2"),
    # s = 0 has no rule of its own: the replay refuses the row by its line
    ("n,class,s,r,q,value,capped\n27,12i+3,0,0,0,27,1\n", 2,
     "row '27,12i+3,0,0,0,27,1' does not re-derive; expected '27,12i+3,59,37,"),
    ("n,q,F\n4,0,2\n5,10,4\n", 2, "table 2 holds only 12i+3, 12i+7 and 12i+11"),
    ("n,s,r,r_over_s,pow_ratio\n3,4,2,0.500000000000000,0.562500000000000\n"
     "4,1,0,0,0.500000000000000\n", 3, "row for 4 should not appear in fig2"),
    ("s,r,3r,2s,3^r,2^s,class,m,q\n5,3,9,10,27,32,12i+3,3,11010\n", 2,
     "3 does not stop in exactly 5 steps"),
    ("n,step,value,parity\n5,1,8,1\n5,2,4,0\n5,3,2,0\n5,4,1,0\n5,5,2,1\n", 6,
     "the walk from 5 has already reached 1"),
    # the alpha cell is bounds.ALPHA, even where the r = 1 unit makes m1_upper 0 at any alpha
    ("s,r,q,numerator,denominator,m1,alpha,m1_upper\n2,1,10,1,1,1,-1,0\n", 2,
     "does not re-derive; expected '2,1,10,1,1,1,40,0'"),
    ("r,s,alpha,pow_ratio,m1_upper,m1_lower,lower_positive\n"
     "1,2,0,0.750000000000000,0,-0.199023144560607,0\n", 2,
     "does not re-derive; expected '1,2,40,0.750000000000000,0,-0.199023144560607,0'"),
    ("i,3i,3i+2,3i+1,12i+3,12i+7,12i+11,marks\n-1,-3,-1,-2,-9,-5,-1,-3r -1b\n", 2,
     "i must be >= 0, got -1"),
    ("s,r,3r,2s,3^r,2^s,class,m,q\n"
     "26,16,48,52,43046721,67108864,12i+7,991,11111001101110101101101000\n", 2,
     "census of length 26 exceeds the cap 24"),
    ("s,r,q,numerator,denominator,m1,alpha,m1_upper\n3,1,100,1,5,1/5,40,0\n", 2,
     "word 100 does not start with 1 or has no integer m1 >= 1"),
    ("s,r,q,numerator,denominator,m1,alpha,m1_upper\n2,1,01,2,1,2,40,0\n", 2,
     "word 01 does not start with 1 or has no integer m1 >= 1"),
    ("s,r,q,numerator,denominator,m1,alpha,m1_upper\n"
     "22,11,1010101010101010101010,4017157,4017157,1,40,2321000/4017157\n", 2,
     "cycle search to length 22 exceeds the cap 20"),
    ("s,r,lower,ratio,log3_2,log10_gap\n"
     "1000,3,0.630298823817886,0.00300000000000000,0.630929753571457,-0.202088938018646\n", 2,
     "r/s = 3/1000 is not above (1 - 1/s) log3(2)"),
    ("s,r,lower,ratio,log3_2,log10_gap\n" + _T4_1539 + _T4_485, 3,
     "(485, 306) does not follow (1539, 971): s must rise and the gap must fall"),
    ("s,r,lower,ratio,log3_2,log10_gap\n" + _T4_485 + _T4_485, 3,
     "(485, 306) does not follow (485, 306)"),
    ("s,r,lower,ratio,log3_2,log10_gap\n" + _T4_1539
     + "1541,972,0.630520324789127,0.630759247242051,0.630929753571457,-3.76825949482142\n", 3,
     "(1541, 972) does not follow (1539, 971)"),
    ("s,r,lower,ratio,log3_2,log10_gap\n10000001,6309298,0,0,0,0\n", 2,
     "record at s = 10000001 exceeds the cap 10000000"),
    ("r,s,alpha,pow_ratio,m1_upper,m1_lower,lower_positive\n100001,158497,40,0,0,0,0\n", 2,
     "bound at r = 100001 exceeds the cap 100000"),
    (_SCAN_2_7 + "7,12i+7,7,4,1110100,5,0\n", 8, "7 does not follow 7: n must rise"),
    ("m,s,r,pow_ratio,sigma,lower_unit,alpha_ratio,F_over_m\n" + _FIG3_19 + _FIG3_7, 3,
     "7 does not follow 19: n must rise"),
    # chunks of 3 from 2: a resume that appended its last chunk, 5..7, twice
    (_SCAN_2_7 + _SCAN_2_7.split("\n", 4)[4], 8, "5 does not follow 7: n must rise"),
    # a row the run leaves out is refused at its own line, before a later fault
    ("n,s,r,r_over_s,pow_ratio\n3,4,2,0.500000000000000,0.562500000000000\n"
     "4,1,0,0,0.500000000000000\n4,1,0,0,0.500000000000000\n", 3,
     "row for 4 should not appear in fig2"),
    # under a cap of 1 no odd n stops, so no walk runs on to the last row
    pytest.param("n,s,r,r_over_s,pow_ratio\n3,1,0,0,0\n" + f"{10 ** 30 + 3},1,0,0,0\n", 2,
                 "row for 3 should not appear in fig2", marks=pytest.mark.step_cap(1)),
    # each line ends in LF alone, as written: not CR LF, and not cut before its LF
    ("n,q,F\r\n3,1100,2\r\n", 1, "unrecognized header 'n,q,F\\r'"),
    (_SCAN_2_7.replace("\n6,", "\r\n6,"), 5,
     "row '5,12i+5,2,1,10,4,0\\r' does not re-derive; expected '5,12i+5,2,1,10,4,0'"),
    (_SCAN_2_7[:-1], 7, "line '7,12i+7,7,4,1110100,5,0' does not end in LF"),
    ("n,q,F", 1, "line 'n,q,F' does not end in LF"),
    # a traj row past the one walk cap, which `traj --limit` cannot pass
    pytest.param("n,step,value,parity\n1,1,2,1\n1,2,1,0\n1,3,2,1\n", 4,
                 "trajectory step 3 exceeds the cap 2", marks=pytest.mark.step_cap(2)),
    # refused before its arithmetic, which is quadratic in the word's length
    ("q,s,r,weighted_sum,sigma\n" + "1" * 10 ** 6 + ",1000000,1000000,0,0\n", 2,
     "parity word of length 1000000 exceeds the cap 100000"),
    # file content is quoted to its first 100 characters, with its length
    ("q,s,r,weighted_sum,sigma\n" + "2" * 10 ** 6 + ",1,0,0,0\n", 2,
     f"row '{'2' * 100}'... (1000008 characters): parity word may only contain 1 and 0: "
     f"'{'2' * 100}'... (1000000 characters)\n"),
], ids=["scan-n-below-2", "scan-zero-steps", "table2-class-12i+4", "fig2-even-n", "table3-wrong-length",
        "traj-past-1", "cycles-negative-alpha", "bounds-zero-alpha", "table1-negative-i",
        "table3-past-census-cap", "cycles-m1-not-integer", "cycles-first-bit-0",
        "cycles-past-cap", "table4-below-window", "table4-rows-swapped", "table4-row-repeated",
        "table4-gap-not-falling", "table4-past-cap", "bounds-past-cap", "scan-row-repeated",
        "fig3-rows-swapped", "scan-last-chunk-twice", "fig2-left-out-row-before-a-fault",
        "fig2-cap-writes-no-row", "table2-crlf", "scan-one-crlf-row", "scan-no-final-newline",
        "table2-header-only-no-newline", "traj-past-step-cap", "seq-past-word-cap",
        "seq-long-foreign-word"])
def test_cli_verify_refuses_unproducible_row(tmp_path, capsys, text, line, reason):
    path = tmp_path / "r.csv"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")
    assert reason in err
    assert err.count("\n") == 1 and len(err) < 1024  # one short line, whatever the file holds


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv,first", [
    (["table1", "--rows", "200000"], b"i,3i,3i+2,3i+1,12i+3,12i+7,12i+11,marks\n"),
    (["table3", "--json", "--s-max", "18"],
     b'{"s":4,"r":2,"3r":6,"2s":8,"3^r":9,"2^s":16,"class":"12i+3","m":3,"q":"1100"}\n'),
    (["scan", "--end", "3000", "--out", "scan.csv"], None),
], ids=["table1", "table3-json", "scan-summary"])
def test_cli_closed_stdout_exits_0(tmp_path, argv, first, unbuffered):
    # the reader takes one line of a table that overflows the pipe buffer,
    # or none of the scan summary, and closes the pipe: as `| head -1` does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "collatzstop", *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if first is not None:
        assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_cli_verify_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: empty file\n"


@pytest.mark.parametrize("argv,reason", [
    (["scan", "--end", "50", "--workers", "0"], "workers must be >= 1"),
    (["scan", "--end", "50", "--chunk-size", "0"], "chunk_size must be >= 1"),
    (["table1", "--rows", "0"], "rows must be >= 1"),
    (["table3", "--s-min", "9", "--s-max", "5"], "need 1 <= s_min <= s_max"),
    (["bounds", "--r", "0"], "r must be >= 1"),
    # the cycle-number bounds have one envelope, bounds.ALPHA, and no option to set another
    (["cycles", "--s-max", "6", "--alpha=-1"], "usage error: unrecognized arguments: --alpha=-1"),
    (["cycles", "--s-max", "6", "--alpha", "7"], "usage error: unrecognized arguments: --alpha 7"),
    (["bounds", "--r", "3", "--alpha=-7/3"], "usage error: unrecognized arguments: --alpha=-7/3"),
    (["bounds", "--r", "3", "--alpha", "3"], "usage error: unrecognized arguments: --alpha 3"),
    (["stop", "1"], "stopping is defined for n >= 2, got 1"),
    (["stop", "-3"], "stopping is defined for n >= 2, got -3"),
    (["scan", "--end", "3000", "--chunk-size", "1000", "--max-chunks", "-1"],
     "max_chunks must be >= 0, got -1"),
    (["fig3", "--end", "1000", "--chunk-size", "100", "--max-chunks", "-2"],
     "max_chunks must be >= 0, got -2"),
    (["table4", "--s-max", "10000001"], "record at s = 10000001 exceeds the cap 10000000"),
    (["bounds", "--r", "100001"], "bound at r = 100001 exceeds the cap 100000"),
    (["seq", "1" * 10000], f"more than {sys.get_int_max_str_digits()} digits"),
    (["traj", str(2 ** 14000 - 1), "--limit", "20000"],
     f"more than {sys.get_int_max_str_digits()} digits"),
    (["seq", "1" * 10 ** 6, "--apply", "7"], "parity word of length 1000000 exceeds the cap 100000"),
    pytest.param(["traj", "1", "--limit", "11"], "trajectory limit 11 exceeds the cap 10",
                 marks=pytest.mark.step_cap(10)),
])
def test_cli_out_of_domain_arguments_write_nothing(tmp_path, capsys, argv, reason):
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == (1 if reason.startswith("usage error: ") else 2)
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_printable_is_exact():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        edge = 10 ** 4300 - 1
        rows = [["x" * 5000, edge, Fraction(1, edge), -edge]]
        assert _printable(rows) is rows and str(edge)
        for v in (10 ** 4300, -(10 ** 4300), Fraction(1, 10 ** 4300)):
            with pytest.raises(DomainError, match="more than 4300 digits"):
                _printable([[7], ["x", v]])
        sys.set_int_max_str_digits(0)  # no limit
        _printable([[10 ** 5000]])
    finally:
        sys.set_int_max_str_digits(limit)


def test_caller_decimal_context_changes_no_output():
    # every decimal result is rounded in a context of its own
    want = csv_text(table4_report(3000)) + csv_text(bounds_report(20))
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 5, ROUND_DOWN
        assert csv_text(table4_report(3000)) + csv_text(bounds_report(20)) == want
        assert matveev_constant() == 821013301


def test_table1_streams():
    # rows are built as they are written, so the peak does not grow with --rows
    tracemalloc.start()
    try:
        with open(os.devnull, "wb") as fh:
            assert write_csv(table1_report(100_000), fh) == 100_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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


@pytest.mark.parametrize("args,summary", [
    (["fig2", "--start", "3", "--end", "3000"], "rows=1499 "),
    # 13 n walked; only 43, 51 and 55 are odd, stop within 7 steps and have r >= 2
    pytest.param(["fig3", "--class", "all", "--start", "43", "--end", "55"], "rows=3 ",
                 marks=pytest.mark.step_cap(7)),
    # 5 stops with r = 1, so fig3 writes no row and has no ratio
    (["fig3", "--class", "all", "--start", "5", "--end", "5"],
     "rows=0 max_alpha_ratio=- argmax_n=- complete=1\n"),
], ids=["fig2-odd-n", "fig3-all-capped", "fig3-no-row"])
def test_cli_scan_summary_counts_the_rows_in_its_file(tmp_path, capsys, args, summary):
    out = tmp_path / "s.csv"
    assert main([*args, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert main(["verify", str(out)]) == 0
    rows = int(capsys.readouterr().out.split()[1])
    assert printed.startswith(summary) and printed.startswith(f"rows={rows} ")


@pytest.mark.parametrize("args,cut,line", [
    (["scan", "--start", "2", "--end", "30"], range(10, 21), 10),
    (["scan", "--start", "2", "--end", "200", "--class", "12i+7"], [5], 5),
    (["fig2", "--start", "3", "--end", "3000"], [50], 50),
    (["fig3", "--end", "20007"], [50], 50),
    # 10087's is the file's one walk of 105 steps: verify walks under the
    # producer's cap, not one the longest walk left in the file implies
    (["fig3", "--end", "20007"], [842], 842),
], ids=["all-lines-10-20", "12i+7-one-row", "fig2-line-50", "fig3-line-50", "fig3-longest-walk"])
def test_cli_verify_refuses_a_scan_with_rows_cut_out(tmp_path, capsys, args, cut, line):
    out, gap = tmp_path / "s.csv", tmp_path / "gap.csv"
    assert main([*args, "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    gap.write_text("".join(ln for i, ln in enumerate(lines, 1) if i not in cut))
    capsys.readouterr()
    assert main(["verify", str(gap)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gap}:{line}: ")
    left_out = lines[cut[0] - 1].split(",", 1)[0]
    assert f" leaves out {left_out}: n must rise by the scan's one step" in err
    # a file of a scan's last rows cannot show where the range began
    last = tmp_path / "last.csv"
    last.write_text(lines[0] + "".join(lines[-5:]))
    assert main(["verify", str(last)]) == 0
    assert capsys.readouterr().out == "verified 5 rows\n"


def test_cli_verify_refuses_a_scan_joined_from_runs_with_two_caps(tmp_path, capsys, monkeypatch):
    # no one run writes 27 capped at 5 steps beside 63 capped at 7
    a, b, joined = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "mixed.csv"
    monkeypatch.setattr(core, "DEFAULT_STEP_CAP", 5)
    assert main(["scan", "--start", "25", "--end", "60", "--out", str(a)]) == 0
    monkeypatch.setattr(core, "DEFAULT_STEP_CAP", 7)
    assert main(["scan", "--start", "61", "--end", "90", "--out", str(b)]) == 0
    joined.write_text(a.read_text() + b.read_text().split("\n", 1)[1])
    capsys.readouterr()
    assert main(["verify", str(joined)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {joined}:4: row '27,12i+3,5,4,11011,71,1' does not re-derive; "
                          "expected '27,12i+3,7,6,1101111,161,1'")


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
    assert main(["table4", "--s-max", "1600"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[1].startswith("485,306,") and out[2].startswith("1539,971,")


def test_cli_out_file(tmp_path):
    path = tmp_path / "t1.csv"
    assert main(["table1", "--rows", "5", "--out", str(path)]) == 0
    assert path.read_text().splitlines()[1] == "0,0,2,1,3,7,11,1r"
