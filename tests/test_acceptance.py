"""Acceptance gate: one PASS/FAIL line per criterion (run with -s to see them).

Each criterion pins its tolerance and runtime budget.  Three rows of the
upstream reference tables are demonstrable misprints (see reference_tables);
they are asserted against their brute-force corrections and reported, never
silently matched or silently skipped.
"""

import math
import os
import time
from decimal import Decimal
from fractions import Fraction

import mpmath as mp

from collatzstop import (
    ResidueFamily, ScanConfig, apply_closed_form, cycle_upper_bound,
    enumerate_cycle_candidates, enumerate_minimal, family_member,
    is_parity_prefix, matveev_constant, matveev_constant_value, ratio_records,
    scan_collect, stopping_record, table2_rows, weighted_sum,
)
from collatzstop.reports import scan_to_csv
from collatzstop.scan import _scan_one
from reference_tables import TABLE2, TABLE2_DEFECTS, TABLE3, TABLE3_DEFECTS, TABLE4


def _gate(num, text, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag}  criterion {num:>2}: {text}{suffix}")
    assert ok, f"criterion {num} failed: {text} {detail}"


def test_c01_table2_reproduction():
    t0 = time.perf_counter()
    rows = {n: (q.bits if q else None, v) for n, _, q, v in table2_rows(467)}
    elapsed = time.perf_counter() - t0
    assert set(rows) == set(TABLE2)
    mismatches = {n: (TABLE2[n], rows[n]) for n in TABLE2 if rows[n] != TABLE2[n]}
    defects_ok = set(mismatches) == set(TABLE2_DEFECTS) and all(
        rows[n] == TABLE2_DEFECTS[n]["actual"] for n in TABLE2_DEFECTS)
    for n in TABLE2_DEFECTS:
        print(f"      reported misprint: n={n} prints {TABLE2_DEFECTS[n]['printed']}, "
              f"walk gives {rows[n]}")
    _gate(1, "stopping rows n <= 467 match the reference exactly "
             "(one documented misprint reported)",
          defects_ok and elapsed < 1.0,
          f"{len(rows)} rows, {elapsed:.3f}s")


def test_c02_table3_reproduction():
    t0 = time.perf_counter()
    exact_ok = True
    for s in (4, 5, 7, 8, 10):
        got = {3: [], 7: [], 11: []}
        for m, q in enumerate_minimal(s):
            got[m % 12].append((m, q.bits))
        exact_ok &= got == TABLE3[s]

    reported = []
    oracle_ok = True
    for s in (12, 13):
        census = {m: q.bits for m, q in enumerate_minimal(s)}
        for cls, pairs in TABLE3[s].items():
            for m, bits in pairs:
                if m not in census:
                    twin = TABLE3_DEFECTS["m_transposed"].get(m)
                    ok = twin in census and census[twin] == bits
                    oracle_ok &= ok
                    reported.append(f"s={s}: listed m={m} absent; {twin} walks the "
                                    f"printed word {bits}")
                elif census[m] != bits:
                    ok = TABLE3_DEFECTS["wrong_words"].get(m) == census[m]
                    oracle_ok &= ok
                    reported.append(f"s={s}: m={m} prints {bits}, walks {census[m]}")
    elapsed = time.perf_counter() - t0
    for line in reported:
        print(f"      reported discrepancy: {line}")
    expected_reports = len(TABLE3_DEFECTS["m_transposed"]) + len(TABLE3_DEFECTS["wrong_words"])
    _gate(2, "minimal census matches the reference for s in {4,5,7,8,10}; "
             "s in {12,13} against the brute-force oracle with discrepancies reported",
          exact_ok and oracle_ok and len(reported) == expected_reports and elapsed < 5.0,
          f"{len(reported)} discrepancies, {elapsed:.3f}s")


def test_c03_emptiness():
    empty_ok = all(enumerate_minimal(s) == [] for s in (1, 3, 6, 9, 11))
    window_ok = True
    for s in (3, 6, 9, 11):
        window_ok &= not any((1 << (s - 1)) < 3 ** r < (1 << s) for r in range(1, 2 * s))
    _gate(3, "no minimal stopping words of length 1, 3, 6, 9, 11 "
             "(exhaustion agrees with the empty power window)",
          empty_ok and window_ok)


def test_c04_record_pair_306_485():
    t0 = time.perf_counter()
    bracket = (1 << 484) < 3 ** 306 < (1 << 485)
    ratio = 3 ** 306 / 2 ** 485
    ratio_ok = abs(ratio - 0.9989783) <= 5e-7
    bound = cycle_upper_bound(306, 485)
    bound_ok = abs(float(bound) - 13036.6) <= 0.1
    elapsed = time.perf_counter() - t0
    _gate(4, "pair (r,s)=(306,485): exact power bracket, ratio 0.9989783+-5e-7, "
             "cycle bound 13036.6+-0.1",
          bracket and ratio_ok and bound_ok and elapsed < 0.1,
          f"ratio={ratio:.9f} bound={float(bound):.1f} {elapsed:.3f}s")


def test_c05_ratio_records_table():
    t0 = time.perf_counter()
    first = ratio_records(485, 25000)
    extended = ratio_records(485, 302000)
    elapsed = time.perf_counter() - t0

    rows_ok = [(rec.s, rec.r) for rec in first] == [(s, r) for s, r, _ in TABLE4[:24]]
    ext_ok = ([(rec.s, rec.r) for rec in extended] == [(s, r) for s, r, _ in TABLE4]
              and len(extended) == 27)

    # accuracy against an independent high-precision oracle
    mp.mp.dps = 60
    l32 = mp.log(2) / mp.log(3)
    worst_true = 0.0
    for rec in extended:
        true_log10 = float(mp.log10(l32 - mp.mpf(rec.r) / rec.s))
        worst_true = max(worst_true, abs(float(rec.log10_gap) - true_log10))
    accuracy_ok = worst_true < 1e-9

    # the printed reference values came from 64-bit floats; their pipeline
    # (two logs, a division, a cancelling subtraction) can be off by a few
    # ulps of 0.63 in the gap, so compare within an 8-ulp envelope and
    # report the rows exceeding plain 1e-9
    float_artifacts = []
    envelope_ok = True
    for rec, (s, r, printed) in zip(extended, TABLE4):
        diff = abs(float(rec.log10_gap) - float(printed))
        envelope = max(1e-9, 8 * 2.3e-16 / (float(rec.gap) * math.log(10)))
        envelope_ok &= diff <= envelope
        if diff > 1e-9:
            float_artifacts.append((s, diff))
    for s, diff in float_artifacts:
        print(f"      reported float artifact in reference row s={s}: "
              f"printed log10 differs from 50-digit value by {diff:.2e}")
    _gate(5, "ratio records to 25000 give the 24 reference rows; extension to "
             "302000 gives all 27; log10 gaps within 1e-9 of the high-precision "
             "oracle (reference float artifacts reported)",
          rows_ok and ext_ok and accuracy_ok and envelope_ok and elapsed < 10.0,
          f"worst oracle diff {worst_true:.1e}, {len(float_artifacts)} artifact rows, "
          f"{elapsed:.2f}s")


def test_c06_cycle_exhaustion():
    t0 = time.perf_counter()
    cands = enumerate_cycle_candidates(16)
    enum_ok = all(c.m1 == 1 for c in cands) and (
        [c.q.bits for c in cands] == ["10" * k for k in range(1, 9)])

    # independent route: walk every odd start for 16 steps looking for returns
    oracle_words = set()
    for n in range(1, 1 << 16, 2):
        v, bits = n, []
        for _ in range(16):
            if v & 1:
                v = (3 * v + 1) >> 1
                bits.append("1")
            else:
                v >>= 1
                bits.append("0")
            if v == n:
                oracle_words.add("".join(bits))
    oracle_ok = oracle_words == {"10" * k for k in range(1, 9)}
    elapsed = time.perf_counter() - t0
    _gate(6, "integer fixed points to length 16 are exactly the repetitions of 10 "
             "with m1=1, agreeing with the odd-start return walk",
          enum_ok and oracle_ok,
          f"{len(cands)} candidates, oracle found {len(oracle_words)} words, {elapsed:.2f}s")


def test_c07_closed_form_oracle_equivalence():
    import random

    t0 = time.perf_counter()
    rng = random.Random(20260811)
    mismatches = 0
    for _ in range(10 ** 5):
        n = rng.randint(2, 10 ** 12)
        rec = stopping_record(n)
        out = apply_closed_form(rec.q, n)
        if not out.exact or out.value != rec.value:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _gate(7, "closed form is exact and equals direct iteration on 1e5 random "
             "starts up to 1e12",
          mismatches == 0, f"0 mismatches expected, got {mismatches}, {elapsed:.1f}s")


def test_c08_bound_property_suite():
    t0 = time.perf_counter()
    top = 10 ** 6
    pow3 = [3 ** i for i in range(420)]
    pair_ok_cache = {}
    violations = []

    def pair_ok(s, r):
        key = (s, r)
        if key not in pair_ok_cache:
            from collatzstop import check_ratio_constraints

            flags = check_ratio_constraints(s, r)
            pair_ok_cache[key] = flags.ratio_lower and flags.ratio_upper
        return pair_ok_cache[key]

    for n in range(2, top + 1):
        s, r, w, word, v, capped = _scan_one(n, 10 ** 5)
        if capped or 3 * r >= 2 * s:
            violations.append((n, "linear"))
            continue
        if not (n & 1):
            continue
        p3 = pow3[r]
        if not ((1 << (s - 1)) < p3 < (1 << s)):
            violations.append((n, "power"))
        if not pair_ok(s, r):
            violations.append((n, "ratio"))
        if not (2 * v > n and v < n):
            violations.append((n, "value-band"))
        if s > 2 and word >> (s - 2) != 0b11:
            violations.append((n, "leading-bits"))
        if word & 1:
            violations.append((n, "final-bit"))
        if w < pow3[r - 1] - (1 << (r - 1)):
            violations.append((n, "sigma-floor"))
    elapsed = time.perf_counter() - t0
    _gate(8, "bound suite over n in [2, 1e6]: linear/power/ratio windows, value "
             "band, word shape, sigma floor",
          not violations and elapsed < 30.0,
          f"{len(violations)} violations, {elapsed:.1f}s")


def test_c09_descent_transfer():
    t0 = time.perf_counter()
    checks = 0
    violations = 0
    equal_stopping = 0
    for s in (4, 5, 7, 8, 10, 12, 13):
        for m, q in enumerate_minimal(s):
            for k in (0, 1, 2):
                fam = ResidueFamily(s=s, m=m, k=k)
                for j in range(51):
                    n = family_member(fam, j)
                    out = apply_closed_form(q, n)
                    if not (is_parity_prefix(q, n) and out.exact and out.value < n):
                        violations += 1
                    checks += 1
            # informational: observed (not asserted) stopping-time equality
            if stopping_record(family_member(ResidueFamily(s=s, m=m, k=1), 3)).s == s:
                equal_stopping += 1
    elapsed = time.perf_counter() - t0
    print(f"      observed stopping-time equality on sampled members: "
          f"{equal_stopping}/{sum(len(enumerate_minimal(s)) for s in (4, 5, 7, 8, 10, 12, 13))}")
    _gate(9, "census words transfer to n = 2^s(3j+k)+m for k in {0,1,2}, "
             "j in [0,50]: shared prefix and descent",
          violations == 0, f"{checks} checks, {violations} violations, {elapsed:.1f}s")


def test_c10_matveev_constant():
    c = matveev_constant()
    value = matveev_constant_value()
    print(f"      evaluation: {value}")
    _gate(10, "transcendence constant rounds into [821013299, 821013303]",
          821013299 <= c <= 821013303 and abs(Decimal(c) - value) < 1,
          f"C={c}")


def test_c11_empirical_alpha():
    full = os.environ.get("COLLATZSTOP_FULL_SCAN") == "1"
    end = 2_400_007 if full else 10 ** 6
    t0 = time.perf_counter()
    records, stats = scan_collect(ScanConfig(start=7, end=end, class_filter="12i+7",
                                             workers=2, chunk_size=50_000))
    elapsed = time.perf_counter() - t0
    ratio = stats.max_alpha_ratio
    ok = (ratio is not None and ratio <= 40 and not stats.violations
          and stats.count == (end - 7) // 12 + 1)
    if not ok and ratio is not None:
        print(f"      BREACH: max ratio {float(ratio):.4f} at n={stats.argmax_n}")
    # spot cross-check of the streaming statistics against the direct formula
    sample = records[:: max(1, len(records) // 997)]
    cross = max(Fraction(weighted_sum(r.q), 3 ** (r.r - 1) - 2 ** (r.r - 1))
                for r in sample)
    _gate(11, f"envelope ratio stays <= 40 over class 12i+7 up to {end}",
          ok and cross <= ratio and elapsed < 60.0,
          f"max={float(ratio):.4f} at n={stats.argmax_n}, {elapsed:.1f}s"
          + ("" if full else " (desk scale; COLLATZSTOP_FULL_SCAN=1 for the full domain)"))


def test_c12_scan_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = dict(start=2, end=10 ** 5, chunk_size=5000)
    one = tmp_path / "one.csv"
    eight = tmp_path / "eight.csv"
    scan_to_csv("scan", ScanConfig(**cfg, workers=1), str(one))
    scan_to_csv("scan", ScanConfig(**cfg, workers=8), str(eight))
    workers_ok = one.read_bytes() == eight.read_bytes()

    resumed = tmp_path / "resumed.csv"
    ck = tmp_path / "resumed.ck"
    _, done = scan_to_csv("scan", ScanConfig(**cfg, workers=2, checkpoint_path=str(ck)),
                          str(resumed), max_chunks=7)
    assert not done
    scan_to_csv("scan", ScanConfig(**cfg, workers=2, checkpoint_path=str(ck)), str(resumed))
    resume_ok = resumed.read_bytes() == one.read_bytes()
    elapsed = time.perf_counter() - t0
    _gate(12, "scan of [2, 1e5]: 1 vs 8 workers byte-identical; interrupted and "
              "resumed run matches uninterrupted byte for byte",
          workers_ok and resume_ok, f"{one.stat().st_size} bytes, {elapsed:.1f}s")
