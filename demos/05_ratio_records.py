"""Record (s, r) pairs whose ratio r/s approaches log3(2) from below.

A stopping word of length s with r odd steps must keep r/s inside
((1 - 1/s) log3(2), log3(2)), so the interesting pairs are those where
r/s sets a new record closeness to log3(2).  The scan runs on an integer
fixed-point image of log3(2), so no row depends on binary floats.
"""

import io

from collatzstop import log3_2, ratio_records
from collatzstop.reports import table4_report, write_csv

print(f"log3(2) to 60 digits: {log3_2()}")

records = ratio_records(485, 30000)
print(f"\nrecords for s in [485, 30000]: {len(records)}")
print(f"{'s':>6} {'r':>6} {'gap':>12} {'log10 gap':>18}")
for rec in records[:8]:
    print(f"{rec.s:>6} {rec.r:>6} {float(rec.gap):>12.3e} {rec.log10_gap:>18.11f}")
print("   ...")
for rec in records[-2:]:
    print(f"{rec.s:>6} {rec.r:>6} {float(rec.gap):>12.3e} {rec.log10_gap:>18.11f}")

# consecutive record denominators repeat the classic pattern of best
# rational approximations: long runs of constant spacing
spacing = [b.s - a.s for a, b in zip(records, records[1:])]
print(f"\nspacings between record s values: {spacing[:6]} ...")

print("\nthe same rows in the CSV rendering (15 significant digits):")
buf = io.BytesIO()
write_csv(table4_report(s_max=4000), buf)
print(buf.getvalue().decode(), end="")
