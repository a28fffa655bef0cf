"""Range scans: streaming records, exact aggregate statistics, checkpointed
CSV output, and row-by-row verification.
"""

import tempfile
from pathlib import Path

from collatzstop import ScanConfig, ScanStats, empirical_alpha, scan_range
from collatzstop.reports import scan_to_csv, verify_csv

cfg = ScanConfig(start=7, end=50_000, class_filter="12i+7", workers=2,
                 chunk_size=5_000)

stats = ScanStats()
longest = None
for rec in scan_range(cfg, stats):
    if longest is None or rec.s > longest.s:
        longest = rec
print(f"scanned {stats.count} starters in class 12i+7 up to {cfg.end}")
print(f"longest stopping time: n={longest.n} with s={longest.s}")
ratio = stats.max_alpha_ratio
print(f"max envelope ratio: {ratio.numerator}/{ratio.denominator} "
      f"~ {float(ratio):.4f} at n={stats.argmax_n}")

# the streaming statistic agrees with the direct formula over the records
direct = empirical_alpha(scan_range(cfg))
assert direct == (stats.max_alpha_ratio, stats.argmax_n)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "records.csv"
    ck = Path(tmp) / "records.ck"

    # run three chunks, stop, then resume to completion
    partial_cfg = ScanConfig(start=2, end=30_000, chunk_size=3_000,
                             checkpoint_path=str(ck))
    _, done = scan_to_csv("scan", partial_cfg, str(out), max_chunks=3)
    state = ck.read_text().splitlines()[1].split(",")  # done,rows,ratio,argmax,bytes,...
    print(f"\nafter 3 chunks: complete={done}, "
          f"checkpoint records {state[0]} chunks and {state[1]} rows")
    _, done = scan_to_csv("scan", partial_cfg, str(out))
    print(f"after resume:  complete={done}, {out.stat().st_size} bytes")

    rows = verify_csv(str(out))
    print(f"verify re-derived {rows} rows with zero mismatches")
    print("\nfirst lines of the file:")
    for line in out.read_text().splitlines()[:5]:
        print(f"  {line}")
