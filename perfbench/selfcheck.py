"""Self-check of the benchmark at tiny sizes; run from the root of a checkout.

    python3 perfbench/selfcheck.py

- every workload, untraced at seed 0 and traced at seed 1, prints every
  metric that BENCHMARK.json names, with its unit, and all its checks pass;
- one flipped byte in a scan output drops ok_ops_ratio below 1;
- a directory without the package exits non-zero with no result line.

Prints one PASS or FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0

    def report(ok: bool, what: str, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}" + (f": {detail}" if detail and not ok else ""))

    for workload in WORKLOADS:
        for trace in (0, 1):
            # Seed 0 checks every pinned digest; seed 1 those of the seed-free ops.
            seed = str(trace)
            proc = bench(ROOT, "--workload", workload, "--seed", seed, "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
            doc = result_line(proc.stdout)
            got = {k: v.get("unit") for k, v in (doc or {}).get("metrics", {}).items()}
            ok = (proc.returncode == 0 and doc is not None
                  and set(doc) == {"correct", "attempted", "failed", "metrics"}
                  and doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
                  and got == wanted[trace]
                  and all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values()))
            report(ok, f"{workload} --seed {seed} --trace {trace} prints every metric with its unit",
                   proc.stderr[-500:] or str(doc))

    result, _, _ = run.measure("scan-resume", 0, 1, False, "tiny", flip=True)
    ratio = result["metrics"]["ok_ops_ratio"]["value"]
    report(ratio < 1 and not result["correct"], "a flipped byte drops ok_ops_ratio below 1",
           f"ok_ops_ratio={ratio}")

    bare = ROOT / ".bench_work" / "no-package"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", "census", "--seed", "0", "--seconds", "1")
        report(proc.returncode != 0 and result_line(proc.stdout) is None,
               "without the package it exits non-zero with no result line",
               f"exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
