"""Steadiness record: repeated runs of every workload, one seed each.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --first-seed 11 --out perfbench/steadiness-repeat

Run from the root of a checkout.  For each workload it runs the benchmark
ten times for ``run_seconds`` (from BENCHMARK.json), with seeds counting up
from ``--first-seed``, then writes, per end-to-end metric, the
run values, their median and quartiles, and the spread (q3 - q1) / median
beside the metric's bound from BENCHMARK.json, together with the
environment: Python, nproc, commit, a digest of ``src/`` and the load
average at the start and end of each workload.  Output goes to
``perfbench/steadiness.md`` and ``perfbench/steadiness.json`` unless
``--out`` names another stem.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

RUNS = 10


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(BENCH / "steadiness"),
                    help="output stem: writes <stem>.json and <stem>.md")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "commit": commit(), "source_sha256": source_digest(),
           "run_seconds": seconds, "runs_per_workload": RUNS, "first_seed": args.first_seed,
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    record = {"environment": env, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        load_start = loadavg()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            stats = json.loads(lines[-2].removeprefix("stats "))
            runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "values": {k: v["value"] for k, v in result["metrics"].items()},
                         "samples": {k: v["n"] for k, v in stats.items()},
                         "ref_kernel_s": stats["ref_kernel_s"]["median"]})
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["values"].items()), flush=True)
        metrics = {name: {**spread([r["values"][name] for r in runs]),
                          "bound": bounds[name], "values": [r["values"][name] for r in runs]}
                   for name in bounds}
        record["workloads"][workload] = {"loadavg_start": load_start, "loadavg_end": loadavg(),
                                         "runs": runs, "metrics": metrics}
    record["environment"]["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out + ".json").write_text(json.dumps(record, indent=1) + "\n")
    Path(args.out + ".md").write_text(markdown(record))
    print(markdown(record))
    return 0


def markdown(record: dict) -> str:
    env = record["environment"]
    out = ["# Steadiness record", "",
           "Written by `python3 perfbench/steadiness.py`; raw values in the `.json` file of the same name.", "",
           f"- Python {env['python']}, nproc {env['nproc']}, commit `{env['commit']}`",
           f"- source digest (`src/**/*.py`): `{env['source_sha256']}`",
           f"- {env['runs_per_workload']} runs per workload of {env['run_seconds']} s, "
           f"seeds from {env['first_seed']}; {env['started']} to {env.get('finished', '?')}", ""]
    for workload, w in record["workloads"].items():
        walls = [r["wall_s"] for r in w["runs"]]
        refs = [r["ref_kernel_s"] for r in w["runs"]]
        passes = sorted({r["samples"]["pass_s"] for r in w["runs"]})
        ok = all(r["correct"] for r in w["runs"])
        out += [f"## {workload}", "",
                f"Load average at start {w['loadavg_start']}, at end {w['loadavg_end']}. "
                f"Run wall time {min(walls):.1f}-{max(walls):.1f} s; passes per run {passes}; "
                f"every check passed: {'yes' if ok else 'NO'}. "
                f"Reference kernel median per run {min(refs):.4f}-{max(refs):.4f} s.", "",
                "| metric | median of runs | q1 | q3 | spread (q3-q1)/median | bound | min | max |",
                "| --- | --- | --- | --- | --- | --- | --- | --- |"]
        for name, m in w["metrics"].items():
            out.append(f"| {name} | {m['median']:.6g} | {m['q1']:.6g} | {m['q3']:.6g} | "
                       f"{m['spread']:.4f} | {m['bound']} | {m['min']:.6g} | {m['max']:.6g} |")
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())
