"""Ten alternating parent/change pairs of the benchmark, summarized in one file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<pr>.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For seeds
1-10 and every workload in CHANGE_DIR's BENCHMARK.json, the benchmark command
runs with ``--workload W --seed S --seconds <run_seconds> --trace 0`` in each
checkout, one run at a time: the parent first on odd seeds, the change first
on even ones.  The output file is rewritten after every run, so an
interrupted session keeps the runs it finished.  It holds the environment,
both commits (HEAD and whether the tree differs from it), every run's raw
result lines, and per workload and end-to-end metric: both medians over the
seeds, the change relative to the parent (positive = better, per the
metric's ``better``), the parent's IQR, the pairs each side won (ties count
for neither) and a status, the first of these that holds:

  gain        the change won at least 9 in 10 pairs and its median beats
              the parent's by more than the parent's IQR;
  unresolved  the parent's IQR is wider than the metric's bound (a
              fraction of the parent's median), so a gap of the bound
              cannot be told from the parent's own spread;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no change   otherwise.

Stdlib only; nothing under perfbench/ is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)
GAIN_SHARE = 0.9  # the share of pairs the change must win for a gain


def commit(checkout: Path) -> dict:
    """HEAD of a checkout and whether its tree differs from HEAD."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"head": None, "dirty": None, "error": str(exc)}


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run; its stdout lines are kept as printed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "lines": proc.stdout.splitlines(), "stderr_tail": proc.stderr[-2000:]}


def result_of(run: dict) -> dict | None:
    """The result line of a run (its last stdout line), or None if it has none."""
    if run["returncode"] != 0 or not run["lines"]:
        return None
    try:
        doc = json.loads(run["lines"][-1])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def metric_summary(parent: dict[int, float], change: dict[int, float],
                   better: str, bound: float) -> dict:
    """Compare one metric's per-seed values; see the module docstring."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent.values()), statistics.median(change.values())
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent.values(), n=4)
    else:
        q1 = q3 = p_med
    iqr = q3 - q1
    seeds = sorted(parent.keys() & change.keys())
    won = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    lost = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    gap = sign * (c_med - p_med)  # positive = the change is better
    if seeds and won >= GAIN_SHARE * len(seeds) and gap > iqr:
        status = "gain"
    elif iqr > bound * abs(p_med):
        status = "unresolved"
    elif gap < -bound * abs(p_med):
        status = "worse"
    else:
        status = "no change"
    return {"parent_median": p_med, "change_median": c_med,
            "change": gap / abs(p_med) if p_med else None,
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": iqr,
            "pairs": len(seeds), "change_won": won, "parent_won": lost, "status": status}


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per workload: run counts and one metric_summary per end-to-end metric.

    ``runs`` maps "parent" and "change" to their runs, as run_once returns
    them; a run without a result line is counted but compared in no pair.
    """
    values: dict[str, dict[str, dict[str, dict[int, float]]]] = {}
    counts: dict[str, dict[str, dict[str, int]]] = {}
    for side, side_runs in runs.items():
        for run in side_runs:
            tally = counts.setdefault(run["workload"], {}).setdefault(
                side, {"runs": 0, "with_result": 0, "correct": 0})
            tally["runs"] += 1
            result = result_of(run)
            if result is None:
                continue
            tally["with_result"] += 1
            tally["correct"] += bool(result.get("correct"))
            per_metric = values.setdefault(run["workload"], {}).setdefault(side, {})
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, {})[run["seed"]] = metric["value"]
    out = {}
    for workload, tally in counts.items():
        sides = values.get(workload, {})
        compared = {}
        for m in metrics:
            parent = sides.get("parent", {}).get(m["name"])
            change = sides.get("change", {}).get(m["name"])
            if parent and change:
                compared[m["name"]] = metric_summary(parent, change, m["better"], m["bound"])
        out[workload] = {"runs": tally, "metrics": compared}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH JSON file to write")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "protocol": (f"seeds {SEEDS.start}-{SEEDS.stop - 1}, {' '.join(spec['command'])} "
                     f"--seconds {spec['run_seconds']} --trace 0; parent first on odd seeds"),
        "environment": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                        "platform": platform.platform()},
        "commits": {side: commit(path) for side, path in checkouts.items()},
        "runs": {"parent": [], "change": []},
        "summary": {},
    }
    for seed in SEEDS:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                run = run_once(checkouts[side], spec["command"], workload, seed,
                               spec["run_seconds"])
                doc["runs"][side].append(run)
                doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"seed {seed} {workload} {side}: exit {run['returncode']}",
                      file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
