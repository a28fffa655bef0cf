"""Benchmark of the collatzstop scans, verify and exact searches.

    python3 perfbench/run.py --workload fig3-hard --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One client drives the package's public
functions in a closed loop: a pass runs the workload's op list in order, the
next op starting when the last one ends, and passes repeat until the next
one would overrun ``--seconds`` by more than half a pass.  Each op runs in a
fork of this process, so its peak RSS is its own (``wait4``) and every op
starts from the same warm imports and cold caches.  Outputs are checked
after every op.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
each the median over the run's passes (``setup_s``: over cold starts).  The
line before it gives their quartiles, p10, p90 and sample counts.  With
``--trace 1`` passes alternate traced and untraced; the per-layer metrics
come from the traced passes only, and the spans go to
``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import re
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
sys.path.insert(0, str(BENCH))

from workloads import BUILDERS, WORKLOADS, Op  # noqa: E402

SETUP_STARTS = 21
SETUP_CODE = ("import sys, collatzstop.cli as cli; "
              "cli.build_parser().parse_args(sys.argv[1:])")
SETUP_ARGV = ["fig3", "--workers", "1", "--out", "fig3.csv"]

END_TO_END = {
    "produce_rows_per_s": "rows/s",
    "produce_par_rows_per_s": "rows/s",
    "verify_rows_per_s": "rows/s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_ops_ratio": "ratio",
}

PER_LAYER = {
    "scan.walk_s_per_krow": "s/krow",
    "scan.walk_steps_per_row": "steps/row",
    "scan.handoff_wait_s": "s",
    "scan.handoff_bytes_per_row": "B/row",
    "scan.write_fsync_s": "s",
    "scan.fsync_calls": "count",
    "scan.ledger_s": "s",
    "scan.resume_s": "s",
    "scan.record_build_s": "s",
    "reports.render_s": "s",
    "reports.render_calls_per_row": "calls/row",
    "reports.format_s": "s",
    "reports.verify_walk_s": "s",
    "reports.verify_walks_per_row": "walks/row",
    "reports.verify_parse_s": "s",
    "reports.distinct_word_share": "ratio",
    "residues.census_s": "s",
    "bounds.cycle_search_s": "s",
    "bounds.ratio_records_s": "s",
    "bounds.bound_rows_s": "s",
    "core.descend_s": "s",
    "sequences.word_objects_per_row": "objects/row",
    "bench.trace_overhead_ratio": "ratio",
    "bench.ref_kernel_s": "s",
}


@dataclass
class OpResult:
    op: Op
    dt: float
    peak_rss_mib: float
    failures: list[str]
    digest: str | None
    trace: dict | None


@dataclass
class Pass:
    traced: bool
    results: list[OpResult]
    ref_kernel_s: float

    @property
    def pass_s(self) -> float:
        return sum(r.dt for r in self.results)


@dataclass
class Checker:
    """Reference digests: first-seen for every seed, and pinned ones for
    seed 0 and, at any seed, for the ops whose output does not depend on it."""

    pinned: dict
    seed: int
    seen: dict = field(default_factory=dict)

    def check(self, op: Op, value, error: str | None, this_pass: dict) -> tuple[list, str | None]:
        if error is not None:
            return [error], None
        fails: list[str] = []
        digest = None
        if "rc" in value:
            if value["rc"] != 0:
                fails.append(f"exit {value['rc']}: {value['stderr'].strip()}")
            if op.summary is not None:
                m = re.search(r"^rows=(\d+) .* complete=(\d)$", value["stdout"], re.M)
                got = (int(m.group(1)), int(m.group(2))) if m else None
                if got != op.summary:
                    fails.append(f"summary {got}, expected {op.summary}")
            if op.role == "verify":
                m = re.search(r"^verified (\d+) rows$", value["stdout"], re.M)
                if m is None or int(m.group(1)) != op.rows:
                    fails.append(f"verify reported {m and m.group(1)}, expected {op.rows}")
        else:
            if not value["count"] == value["stats_count"] == op.rows:
                fails.append(f"{value['count']} records, expected {op.rows}")
            if not value["alpha_agrees"]:
                fails.append("empirical_alpha disagrees with the scan stats")
            digest = value["digest"]
        if op.out is not None:
            try:
                digest, lines = _file_digest(op.out)
            except OSError as exc:
                fails.append(f"cannot read the output: {exc}")
            else:
                if lines != op.file_rows + 1:
                    fails.append(f"{lines - 1} rows in {op.out.name}, expected {op.file_rows}")
        if digest is not None:
            first = self.seen.setdefault(op.label, digest)
            if digest != first:
                fails.append("output differs from this op's first pass")
            if (self.seed == 0 or op.seed_free) and self.pinned.get(op.label, digest) != digest:
                fails.append("output differs from the pinned digest")
            if op.same_as and this_pass.get(op.same_as) != digest:
                fails.append(f"output differs from {op.same_as}")
            this_pass[op.label] = digest
        return fails, digest


def _file_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def _flip_byte(path: Path) -> None:
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 1]))


def run_op(op: Op, traced: bool) -> tuple[float, float, object, str | None, dict | None]:
    """Run one op in a forked child; (seconds, peak RSS MiB, value, error, trace)."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            tracer = None
            if traced:
                from tracing import Tracer, install
                tracer = Tracer()
                install(tracer, op.role)
            value, error = None, None
            t0 = perf_counter()
            try:
                value = op.call()
            except Exception as exc:  # a failed op is a result, not a crash
                error = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if error is None and op.finish is not None:
                value = op.finish(value)
            msg = (dt, value, error, tracer.payload() if tracer else None)
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(msg, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    peak = usage.ru_maxrss / 1024
    if status != 0 or not data:
        return 0.0, peak, None, f"op process ended with status {status}", None
    dt, value, error, trace = pickle.loads(data)
    return dt, peak, value, error, trace


def ref_kernel() -> float:
    """A fixed pure-Python walk, timed between passes to show slow host spells."""
    t0 = perf_counter()
    total = 0
    for n in range(3, 200_001, 2):
        v = n
        while v >= n:
            v = (3 * v + 1) >> 1 if v & 1 else v >> 1
            total += 1
    return perf_counter() - t0


def cold_start() -> float:
    """Interpreter start + ``import collatzstop.cli`` + argument parsing."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, *SETUP_ARGV], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def _rate(results: list[OpResult]) -> float:
    seconds = sum(r.dt for r in results)
    return sum(r.op.rows for r in results) / seconds if seconds > 0 else 0.0


def end_to_end(p: Pass) -> dict[str, float]:
    rs = p.results
    return {
        "produce_rows_per_s": _rate([r for r in rs if r.op.role == "produce" and r.op.workers == 1]),
        "produce_par_rows_per_s": _rate([r for r in rs if r.op.role == "produce" and r.op.workers > 1]),
        "verify_rows_per_s": _rate([r for r in rs if r.op.role == "verify"]),
        "pass_s": p.pass_s,
        "peak_rss_mib": max(r.peak_rss_mib for r in rs),
    }


def per_layer(p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its ops."""
    total: dict[str, float] = {}   # name -> inclusive seconds
    own: dict[str, float] = {}     # name -> self seconds
    calls: dict[tuple[str, str], int] = {}
    handoff_wait = write_fsync = format_s = 0.0
    walk_s = walk_rows = walk_steps = words = hand_bytes = 0.0
    rows_touched = produce_rows = word_objects = 0
    for r in p.results:
        t = r.trace
        for name, parent, n, dur, self_s in t["edges"]:
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + self_s
            calls[(name, parent)] = calls.get((name, parent), 0) + n
            if name in ("scan.write", "scan.flush", "scan.fsync") and parent != "scan.ledger":
                write_fsync += dur
            if name == "scan.chunk_results" and r.op.workers > 1:
                handoff_wait += dur
        if r.op.role == "produce" and r.op.workers == 1:
            walk_s += sum(e[3] for e in t["edges"] if e[0] == "scan.chunk_worker")
            walk_rows += t["counts"].get("walk_rows", 0)
            walk_steps += t["counts"].get("walk_steps", 0)
            words += t["counts"].get("distinct_words", 0)
            hand_bytes += t["counts"].get("handoff_bytes", 0)
        if r.op.role == "produce":
            produce_rows += r.op.rows
            format_s += sum(e[4] for e in t["edges"] if e[0].startswith("reports.format_"))
            word_objects += t["counts"].get("word_objects", 0)
        rows_touched += r.op.rows

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def n_calls(name: str, parent: str | None = None) -> int:
        return sum(n for (nm, pa), n in calls.items()
                   if nm == name and (parent is None or pa == parent))

    render_calls = n_calls("reports.render_ratio") + n_calls("reports.render_sig")
    return {
        "scan.walk_s_per_krow": ratio(1000 * walk_s, walk_rows),
        "scan.walk_steps_per_row": ratio(walk_steps, walk_rows),
        "scan.handoff_wait_s": handoff_wait,
        "scan.handoff_bytes_per_row": ratio(hand_bytes, walk_rows),
        "scan.write_fsync_s": write_fsync,
        "scan.fsync_calls": n_calls("scan.fsync"),
        "scan.ledger_s": total.get("scan.ledger", 0.0),
        "scan.resume_s": total.get("scan.resume", 0.0) + total.get("scan.reopen", 0.0),
        "scan.record_build_s": own.get("scan.scan_collect", 0.0),
        "reports.render_s": own.get("reports.render_ratio", 0.0) + own.get("reports.render_sig", 0.0),
        "reports.render_calls_per_row": ratio(render_calls, rows_touched),
        "reports.format_s": format_s,
        "reports.verify_walk_s": total.get("reports.walk_row", 0.0),
        "reports.verify_walks_per_row": ratio(n_calls("scan.scan_one", "reports.walk_row"),
                                              n_calls("reports.walk_row")),
        "reports.verify_parse_s": own.get("reports.verify_csv", 0.0),
        "reports.distinct_word_share": ratio(words, walk_rows),
        "residues.census_s": total.get("residues.enumerate_minimal", 0.0),
        "bounds.cycle_search_s": total.get("bounds.enumerate_cycle_candidates", 0.0),
        "bounds.ratio_records_s": total.get("bounds.ratio_records", 0.0),
        "bounds.bound_rows_s": total.get("bounds.bound_row", 0.0),
        "core.descend_s": total.get("core.descend", 0.0),
        "sequences.word_objects_per_row": ratio(word_objects, produce_rows),
    }


def summary(values: list[float]) -> dict:
    """Median with quartiles, p10, p90 and the sample count; never a best-of."""
    if len(values) == 1:
        q1 = q3 = p10 = p90 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        deciles = statistics.quantiles(values, n=10)
        p10, p90 = deciles[0], deciles[-1]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "p10": p10, "p90": p90, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", flip: bool = False) -> tuple[dict, dict, list[Pass]]:
    """Run the workload; returns (result line, per-metric stats, passes)."""
    nproc = len(os.sched_getaffinity(0))
    pinned = {}
    if DIGESTS.exists():
        pinned = json.loads(DIGESTS.read_text()).get(size, {}).get(workload, {})
    checker = Checker(pinned, seed)
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    samples: dict[str, list[float]] = {}
    setup: list[float] = []
    walls: list[float] = []
    passes: list[Pass] = []
    try:
        if not trace:
            cold_start()  # may write bytecode caches; not counted
        start = perf_counter()
        deadline = start + seconds

        def cold_starts_due() -> None:
            """Spread the cold starts over the run, between ops."""
            share = min(1.0, (perf_counter() - start) / seconds)
            while not trace and len(setup) < SETUP_STARTS * share:
                setup.append(cold_start())

        while True:
            traced = trace and len(passes) % 2 == 0
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = perf_counter()
            this_pass: dict = {}
            results = []
            for op in BUILDERS[workload](seed, size, work, nproc):
                dt, peak, value, error, op_trace = run_op(op, traced)
                if flip and op.out is not None and error is None and not results:
                    _flip_byte(op.out)
                fails, digest = checker.check(op, value, error, this_pass)
                for f in fails:
                    print(f"check failed: pass {len(passes)} op {op.label}: {f}", file=sys.stderr)
                results.append(OpResult(op, dt, peak, fails, digest, op_trace))
                cold_starts_due()
            passes.append(Pass(traced, results, ref_kernel()))
            walls.append(perf_counter() - t0)
            # Start another pass while at least half of it fits, so a run
            # overshoots or falls short of --seconds by half a pass at most.
            enough = not trace or len(passes) >= 2
            if enough and perf_counter() + statistics.median(walls) / 2 > deadline:
                break
        while not trace and len(setup) < SETUP_STARTS:
            setup.append(cold_start())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setup:
        samples["setup_s"] = setup

    attempted = sum(len(p.results) for p in passes)
    failed = sum(1 for p in passes for r in p.results if r.failures)
    plain = [p for p in passes if not p.traced]
    if trace:
        for p in passes:
            if p.traced:
                for k, v in per_layer(p).items():
                    samples.setdefault(k, []).append(v)
        samples["bench.trace_overhead_ratio"] = [
            statistics.median(p.pass_s for p in passes if p.traced)
            / statistics.median(p.pass_s for p in plain)]
        samples["bench.ref_kernel_s"] = [p.ref_kernel_s for p in passes]
        units = PER_LAYER
    else:
        for p in plain:
            for k, v in end_to_end(p).items():
                samples.setdefault(k, []).append(v)
        samples["ok_ops_ratio"] = [(attempted - failed) / attempted]
        samples["ref_kernel_s"] = [p.ref_kernel_s for p in passes]
        units = END_TO_END
    stats = {k: summary(v) for k, v in samples.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": stats[k]["median"], "unit": u} for k, u in units.items()}}
    return result, stats, passes


def write_trace(path: Path, workload: str, seed: int, passes: list[Pass]) -> None:
    doc = {"workload": workload, "seed": seed,
           "span_fields": ["id", "parent", "name", "start", "end", "self_s"],
           "edge_fields": ["name", "parent", "calls", "total_s", "self_s"],
           "passes": [{"pass": i, "ops": [
               {"label": r.op.label, "role": r.op.role, "workers": r.op.workers,
                "rows": r.op.rows, "seconds": r.dt, **r.trace} for r in p.results]}
               for i, p in enumerate(passes) if p.traced]}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny windows, for the self-check")
    ap.add_argument("--write-digests", action="store_true",
                    help="with --seed 0: pin this run's output digests")
    args = ap.parse_args(argv)
    if not (SRC / "collatzstop" / "__init__.py").is_file():
        print(f"error: no collatzstop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import collatzstop.cli  # noqa: F401  warm imports, shared by every forked op
    import multiprocessing.pool  # noqa: F401

    result, stats, passes = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.size)
    if args.trace:
        write_trace(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json",
                    args.workload, args.seed, passes)
    if args.write_digests and args.seed == 0:
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        pinned.setdefault(args.size, {})[args.workload] = {
            r.op.label: r.digest for r in passes[0].results if r.digest}
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print("stats " + json.dumps(stats))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
