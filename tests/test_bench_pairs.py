"""The summary of tools/bench_pairs.py on synthetic result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "seconds", "better": "lower", "bound": 0.25},
]


def run(seed: int, rate: float, seconds: float = 1.0, workload: str = "w",
        returncode: int = 0) -> dict:
    """A run as run_once returns it, with a stats line and a result line."""
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"rate": {"value": rate, "unit": "rows/s"},
                          "seconds": {"value": seconds, "unit": "s"}}}
    lines = ['stats {"rate": {"median": %r}}' % rate, json.dumps(result)]
    return {"workload": workload, "seed": seed, "returncode": returncode,
            "lines": lines if returncode == 0 else [], "stderr_tail": ""}


def summary(parent_rates, change_rates, **kw) -> dict:
    runs = {"parent": [run(s, v, **kw) for s, v in enumerate(parent_rates, 1)],
            "change": [run(s, v, **kw) for s, v in enumerate(change_rates, 1)]}
    return bench_pairs.summarize(runs, METRICS)["w"]["metrics"]["rate"]


def test_gain_needs_nine_of_ten_pairs_and_a_gap_past_the_iqr():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    got = summary(parent, [v * 3 for v in parent])
    assert (got["status"], got["change_won"], got["parent_won"]) == ("gain", 10, 0)
    assert got["change"] == pytest.approx(2.0)
    # nine wins still count as a gain, eight do not
    nine = [v * 3 for v in parent[:9]] + [parent[9] - 1]
    assert summary(parent, nine)["status"] == "gain"
    eight = [v * 3 for v in parent[:8]] + [parent[8] - 1, parent[9] - 1]
    assert summary(parent, eight)["status"] == "no change"


def test_small_consistent_win_inside_the_iqr_is_no_gain():
    parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
    got = summary(parent, [v + 1 for v in parent])
    assert got["change_won"] == 10
    assert got["status"] == "no change"


def test_worse_past_the_bound():
    parent = [100] * 10
    got = summary(parent, [70] * 10)
    assert got["status"] == "worse"
    assert got["change"] == pytest.approx(-0.3)
    assert summary(parent, [80] * 10)["status"] == "no change"


def test_wide_parent_spread_is_unresolved():
    parent = [50, 150, 60, 140, 100, 55, 145, 100, 65, 135]
    got = summary(parent, parent)
    assert got["parent_iqr"] > 0.25 * got["parent_median"]
    assert got["status"] == "unresolved"
    # a median past the bound reads unresolved too while the parent's spread is wider
    got = summary(parent, [v * 0.7 for v in parent])
    assert got["change"] < -0.25 and got["status"] == "unresolved"


def test_ties_count_for_neither_side():
    got = summary([100] * 10, [100] * 10)
    assert (got["change_won"], got["parent_won"], got["status"]) == (0, 0, "no change")


def test_lower_is_better_metric():
    runs = {"parent": [run(s, 100, seconds=4.0) for s in range(1, 11)],
            "change": [run(s, 100, seconds=1.0) for s in range(1, 11)]}
    got = bench_pairs.summarize(runs, METRICS)["w"]["metrics"]["seconds"]
    assert got["change"] == pytest.approx(0.75)
    assert (got["change_won"], got["status"]) == (10, "gain")


def test_run_without_result_line_is_counted_but_not_paired():
    runs = {"parent": [run(s, 100) for s in range(1, 11)],
            "change": [run(s, 300) for s in range(1, 10)] + [run(10, 0, returncode=1)]}
    out = bench_pairs.summarize(runs, METRICS)["w"]
    assert out["runs"]["change"] == {"runs": 10, "with_result": 9, "correct": 9}
    assert out["metrics"]["rate"]["pairs"] == 9
    assert out["metrics"]["rate"]["status"] == "gain"


def test_workloads_are_summarized_apart():
    runs = {"parent": [run(1, 100, workload="a"), run(1, 100, workload="b")],
            "change": [run(1, 300, workload="a"), run(1, 50, workload="b")]}
    out = bench_pairs.summarize(runs, METRICS)
    assert out["a"]["metrics"]["rate"]["status"] == "gain"
    assert out["b"]["metrics"]["rate"]["status"] == "worse"
