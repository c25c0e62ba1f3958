import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [{"name": "trials_per_s", "better": "higher"},
              {"name": "op_ms_p50", "better": "lower"}]


def record(pair, side, trials_per_s, op_ms_p50, workload="acceptance-sweep",
           seed=1234567, correct=True, failed=0):
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"trials_per_s": trials_per_s, "op_ms_p50": op_ms_p50},
            "reported": {}, "digest": "0" * 64}


def test_summary_of_canned_pairs(bench_pairs):
    runs = [record(1, "parent", 100.0, 3.0), record(1, "change", 120.0, 2.5),
            record(2, "change", 118.0, 3.1), record(2, "parent", 101.0, 3.0),
            record(3, "parent", 99.0, 2.9), record(3, "change", 98.0, 2.0),
            record(4, "parent", 100.5, 3.0)]           # incomplete: ignored
    entry = bench_pairs.summarize(runs, END_TO_END)["acceptance-sweep 1234567"]
    assert entry["pairs"] == 3
    assert entry["correct"] and entry["failed"] == 0
    speed = entry["trials_per_s"]
    assert speed["won"] == 2                            # higher is better
    assert speed["parent"]["median"] == 100.0
    assert speed["change"]["median"] == 118.0
    q1, _, q3 = statistics.quantiles([99.0, 100.0, 101.0], n=4)
    assert (speed["parent"]["q1"], speed["parent"]["q3"]) == (q1, q3)
    assert entry["op_ms_p50"]["won"] == 2               # lower is better
    assert entry["op_ms_p50"]["change"]["median"] == 2.5


def test_groups_by_workload_and_seed(bench_pairs):
    runs = [record(1, "parent", 10.0, 1.0, seed=1), record(1, "change", 11.0, 1.0, seed=1),
            record(1, "parent", 10.0, 1.0, seed=2, failed=3),
            record(1, "change", 9.0, 1.0, seed=2, correct=False)]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert sorted(summary) == ["acceptance-sweep 1", "acceptance-sweep 2"]
    assert summary["acceptance-sweep 1"]["trials_per_s"]["won"] == 1
    assert summary["acceptance-sweep 1"]["trials_per_s"]["change"]["q3"] == 11.0
    assert summary["acceptance-sweep 2"]["trials_per_s"]["won"] == 0
    assert not summary["acceptance-sweep 2"]["correct"]
    assert summary["acceptance-sweep 2"]["failed"] == 3


def test_reads_checked_in_pairs_file(bench_pairs):
    # The pairs files in bench-results/ share the layout the tool writes.
    path = ROOT / "bench-results" / "BENCH_2026-10-18-line-search-pairs.json"
    data = json.loads(path.read_text())
    assert set(data) == {"command", "order", "parent", "pairs", "runs"}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = bench_pairs.summarize(data["runs"], end_to_end)
    for key, count in data["pairs"].items():
        assert summary[key]["pairs"] == count
    assert summary["acceptance-sweep 1234567"]["trials_per_s"]["won"] == 10


def test_run_record_flattens_metrics(bench_pairs):
    info = {"reported": {"host_slowdown_p50": {"value": 1.1, "unit": "x"}},
            "digest": "ab"}
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"trials_per_s": {"value": 7.0, "unit": "1/s"}}}
    entry = bench_pairs.run_record("wide-scene", 3, 2, "change", info, result)
    assert entry == {"workload": "wide-scene", "seed": 3, "pair": 2, "side": "change",
                     "correct": True, "attempted": 5, "failed": 0,
                     "metrics": {"trials_per_s": 7.0},
                     "reported": {"host_slowdown_p50": 1.1}, "digest": "ab"}
