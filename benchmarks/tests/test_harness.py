"""Tests of the benchmark's measurement core.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
from harness import Span  # noqa: E402


@pytest.mark.parametrize("n, percentile, beyond", [
    (15, 50.0, 7),      # too few samples even for p50: falls back to it
    (20, 50.0, 10),
    (99, 50.0, 49),
    (100, 90.0, 10),
    (999, 90.0, 99),
    (1000, 99.0, 10),
    (9999, 99.0, 99),
    (10000, 99.9, 10),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    samples = [float(v) for v in range(n, 0, -1)]  # unsorted input
    p, value, got_beyond = harness.tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert value == n - beyond
    assert sum(s > value for s in samples) == beyond


def test_nearest_rank_median():
    assert harness.nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == (2.0, 2)
    assert harness.nearest_rank([5.0], 50.0) == (5.0, 0)


def test_self_time_subtracts_the_union_of_children_within_the_span():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),     # overlaps a: [1, 5] is covered once
        Span("c", 9.0, 12.0, 0, 0),    # runs past the parent: only [9, 10] counts
        Span("leaf", 1.5, 2.0, 1, 0),  # a's child, not root's
    ]
    assert harness.self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])
    totals = harness.span_totals(spans)
    assert totals["root"] == {"duration": 10.0, "self": pytest.approx(5.0), "calls": 1}


def test_tracer_nests_spans_and_closes_them_on_error():
    tr = harness.Tracer()
    tr.op = 7
    with tr.span("outer"):
        with tr.span("inner", calls=3):
            pass
        with pytest.raises(RuntimeError):
            with tr.span("raises"):
                raise RuntimeError("boom")
    outer, inner, raises = tr.spans
    assert (outer.parent, inner.parent, raises.parent) == (None, 0, 0)
    assert (outer.op, inner.calls) == (7, 3)
    assert outer.start <= inner.start <= inner.end <= raises.start <= raises.end <= outer.end


def test_fail_share_counts_nan_and_raising_operations():
    def op(k):
        if k % 4 == 1:
            return float("nan")
        if k % 4 == 3:
            raise ValueError("synthetic")
        return 1.0

    records, wall = harness.closed_loop(op, clients=1, n_ops=4)
    assert [r.k for r in records] == [0, 1, 2, 3]
    assert records[3].error == "ValueError: synthetic"
    failed = harness.failed_ops(records, lambda r: not harness.all_finite([r]))
    assert failed == [1, 3]
    metrics, details = harness.end_to_end(records, wall, len(failed), 0.1, 40.0)
    assert details["fail_share"] == 0.5
    assert metrics["success_rate"] == 0.5


def test_closed_loop_runs_each_operation_once_across_clients():
    records, _ = harness.closed_loop(lambda k: k * k, clients=2, n_ops=9)
    ks = [r.k for r in records]
    assert ks == list(range(9))
    assert all(r.result == r.k * r.k and r.latency >= 0 for r in records)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "oracle",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "no phasekit sources" in out.stderr
