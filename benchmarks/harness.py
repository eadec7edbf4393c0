"""Measurement core of the phasekit benchmark.

Closed-loop timing, the tail-percentile rule, span tracing with self time,
failure accounting and the environment record. This module imports neither
numpy nor phasekit, so `run.py` can pin the BLAS thread count and time the
package import itself.
"""

from __future__ import annotations

import json
import math
import os
import platform
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

# Metric tables; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "success_rate": "fraction",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "solver.solve.self_s": "s",
    "solver.solve.iters_mean": "iters",
    "solver.solve.iters_max": "iters",
    "solver.solve.status.grad_tolerance_met": "count",
    "solver.solve.status.max_iters": "count",
    "solver.solve.status.non_finite": "count",
    "solver.solve.us_per_iter": "us",
    "solver.gradient.us_per_call": "us",
    "solver.gradient.gbps_computed": "GB/s",
    "solver.dist.self_s": "s",
    "spectral.measure.self_s": "s",
    "spectral.gsi.self_s": "s",
    "spectral.gsi.rel_err_mean": "ratio",
    "spectral.baseline_si.self_s": "s",
    "spectral.build_Y.us_per_call": "us",
    "spectral.power_method.us_per_call": "us",
    "spectral.power_method.residual_max": "norm",
    "ensembles.sample_measurements.self_s": "s",
    "ensembles.sample_measurements.bytes_computed": "B",
    "verify.hermitian_opnorm.us_per_call": "us",
    "verify.hermitian_opnorm.abs_err_max": "abs",
    "verify.concentration_curve.self_s": "s",
    "verify.mc_condition_residual.self_s": "s",
    "bench.run_recovery_trial.self_s": "s",
    "bench.run_recovery_trial.span_s": "s",
    "bench.generate_signal.self_s": "s",
    "bench.pool_speedup": "ratio",
    "bench.traced_ops": "count",
}

# Decades, so that the percentile chosen stays put over a wide range of
# sample counts.
TAIL_GRID = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list, p: float) -> tuple[float, int]:
    """Value at percentile `p` by the nearest-rank rule, and how many
    samples rank above it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * n / 100.0))
    return sorted_values[rank - 1], n - rank


def tail_percentile(samples: Iterable[float], grid: tuple = TAIL_GRID,
                    min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """The highest percentile in `grid` with at least `min_beyond` samples
    ranked above it, as (percentile, value, samples beyond).

    With fewer samples than that rule needs even at the lowest grid
    percentile, the lowest grid percentile is returned with its count."""
    values = sorted(samples)
    chosen = grid[0]
    for p in grid:
        if nearest_rank(values, p)[1] >= min_beyond:
            chosen = p
    value, beyond = nearest_rank(values, chosen)
    return chosen, value, beyond


@dataclass
class OpRecord:
    """One operation of a timed run: its index, latency, and its result or
    the error it raised."""

    k: int
    latency: float
    result: object = None
    error: Optional[str] = None


def closed_loop(run_op: Callable[[int], object], clients: int,
                n_ops: int) -> tuple[list, float]:
    """Run operations 0, 1, ..., n_ops - 1 from `clients` threads, each
    starting its next operation when its last one ends.

    The count is fixed, not the time, so the operations a run attempts, and
    those that fail, are a pure function of its inputs. Returns (records
    ordered by index, wall seconds).
    """
    lock = threading.Lock()
    records: list = []
    next_k = 0
    start = time.perf_counter()

    def client():
        nonlocal next_k
        while True:
            with lock:
                if next_k >= n_ops:
                    return
                k = next_k
                next_k += 1
            t0 = time.perf_counter()
            try:
                rec = OpRecord(k, 0.0, run_op(k))
            except Exception as exc:  # a raising operation is counted as failed
                rec = OpRecord(k, 0.0, None, f"{type(exc).__name__}: {exc}")
            rec.latency = time.perf_counter() - t0
            with lock:
                records.append(rec)

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall = time.perf_counter() - start
    return sorted(records, key=lambda r: r.k), wall


def failed_ops(records: list, is_failure: Callable[[object], bool]) -> list:
    """Indices of operations that raised or whose result `is_failure` rejects."""
    return [r.k for r in records if r.error is not None or is_failure(r.result)]


def all_finite(values: Iterable[float]) -> bool:
    return all(math.isfinite(v) for v in values)


def end_to_end(records: list, wall: float, failed: int, setup_s: float,
               peak_rss_mib: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one timed run, and the details that go
    into the record only: sample counts and latency percentiles.

    Latencies are not metrics because, on a shared host, which speed the
    host ran at moves them between runs more than the bounds allow."""
    latencies = sorted(r.latency for r in records)
    p50, _ = nearest_rank(latencies, 50.0)
    tail_p, tail, beyond = tail_percentile(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / wall,
        "success_rate": 1.0 - failed / len(records),
        "peak_rss_mib": peak_rss_mib,
    }
    details = {
        "latency_samples": len(latencies),
        "op_latency_min_s": latencies[0],
        "op_latency_p50_s": p50,
        "op_latency_tail_s": tail,
        "tail_percentile": tail_p,
        "tail_samples_beyond": beyond,
        "wall_s": wall,
        "attempted": len(records),
        "failed": failed,
        "fail_share": failed / len(records),
    }
    return metrics, details


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span in Tracer.spans
    op: Optional[int]       # operation id; None for per-call timing
    calls: int = 1          # calls of `name` the span covers

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, nested by a stack; one thread at a time."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, calls: int = 1):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, calls)


def covered_length(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [sp.duration - covered_length(children.get(i, ()), sp.start, sp.end)
            for i, sp in enumerate(spans)]


def span_totals(spans: list) -> dict:
    """Per span name: total duration, total self time and total calls."""
    totals: dict = {}
    for sp, self_t in zip(spans, self_times(spans)):
        t = totals.setdefault(sp.name, {"duration": 0.0, "self": 0.0, "calls": 0})
        t["duration"] += sp.duration
        t["self"] += self_t
        t["calls"] += sp.calls
    return totals


def write_spans(path: Path, spans: list) -> None:
    """One JSON object per span: name, start, end, parent, op, calls."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps({"name": sp.name, "start": sp.start, "end": sp.end,
                                 "parent": sp.parent, "op": sp.op, "calls": sp.calls}) + "\n")


def git_sha(root: Path) -> str:
    """HEAD of the repository at `root`, read from its .git directory;
    'unknown' when `root` is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, pool: int, blas_threads: int) -> dict:
    """Machine, core count, Python, numpy and BLAS, git SHA and thread
    settings of a run. Call after numpy is imported."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_desc = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "git_sha": git_sha(root),
        "pool": pool,
        "blas_threads": blas_threads,
    }
