#!/usr/bin/env python3
"""The phasekit benchmark.

    python3 benchmarks/run.py --workload recover-complex --seed 0 --seconds 25 --trace 0

Run from anywhere; phasekit is imported from the `src/` directory next to
this one, never from an installed copy, and the run exits with code 2
without a result when that source tree is missing.

--trace 0  Set-up timed in this and two fresh processes, then a timed
           closed-loop run of the workload, sized to take about --seconds;
           prints the end-to-end metrics.
--trace 1  A timed run sized for 40% of --seconds, then a serial replay of
           the same operations rebuilt from public calls with a span around
           each call into a layer, then per-call timings; prints the
           per-layer metrics and writes the spans to .bench_build/spans/.

The second-to-last line of standard output is the full record (environment,
sample counts, tail percentile, failures); the last line is the result
object. Workloads and metrics are described in benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Pinned before numpy loads, so that pool size x BLAS threads <= cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (after the BLAS pin; imports no numpy)

WORKLOADS = ("recover-complex", "recover-real", "init-sweep", "oracle")
SETUP_SAMPLES = 3          # this process plus two fresh ones; the median is reported
WARMUP_SEED = 987_654_321  # set-up's warm-up operation is the same for every --seed
TRACE_TIMED_SHARE = 0.4    # share of --seconds for the timed part of a traced run
CHILD_TIMEOUT_S = 120


def set_up(name: str):
    """Import phasekit, build the workload (its moment profile) and run one
    untimed warm-up operation; returns (seconds, workload)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import phasekit
    if Path(phasekit.__file__).resolve().parent != SRC / "phasekit":
        raise SystemExit(f"phasekit imported from {phasekit.__file__}, not from {SRC}")
    import workloads
    wl = workloads.make(name)
    wl.prepare(WARMUP_SEED)
    wl.run(0)
    return time.perf_counter() - t0, wl


def fresh_setup(name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def same(a, b) -> bool:
    # repr compares floats exactly and treats NaN as equal to itself
    return repr(a) == repr(b)


def outcome(wl, rec) -> object:
    return rec.error if rec.error is not None else wl.key(rec.result)


def rerun_matches(wl, rec) -> bool:
    """Operation rec.k run again serially gives the same result."""
    try:
        again = wl.key(wl.run(rec.k))
    except Exception as exc:
        again = f"{type(exc).__name__}: {exc}"
    return same(again, outcome(wl, rec))


def timed(wl, seconds: float) -> tuple:
    records, wall = harness.closed_loop(wl.run, wl.pool, wl.plan(seconds))
    failed = harness.failed_ops(records, wl.is_failure)
    consistent = all(wl.consistent(r.result) for r in records if r.error is None)
    return records, wall, failed, consistent and rerun_matches(wl, records[0])


def layer_metrics(spans: list, infos: list, extra: dict, n_ops: int, wall: float) -> dict:
    totals = harness.span_totals(spans)

    def total(name, field):
        return totals[name][field] if name in totals else 0.0

    def self_per_op(name):
        return total(name, "self") / n_ops

    def us_per_call(name):
        calls = total(name, "calls")
        return 1e6 * total(name, "duration") / calls if calls else 0.0

    status = Counter(i["status"] for i in infos if "status" in i)
    iters = [i["iterations"] for i in infos if "iterations" in i]
    residuals = [r for i in infos for r in i.get("residuals", ())]
    gsi_errs = [i["gsi_err"] for i in infos if "gsi_err" in i]
    opnorm_errs = [i["opnorm_abs_err"] for i in infos if "opnorm_abs_err" in i]
    grad_time = total("solver.gradient", "duration")
    serial = sum(sp.duration for sp in spans if sp.parent is None and sp.op is not None)
    return {
        "solver.solve.self_s": self_per_op("solver.solve"),
        "solver.solve.iters_mean": statistics.fmean(iters) if iters else 0.0,
        "solver.solve.iters_max": max(iters, default=0),
        "solver.solve.status.grad_tolerance_met": status["grad_tolerance_met"],
        "solver.solve.status.max_iters": status["max_iters"],
        "solver.solve.status.non_finite": status["non_finite"],
        "solver.solve.us_per_iter": (1e6 * total("solver.solve", "duration") / sum(iters)
                                     if sum(iters) else 0.0),
        "solver.gradient.us_per_call": us_per_call("solver.gradient"),
        "solver.gradient.gbps_computed": (extra["gradient_bytes"] / grad_time / 1e9
                                          if grad_time else 0.0),
        "solver.dist.self_s": self_per_op("solver.dist"),
        "spectral.measure.self_s": self_per_op("spectral.measure"),
        "spectral.gsi.self_s": self_per_op("spectral.gsi"),
        "spectral.gsi.rel_err_mean": statistics.fmean(gsi_errs) if gsi_errs else 0.0,
        "spectral.baseline_si.self_s": self_per_op("spectral.baseline_si"),
        "spectral.build_Y.us_per_call": us_per_call("spectral.build_Y"),
        "spectral.power_method.us_per_call": us_per_call("spectral.power_method"),
        "spectral.power_method.residual_max": max(residuals, default=0.0),
        "ensembles.sample_measurements.self_s": self_per_op("ensembles.sample_measurements"),
        "ensembles.sample_measurements.bytes_computed":
            sum(i.get("sample_bytes", 0) for i in infos) / n_ops,
        "verify.hermitian_opnorm.us_per_call": us_per_call("verify.hermitian_opnorm"),
        "verify.hermitian_opnorm.abs_err_max": max(opnorm_errs, default=0.0),
        "verify.concentration_curve.self_s": self_per_op("verify.concentration_curve"),
        "verify.mc_condition_residual.self_s": self_per_op("verify.mc_condition_residual"),
        "bench.run_recovery_trial.self_s": self_per_op("bench.run_recovery_trial"),
        "bench.run_recovery_trial.span_s": total("bench.run_recovery_trial", "duration") / n_ops,
        "bench.generate_signal.self_s": self_per_op("bench.generate_signal"),
        "bench.pool_speedup": serial / wall,
        "bench.traced_ops": n_ops,
    }


def traced(wl, seconds: float, spans_path: Path) -> tuple:
    """Timed part, serial traced replay checked against it, per-call timings."""
    records, wall, failed, correct = timed(wl, seconds * TRACE_TIMED_SHARE)
    tracer = harness.Tracer()
    infos, mismatched = [], []
    for rec in records:
        tracer.op = rec.k
        try:
            key, info = wl.mirror(rec.k, tracer)
        except Exception as exc:
            key, info = f"{type(exc).__name__}: {exc}", {}
        if not same(key, outcome(wl, rec)):
            mismatched.append(rec.k)
        infos.append(info)
    tracer.op = None
    extra = wl.per_call(tracer)
    harness.write_spans(spans_path, tracer.spans)
    metrics = layer_metrics(tracer.spans, infos, extra, len(records), wall)
    details = {"attempted": len(records), "failed": len(failed),
               "fail_share": len(failed) / len(records), "failed_ops": failed[:20],
               "mirror_mismatched_ops": mismatched, "timed_wall_s": wall,
               "spans": len(tracer.spans)}
    return records, failed, correct and not mismatched, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this process, print it and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "phasekit" / "__init__.py").is_file():
        print(f"benchmark: no phasekit sources at {SRC}", file=sys.stderr)
        return 2

    setup_s, wl = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    env = harness.environment(ROOT, wl.pool, BLAS_THREADS)

    if args.trace:
        wl.prepare(args.seed)
        spans_path = ROOT / ".bench_build" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        records, failed, correct, values, details = traced(wl, args.seconds, spans_path)
        units = harness.PER_LAYER
    else:
        setups = [setup_s] + [fresh_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        wl.prepare(args.seed)
        records, wall, failed, correct = timed(wl, args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, details = harness.end_to_end(records, wall, len(failed),
                                             statistics.median(setups), peak_mib)
        details.update(setup_samples_s=setups, failed_ops=failed[:20])
        units = harness.END_TO_END

    correct = correct and all(math.isfinite(v) for v in values.values())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": env, "details": details,
                      "metrics": metrics}))
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
