"""Experiment harness: seeded trials and result tables as CSV or JSON.

Reproduces the two benchmark protocols: initialization accuracy (mean
relative error of GSI vs SI over a grid of N/d ratios) and recovery success
rate (GSI followed by BB-stepped gradient descent, success when the final
relative error drops below a threshold).

Determinism contract: every numeric output is a pure function of
(config, base_seed). Trial streams are derived as
SeedSequence(base_seed, spawn_key=(round(1000*ratio), trial)), and ratio
grids whose rounded keys collide are rejected, so no two trials share an RNG
stream. Trials run one after another; BLAS parallelizes the linear algebra
inside each trial.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .ensembles import (
    Ensemble,
    Field,
    SeedLike,
    _checked_intensities,
    as_rng,
    moment_profile,
    sample_measurements,
)
from .solver import BarzilaiBorwein, SolverConfig, dist, solve
from .spectral import _build_Y, _gsi_from_Y, _si_from_Y, gsi, measure

DEFAULT_RATIOS = tuple(range(2, 21, 2))
SPIKE_FACTOR = 200.0


class ExperimentKind(Enum):
    INIT_ERROR = "init_error"
    SUCCESS_RATE = "success_rate"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    ensemble: Ensemble
    d: int = 128
    ratio_grid: tuple = DEFAULT_RATIOS
    trials: Optional[int] = None     # defaults: 50 for init, 100 for success
    success_threshold: float = 1e-5
    max_iters: int = 2000
    power_iters: int = 50
    base_seed: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if len(self.ratio_grid) == 0:
            raise ValueError("ratio grid must be nonempty")
        if not all(math.isfinite(r) and r >= 1 for r in self.ratio_grid):
            raise ValueError("ratio grid values must be finite and >= 1")
        keys = [_ratio_key(r) for r in self.ratio_grid]
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"ratio grid {tuple(self.ratio_grid)} has ratios equal after rounding to "
                "0.001, which would share trial streams")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def effective_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return 100 if self.kind is ExperimentKind.SUCCESS_RATE else 50

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "ensemble": self.ensemble.to_dict(),
            "d": self.d,
            "ratio_grid": list(self.ratio_grid),
            "trials": self.effective_trials,
            "success_threshold": self.success_threshold,
            "max_iters": self.max_iters,
            "power_iters": self.power_iters,
            "base_seed": self.base_seed,
            "paired_si_gsi_measurements": True,
        }


@dataclass(frozen=True)
class TrialRecord:
    init_rel_error: float
    final_rel_error: float
    iterations: int
    success: bool
    wall_time: float


@dataclass
class ResultTable:
    columns: list
    rows: list                        # list of dicts keyed by `columns`
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(row[c]) for c in self.columns])
        return buf.getvalue()

    def to_json(self) -> str:
        """Rows plus the full config metadata, for exact replay."""
        return json.dumps({"metadata": self.metadata, "rows": self.rows}, indent=2)


def _format_cell(v) -> str:
    # 17 significant digits: exact float round trips
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _ratio_key(ratio: float) -> int:
    return int(round(1000 * ratio))


def trial_seed(base_seed: int, ratio: float, trial: int) -> np.random.SeedSequence:
    """Pure function of (base_seed, ratio, trial). The ratio is keyed by
    round(1000*ratio); ExperimentConfig rejects grids where two keys collide,
    so no two trials of an experiment share a stream."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(_ratio_key(ratio), trial))


def generate_signal(d: int, seed: SeedLike, field: Field = Field.REAL) -> np.ndarray:
    """Gaussian test signal with the last two coordinates amplified by
    SPIKE_FACTOR = 200. Complex signals are (g1 + i g2)/sqrt(2)."""
    if d < 2:
        raise ValueError("need d >= 2 for the spiked signal")
    rng = as_rng(seed)
    if field is Field.COMPLEX:
        x = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)
    else:
        x = rng.standard_normal(d)
    x[-2:] *= SPIKE_FACTOR
    return x


def _problem(config: ExperimentConfig, ratio: float, i: int) -> tuple:
    """Trial i at `ratio`: (x, mset, y, power_seeds), the signal, its
    N = round(ratio * d) measurements and intensities, and two seeds for
    power methods. The trial stream spawns four children; the first three
    are the same whether or not the fourth is spawned."""
    sig_ss, meas_ss, *power_seeds = trial_seed(config.base_seed, ratio, i).spawn(4)
    x = generate_signal(config.d, sig_ss, field=config.ensemble.field)
    N = int(round(ratio * config.d))
    mset = sample_measurements(config.ensemble, N, config.d, meas_ss)
    return x, mset, measure(mset, x), power_seeds


def run_init_experiment(config: ExperimentConfig) -> ResultTable:
    """Mean relative error of GSI and SI per N/d ratio; both initializers see
    the same measurement realizations within a trial (paired comparison)."""
    if config.kind is not ExperimentKind.INIT_ERROR:
        raise ValueError(f"config kind must be INIT_ERROR, got {config.kind}")
    profile = moment_profile(config.ensemble)
    trials = config.effective_trials

    def one_trial(ratio: float, i: int) -> tuple[float, float]:
        x, mset, y, (pw_gsi_ss, pw_si_ss) = _problem(config, ratio, i)
        nx = np.linalg.norm(x)
        y = _checked_intensities(mset, y)
        Y = _build_Y(mset, y)  # shared by both initializers
        g = _gsi_from_Y(Y, y, profile, config.power_iters, pw_gsi_ss)
        s = _si_from_Y(mset, Y, y, config.power_iters, pw_si_ss)
        return dist(g.z0, x) / nx, dist(s.z0, x) / nx

    rows = []
    for ratio in config.ratio_grid:
        pairs = [one_trial(ratio, i) for i in range(trials)]
        gsi_errs = [p[0] for p in pairs]
        si_errs = [p[1] for p in pairs]
        rows.append({
            "ratio": float(ratio),
            "N": int(round(ratio * config.d)),
            "gsi_mean_rel_error": float(np.mean(gsi_errs)),
            "si_mean_rel_error": float(np.mean(si_errs)),
            "trials": trials,
        })
    columns = ["ratio", "N", "gsi_mean_rel_error", "si_mean_rel_error", "trials"]
    return ResultTable(columns, rows, config.to_dict())


def run_recovery_trial(config: ExperimentConfig, ratio: float, i: int) -> TrialRecord:
    """One seeded end-to-end trial: signal, measurements, GSI, BB descent."""
    t0 = time.perf_counter()
    x, mset, y, (pw_ss, _) = _problem(config, ratio, i)
    profile = moment_profile(config.ensemble)
    nx = np.linalg.norm(x)
    init = gsi(mset, y, profile, power_iters=config.power_iters, seed=pw_ss)
    init_err = dist(init.z0, x) / nx
    report = solve(
        mset, y, init.z0,
        SolverConfig(step_mode=BarzilaiBorwein(), max_iters=config.max_iters),
    )
    final_err = dist(report.final_z, x) / nx
    wall = time.perf_counter() - t0
    return TrialRecord(
        init_rel_error=float(init_err),
        final_rel_error=float(final_err),
        iterations=report.iterations,
        success=bool(final_err < config.success_threshold),
        wall_time=wall,
    )


def run_recovery_experiment(config: ExperimentConfig) -> ResultTable:
    """Success rate per N/d ratio over seeded trials."""
    if config.kind is not ExperimentKind.SUCCESS_RATE:
        raise ValueError(f"config kind must be SUCCESS_RATE, got {config.kind}")
    moment_profile(config.ensemble)  # reject invalid ensembles up front
    trials = config.effective_trials

    rows = []
    for ratio in config.ratio_grid:
        records = [run_recovery_trial(config, ratio, i) for i in range(trials)]
        rows.append({
            "ratio": float(ratio),
            "N": int(round(ratio * config.d)),
            "success_rate": float(np.mean([r.success for r in records])),
            "mean_init_rel_error": float(np.mean([r.init_rel_error for r in records])),
            "mean_final_rel_error": float(np.mean([r.final_rel_error for r in records])),
            "trials": trials,
        })
    columns = ["ratio", "N", "success_rate", "mean_init_rel_error",
               "mean_final_rel_error", "trials"]
    return ResultTable(columns, rows, config.to_dict())
