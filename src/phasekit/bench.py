"""Experiment harness: seeded trials and result tables as CSV or JSON.

Reproduces the two benchmark protocols: initialization accuracy (mean
relative error of GSI vs SI over a grid of N/d ratios) and recovery success
rate (GSI followed by BB-stepped gradient descent, success when the final
relative error drops below the protocol constant 1e-5). Each is a trial
function and its columns for one sweep loop; ExperimentConfig settles every
value at construction, so the sweep only reads it.

Determinism contract: every output, a TrialRecord included, is a pure
function of (config, base_seed). Trial streams are derived as
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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import ClassVar, Optional

import numpy as np

from .ensembles import (
    Ensemble,
    Field,
    GAUSSIAN,
    SeedLike,
    _intensities,
    _is_int,
    _is_real,
    moment_profile,
    sample_entries,
    sample_measurements,
)
from .solver import DEFAULT_MAX_ITERS, SolverConfig, dist, solve
from .spectral import DEFAULT_POWER_ITERS, _Y, _gsi_from_Y, _si_from_Y, _sum_sq, gsi, measure

DEFAULT_RATIOS = tuple(range(2, 21, 2))
SPIKE_FACTOR = 200.0


def _python(v):
    """A numpy scalar as the Python number it holds; any other value as is."""
    return v.item() if isinstance(v, np.generic) else v


class ExperimentKind(Enum):
    INIT_ERROR = "init_error"
    SUCCESS_RATE = "success_rate"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    ensemble: Ensemble
    d: int = 128
    ratio_grid: tuple = DEFAULT_RATIOS
    trials: Optional[int] = None     # None: 50 for init, 100 for success
    # protocol constants, not settings: at d=128 recovery ends below 2e-11 or above 0.39,
    # and an exact eigensolver in place of the power method moves the mean GSI error <= 0.0035
    success_threshold: ClassVar[float] = 1e-5
    power_iters: ClassVar[int] = DEFAULT_POWER_ITERS
    max_iters: int = DEFAULT_MAX_ITERS
    base_seed: int = 0

    def __post_init__(self):
        """Settles every value: a bad value or law is a ValueError here, an unset
        trial count takes the kind's default, numpy numbers become Python numbers."""
        for name, cls in (("kind", ExperimentKind), ("ensemble", Ensemble)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name!r} must be a {cls.__name__}, got {getattr(self, name)!r}")
        for f in fields(self):
            object.__setattr__(self, f.name, _python(getattr(self, f.name)))
        if self.trials is None:
            object.__setattr__(self, "trials",
                               100 if self.kind is ExperimentKind.SUCCESS_RATE else 50)
        for name, low in (("d", 2), ("base_seed", 0), ("trials", 1)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name!r} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not (isinstance(self.ratio_grid, (Sequence, np.ndarray))
                and all(map(_is_real, self.ratio_grid))):
            raise ValueError(f"'ratio_grid' must be a sequence of numbers, got {self.ratio_grid!r}")
        object.__setattr__(self, "ratio_grid", tuple(map(_python, self.ratio_grid)))
        self.solver_config  # SolverConfig owns the max_iters rule
        if len(self.ratio_grid) == 0:
            raise ValueError("ratio grid must be nonempty")
        if not all(math.isfinite(r) and r >= 1 for r in self.ratio_grid):
            raise ValueError("ratio grid values must be finite and >= 1")
        keys = [_ratio_key(r) for r in self.ratio_grid]
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"ratio grid {self.ratio_grid} has ratios equal after rounding to "
                "0.001, which would share trial streams")
        moment_profile(self.ensemble)  # MomentProfile rejects an invalid law

    @property
    def solver_config(self) -> SolverConfig:
        """The descent settings of a recovery trial."""
        return SolverConfig(max_iters=self.max_iters)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "ensemble": self.ensemble.to_dict(),
            "d": self.d,
            "ratio_grid": list(self.ratio_grid),
            "trials": self.trials,
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
        """Rows plus the metadata, which records the settings that made them."""
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
    if not (_is_int(d) and d >= 2):
        raise ValueError(f"d must be an integer >= 2 for the spiked signal, got {d!r}")
    x = sample_entries(Ensemble(field, GAUSSIAN), (d,), np.random.default_rng(seed))
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


def _sweep(config: ExperimentConfig, kind: ExperimentKind, columns: list, trial) -> ResultTable:
    """The protocol both experiments share: trial(ratio, i) for every ratio
    of the grid and every i < config.trials, in that order. A row holds the
    ratio, N, the mean of each returned value under `columns`, and trials."""
    if config.kind is not kind:
        raise ValueError(f"config kind must be {kind.name}, got {config.kind}")
    rows = []
    for ratio in config.ratio_grid:
        results = [trial(ratio, i) for i in range(config.trials)]
        # a 1-D mean per column: np.mean(axis=0) sums in another order
        means = [float(np.mean(column)) for column in zip(*results)]
        rows.append({"ratio": float(ratio), "N": int(round(ratio * config.d)),
                     **dict(zip(columns, means)), "trials": config.trials})
    return ResultTable(["ratio", "N", *columns, "trials"], rows, config.to_dict())


def run_init_experiment(config: ExperimentConfig) -> ResultTable:
    """Mean relative error of GSI and SI per N/d ratio; both initializers see
    the same measurement realizations within a trial (paired comparison)."""
    profile = moment_profile(config.ensemble)

    def one_trial(ratio: float, i: int) -> tuple[float, float]:
        x, mset, y, (pw_gsi_ss, pw_si_ss) = _problem(config, ratio, i)
        nx = np.linalg.norm(x)
        y = _intensities(y, mset.N)
        A = mset.vectors
        sum_a2 = _sum_sq(A)
        Y = _Y(A, y, out=A)  # shared by both initializers
        g = _gsi_from_Y(Y, y, profile, config.power_iters, pw_gsi_ss)
        s = _si_from_Y(Y, y, sum_a2, config.power_iters, pw_si_ss)
        return dist(g.z0, x) / nx, dist(s.z0, x) / nx

    return _sweep(config, ExperimentKind.INIT_ERROR,
                  ["gsi_mean_rel_error", "si_mean_rel_error"], one_trial)


def run_recovery_trial(config: ExperimentConfig, ratio: float, i: int) -> TrialRecord:
    """One seeded end-to-end trial: signal, measurements, GSI, BB descent."""
    x, mset, y, (pw_ss, _) = _problem(config, ratio, i)
    profile = moment_profile(config.ensemble)
    nx = np.linalg.norm(x)
    init = gsi(mset, y, profile, power_iters=config.power_iters, seed=pw_ss)
    init_err = dist(init.z0, x) / nx
    report = solve(mset, y, init.z0, config.solver_config)
    final_err = dist(report.final_z, x) / nx
    return TrialRecord(
        init_rel_error=float(init_err),
        final_rel_error=float(final_err),
        iterations=report.iterations,
        success=bool(final_err < config.success_threshold),
    )


def run_recovery_experiment(config: ExperimentConfig) -> ResultTable:
    """Success rate per N/d ratio over seeded trials."""
    def one_trial(ratio: float, i: int) -> tuple[bool, float, float]:
        r = run_recovery_trial(config, ratio, i)
        return r.success, r.init_rel_error, r.final_rel_error

    return _sweep(config, ExperimentKind.SUCCESS_RATE,
                  ["success_rate", "mean_init_rel_error", "mean_final_rel_error"], one_trial)
