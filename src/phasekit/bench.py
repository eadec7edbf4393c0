"""Experiment harness: seeded trials and their result tables (CSV here, JSON from the CLI).

Reproduces the two benchmark protocols: initialization accuracy (mean
relative error of GSI vs SI over a grid of N/d ratios) and recovery success
rate (GSI followed by BB-stepped gradient descent, success when the final
relative error drops below the protocol constant 1e-5). Both share one trial
function and one sweep loop; ExperimentConfig settles every value at
construction, so the sweep only reads it.

Determinism contract: every output, a TrialRecord included, is a pure
function of (config, base_seed). Trial streams are derived as
SeedSequence(base_seed, spawn_key=(round(1000*ratio), trial)), and ratio
grids whose rounded keys collide are rejected, so no two trials share an RNG
stream. A trial holds one N x d array of rows at a time: GSI weights the drawn
rows in place, and a recovery trial draws them again from the same seed for
the descent, checking that they give the same y bit for bit. Trials run one
after another; BLAS parallelizes the linear algebra inside each trial. That
leaves the bits alone while the BLAS does not split a dot of d entries
(OpenBLAS 0.3.31 on x86_64 splits a dot or vdot of more than 10,000 entries
across threads, reordering its sum, and a GEMV or SYRK its outputs, not its
sums), as for `_norm`, `_bb_step` and `dist`; SI's sum of squares over all
N x d entries is summed without BLAS.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import ClassVar, Optional

import numpy as np

from .ensembles import (
    Ensemble,
    Field,
    GAUSSIAN,
    SeedLike,
    _fits,
    _instance,
    _integer,
    _norm,
    _number,
    _ratio_key,
    _sequence,
    moment_profile,
    sample_measurements,
)
from .solver import DEFAULT_MAX_ITERS, SolverConfig, dist, solve
from .spectral import DEFAULT_POWER_ITERS, _paired_init, measure

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
    trials: Optional[int] = None     # None: 50 for init, 100 for success
    # protocol constants, not settings: at d=128 recovery ends below 2e-11 or above 0.39 (40
    # trials each of real uniform 2d and 4d, real ternary 4d, complex uniform 6d and complex
    # ternary 8d), so any threshold in [1e-10, 0.3] gives the same tables; and an exact
    # eigensolver in place of the power method moves the mean GSI error by at most 0.0035
    success_threshold: ClassVar[float] = 1e-5
    power_iters: ClassVar[int] = DEFAULT_POWER_ITERS
    max_iters: int = DEFAULT_MAX_ITERS
    base_seed: int = 0

    def __post_init__(self):
        """Settles every value: a bad value or law is a ValueError here, an unset
        trial count takes the kind's default, numpy numbers become Python numbers."""
        _instance(self.kind, "kind", ExperimentKind)
        _instance(self.ensemble, "ensemble", Ensemble)
        default_trials = 100 if self.kind is ExperimentKind.SUCCESS_RATE else 50
        trials = default_trials if self.trials is None else self.trials
        for name, value in (("d", _integer(self.d, "d", 2)),
                            ("base_seed", _integer(self.base_seed, "base_seed", 0)),
                            ("trials", _integer(trials, "trials", 1)),
                            ("max_iters", _integer(self.max_iters, "max_iters", 1)),
                            ("ratio_grid", _sequence(self.ratio_grid, "ratio_grid", _number, 1))):
            object.__setattr__(self, name, value)
        if len(self.ratio_grid) == 0:
            raise ValueError("ratio grid must be nonempty")
        keys = [_ratio_key(r, f"ratio_grid[{i}]") for i, r in enumerate(self.ratio_grid)]
        for i, r in enumerate(self.ratio_grid):
            _rows(r, self.d, f"ratio_grid[{i}]")
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"ratio grid {self.ratio_grid} has ratios equal after rounding to "
                "0.001, which would share trial streams")
        moment_profile(self.ensemble)  # MomentProfile rejects an invalid law

    def to_dict(self) -> dict:
        """The settings that made the rows: those that this kind of experiment reads."""
        recovery = self.kind is ExperimentKind.SUCCESS_RATE
        return {"kind": self.kind.value, "ensemble": self.ensemble.to_dict(), "d": self.d,
                "ratio_grid": list(self.ratio_grid), "trials": self.trials,
                **({"success_threshold": self.success_threshold, "max_iters": self.max_iters}
                   if recovery else {}),
                "power_iters": self.power_iters, "base_seed": self.base_seed,
                **({} if recovery else {"paired_si_gsi_measurements": True})}


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
    metadata: dict = field(default_factory=dict)  # the settings that made the rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(row[c]) for c in self.columns])
        return buf.getvalue()


def _format_cell(v) -> str:
    # 17 significant digits: exact float round trips
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def trial_seed(base_seed: int, ratio: float, trial: int) -> np.random.SeedSequence:
    """Pure function of integers base_seed, trial >= 0 and a finite ratio >= 0,
    keyed by round(1000*ratio), which must be within float range. ExperimentConfig
    rejects grids where two keys collide, so no two trials of an experiment share a stream."""
    _integer(base_seed, "base_seed", 0)
    _number(ratio, "ratio", 0)
    _integer(trial, "trial", 0)
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(_ratio_key(ratio), trial))


def generate_signal(d: int, seed: SeedLike, field: Field = Field.REAL) -> np.ndarray:
    """Gaussian test signal with the last two coordinates amplified by
    SPIKE_FACTOR = 200. Complex signals are (g1 + i g2)/sqrt(2)."""
    _integer(d, "d", 2)
    x = sample_measurements(Ensemble(field, GAUSSIAN), 1, d, seed).vectors[0]
    x[-2:] *= SPIKE_FACTOR
    return x


def _rows(ratio: float, d: int, name: str) -> int:
    """N = round(ratio * d) of a checked ratio; N = 0, or N x d entries of 16 B, either
    field's, beyond numpy's largest array (`_fits`), raise a ValueError naming the ratio `name`."""
    _fits(ratio * d, d, f"{name} * d")
    N = int(round(ratio * d))
    if N == 0:
        raise ValueError(f"{name} * d = {ratio * d:.6g} rounds to 0 rows")
    return N


def _trial(config: ExperimentConfig, ratio: float, i: int) -> tuple:
    """Trial i at `ratio`, either protocol's: (x, draw, y, g, s), the signal, the call that
    draws its rows, y, and GSI's and SI's InitResults. The stream spawns seeds for x, the rows,
    GSI and, in an init trial only, SI: the first three are the same either way, since a
    SeedSequence's children do not depend on how many are spawned. GSI weights the drawn rows
    in place, so a recovery trial's descent takes draw() of the same rows; its s is None."""
    paired = config.kind is ExperimentKind.INIT_ERROR
    sig_ss, meas_ss, *power_seeds = trial_seed(config.base_seed, ratio, i).spawn(3 + paired)
    x = generate_signal(config.d, sig_ss, field=config.ensemble.field)
    draw = partial(sample_measurements, config.ensemble, _rows(ratio, config.d, "ratio"),
                   config.d, meas_ss)
    mset = draw()
    y = measure(mset, x)
    return (x, draw, y, *_paired_init(mset.vectors, y, moment_profile(config.ensemble),
                                      config.power_iters, *power_seeds, out=mset.vectors))


def _checked(config: ExperimentConfig, kind: ExperimentKind) -> ExperimentConfig:
    """config, checked as an ExperimentConfig of `kind`: the check of every entry point."""
    if _instance(config, "config", ExperimentConfig).kind is not kind:
        raise ValueError(f"config kind must be {kind.name}, got {config.kind}")
    return config


def _sweep(config: ExperimentConfig, columns: list, trial) -> ResultTable:
    """The protocol both experiments share: trial(ratio, i) for every ratio
    of the grid and every i < config.trials, in that order. A row holds the
    ratio, N, the mean of each returned value under `columns`, and trials."""
    rows = []
    for ratio in config.ratio_grid:
        results = [trial(ratio, i) for i in range(config.trials)]
        # a 1-D mean per column: np.mean(axis=0) sums in another order
        means = [float(np.mean(column)) for column in zip(*results)]
        rows.append({"ratio": float(ratio), "N": _rows(ratio, config.d, "ratio"),
                     **dict(zip(columns, means)), "trials": config.trials})
    return ResultTable(["ratio", "N", *columns, "trials"], rows, config.to_dict())


def run_init_experiment(config: ExperimentConfig) -> ResultTable:
    """Mean relative error of GSI and SI per N/d ratio; both initializers see
    the same measurement realizations within a trial (paired comparison)."""
    _checked(config, ExperimentKind.INIT_ERROR)

    def one_trial(ratio: float, i: int) -> tuple[float, float]:
        x, _, _, g, s = _trial(config, ratio, i)
        nx = _norm(x)
        return dist(g.z0, x) / nx, dist(s.z0, x) / nx

    return _sweep(config, ["gsi_mean_rel_error", "si_mean_rel_error"], one_trial)


def run_recovery_trial(config: ExperimentConfig, ratio: float, trial: int) -> TrialRecord:
    """One seeded end-to-end trial: signal, measurements, GSI, BB descent."""
    _checked(config, ExperimentKind.SUCCESS_RATE)
    x, draw, y, init, _ = _trial(config, ratio, trial)
    mset = draw()  # the plain rows again, for the descent
    if not np.array_equal(measure(mset, x), y):  # y >= 0 and finite: equal is bit for bit
        raise ValueError(f"entry distribution {config.ensemble.entry.name!r}: a second draw "
                         "from the same seed gave other rows; its sampler must depend only "
                         "on its generator and shape")
    nx = _norm(x)
    init_err = dist(init.z0, x) / nx
    report = solve(mset, y, init.z0, SolverConfig(max_iters=config.max_iters))
    final_err = dist(report.final_z, x) / nx
    return TrialRecord(init_rel_error=float(init_err), final_rel_error=float(final_err),
                       iterations=report.iterations,
                       success=bool(final_err < config.success_threshold))


def run_recovery_experiment(config: ExperimentConfig) -> ResultTable:
    """Success rate per N/d ratio over seeded trials."""
    _checked(config, ExperimentKind.SUCCESS_RATE)

    def one_trial(ratio: float, i: int) -> tuple[bool, float, float]:
        r = run_recovery_trial(config, ratio, i)
        return r.success, r.init_rel_error, r.final_rel_error

    return _sweep(config, ["success_rate", "mean_init_rel_error", "mean_final_rel_error"],
                  one_trial)
