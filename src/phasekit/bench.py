"""Experiment harness: seeded trials and their result tables (CSV here, JSON from the CLI).

Reproduces the two benchmark protocols: initialization accuracy (mean
relative error of GSI vs SI over a grid of N/d ratios) and recovery success
rate (GSI followed by BB-stepped gradient descent, success when the final
relative error drops below the protocol constant 1e-5). One trial function
returns each trial's TrialRecord, and one sweep loop reduces its fields by
name; ExperimentConfig settles every value at construction, so the sweep only reads it.

Determinism contract: every output, a TrialRecord included, is a pure
function of (config, base_seed). Trial streams are derived as
SeedSequence(base_seed, spawn_key=(round(1000*ratio), trial)), and ratio
grids whose rounded keys collide are rejected, so no two trials share an RNG
stream. A trial holds one N x d array of rows at a time: GSI weights the drawn
rows in place and, for complex rows with N >= d, forms Y over them (`_Y`), so
GSI's one new array is the real Gram of their view; a recovery trial draws the
rows again from the same seed for the descent, checking that they give the same
y bit for bit. No public call returns a view of rows. Trials run one after
another; BLAS parallelizes the linear algebra inside each trial. That leaves the
bits alone while the BLAS does not split a dot of d entries (OpenBLAS 0.3.31 on
x86_64 splits a dot or vdot of more than 10,000 entries across threads,
reordering its sum, and a GEMV or SYRK its outputs, not its sums), as for
`_norm`, `_bb_step` and `dist`; SI's sum of squares over all N x d entries is
summed without BLAS.

LAPACK sets the other limit: a dense eigensolve (`hermitian_opnorm`) is not
the same function of its matrix at every thread count. At 1 and 2 threads
(numpy 2.4.6, OpenBLAS 0.3.31) complex 256 x 256 solves differed in their last
bits, so `mc_F_residual` at d = 128 does, while `mc_condition_residual` and
`concentration_curve` at d = 32, 64 and 128 and `mc_F_residual` at d <= 64 gave
the same bytes. Trials and tables make no eigensolve.
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
        _fits(self.d, self.d, "d")  # each command forms d x d matrices, whatever grid it borrows
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
    """One trial of either protocol. A recovery trial fills the first five fields, `status`
    the value of solve's SolveStatus; an init trial fills `init_rel_error` with GSI's start
    error and `si_rel_error` with SI's, and leaves the descent's fields None."""
    init_rel_error: float
    final_rel_error: Optional[float]
    iterations: Optional[int]
    success: Optional[bool]
    status: Optional[str] = None
    si_rel_error: Optional[float] = None


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
    SPIKE_FACTOR = 200. Complex signals are (g1 + i g2)/sqrt(2). A d that no numpy
    array of the field's numbers holds raises a ValueError naming d (`_fits`)."""
    _integer(d, "d", 2)
    ensemble = Ensemble(field, GAUSSIAN)
    _fits(d, 1, "d", np.dtype(field.dtype).itemsize)
    x = sample_measurements(ensemble, 1, d, seed).vectors[0]
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


def _start(config: ExperimentConfig, ratio: float, i: int) -> tuple:
    """Trial i at `ratio` up to its starts, either protocol's: (x, draw, y, g, s), the signal,
    the call that draws its rows, y, and GSI's and SI's InitResults (s is None in a recovery
    trial). The stream spawns seeds for x, the rows, GSI and, in an init trial only, SI: the
    first three are the same either way, since a SeedSequence's children do not depend on how
    many are spawned. GSI weights the drawn rows in place and forms a complex Y over them: the
    rows die when this returns, and a recovery trial's descent takes draw() of the same rows."""
    paired = config.kind is ExperimentKind.INIT_ERROR
    sig_ss, meas_ss, *power_seeds = trial_seed(config.base_seed, ratio, i).spawn(3 + paired)
    x = generate_signal(config.d, sig_ss, field=config.ensemble.field)
    draw = partial(sample_measurements, config.ensemble, _rows(ratio, config.d, "ratio"),
                   config.d, meas_ss)
    mset = draw()
    y = measure(mset, x)
    return (x, draw, y, *_paired_init(mset.vectors, y, moment_profile(config.ensemble),
                                      config.power_iters, *power_seeds, out=mset.vectors))


def _trial(config: ExperimentConfig, ratio: float, i: int) -> TrialRecord:
    """Trial i at `ratio` as the TrialRecord of config's kind; a descent runs on draw()."""
    x, draw, y, g, s = _start(config, ratio, i)
    nx = _norm(x)
    init_err = float(dist(g.z0, x) / nx)
    if s is not None:
        return TrialRecord(init_err, None, None, None, si_rel_error=float(dist(s.z0, x) / nx))
    mset = draw()  # the plain rows again, for the descent
    if not np.array_equal(measure(mset, x), y):  # y >= 0 and finite: equal is bit for bit
        raise ValueError(f"entry distribution {config.ensemble.entry.name!r}: a second draw "
                         "from the same seed gave other rows; its sampler must depend only "
                         "on its generator and shape")
    report = solve(mset, y, g.z0, SolverConfig(max_iters=config.max_iters))
    final_err = float(dist(report.final_z, x) / nx)
    return TrialRecord(init_err, final_err, report.iterations,
                       final_err < config.success_threshold, report.status.value)


def _checked(config: ExperimentConfig, kind: ExperimentKind) -> ExperimentConfig:
    """config, checked as an ExperimentConfig of `kind`: the check of every entry point."""
    if _instance(config, "config", ExperimentConfig).kind is not kind:
        raise ValueError(f"config kind must be {kind.name}, got {config.kind}")
    return config


def _sweep(config: ExperimentConfig, columns: dict) -> ResultTable:
    """The protocol both experiments share: `_trial` for every ratio of the grid and every
    i < config.trials, in that order. `columns` maps column names to TrialRecord fields; a
    row holds the ratio, N, each column's mean of its field over the trials, and trials."""
    rows = []
    for ratio in config.ratio_grid:
        records = [_trial(config, ratio, i) for i in range(config.trials)]
        # a 1-D mean per column: np.mean(axis=0) sums in another order
        means = {c: float(np.mean([getattr(r, f) for r in records])) for c, f in columns.items()}
        rows.append({"ratio": float(ratio), "N": _rows(ratio, config.d, "ratio"),
                     **means, "trials": config.trials})
    return ResultTable(["ratio", "N", *columns, "trials"], rows, config.to_dict())


def run_init_experiment(config: ExperimentConfig) -> ResultTable:
    """Mean relative error of GSI and SI per N/d ratio; both initializers see
    the same measurement realizations within a trial (paired comparison)."""
    return _sweep(_checked(config, ExperimentKind.INIT_ERROR),
                  {"gsi_mean_rel_error": "init_rel_error", "si_mean_rel_error": "si_rel_error"})


def run_recovery_trial(config: ExperimentConfig, ratio: float, trial: int) -> TrialRecord:
    """One seeded end-to-end trial: signal, measurements, GSI, BB descent. The record
    carries the solver's status, the value of solve's SolveStatus."""
    return _trial(_checked(config, ExperimentKind.SUCCESS_RATE), ratio, trial)


def run_recovery_experiment(config: ExperimentConfig) -> ResultTable:
    """Success rate per N/d ratio over seeded trials."""
    return _sweep(_checked(config, ExperimentKind.SUCCESS_RATE),
                  {"success_rate": "success", "mean_init_rel_error": "init_rel_error",
                   "mean_final_rel_error": "final_rel_error"})
