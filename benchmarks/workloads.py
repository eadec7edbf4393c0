"""The benchmark's workloads, all at d=128.

Each workload defines one kind of operation and drives phasekit only
through its public functions:

- `run(k)` performs operation k the way a user would (`run_recovery_trial`,
  `run_init_experiment`, the `verify` oracles);
- `is_failure(result)` applies the output checks;
- `key(result)` is what must repeat exactly for the same seed;
- `mirror(k, tracer)` rebuilds operation k from the calls it is made of,
  with a span around each call into a layer, and returns (key, info);
- `per_call(tracer)` times single calls at the workload's (field, N, d).

Inputs are a pure function of the seed given to `prepare`.
"""

from __future__ import annotations

import numpy as np

from phasekit import (
    TERNARY,
    UNIFORM,
    BarzilaiBorwein,
    Ensemble,
    ExperimentConfig,
    ExperimentKind,
    Field,
    SolverConfig,
    TrialRecord,
    baseline_si,
    build_M,
    build_Y,
    concentration_curve,
    condition_expectation,
    dist,
    generate_signal,
    gradient,
    gsi,
    hermitian_opnorm,
    mc_condition_residual,
    measure,
    moment_profile,
    power_method,
    rho_from_intensities,
    run_init_experiment,
    run_recovery_trial,
    sample_measurements,
    solve,
    trial_seed,
)

from harness import all_finite

D = 128
OPNORM_RTOL = 1e-8       # hermitian_opnorm against eigvalsh
PER_CALL_REPEATS = 20    # calls per (layer, configuration) in per_call


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


class Workload:
    """Defaults for the interface described at the top of this module.

    A run performs a fixed number of whole groups of operations (a ratio
    cycle, an oracle cycle), so what it attempts and what fails depend only
    on the seed. `group_seconds` is the wall time of one group at the
    workload's pool on a shared 2-core x86-64 host; `plan` sizes a run of
    about `seconds` on such a host from it."""

    pool = 1
    group = 1
    group_seconds = 1.0

    def plan(self, seconds: float) -> int:
        """Operations in a run of about `seconds`: whole groups, at least one."""
        return self.group * max(1, round(seconds / self.group_seconds))

    def consistent(self, result) -> bool:
        return True

    @staticmethod
    def key(result) -> tuple:
        return result

    def per_call(self, tr) -> dict:
        return {}


class _RatioGrid(Workload):
    def __init__(self, name: str, field: Field, entry, ratios: tuple, pool: int,
                 group_seconds: float):
        self.name = name
        self.ensemble = Ensemble(field, entry)
        self.ratios = ratios
        self.pool = pool
        self.group = len(ratios)
        self.group_seconds = group_seconds
        self.profile = moment_profile(self.ensemble)


class Recovery(_RatioGrid):
    """Operation: one `run_recovery_trial` (signal, measurements, GSI, BB
    descent). Operation k uses ratios[k % len(ratios)] and trial k // len."""

    def prepare(self, seed: int) -> None:
        self.config = ExperimentConfig(ExperimentKind.SUCCESS_RATE, self.ensemble, d=D,
                                       ratio_grid=self.ratios, base_seed=seed)

    def _op(self, k: int) -> tuple:
        return self.ratios[k % self.group], k // self.group

    def run(self, k: int) -> TrialRecord:
        ratio, i = self._op(k)
        return run_recovery_trial(self.config, ratio, i)

    def is_failure(self, rec: TrialRecord) -> bool:
        return not (all_finite([rec.init_rel_error, rec.final_rel_error])
                    and rec.final_rel_error < self.config.success_threshold)

    def consistent(self, rec: TrialRecord) -> bool:
        """The record agrees with itself: success is the threshold test and
        the iteration count is within the cap."""
        return (rec.success == (rec.final_rel_error < self.config.success_threshold)
                and 0 <= rec.iterations <= self.config.max_iters)

    @staticmethod
    def key(rec: TrialRecord) -> tuple:
        return rec.init_rel_error, rec.final_rel_error, rec.iterations, rec.success

    def mirror(self, k: int, tr) -> tuple:
        cfg = self.config
        ratio, i = self._op(k)
        with tr.span("bench.run_recovery_trial"):
            sig_ss, meas_ss, pw_ss = trial_seed(cfg.base_seed, ratio, i).spawn(3)
            with tr.span("bench.generate_signal"):
                x = generate_signal(cfg.d, sig_ss, field=self.ensemble.field)
            N = int(round(ratio * cfg.d))
            profile = moment_profile(self.ensemble)
            with tr.span("ensembles.sample_measurements"):
                mset = sample_measurements(self.ensemble, N, cfg.d, meas_ss)
            with tr.span("spectral.measure"):
                y = measure(mset, x)
            nx = np.linalg.norm(x)
            with tr.span("spectral.gsi"):
                init = gsi(mset, y, profile, power_iters=cfg.power_iters, seed=pw_ss)
            with tr.span("solver.dist"):
                init_err = float(dist(init.z0, x) / nx)
            with tr.span("solver.solve"):
                report = solve(mset, y, init.z0, SolverConfig(step_mode=BarzilaiBorwein(),
                                                              max_iters=cfg.max_iters))
            with tr.span("solver.dist"):
                final_err = float(dist(report.final_z, x) / nx)
        key = (init_err, final_err, report.iterations,
               bool(final_err < cfg.success_threshold))
        info = {
            "status": report.status.value,
            "iterations": report.iterations,
            "residuals": [init.residual],
            "gsi_err": init_err,
            "sample_bytes": mset.vectors.nbytes,
        }
        return key, info

    def per_call(self, tr) -> dict:
        """gradient, build_Y and power_method at each ratio's N; returns the
        bytes the gradient calls read, computed as 2*N*d*itemsize each."""
        rng = np.random.default_rng(self.config.base_seed)
        grad_bytes = 0
        for ratio in self.ratios:
            N = int(round(ratio * D))
            x = generate_signal(D, rng, field=self.ensemble.field)
            mset = sample_measurements(self.ensemble, N, D, rng)
            y = measure(mset, x)
            # the cost of a call does not depend on where it is evaluated
            with tr.span("solver.gradient", calls=PER_CALL_REPEATS):
                for _ in range(PER_CALL_REPEATS):
                    gradient(x, mset, y)
            grad_bytes += PER_CALL_REPEATS * 2 * mset.vectors.nbytes
            _time_spectral(tr, mset, y, self.profile)
        return {"gradient_bytes": grad_bytes}


def _time_spectral(tr, mset, y, profile) -> None:
    with tr.span("spectral.build_Y", calls=PER_CALL_REPEATS):
        for _ in range(PER_CALL_REPEATS):
            Y = build_Y(mset, y)
    M = build_M(Y, rho_from_intensities(y, profile.tau1), profile)
    with tr.span("spectral.power_method", calls=PER_CALL_REPEATS):
        for _ in range(PER_CALL_REPEATS):
            power_method(M, iters=50, seed=0)


class InitSweep(_RatioGrid):
    """Operation: one paired GSI+SI trial, `run_init_experiment` with one
    ratio and one trial. Operation k uses ratios[k % len(ratios)]; each sweep
    over the ratios gets its own base seed."""

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def _config(self, k: int) -> ExperimentConfig:
        return ExperimentConfig(ExperimentKind.INIT_ERROR, self.ensemble, d=D,
                                ratio_grid=(self.ratios[k % self.group],), trials=1,
                                base_seed=self.seed * 1_000_000 + k // self.group)

    def run(self, k: int) -> tuple:
        row = run_init_experiment(self._config(k)).rows[0]
        return row["gsi_mean_rel_error"], row["si_mean_rel_error"]

    def is_failure(self, result: tuple) -> bool:
        return not all_finite(result)

    def mirror(self, k: int, tr) -> tuple:
        cfg = self._config(k)
        ratio = cfg.ratio_grid[0]
        with tr.span("bench.run_init_experiment"):
            profile = moment_profile(self.ensemble)
            sig_ss, meas_ss, pw_gsi_ss, pw_si_ss = trial_seed(cfg.base_seed, ratio, 0).spawn(4)
            with tr.span("bench.generate_signal"):
                x = generate_signal(cfg.d, sig_ss, field=self.ensemble.field)
            N = int(round(ratio * cfg.d))
            with tr.span("ensembles.sample_measurements"):
                mset = sample_measurements(self.ensemble, N, cfg.d, meas_ss)
            with tr.span("spectral.measure"):
                y = measure(mset, x)
            nx = np.linalg.norm(x)
            with tr.span("spectral.gsi"):
                g = gsi(mset, y, profile, power_iters=cfg.power_iters, seed=pw_gsi_ss)
            with tr.span("spectral.baseline_si"):
                s = baseline_si(mset, y, power_iters=cfg.power_iters, seed=pw_si_ss)
            with tr.span("solver.dist"):
                g_err = float(dist(g.z0, x) / nx)
            with tr.span("solver.dist"):
                s_err = float(dist(s.z0, x) / nx)
        info = {
            "residuals": [g.residual, s.residual],
            "gsi_err": g_err,
            "sample_bytes": mset.vectors.nbytes,
        }
        return (g_err, s_err), info

    def per_call(self, tr) -> dict:
        rng = np.random.default_rng(self.seed)
        for ratio in self.ratios:
            mset = sample_measurements(self.ensemble, int(round(ratio * D)), D, rng)
            _time_spectral(tr, mset, measure(mset, generate_signal(D, rng)), self.profile)
        return {}


class Oracle(Workload):
    """Operation: one call of a `verify` oracle. A cycle of 50 runs
    `hermitian_opnorm` on two fixed matrices, the same for every seed, then
    one `concentration_curve` (real ternary) and `mc_condition_residual` for
    complex and real ternary; each cycle draws new oracle seeds.

    The matrices are a complex deviation Y - E(Y), called 46 times, and the
    +-lambda matrix, called once. Deviations are what the oracles themselves
    pass to `hermitian_opnorm`, 42 times per `mc_condition_residual`, and the
    power-iteration path they take is what ROADMAP item 3 replaces.
    `mc_condition_residual` draws 5e4 samples, so that a cycle takes about
    2.7 s and a run covers several cycles."""

    MATRIX_SEED = 0
    CONDITION_SAMPLES = 50_000
    # indices into the matrices built by `prepare`
    DEVIATION, PLUS_MINUS = 0, 1
    CYCLE = ((DEVIATION,) * 46 + (PLUS_MINUS,)
             + ("concentration", "condition-complex", "condition-real"))
    group = len(CYCLE)
    group_seconds = 2.7

    def __init__(self, name: str):
        self.name = name
        self.real = Ensemble(Field.REAL, TERNARY)
        self.complex = Ensemble(Field.COMPLEX, TERNARY)
        moment_profile(self.real)
        moment_profile(self.complex)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.x_real, self.x_complex = self._signals(np.random.default_rng(seed))
        # The matrices do not depend on the seed: the number of power
        # iterations, and so the latency, differs from matrix to matrix.
        rng = np.random.default_rng(self.MATRIX_SEED)
        x = self._signals(rng)[1]
        mset = sample_measurements(self.complex, 8 * D, D, rng)
        deviation = (build_Y(mset, measure(mset, x))
                     - condition_expectation(moment_profile(self.complex), x))
        pm = np.zeros(100)
        # +-lambda spectrum: power iteration oscillates (known defect, d > 64)
        pm[:2] = (5.0, -5.0)
        self.matrices = (deviation, np.diag(pm))
        self._references: dict = {}

    @staticmethod
    def _signals(rng) -> tuple:
        """Unit real and complex signals."""
        return (_unit(rng.standard_normal(D)),
                _unit(rng.standard_normal(D) + 1j * rng.standard_normal(D)))

    def reference(self, m: int) -> float:
        """Operator norm of matrix m by a dense eigensolve."""
        if m not in self._references:
            self._references[m] = float(np.max(np.abs(np.linalg.eigvalsh(self.matrices[m]))))
        return self._references[m]

    def run(self, k: int) -> tuple:
        kind, j = self.CYCLE[k % self.group], k // self.group
        if not isinstance(kind, str):
            return "opnorm", kind, hermitian_opnorm(self.matrices[kind])
        cycle_seed = np.random.SeedSequence([self.seed, j])
        if kind == "concentration":
            rows = concentration_curve(self.real, D, self.x_real, [4 * D, 16 * D],
                                       trials=20, seed=cycle_seed)
            return kind, j, tuple(tuple(r.to_dict().values()) for r in rows)
        if kind == "condition-complex":
            ens, x = self.complex, self.x_complex
        else:
            ens, x = self.real, self.x_real
        rep = mc_condition_residual(ens, D, x, n_samples=self.CONDITION_SAMPLES,
                                    seed=cycle_seed)
        return kind, j, (rep.residual, rep.tolerance, rep.components[0].residual,
                         rep.components[0].tolerance, rep.passed)

    def is_failure(self, result: tuple) -> bool:
        kind, m, value = result
        if kind == "opnorm":
            ref = self.reference(m)
            return not (np.isfinite(value) and abs(value - ref) <= OPNORM_RTOL * ref)
        if kind == "concentration":
            return not all_finite(v for row in value for v in row)
        return not (all_finite(value[:4]) and value[4])

    def mirror(self, k: int, tr) -> tuple:
        kind = self.CYCLE[k % self.group]
        name = {"concentration": "verify.concentration_curve",
                "condition-complex": "verify.mc_condition_residual",
                "condition-real": "verify.mc_condition_residual"}.get(
                    kind, "verify.hermitian_opnorm")
        with tr.span(name):
            result = self.run(k)
        info = {}
        if result[0] == "opnorm":
            info["opnorm_abs_err"] = abs(result[2] - self.reference(result[1]))
        return result, info


# Why each workload: see also benchmarks/README.md for the per-layer
# predictions each one carries.
def make(name: str):
    if name == "recover-complex":
        # Descent is >=95% of each trial and the complex `gradient` copies
        # the N x d matrix on every call, so this shows the stopping rule,
        # the conj-copy fix and batching. The only workload where a pool of
        # 2 threads (BLAS at 1) helps.
        return Recovery(name, Field.COMPLEX, TERNARY, (8,), pool=2, group_seconds=0.65)
    if name == "recover-real":
        # Real `gradient` makes no conj copy: the control for that fix. Small
        # GEMVs make each iteration mostly Python overhead, where batched
        # descent should show. About half the N=2d trials end at spurious
        # stationary points, exercising failure paths and a bimodal tail.
        return Recovery(name, Field.REAL, UNIFORM, (2, 4), pool=1, group_seconds=0.17)
    if name == "init-sweep":
        # No descent: sample_measurements, build_Y twice and power_method
        # twice per trial over the criterion-4 grid. Target for spectral and
        # sampling changes, control for every solver change.
        return InitSweep(name, Field.REAL, TERNARY, tuple(range(8, 21, 2)), pool=1,
                         group_seconds=0.066)
    if name == "oracle":
        # At d > 64 `verify` takes its power-iteration path; without this
        # workload the verify layer goes unmeasured.
        return Oracle(name)
    raise ValueError(f"unknown workload {name!r}")

