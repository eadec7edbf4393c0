"""The descent loop, the power method, complex sampling and ternary draws
against reference copies of their straightforward formulations: results
must agree bit for bit, so the lean versions change no result table.

The references below are kept verbatim in their earlier form (two products
M v per power step, np.linalg.norm for every norm, a separate isfinite pass
over each iterate, gradient checks inside the loop). They are the
specification of the bits; do not "simplify" them.
"""

import math

import numpy as np
import pytest

from phasekit import (
    GAUSSIAN,
    TERNARY,
    UNIFORM,
    BarzilaiBorwein,
    Ensemble,
    ExperimentConfig,
    ExperimentKind,
    Field,
    FixedStep,
    MeasurementSet,
    SolveReport,
    SolverConfig,
    SolveStatus,
    baseline_si,
    dist,
    generate_signal,
    gsi,
    measure,
    moment_profile,
    power_method,
    run_init_experiment,
    sample_measurements,
    solve,
)
from phasekit import bench
from phasekit.ensembles import sample_entries
from phasekit.solver import GRAD_NORM_TOL


def _ref_inner(A, z):
    if np.iscomplexobj(A) or np.iscomplexobj(z):
        w = np.conj(A @ np.conj(z))
        return w, w.real ** 2 + w.imag ** 2
    w = A @ z
    return w, w * w


def _ref_objective(z, mset, y):
    r = _ref_inner(mset.vectors, z)[1] - y
    return float(np.sum(r ** 2)) / (2.0 * mset.N)


def _ref_gradient(z, mset, y):
    w, w_abs2 = _ref_inner(mset.vectors, z)
    return ((w_abs2 - y) * w @ mset.vectors) / mset.N


def _ref_bb_step(s, g, fallback):
    gg = float(np.real(np.vdot(g, g)))
    if gg == 0.0:
        return fallback
    num = abs(float(np.real(np.vdot(s, g))))
    if num == 0.0:
        return fallback
    return num / gg


def reference_solve(mset, y, z0, config=SolverConfig(), ground_truth=None):
    if mset.field is Field.COMPLEX:
        z = np.asarray(z0, dtype=np.complex128).copy()
    else:
        z = np.asarray(z0, dtype=np.float64).copy()
    y = np.asarray(y, dtype=np.float64)

    x_norm = float(np.linalg.norm(ground_truth)) if ground_truth is not None else None
    objectives = [] if config.trace else None
    grad_norms = [] if config.trace else None
    rel_errors = [] if (config.trace and ground_truth is not None) else None

    def record(zk, gnorm):
        if config.trace:
            objectives.append(_ref_objective(zk, mset, y))
            grad_norms.append(gnorm)
            if rel_errors is not None:
                rel_errors.append(dist(zk, ground_truth) / x_norm if x_norm else float("nan"))

    bb = isinstance(config.step_mode, BarzilaiBorwein)
    g = _ref_gradient(z, mset, y)
    gnorm = float(np.linalg.norm(g))

    # every absolute step is mu / ||z0||^2
    mu = 0.1 if bb else config.step_mode.mu
    z0_norm = float(np.linalg.norm(z))

    iterations = 0
    z_prev = None
    g_prev = None
    while True:
        record(z, gnorm)
        if not math.isfinite(gnorm):
            status = SolveStatus.NON_FINITE
            break
        znorm = float(np.linalg.norm(z))
        if gnorm <= GRAD_NORM_TOL * znorm * znorm * znorm:
            status = SolveStatus.GRAD_TOLERANCE_MET
            break
        if iterations == config.max_iters:
            status = SolveStatus.MAX_ITERS
            break
        first = mu / (z0_norm * z0_norm) if z0_norm else math.inf
        if bb and z_prev is not None:
            xi = _ref_bb_step(z - z_prev, g - g_prev, first)
        else:
            xi = first
        z_new = z - xi * g
        if not np.all(np.isfinite(z_new)):
            status = SolveStatus.NON_FINITE
            break
        z_prev, g_prev = z, g
        z = z_new
        g = _ref_gradient(z, mset, y)
        gnorm = float(np.linalg.norm(g))
        iterations += 1

    return SolveReport(z, iterations, status, objectives, grad_norms, rel_errors)


def reference_power_method(M, iters=50, seed=0, residual_tol=None):
    rng = np.random.default_rng(seed)
    d = M.shape[0]
    if np.iscomplexobj(M):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        v = rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            v = rng.standard_normal(d) if not np.iscomplexobj(M) else (
                rng.standard_normal(d) + 1j * rng.standard_normal(d))
            v = v / np.linalg.norm(v)
            continue
        v = w / nw
        lam = float(np.real(np.vdot(v, M @ v)))
        if residual_tol is not None and np.linalg.norm(M @ v - lam * v) <= residual_tol:
            break
    residual = float(np.linalg.norm(M @ v - lam * v))
    return lam, v, residual


def _assert_same_report(got, ref):
    assert got.final_z.dtype == ref.final_z.dtype
    assert got.final_z.tobytes() == ref.final_z.tobytes()
    assert got.iterations == ref.iterations
    assert got.status is ref.status
    # trace lists compare bitwise, so nan entries must match too
    for a, b in ((got.objectives, ref.objectives), (got.grad_norms, ref.grad_norms),
                 (got.rel_errors, ref.rel_errors)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array(a).tobytes() == np.array(b).tobytes()


def _problem(field, entry, ratio, d=24, seed=0):
    # d=24 keeps N off powers of two, where g / N and g * (1/N) would agree
    ens = Ensemble(field, entry)
    x = generate_signal(d, seed, field=field)
    mset = sample_measurements(ens, ratio * d, d, seed + 1)
    y = measure(mset, x)
    z0 = gsi(mset, y, moment_profile(ens), seed=seed + 2).z0
    return mset, y, z0, x


@pytest.mark.parametrize("field,entry,ratio", [
    (Field.REAL, UNIFORM, 2), (Field.REAL, UNIFORM, 4), (Field.COMPLEX, TERNARY, 8)])
@pytest.mark.parametrize("step", [BarzilaiBorwein(), FixedStep(0.2)])
@pytest.mark.parametrize("trace", [False, True])
def test_solve_matches_reference(field, entry, ratio, step, trace):
    mset, y, z0, x = _problem(field, entry, ratio)
    cfg = SolverConfig(step_mode=step, max_iters=300, trace=trace)
    got = solve(mset, y, z0, cfg, ground_truth=x)
    _assert_same_report(got, reference_solve(mset, y, z0, cfg, ground_truth=x))
    if trace:
        _assert_same_report(solve(mset, y, z0, cfg),
                            reference_solve(mset, y, z0, cfg))


def test_solve_matches_reference_max_iters():
    mset, y, z0, _ = _problem(Field.COMPLEX, TERNARY, 8)
    cfg = SolverConfig(max_iters=7, trace=True)
    got = solve(mset, y, z0, cfg)
    assert got.status is SolveStatus.MAX_ITERS and got.iterations == 7
    _assert_same_report(got, reference_solve(mset, y, z0, cfg))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("mu,iterations", [
    (1e3, 4),     # the gradient of the fourth iterate is nan
    (1e308, 0),   # the first step itself overflows; the gradient is finite
])
def test_solve_matches_reference_non_finite(field, mu, iterations):
    mset, y, z0, _ = _problem(field, TERNARY, 4)
    cfg = SolverConfig(step_mode=FixedStep(mu), max_iters=500, trace=True)
    got = solve(mset, y, z0, cfg)
    assert got.status is SolveStatus.NON_FINITE and got.iterations == iterations
    assert np.all(np.isfinite(got.final_z))
    _assert_same_report(got, reference_solve(mset, y, z0, cfg))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_solve_matches_reference_when_a_finite_iterate_overflows_its_norm():
    # Rows of size 1e-100 and intensities 1e190 make g(z) about -1e-10 z, so
    # one step of mu / ||z0||^2 ~ 1e165 (||z0||^2 ~ 4.7) lands on a finite z
    # of entries ~1e155 whose squared norm overflows. The gradient there (~1e145) has a finite norm, so the
    # relative rule against ||z|| = inf stops the descent, exactly as before.
    rng = np.random.default_rng(5)
    d, N = 8, 40
    mset = MeasurementSet(1e-100 * rng.integers(-1, 2, (N, d)).astype(float))
    y = np.full(N, 1e190)
    z0 = rng.standard_normal(d)
    cfg = SolverConfig(step_mode=FixedStep(5e165), max_iters=20, trace=True)
    got = solve(mset, y, z0, cfg)
    assert got.status is SolveStatus.GRAD_TOLERANCE_MET and got.iterations == 1
    assert np.all(np.isfinite(got.final_z)) and np.linalg.norm(got.final_z) == np.inf
    _assert_same_report(got, reference_solve(mset, y, z0, cfg))


def _hermitian(d, complex_, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    if complex_:
        B = B + 1j * rng.standard_normal((d, d))
    return (B + B.conj().T) / 2.0 + 3.0 * np.eye(d)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("iters", [50, 7, 400, 30])
def test_power_method_matches_reference(complex_, iters):
    M = _hermitian(24, complex_, seed=3)
    lam, v, res = power_method(M, iters=iters, seed=11)
    rlam, rv, rres = reference_power_method(M, iters=iters, seed=11)
    assert (lam, res) == (rlam, rres)
    assert v.tobytes() == rv.tobytes()


@pytest.mark.parametrize("entry", [GAUSSIAN, UNIFORM, TERNARY])
def test_complex_sampling_matches_complex_expression(entry):
    shape = (257, 33)
    got = sample_entries(Ensemble(Field.COMPLEX, entry), shape, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    u = entry.sampler(rng, shape)
    v = entry.sampler(rng, shape)
    expected = (u + 1j * v) / math.sqrt(2.0)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _ref_ternary(rng, shape):
    """The earlier ternary sampler, drawing through the default int64."""
    return rng.integers(-1, 2, shape).astype(np.float64)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40 + 3])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (257, 33)])
def test_ternary_sampler_matches_int64_draws(seed, shape):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_entries(Ensemble(Field.REAL, TERNARY), shape, rng)
    expected = _ref_ternary(ref_rng, shape)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(-1, 2, 5).tolist() == ref_rng.integers(-1, 2, 5).tolist()


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("seed", [0, 7, 123456789])
@pytest.mark.parametrize("N,d", [(1, 1), (5, 3), (96, 32)])
def test_ternary_measurements_match_int64_draws(field, seed, N, d):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_measurements(Ensemble(field, TERNARY), N, d, rng).vectors
    expected = _ref_ternary(ref_rng, (N, d))
    if field is Field.COMPLEX:
        expected = (expected + 1j * _ref_ternary(ref_rng, (N, d))) / math.sqrt(2.0)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes()


@pytest.mark.parametrize("field,entry", [(Field.REAL, TERNARY), (Field.COMPLEX, GAUSSIAN)])
def test_init_rows_match_trials_built_from_public_initializers(field, entry):
    # the experiment weights each trial's own rows in place; the public
    # gsi and baseline_si weight a copy. N = 3d = 96, see _problem
    ens = Ensemble(field, entry)
    cfg = ExperimentConfig(ExperimentKind.INIT_ERROR, ens, d=32, ratio_grid=(3, 5),
                           trials=4, base_seed=7)
    profile = moment_profile(ens)
    rows = []
    for ratio in cfg.ratio_grid:
        gsi_errs, si_errs = [], []
        for i in range(cfg.trials):
            x, mset, y, (pw_gsi, pw_si) = bench._problem(cfg, ratio, i)
            nx = np.linalg.norm(x)
            g = gsi(mset, y, profile, power_iters=cfg.power_iters, seed=pw_gsi)
            s = baseline_si(mset, y, power_iters=cfg.power_iters, seed=pw_si)
            gsi_errs.append(dist(g.z0, x) / nx)
            si_errs.append(dist(s.z0, x) / nx)
        rows.append({"ratio": float(ratio), "N": int(round(ratio * cfg.d)),
                     "gsi_mean_rel_error": float(np.mean(gsi_errs)),
                     "si_mean_rel_error": float(np.mean(si_errs)),
                     "trials": cfg.trials})
    got = run_init_experiment(cfg).rows
    assert [r["N"] for r in got] == [96, 160]
    assert got == rows
