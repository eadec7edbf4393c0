"""The descent loop, the power method, complex sampling and ternary draws
against reference copies of their straightforward formulations, the
protocols' trials against trials built from public calls, and the sampler
against numpy's own draw of each law: results must agree bit for bit, so the
lean versions change no result table.

The references below are kept verbatim in their earlier form (two products
M v per power step, np.linalg.norm for every norm, a separate isfinite pass
over each iterate, gradient checks inside the loop). They are the
specification of the bits; do not "simplify" them.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    TrialRecord,
    baseline_si,
    dist,
    generate_signal,
    gsi,
    measure,
    moment_profile,
    power_method,
    run_init_experiment,
    run_recovery_trial,
    sample_measurements,
    solve,
    trial_seed,
)
from phasekit.solver import GRAD_NORM_TOL


def _ref_inner(A, z):
    if np.iscomplexobj(A) or np.iscomplexobj(z):
        w = np.conj(A @ np.conj(z))
        return w, w.real ** 2 + w.imag ** 2
    w = A @ z
    return w, w * w


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


def reference_solve(mset, y, z0, config=SolverConfig()):
    if mset.field is Field.COMPLEX:
        z = np.asarray(z0, dtype=np.complex128).copy()
    else:
        z = np.asarray(z0, dtype=np.float64).copy()
    y = np.asarray(y, dtype=np.float64)

    iterates = [] if config.trace else None

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
        if iterates is not None:
            iterates.append(z.copy())
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

    return SolveReport(z, iterations, status, iterates)


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
    assert (got.iterates is None) == (ref.iterates is None)
    if got.iterates is not None:
        # the trace holds the loop's own arrays, the last of them final_z
        assert len(got.iterates) == got.iterations + 1 and got.iterates[-1] is got.final_z
        assert ([(z.dtype, z.tobytes()) for z in got.iterates]
                == [(z.dtype, z.tobytes()) for z in ref.iterates])


def _assert_untraced_run_ends_alike(mset, y, z0, cfg, got):
    off = solve(mset, y, z0, replace(cfg, trace=False))
    assert off.iterates is None
    assert off.final_z.tobytes() == got.final_z.tobytes()
    assert (off.iterations, off.status) == (got.iterations, got.status)


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
    mset, y, z0, _ = _problem(field, entry, ratio)
    cfg = SolverConfig(step_mode=step, max_iters=300, trace=trace)
    got = solve(mset, y, z0, cfg)
    _assert_same_report(got, reference_solve(mset, y, z0, cfg))
    if trace:
        # z_0 is a copy: the descent never writes to the caller's z0
        assert got.iterates[0] is not z0 and got.iterates[0].tobytes() == z0.tobytes()
        _assert_untraced_run_ends_alike(mset, y, z0, cfg, got)


def test_solve_matches_reference_max_iters():
    mset, y, z0, _ = _problem(Field.COMPLEX, TERNARY, 8)
    cfg = SolverConfig(max_iters=7, trace=True)
    got = solve(mset, y, z0, cfg)
    assert got.status is SolveStatus.MAX_ITERS and got.iterations == 7
    _assert_same_report(got, reference_solve(mset, y, z0, cfg))
    _assert_untraced_run_ends_alike(mset, y, z0, cfg, got)


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
    with np.errstate(over="ignore", invalid="ignore"):  # solve itself runs warning-free
        ref = reference_solve(mset, y, z0, cfg)
    _assert_same_report(got, ref)
    _assert_untraced_run_ends_alike(mset, y, z0, cfg, got)


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
    with np.errstate(over="ignore"):  # solve itself runs warning-free
        assert np.all(np.isfinite(got.final_z)) and np.linalg.norm(got.final_z) == np.inf
        ref = reference_solve(mset, y, z0, cfg)
    _assert_same_report(got, ref)


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
    got = sample_measurements(Ensemble(Field.COMPLEX, entry), *shape,
                              np.random.default_rng(4)).vectors
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
    got = sample_measurements(Ensemble(Field.REAL, TERNARY), *shape, rng).vectors
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


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=lambda f: f.value)
@pytest.mark.parametrize("entry, draw", [
    (GAUSSIAN, lambda rng, shape: rng.standard_normal(shape)),
    (UNIFORM, lambda rng, shape: rng.uniform(-1.0, 1.0, shape)),
    (TERNARY, lambda rng, shape: rng.integers(-1, 2, shape, dtype=np.int32)),
], ids=["gaussian", "uniform", "ternary"])
def test_sampling_is_numpys_draw_of_each_law(field, entry, draw):
    # the rows are numpy's draw as float64, or (u + 1j v) / sqrt(2) with u drawn
    # first; an odd entry count starts a ternary v on a pending half word
    for seed in (0, 7, 2 ** 40 + 3, 123456789):
        for shape in ((1, 1), (2, 3), (5, 3), (96, 32), (257, 33)):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_measurements(Ensemble(field, entry), *shape, rng).vectors
            want = draw(ref, shape).astype(np.float64)
            if field is Field.COMPLEX:
                want = (want + 1j * draw(ref, shape)) / math.sqrt(2.0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


def _public_trial(cfg, ratio, i):
    """Trial i of `cfg` at `ratio` from public calls only: GSI's and SI's errors for an
    init config, the fields of its one TrialRecord, the solver's status too, for a
    recovery one. The recovery trial spawns three seeds, as the benchmark's mirror does;
    the init trial four."""
    ens, paired = cfg.ensemble, cfg.kind is ExperimentKind.INIT_ERROR
    sig, meas, *power = trial_seed(cfg.base_seed, ratio, i).spawn(4 if paired else 3)
    x = generate_signal(cfg.d, sig, field=ens.field)
    mset = sample_measurements(ens, int(round(ratio * cfg.d)), cfg.d, meas)
    y = measure(mset, x)
    nx = np.linalg.norm(x)
    g = gsi(mset, y, moment_profile(ens), power_iters=cfg.power_iters, seed=power[0])
    if paired:
        s = baseline_si(mset, y, power_iters=cfg.power_iters, seed=power[1])
        return dist(g.z0, x) / nx, dist(s.z0, x) / nx
    report = solve(mset, y, g.z0, SolverConfig(max_iters=cfg.max_iters))
    final = dist(report.final_z, x) / nx
    return (dist(g.z0, x) / nx, final, report.iterations, final < cfg.success_threshold,
            report.status.value)


@pytest.mark.parametrize("field,entry", [(Field.REAL, TERNARY), (Field.COMPLEX, GAUSSIAN)])
@pytest.mark.parametrize("kind", list(ExperimentKind), ids=lambda k: k.value)
def test_protocols_match_trials_built_from_public_calls(kind, field, entry):
    # both protocols take one TrialRecord per trial from one private trial function,
    # where GSI weights the drawn rows in place and a recovery trial draws them again for
    # the descent; the public gsi and baseline_si weight a copy. A recovery record is
    # compared whole, its solver status included. N = 3d = 96 keeps N off powers of two,
    # where g / N and g * (1/N) would agree
    cfg = ExperimentConfig(kind, Ensemble(field, entry), d=32, ratio_grid=(3, 5), trials=4,
                           base_seed=7)
    trials = [[_public_trial(cfg, ratio, i) for i in range(cfg.trials)]
              for ratio in cfg.ratio_grid]
    if kind is ExperimentKind.SUCCESS_RATE:
        got = [[run_recovery_trial(cfg, ratio, i) for i in range(cfg.trials)]
               for ratio in cfg.ratio_grid]
        assert got == [[TrialRecord(*t) for t in row] for row in trials]
        return
    rows = [{"ratio": float(ratio), "N": int(round(ratio * cfg.d)),
             "gsi_mean_rel_error": float(np.mean([g for g, _ in errs])),
             "si_mean_rel_error": float(np.mean([s for _, s in errs])), "trials": cfg.trials}
            for ratio, errs in zip(cfg.ratio_grid, trials)]
    got = run_init_experiment(cfg).rows
    assert [r["N"] for r in got] == [96, 160]
    assert got == rows


# the bytes of baseline_si, gsi, gradient, a 20d recovery trial and three complex ternary
# oracles of 2e4 samples, each a sha256, and the thread count of numpy's OpenBLAS, where it
# can be read; mc_F_residual runs at d=64, as at d=128 it passes the LAPACK limit that
# phasekit.bench names
_THREAD_PROBE = """
import ctypes, glob, hashlib, json, os, pickle
import numpy
from phasekit import *
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
threads = get() if get else None
out = {}
for field, entry in ((Field.REAL, UNIFORM), (Field.COMPLEX, GAUSSIAN)):
    ens, x = Ensemble(field, entry), generate_signal(128, 1, field)
    for N in (1024, 2560):
        mset = sample_measurements(ens, N, 128, 1)
        y = measure(mset, x)
        for name, v in (("baseline_si", baseline_si(mset, y, seed=1)),
                        ("gsi", gsi(mset, y, moment_profile(ens), seed=1)),
                        ("gradient", gradient(x + 1.0, mset, y))):
            out[f"{name} {field.value} {entry.name} N={N}"] = pickle.dumps(v)
    cfg = ExperimentConfig(ExperimentKind.SUCCESS_RATE, ens, ratio_grid=(20,), base_seed=1)
    out[f"run_recovery_trial {field.value} {entry.name}"] = pickle.dumps(
        run_recovery_trial(cfg, 20, 0))
ens = Ensemble(Field.COMPLEX, TERNARY)
x128, x64 = generate_signal(128, 2, Field.COMPLEX), generate_signal(64, 2, Field.COMPLEX)
for name, v in (("mc_condition_residual", mc_condition_residual(ens, 128, x128, 20_000, 1)),
                ("concentration_curve", concentration_curve(ens, 128, x128, [1000], 20, 1)),
                ("mc_F_residual", mc_F_residual(ens, x64, 20_000, 1))):
    out[f"{name} complex ternary"] = pickle.dumps(v)
print(json.dumps([threads, {k: hashlib.sha256(v).hexdigest() for k, v in out.items()}]))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one core")
def test_results_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 entries across threads, so
    # baseline_si's sum of squares, a vdot of N x d entries, differed in its last bits
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(threads: str) -> dict:
        env = os.environ | {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                            "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        return json.loads(subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                                         capture_output=True, text=True, check=True).stdout)

    (one_thread, one), (two_threads, two) = run("1"), run("2")
    assert (one_thread, two_threads) in ((None, None), (1, 2)) and one == two
