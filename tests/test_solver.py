import math
import tracemalloc

import numpy as np
import pytest

from phasekit import (
    BarzilaiBorwein,
    Ensemble,
    Field,
    FixedStep,
    MeasurementSet,
    SolveStatus,
    SolverConfig,
    TERNARY,
    bb_step,
    dist,
    generate_signal,
    gradient,
    gsi,
    measure,
    moment_profile,
    objective,
    phase_align,
    sample_measurements,
    solve,
)

TERNARY_REAL = Ensemble(Field.REAL, TERNARY)


def test_objective_hand_case():
    # single row a = (1, 0), y = 0, z = (2, 0): residual 4, value 4^2 / 2 = 8
    ms = MeasurementSet(Field.REAL, np.array([[1.0, 0.0]]))
    z = np.array([2.0, 0.0])
    assert objective(z, ms, np.array([0.0])) == pytest.approx(8.0)
    assert np.allclose(gradient(z, ms, np.array([0.0])), [8.0, 0.0])


def test_objective_zero_at_ground_truth():
    ms = sample_measurements(TERNARY_REAL, 40, 6, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    y = measure(ms, x)
    assert objective(x, ms, y) == 0.0
    assert np.linalg.norm(gradient(x, ms, y)) == 0.0


def test_gradient_zero_at_rotated_truth():
    ens = Ensemble(Field.COMPLEX, TERNARY)
    ms = sample_measurements(ens, 40, 6, seed=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = measure(ms, x)
    z = 1j * x  # same intensities, so exact stationary point
    assert objective(z, ms, y) <= 1e-24
    assert np.linalg.norm(gradient(z, ms, y)) <= 1e-12


def test_gradient_finite_difference():
    # directional derivative of the objective is 2 Re<u, g>
    ens = Ensemble(Field.COMPLEX, TERNARY)
    ms = sample_measurements(ens, 30, 5, seed=2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = measure(ms, x)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = gradient(z, ms, y)
    for trial in range(4):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u /= np.linalg.norm(u)
        h = 1e-6
        fd = (objective(z + h * u, ms, y) - objective(z - h * u, ms, y)) / (2 * h)
        assert fd == pytest.approx(2.0 * float(np.real(np.vdot(u, g))), rel=1e-5)


def test_gradient_phase_equivariance():
    ens = Ensemble(Field.COMPLEX, TERNARY)
    ms = sample_measurements(ens, 30, 5, seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = measure(ms, x)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    phase = np.exp(1j * 0.7)
    assert np.allclose(gradient(phase * z, ms, y), phase * gradient(z, ms, y))


def test_phase_align_real_sign():
    x = np.array([1.0, 2.0])
    a = phase_align(-x, x)
    assert a.theta == pytest.approx(math.pi)
    assert a.value == pytest.approx(0.0, abs=1e-15)
    assert phase_align(x, x).theta == 0.0
    assert phase_align(np.array([0.0, 0.0]), x).theta == 0.0


def test_phase_align_complex_exact():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for theta in (0.0, 0.3, math.pi, 5.1):
        z = x * np.exp(1j * theta)
        a = phase_align(z, x)
        assert a.value == pytest.approx(0.0, abs=1e-12)
        assert a.theta == pytest.approx(theta % (2 * math.pi), abs=1e-12)


def test_phase_align_matches_grid_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    thetas = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    grid = np.min([np.linalg.norm(z - x * np.exp(1j * t)) for t in thetas])
    a = phase_align(z, x)
    assert a.value <= grid + 1e-12
    assert a.value == pytest.approx(grid, rel=1e-5)


def test_dist_shape_mismatch():
    with pytest.raises(ValueError):
        dist(np.zeros(3), np.zeros(4))


def test_bb_step_hand_cases():
    s = np.array([2.0, 0.0])
    g = np.array([1.0, 0.0])
    assert bb_step(s, g, fallback=0.5) == pytest.approx(2.0)
    # orthogonal increments fall back
    assert bb_step(np.array([0.0, 1.0]), g, fallback=0.5) == 0.5
    assert bb_step(s, np.zeros(2), fallback=0.25) == 0.25
    # invariant under scaling of s by c: step scales by c
    assert bb_step(3.0 * s, g, fallback=0.5) == pytest.approx(6.0)


def test_bb_step_complex_uses_real_part():
    s = np.array([1.0 + 0.0j])
    g = np.array([0.0 + 1.0j])  # Re <s, g> = 0
    assert bb_step(s, g, fallback=0.125) == 0.125


def test_fixed_step_monotone_objective():
    ms = sample_measurements(TERNARY_REAL, 80, 8, seed=6)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(8)
    y = measure(ms, x)
    z0 = x + 0.1 * rng.standard_normal(8)
    cfg = SolverConfig(step_mode=FixedStep(0.02), max_iters=200, trace=True)
    rep = solve(ms, y, z0, cfg, ground_truth=x)
    objs = np.asarray(rep.objectives)
    assert objs.size == rep.iterations + 1
    assert np.all(np.diff(objs) <= 1e-15)
    assert objs[-1] < objs[0]


def test_solve_immediate_stop_at_solution():
    ms = sample_measurements(TERNARY_REAL, 40, 5, seed=7)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(5)
    y = measure(ms, x)
    rep = solve(ms, y, x, SolverConfig(max_iters=100))
    assert rep.status is SolveStatus.GRAD_TOLERANCE_MET
    assert rep.iterations == 0
    assert np.array_equal(rep.final_z, x)


def test_solve_rejects_bad_z0():
    ms = sample_measurements(TERNARY_REAL, 10, 4, seed=8)
    y = measure(ms, np.ones(4))
    with pytest.raises(ValueError):
        solve(ms, y, np.zeros(3))
    with pytest.raises(ValueError):
        solve(ms, y, np.array([1.0, np.nan, 0.0, 0.0]))


def test_solve_non_finite_abort():
    ms = MeasurementSet(Field.REAL, np.array([[1.0, 0.0]]))
    y = np.array([0.0])
    cfg = SolverConfig(step_mode=FixedStep(1e6), max_iters=500)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = solve(ms, y, np.array([1e150, 0.0]), cfg)
    assert rep.status is SolveStatus.NON_FINITE
    assert np.all(np.isfinite(rep.final_z))


def test_bb_recovers_from_local_init():
    # BB iteration from inside the basin: relative error below 1e-8 in all trials
    ms_kwargs = dict(N=192, d=32)
    successes = 0
    for t in range(10):
        ms = sample_measurements(TERNARY_REAL, ms_kwargs["N"], ms_kwargs["d"], seed=100 + t)
        rng = np.random.default_rng(t)
        x = rng.standard_normal(32)
        y = measure(ms, x)
        u = rng.standard_normal(32)
        u /= np.linalg.norm(u)
        z0 = x + 0.02 * np.linalg.norm(x) * u
        rep = solve(ms, y, z0, SolverConfig(max_iters=2000))
        successes += dist(rep.final_z, x) / np.linalg.norm(x) < 1e-8
    assert successes == 10


def test_trace_lists_have_one_entry_per_iterate():
    ms = sample_measurements(TERNARY_REAL, 40, 5, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(5)
    y = measure(ms, x)
    z0 = x + 0.05 * rng.standard_normal(5)
    rep = solve(ms, y, z0, SolverConfig(max_iters=50, trace=True), ground_truth=x)
    for trace in (rep.objectives, rep.grad_norms, rep.rel_errors):
        assert len(trace) == rep.iterations + 1
    assert rep.rel_errors[0] == pytest.approx(dist(z0, x) / np.linalg.norm(x))
    no_truth = solve(ms, y, z0, SolverConfig(max_iters=50, trace=True))
    assert no_truth.rel_errors is None and len(no_truth.objectives) == rep.iterations + 1
    off = solve(ms, y, z0, SolverConfig(max_iters=50))
    assert off.objectives is None and off.grad_norms is None and off.rel_errors is None


def test_default_bb_first_step_scaling():
    # with first_step=None the initial step is 0.1 / ||g(z0)||, so doubling y
    # and z scales the first iterate consistently; just check it runs and the
    # explicit first_step overrides it
    ms = sample_measurements(TERNARY_REAL, 60, 6, seed=10)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(6)
    y = measure(ms, x)
    z0 = x + 0.1 * rng.standard_normal(6)
    cfg_a = SolverConfig(step_mode=BarzilaiBorwein(), max_iters=1, trace=True)
    rep_a = solve(ms, y, z0, cfg_a)
    g0 = gradient(z0, ms, y)
    expected = z0 - (0.1 / np.linalg.norm(g0)) * g0
    assert np.allclose(rep_a.final_z, expected)
    cfg_b = SolverConfig(step_mode=BarzilaiBorwein(first_step=0.0), max_iters=1)
    rep_b = solve(ms, y, z0, cfg_b)
    assert np.array_equal(rep_b.final_z, z0)


def test_complex_gradient_matches_reference_without_copying_vectors():
    ens = Ensemble(Field.COMPLEX, TERNARY)
    N, d = 1024, 128
    ms = sample_measurements(ens, N, d, seed=11)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    y = measure(ms, x)
    z = x + 0.1 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    gradient(z, ms, y)  # warm-up, so that one-off allocations are not traced
    tracemalloc.start()
    try:
        g = gradient(z, ms, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w = np.array([np.vdot(a, z) for a in ms.vectors])  # <a_j, z> = a_j* z
    ref = sum((abs(wj) ** 2 - yj) * wj * a for wj, yj, a in zip(w, y, ms.vectors)) / N
    assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
    # a conj() of the vectors would allocate N*d*16 bytes
    assert peak < ms.vectors.nbytes / 8


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_solve_stopping_rule_is_scale_invariant(c):
    # g(c z; c^2 y) = c^3 g(z; y) and the BB steps scale by c^-2, so with a
    # first step scaled the same way the whole run is the same up to rounding
    ms = sample_measurements(TERNARY_REAL, 192, 32, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(32)
    u = rng.standard_normal(32)
    z0 = x + 0.05 * np.linalg.norm(x) * u / np.linalg.norm(u)
    y = measure(ms, x)

    def run(scale):
        cfg = SolverConfig(step_mode=BarzilaiBorwein(first_step=0.01 / scale ** 2))
        return solve(ms, scale ** 2 * y, scale * z0, cfg)

    ref, scaled = run(1.0), run(c)
    assert ref.status is SolveStatus.GRAD_TOLERANCE_MET
    assert (scaled.iterations, scaled.status) == (ref.iterations, ref.status)


def test_complex_ternary_trial_converges_before_max_iters():
    ens = Ensemble(Field.COMPLEX, TERNARY)
    d = 128
    x = generate_signal(d, seed=0, field=Field.COMPLEX)
    ms = sample_measurements(ens, 8 * d, d, seed=1)
    y = measure(ms, x)
    init = gsi(ms, y, moment_profile(ens), seed=2)
    rep = solve(ms, y, init.z0, SolverConfig(max_iters=2000))
    assert rep.status is SolveStatus.GRAD_TOLERANCE_MET
    assert rep.iterations < 2000
    assert dist(rep.final_z, x) / np.linalg.norm(x) < 1e-10


@pytest.mark.parametrize("bad, match", [
    (lambda y: np.where(np.arange(y.size) == 3, np.nan, y), "finite"),
    (lambda y: np.where(np.arange(y.size) == 3, np.inf, y), "finite"),
    (lambda y: np.where(np.arange(y.size) == 3, -1.0, y), "nonnegative"),
    (lambda y: y[:-1], "shape"),
    (lambda y: y[:, None], "shape"),
])
def test_solve_rejects_bad_intensities(bad, match):
    ms = sample_measurements(TERNARY_REAL, 20, 4, seed=12)
    y = measure(ms, np.ones(4))
    with pytest.raises(ValueError, match=match):
        solve(ms, bad(y), np.ones(4))


@pytest.mark.parametrize("max_iters", [2.5, 0, -1, True, "10", None])
def test_solver_config_rejects_bad_iteration_cap(max_iters):
    # a construction check: a fractional cap would never equal the count
    with pytest.raises(ValueError, match="'max_iters'"):
        SolverConfig(max_iters=max_iters)


def test_solver_config_takes_numpy_integer_iteration_cap():
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5
