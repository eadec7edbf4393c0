import math

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
    convergence_rate_fit,
    derived_constants,
    dist,
    generate_signal,
    gradient,
    gsi,
    measure,
    moment_profile,
    objective,
    sample_measurements,
    solve,
)
from phasekit.solver import _bb_step

TERNARY_REAL = Ensemble(Field.REAL, TERNARY)


def test_objective_hand_case():
    # single row a = (1, 0), y = 0, z = (2, 0): residual 4, value 4^2 / 2 = 8
    ms = MeasurementSet(np.array([[1.0, 0.0]]))
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


def test_gradient_phase_equivariance():
    ens = Ensemble(Field.COMPLEX, TERNARY)
    ms = sample_measurements(ens, 30, 5, seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = measure(ms, x)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    phase = np.exp(1j * 0.7)
    assert np.allclose(gradient(phase * z, ms, y), phase * gradient(z, ms, y))


def test_dist_real_sign():
    x = np.array([1.0, 2.0])
    assert dist(-x, x) == pytest.approx(0.0, abs=1e-15)


def test_dist_complex_exact():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for theta in (0.0, 0.3, math.pi, 5.1):
        assert dist(x * np.exp(1j * theta), x) == pytest.approx(0.0, abs=1e-12)


def test_dist_matches_grid_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    thetas = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    grid = np.min([np.linalg.norm(z - x * np.exp(1j * t)) for t in thetas])
    value = dist(z, x)
    assert value <= grid + 1e-12
    assert value == pytest.approx(grid, rel=1e-5)


def test_dist_takes_complex_when_either_input_is():
    x = np.array([1.0, 2.0])
    assert dist(1j * x, x) == pytest.approx(0.0, abs=1e-15)
    assert dist(x, 1j * x) == pytest.approx(0.0, abs=1e-15)


def test_bb_step_hand_cases():
    s = np.array([2.0, 0.0])
    g = np.array([1.0, 0.0])
    assert _bb_step(s, g, fallback=0.5) == pytest.approx(2.0)
    # orthogonal increments fall back
    assert _bb_step(np.array([0.0, 1.0]), g, fallback=0.5) == 0.5
    assert _bb_step(s, np.zeros(2), fallback=0.25) == 0.25
    # invariant under scaling of s by c: step scales by c
    assert _bb_step(3.0 * s, g, fallback=0.5) == pytest.approx(6.0)


def test_bb_step_complex_uses_real_part():
    s = np.array([1.0 + 0.0j])
    g = np.array([0.0 + 1.0j])  # Re <s, g> = 0
    assert _bb_step(s, g, fallback=0.125) == 0.125


def test_fixed_step_monotone_objective():
    ms = sample_measurements(TERNARY_REAL, 80, 8, seed=6)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(8)
    y = measure(ms, x)
    z0 = x + 0.1 * rng.standard_normal(8)
    cfg = SolverConfig(step_mode=FixedStep(0.02), max_iters=200, trace=True)
    rep = solve(ms, y, z0, cfg)
    objs = np.array([objective(z, ms, y) for z in rep.iterates])
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


@pytest.mark.parametrize("step", [BarzilaiBorwein(), FixedStep(0.2)])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_solve_from_zero_stops_before_forming_a_step(step, field):
    # g(0) = 0 meets the stopping rule, so no step mu / ||z0||^2 is formed
    ms = sample_measurements(Ensemble(field, TERNARY), 40, 5, seed=13)
    y = measure(ms, generate_signal(5, seed=13, field=field))
    rep = solve(ms, y, np.zeros(5), SolverConfig(step_mode=step))
    assert rep.status is SolveStatus.GRAD_TOLERANCE_MET
    assert rep.iterations == 0
    assert not np.any(rep.final_z)


@pytest.mark.parametrize("step", [BarzilaiBorwein(), FixedStep(0.2)])
def test_solve_rejects_y_that_overflows_at_the_scale_of_z0(step):
    # ||z0||^2 = 0 in floating point while g(z0) != 0, and y taken to z0's
    # scale overflows: no run can keep both, so solve raises, without a warning
    ms = sample_measurements(TERNARY_REAL, 40, 5, seed=14)
    y = measure(ms, 1e10 * generate_signal(5, seed=14))
    z0 = np.full(5, 1e-170)
    assert np.linalg.norm(z0) == 0.0 and np.linalg.norm(gradient(z0, ms, y)) > 0.0
    with pytest.raises(ValueError, match=r"^y at z0's scale \(y \* 2\^\d+\) is beyond float range"):
        solve(ms, y, z0, SolverConfig(step_mode=step))


@pytest.mark.parametrize("step", [BarzilaiBorwein(), FixedStep(0.2)])
def test_solve_rejects_y_that_underflows_at_the_scale_of_z0(step):
    # y taken to z0's scale is all zero: the run would converge on a problem
    # with no measurements left, far from any signal y came from
    ms = sample_measurements(TERNARY_REAL, 40, 5, seed=14)
    y = measure(ms, 1e-10 * generate_signal(5, seed=14))
    assert np.any(y)
    with pytest.raises(ValueError, match="scale beyond float range.*all zero"):
        solve(ms, y, np.full(5, 1e170), SolverConfig(step_mode=step))


def _basin_problem(seed, d=32):
    """Criterion 6's problem: real ternary, N = 6d, z0 at 0.8 eps0 ||x|| from x."""
    eps0 = derived_constants(moment_profile(TERNARY_REAL)).epsilon0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d)
    ms = sample_measurements(TERNARY_REAL, 6 * d, d, seed=seed)
    u = rng.standard_normal(d)
    return ms, measure(ms, x), x + 0.8 * eps0 * np.linalg.norm(x) * u / np.linalg.norm(u), x


@pytest.mark.parametrize("seed", range(700, 720))
def test_paper_fixed_step_converges_linearly(seed):
    # Wirtinger flow's step mu / ||z0||^2 with mu = 0.2, from inside the basin
    ms, y, z0, x = _basin_problem(seed)
    rep = solve(ms, y, z0, SolverConfig(step_mode=FixedStep(0.2), trace=True))
    assert rep.status is SolveStatus.GRAD_TOLERANCE_MET
    slope, r2 = convergence_rate_fit([dist(z, x) / np.linalg.norm(x) for z in rep.iterates])
    assert slope < 0 and r2 >= 0.95


def test_complex_gradient_matches_reference_without_copying_vectors(traced_peak):
    ens = Ensemble(Field.COMPLEX, TERNARY)
    N, d = 1024, 128
    ms = sample_measurements(ens, N, d, seed=11)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    y = measure(ms, x)
    z = x + 0.1 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    g = gradient(z, ms, y)
    peak = traced_peak(lambda: gradient(z, ms, y))
    w = np.array([np.vdot(a, z) for a in ms.vectors])  # <a_j, z> = a_j* z
    ref = sum((abs(wj) ** 2 - yj) * wj * a for wj, yj, a in zip(w, y, ms.vectors)) / N
    assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
    # a conj() of the vectors would allocate N*d*16 bytes
    assert peak < ms.vectors.nbytes / 8


def _scale_problem(field=Field.REAL):
    """d = 32, N = 6d, ternary rows, z0 at 5% relative error from x."""
    ms = sample_measurements(Ensemble(field, TERNARY), 192, 32, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(32)
    u = rng.standard_normal(32)
    if field is Field.COMPLEX:
        x = x + 1j * rng.standard_normal(32)
        u = u + 1j * rng.standard_normal(32)
    z0 = x + 0.05 * np.linalg.norm(x) * u / np.linalg.norm(u)
    return ms, measure(ms, x), z0


@pytest.mark.parametrize("c", [1e-3, 1e-2, 1e3, 1e-60, 1e-55, 1e55, 1e60])
def test_solve_stopping_rule_is_scale_invariant(c):
    # g(c z; c^2 y) = c^3 g(z; y), and every step, mu / ||z0||^2 or a BB
    # quotient, scales by c^-2, so the whole run is the same up to rounding;
    # far from 1, ||g||^2 would underflow or overflow without solve's rescaling
    ms, y, z0 = _scale_problem()
    ref, scaled = solve(ms, y, z0), solve(ms, c ** 2 * y, c * z0)
    assert ref.status is SolveStatus.GRAD_TOLERANCE_MET
    assert (scaled.iterations, scaled.status) == (ref.iterations, ref.status)


def test_solve_takes_a_strided_complex_z0():
    # the rescaling reads z0 through its float64 view, which needs contiguity
    ms, y, z0 = _scale_problem(Field.COMPLEX)
    strided = np.repeat(z0, 2)[::2]
    assert solve(ms, y, strided).final_z.tobytes() == solve(ms, y, z0).final_z.tobytes()


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
