import math
import re

import numpy as np
import pytest

from phasekit import (
    BarzilaiBorwein,
    Ensemble,
    EntryDistribution,
    Field,
    FixedStep,
    GAUSSIAN,
    MeasurementSet,
    SolveStatus,
    SolverConfig,
    TERNARY,
    baseline_si,
    build_Y,
    concentration_curve,
    condition_expectation,
    convergence_rate_fit,
    derived_constants,
    dist,
    f_block_expectation,
    generate_signal,
    gradient,
    gsi,
    mc_F_residual,
    mc_condition_residual,
    measure,
    moment_profile,
    objective,
    power_method,
    rho_from_intensities,
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


def _ldexp(v, k):
    """v * 2^k, exactly while it stays normal, for a float or a real or complex array."""
    v = np.asarray(v)
    return np.ldexp(v.view(np.float64), k).view(v.dtype)


def _kernels(field):
    """Each public kernel as (its values at scale 2^j, the k of each, the name that a
    ValueError gives when one leaves float range), with points taken to 2^j and
    intensities to 2^(2j). A point that meets intensities sits near 2^-12, so 2^(2j) y
    stays in range at j = 520; rho's tau1 goes to 2^-j, so its inputs stay in range too."""
    ens = Ensemble(field, TERNARY)
    ms = sample_measurements(ens, 24, 6, seed=7)
    z, x = sample_measurements(Ensemble(field, GAUSSIAN), 2, 6, seed=6).vectors
    zs, ys = _ldexp(z, -12), measure(ms, _ldexp(x, -12))
    M = build_Y(ms, measure(ms, x))
    y3 = _ldexp(np.array([3.0, 3.0, 0.25]), 502)  # at 2^520 its sum is beyond float range
    return {
        "measure": (lambda j: [measure(ms, _ldexp(x, j))], [2], "y_j = |<a_j, x>|^2"),
        "objective": (lambda j: [objective(_ldexp(zs, j), ms, _ldexp(ys, 2 * j))], [4],
                      "the objective"),
        "gradient": (lambda j: [gradient(_ldexp(zs, j), ms, _ldexp(ys, 2 * j))], [3],
                     "the gradient"),
        "dist": (lambda j: [dist(_ldexp(z, j), _ldexp(x, j))], [1], "the distance of z and x"),
        "rho_from_intensities": (lambda j: [rho_from_intensities(_ldexp(y3, j),
                                                                 math.ldexp(2.0, -j))], [1],
                                 "rho = sqrt(sum(intensities) / (tau1 N))"),
        "build_Y": (lambda j: [build_Y(ms, _ldexp(ys, 2 * j))], [2], "Y"),
        "power_method": (lambda j: list(power_method(_ldexp(M, j))), [1, 0, 1], "lam"),
        "condition_expectation": (lambda j: [condition_expectation(moment_profile(ens),
                                                                   _ldexp(x, j))], [2],
                                  "E((x* A x) A)"),
        "f_block_expectation": (lambda j: [f_block_expectation(moment_profile(ens),
                                                               _ldexp(x, j))], [2],
                                "the F block"),
        "mc_condition_residual": (lambda j: _report(mc_condition_residual(
            ens, 6, _ldexp(x, j), 10_000, 8)), [2, 2, 0], "the residual of condition-II-identity"),
        "mc_F_residual": (lambda j: _report(mc_F_residual(
            Ensemble(Field.COMPLEX, TERNARY), _ldexp(x, j), 10_000, 8)), [2, 2, 0],
            "the residual of stacked-block-identity"),
        "concentration_curve": (lambda j: list(concentration_curve(
            ens, 6, _ldexp(x, j), [12], 20, 8)[0].to_dict().values())[1:],
            [2, 2, 2, 2, 0, 0], "y_dev_median"),
    }


def _report(rep):
    """An oracle report's residual, tolerance and `passed`, the last as a float of k = 0."""
    return [rep.residual, rep.tolerance, float(rep.passed)]


@pytest.mark.parametrize("j", [-600, 0, 520])
@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
@pytest.mark.parametrize("kernel", ["measure", "objective", "gradient", "dist",
                                    "rho_from_intensities", "build_Y", "power_method",
                                    "condition_expectation", "f_block_expectation",
                                    "mc_condition_residual", "mc_F_residual",
                                    "concentration_curve"])
def test_every_kernel_gives_the_same_bits_at_any_power_of_two_scale(kernel, field, j):
    # f(2^j z; 2^(2j) y) = 2^(k j) f(z; y): bit for bit where the scaled value is a
    # normal float, its rounding where it underflows, and a ValueError that names it
    # where it overflows. At 2^-600 dist's squares underflowed to 0.0 for distinct
    # vectors, power_method broke down and concentration_curve's rho columns read 0.0;
    # at 2^520 measure, objective, gradient and both matrix oracles returned inf with
    # numpy's "overflow encountered" warning, and both expectations nan with "invalid
    # value encountered in multiply"
    call, ks, name = _kernels(field)[kernel]
    with np.errstate(over="ignore"):
        want = [_ldexp(v, k * j) for v, k in zip(call(0), ks)]
    if all(np.isfinite(v).all() for v in want):
        got = call(j)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} is beyond float range"):
            call(j)


def _huge_rows(scale, call):
    """`call` of the rows diag(scale, 1), with numpy's overflow and invalid warnings off."""
    def run(_):
        with np.errstate(over="ignore", invalid="ignore"):
            return call(MeasurementSet(np.diag([scale, 1.0])))
    return run


def _huge_law(call):
    """`call` of a law of 1e160-scale entries, with numpy's overflow and invalid warnings off."""
    law = EntryDistribution("huge", 1.0, 3.0, lambda rng, shape: 1e160 * rng.standard_normal(shape))

    def run(_):
        with np.errstate(over="ignore", invalid="ignore"):
            return call(law)
    return run


@pytest.mark.parametrize("call, name", [
    (lambda ms: measure(ms, np.full(2, 1e200)), "y_j = |<a_j, x>|^2"),
    (lambda ms: objective(np.full(2, 1e100), ms, np.ones(2)), "the objective"),
    (lambda ms: gradient(np.full(2, 1e110), ms, np.ones(2)), "the gradient"),
    (lambda ms: condition_expectation(moment_profile(TERNARY_REAL), np.full(2, 1e160)),
     "E((x* A x) A)"),
    (lambda ms: f_block_expectation(moment_profile(Ensemble(Field.COMPLEX, TERNARY)),
                                    np.full(2, 1e160) + 0j), "the F block"),
    (lambda ms: mc_condition_residual(TERNARY_REAL, 4, np.ldexp([1.0, -2.0, 0.5, 1.5], 520),
                                      10_000), "the residual of condition-II-identity"),
    (lambda ms: mc_F_residual(Ensemble(Field.COMPLEX, TERNARY),
                              np.ldexp([1.0, -2.0, 0.5, 1.5], 520) + 0j, 10_000),
     "the residual of stacked-block-identity"),
    (lambda ms: concentration_curve(TERNARY_REAL, 4, np.ldexp([1.0, -2.0, 0.5, 1.5], 520),
                                    [64], 20), "y_dev_median"),
    (_huge_rows(1e200, lambda ms: measure(ms, np.ones(2))), "y_j = |<a_j, x>|^2"),
    (_huge_rows(1e200, lambda ms: objective(np.ones(2), ms, np.ones(2))), "the objective"),
    (_huge_rows(1e200, lambda ms: gradient(np.ones(2), ms, np.ones(2))), "the gradient"),
    (_huge_rows(1e160, lambda ms: build_Y(ms, np.ones(2))), "Y"),
    (_huge_rows(1e160, lambda ms: gsi(ms, np.ones(2), moment_profile(TERNARY_REAL))), "Y"),
    (_huge_rows(1e160, lambda ms: baseline_si(ms, np.ones(2))), "Y"),
    (_huge_law(lambda law: mc_condition_residual(Ensemble(Field.REAL, law), 3, [1.0, -2.0, 0.5],
                                                 20_000)),
     "the mean of the chunk means of ensemble-mean-identity"),
    (_huge_law(lambda law: mc_F_residual(Ensemble(Field.COMPLEX, law),
                                         np.array([1.0, -2.0, 0.5]) + 0j, 20_000)),
     "the mean of the chunk means of stacked-block-identity"),
    (_huge_law(lambda law: concentration_curve(Ensemble(Field.REAL, law), 3, [1.0, -2.0, 0.5],
                                               [16], 20)), "Y"),
], ids=["measure", "objective", "gradient", "condition_expectation", "f_block_expectation",
        "mc_condition_residual", "mc_F_residual", "concentration_curve", "measure-huge-rows",
        "objective-huge-rows", "gradient-huge-rows", "build_Y-huge-rows", "gsi-huge-rows",
        "baseline_si-huge-rows", "mc_condition_residual-huge-law", "mc_F_residual-huge-law",
        "concentration_curve-huge-law"])
def test_a_result_beyond_float_range_raises_naming_it(call, name):
    # each returned inf, with numpy's "overflow encountered in multiply" warning (the
    # matrix oracles also "in square"); both expectations nan (and inf) with "invalid
    # value encountered in multiply"; concentration_curve raised naming E((x* A x) A).
    # With huge rows the unit-scale result itself overflows: with the warnings off,
    # measure returned [inf, 1.], objective inf, gradient [inf, nan] and build_Y an inf Y;
    # gsi raised "Y must be a finite square matrix of numbers", naming an argument of
    # build_M, baseline_si "power method breaks down: ||M v|| = nan", and with a law of
    # huge entries both matrix oracles "H must be a finite square matrix of numbers", and
    # concentration_curve named rho, which it forms after Y
    with pytest.raises(ValueError, match=f"^{re.escape(name)} is beyond float range"):
        call(MeasurementSet(np.eye(2)))


@pytest.mark.parametrize("j", [-500, 0, 500])
@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
def test_measure_gsi_solve_dist_commute_with_power_of_two_scaling(field, j):
    # at 2^-500 gsi raised "power method breaks down"; at 2^500 _Y leaked
    # "overflow encountered in matmul", then raised "Y must be a finite square matrix"
    d = 32
    ens = Ensemble(field, TERNARY)
    ms = sample_measurements(ens, 8 * d, d, seed=3)
    x = sample_measurements(Ensemble(field, GAUSSIAN), 1, d, seed=4).vectors[0]

    def chain(j):
        xj = _ldexp(x, j)
        y = measure(ms, xj)
        g, s = gsi(ms, y, moment_profile(ens), seed=5), baseline_si(ms, y, seed=6)
        rep = solve(ms, y, g.z0)
        values = [(y, 2), (rep.final_z, 1), (dist(g.z0, xj), 1), (dist(rep.final_z, xj), 1)]
        for init in (g, s):
            values += [(init.z0, 1), (init.rho, 1), (init.lam, 2), (init.residual, 2)]
        return values, rep.iterations

    (ref, iterations), (got, got_iterations) = chain(0), chain(j)
    assert got_iterations == iterations
    assert [np.asarray(v).tobytes() for v, _ in got] == [_ldexp(v, k * j).tobytes()
                                                        for v, k in ref]


def test_dist_beyond_float_range_raises():
    # the difference overflowed to inf with "overflow encountered in subtract"
    with pytest.raises(ValueError, match="^the distance of z and x is beyond float range"):
        dist(np.array([1e308, 1e308]), np.array([1e308, -1e308]))


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


def test_solve_non_finite_abort():
    # from (1, 0) the steps of 1e6 / ||z0||^2 blow the iterate up within a
    # few updates; the report keeps the last finite iterate
    ms = MeasurementSet(np.array([[1.0, 0.0]]))
    y = np.array([0.0])
    cfg = SolverConfig(step_mode=FixedStep(1e6), max_iters=500)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = solve(ms, y, np.array([1.0, 0.0]), cfg)
    assert rep.status is SolveStatus.NON_FINITE
    assert rep.iterations >= 1
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
    rep = solve(ms, y, z0, SolverConfig(max_iters=50, trace=True))
    assert rep.status is SolveStatus.GRAD_TOLERANCE_MET
    assert len(rep.iterates) == rep.iterations + 1 and rep.iterates[-1] is rep.final_z
    # z_0 is a copy: the descent never writes to the caller's z0
    assert rep.iterates[0] is not z0 and np.array_equal(rep.iterates[0], z0)
    off = solve(ms, y, z0, SolverConfig(max_iters=50))
    assert off.iterates is None


def test_default_bb_first_step_scaling():
    # the first BB step is 0.1 / ||z0||^2
    ms = sample_measurements(TERNARY_REAL, 60, 6, seed=10)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(6)
    y = measure(ms, x)
    z0 = x + 0.1 * rng.standard_normal(6)
    cfg_a = SolverConfig(step_mode=BarzilaiBorwein(), max_iters=1)
    rep_a = solve(ms, y, z0, cfg_a)
    g0 = gradient(z0, ms, y)
    expected = z0 - (0.1 / np.linalg.norm(z0) ** 2) * g0
    assert np.allclose(rep_a.final_z, expected)


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
    with pytest.raises(ValueError, match="scale beyond float range.*overflows"):
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


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("k", [-240, -180, 180, 240])
def test_solve_commutes_with_power_of_two_scaling(k, field):
    # a power-of-two rescaling of the problem rescales the run bit for bit
    ms, y, z0 = _scale_problem(field)
    y_given = y.copy()
    cfg = SolverConfig(trace=True)
    ref, got = solve(ms, y, z0, cfg), solve(ms, _ldexp(y, 2 * k), _ldexp(z0, k), cfg)
    assert ref.status is SolveStatus.GRAD_TOLERANCE_MET
    assert (got.iterations, got.status) == (ref.iterations, ref.status)
    assert got.iterates[-1] is got.final_z
    assert [z.tobytes() for z in got.iterates] == [_ldexp(z, k).tobytes() for z in ref.iterates]
    assert np.array_equal(y, y_given)  # solve never writes to the caller's y


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
