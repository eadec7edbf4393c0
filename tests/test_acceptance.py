"""End-to-end acceptance criteria for the toolkit.

Each test evaluates one numbered criterion, prints a single PASS/FAIL line
(visible even under pytest capture), and then asserts. Criteria carry their
own runtime budgets, checked with wall-clock timers. Each criterion is the one
test of its claim for the gradient, GSI's advantage over SI, and the recovery
and init tables; the unit tests of the moment identities, epsilon0 and the
profiles' positivity run the same checks at smaller sizes.
"""

import math
import time

import numpy as np

from phasekit import (
    BUILTIN_ENTRIES,
    BarzilaiBorwein,
    Ensemble,
    ExperimentConfig,
    ExperimentKind,
    Field,
    GAUSSIAN,
    SolverConfig,
    TERNARY,
    UNIFORM,
    build_M,
    build_Y,
    concentration_curve,
    convergence_rate_fit,
    derived_constants,
    dist,
    gradient,
    gsi,
    mc_condition_residual,
    measure,
    moment_profile,
    objective,
    rho_from_intensities,
    run_init_experiment,
    run_recovery_experiment,
    sample_measurements,
    solve,
)


def report(capsys, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" — {detail}"
    with capsys.disabled():
        print("\n" + line)


def test_criterion_1_moment_identity_oracle(capsys):
    combos = [
        Ensemble(Field.REAL, UNIFORM),
        Ensemble(Field.REAL, TERNARY),
        Ensemble(Field.COMPLEX, UNIFORM),
        Ensemble(Field.COMPLEX, TERNARY),
        Ensemble(Field.REAL, GAUSSIAN),
        Ensemble(Field.COMPLEX, GAUSSIAN),
    ]
    worst = 0.0
    ok = True
    for k, ens in enumerate(combos):
        rng = np.random.default_rng(100 + k)
        x = rng.standard_normal(3)
        if ens.field is Field.COMPLEX:
            x = x + 1j * rng.standard_normal(3)
        x /= np.linalg.norm(x)
        t0 = time.perf_counter()
        rep = mc_condition_residual(ens, 3, x, n_samples=1_000_000, seed=200 + k)
        elapsed = time.perf_counter() - t0
        ahat = derived_constants(moment_profile(ens)).alpha_hat
        worst = max(worst, rep.residual / (0.05 * ahat))
        ok = ok and rep.passed and elapsed <= 60.0
    report(capsys, "criterion 1: moment-identity oracle (6 combos, n=1e6)", ok,
           f"max residual / (0.05 alpha_hat) = {worst:.3f}")
    assert ok


def test_criterion_2_gradient_finite_difference(capsys):
    t0 = time.perf_counter()
    ens = Ensemble(Field.COMPLEX, TERNARY)
    ms = sample_measurements(ens, 64, 16, seed=5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    y = measure(ms, x)
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = gradient(z, ms, y)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        u /= np.linalg.norm(u)
        fd = (objective(z + h * u, ms, y) - objective(z - h * u, ms, y)) / (2 * h)
        exact = 2.0 * float(np.real(np.vdot(u, g)))
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed <= 5.0
    report(capsys, "criterion 2: gradient finite-difference check (100 directions)", ok,
           f"max rel deviation {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_phase_alignment_grid(capsys):
    thetas = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    worst = 0.0
    rng = np.random.default_rng(9)
    for field in (Field.REAL, Field.COMPLEX):
        for _ in range(100):
            if field is Field.COMPLEX:
                z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            else:
                z = rng.standard_normal(6)
                x = rng.standard_normal(6)
            grid = np.linalg.norm(z - np.exp(1j * thetas)[:, None] * x, axis=1).min()
            worst = max(worst, abs(dist(z, x) - grid))
    ok = worst <= 1e-3
    report(capsys, "criterion 3: phase alignment vs 4096-point grid (200 pairs)", ok,
           f"max |closed form - grid| = {worst:.2e}")
    assert ok


def test_criterion_4_initialization_comparison(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind=ExperimentKind.INIT_ERROR,
        ensemble=Ensemble(Field.REAL, TERNARY),
        d=128,
        ratio_grid=(8, 10, 12, 14, 16, 18, 20),
        trials=50,
    )
    table = run_init_experiment(cfg)
    elapsed = time.perf_counter() - t0
    margins = [r["si_mean_rel_error"] - r["gsi_mean_rel_error"] for r in table.rows]
    ok = all(m > 0 for m in margins) and elapsed <= 600.0
    report(capsys, "criterion 4: GSI beats SI at every ratio 8-20 (d=128, ternary real)",
           ok, f"min margin {min(margins):.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_5_recovery_thresholds(capsys):
    t0 = time.perf_counter()

    def rate(field, entries, ratio):
        cfg = ExperimentConfig(
            kind=ExperimentKind.SUCCESS_RATE,
            ensemble=Ensemble(field, entries),
            d=128,
            ratio_grid=(ratio,),
            trials=100,
        )
        return run_recovery_experiment(cfg).rows[0]["success_rate"]

    high = {
        "real uniform @4d": rate(Field.REAL, UNIFORM, 4),
        "real ternary @4d": rate(Field.REAL, TERNARY, 4),
        "complex uniform @6d": rate(Field.COMPLEX, UNIFORM, 6),
        "complex ternary @8d": rate(Field.COMPLEX, TERNARY, 8),
    }
    low = rate(Field.REAL, UNIFORM, 2)
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.90 for v in high.values()) and low <= 0.10 and elapsed <= 1800.0
    detail = ", ".join(f"{k} {v:.2f}" for k, v in high.items())
    report(capsys, "criterion 5: recovery success thresholds (d=128, 100 trials)", ok,
           f"{detail}; real uniform @2d {low:.2f} (need <= 0.10); {elapsed:.0f}s")
    assert all(v >= 0.90 for v in high.values())
    assert low <= 0.10, (
        f"success rate {low:.2f} at N=2d exceeds 0.10: N=256 >= 2d-1 already "
        "identifies generic real signals, and the descent often reaches them"
    )
    assert elapsed <= 1800.0


def test_criterion_6_linear_convergence(capsys):
    ens = Ensemble(Field.REAL, TERNARY)
    profile = moment_profile(ens)
    eps0 = derived_constants(profile).epsilon0
    d, N = 32, 192
    fits = []
    t = 0
    while len(fits) < 20 and t < 60:
        seed = 700 + t
        t += 1
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(d)
        ms = sample_measurements(ens, N, d, seed=seed)
        y = measure(ms, x)
        # start inside the contraction basin: dist(z0, x) = 0.8 eps0 ||x||
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        z0 = x + 0.8 * eps0 * np.linalg.norm(x) * u
        cfg = SolverConfig(step_mode=BarzilaiBorwein(), max_iters=2000, trace=True)
        rel_errors = [dist(z, x) / np.linalg.norm(x) for z in solve(ms, y, z0, cfg).iterates]
        if rel_errors[-1] >= 1e-5:
            continue  # unsuccessful solve; excluded by the criterion
        fits.append(convergence_rate_fit(rel_errors))
    slopes = [s for s, _ in fits]
    r2s = [r for _, r in fits]
    ok = len(fits) >= 20 and all(s < 0 for s in slopes) and all(r >= 0.95 for r in r2s)
    report(capsys, "criterion 6: linear convergence fit on 20 basin solves (d=32, N=6d)",
           ok, f"min R^2 {min(r2s):.3f}, median slope {np.median(slopes):.3f}")
    assert ok


def test_criterion_7_concentration_trends(capsys):
    ens = Ensemble(Field.REAL, TERNARY)
    rng = np.random.default_rng(77)
    x = rng.standard_normal(16)
    rows = concentration_curve(ens, 16, x, N_grid=[256, 1024, 4096], trials=50, seed=78)
    ratios = []
    for prev, nxt in zip(rows, rows[1:]):
        for attr in ("y_dev_median", "m_dev_median", "rho_dev_median"):
            ratios.append(getattr(nxt, attr) / getattr(prev, attr))
    ok = all(r <= 0.75 for r in ratios)
    report(capsys, "criterion 7: concentration medians shrink >= 25% per 4x N", ok,
           f"max ratio {max(ratios):.3f} (need <= 0.75)")
    assert ok


def test_criterion_8_invariant_suite(capsys):
    checks = {}

    # M Hermitian, Y PSD, ||z0|| = rho, on a complex ternary instance
    ens = Ensemble(Field.COMPLEX, TERNARY)
    profile = moment_profile(ens)
    ms = sample_measurements(ens, 256, 32, seed=81)
    rng = np.random.default_rng(81)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    y = measure(ms, x)
    Y = build_Y(ms, y)
    rho = rho_from_intensities(y, profile.tau1)
    M = build_M(Y, rho, profile)
    checks["M Hermitian"] = float(np.max(np.abs(M - M.conj().T))) <= 1e-12
    evals = np.linalg.eigvalsh(Y)
    checks["Y PSD"] = float(evals.min()) >= -1e-10 * float(np.abs(evals).max())
    init = gsi(ms, y, profile, seed=82)
    ulp = np.spacing(init.rho)
    checks["||z0|| = rho (8 ulps)"] = abs(np.linalg.norm(init.z0) - init.rho) <= 8 * ulp

    # epsilon0 range and positivity for every built-in ensemble
    eps_ok = True
    bound = math.sqrt(10.0 / 27.0)
    for field in (Field.REAL, Field.COMPLEX):
        for entries in BUILTIN_ENTRIES.values():
            dc = derived_constants(moment_profile(Ensemble(field, entries)))
            eps_ok = eps_ok and 0.0 < dc.epsilon0 <= bound and dc.alpha > 0 and dc.beta > 0
    checks["epsilon0 in (0, sqrt(10/27)] and positivity"] = eps_ok

    # byte-identical experiment reruns
    cfg = ExperimentConfig(
        kind=ExperimentKind.SUCCESS_RATE,
        ensemble=Ensemble(Field.REAL, TERNARY),
        d=16, ratio_grid=(4, 6), trials=4, max_iters=300, base_seed=5,
    )
    first, second = (run_recovery_experiment(cfg).to_csv().encode() for _ in range(2))
    checks["byte-identical reruns"] = first == second

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report(capsys, "criterion 8: invariant suite", ok,
           "all invariants hold" if ok else f"failed: {failed}")
    assert ok, failed
