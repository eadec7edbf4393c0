import math
import re

import numpy as np
import pytest

from phasekit import (
    GAUSSIAN,
    TERNARY,
    Ensemble,
    EntryDistribution,
    ExperimentConfig,
    ExperimentKind,
    Field,
    MeasurementSet,
    baseline_si,
    build_M,
    build_Y,
    derived_constants,
    dist,
    gsi,
    measure,
    moment_profile,
    power_method,
    rho_from_intensities,
    run_init_experiment,
    run_recovery_trial,
    sample_measurements,
)
from phasekit.spectral import _Y
from phasekit.verify import condition_expectation, hermitian_opnorm

TERNARY_REAL = Ensemble(Field.REAL, TERNARY)


def single_row_set(a):
    return MeasurementSet(np.asarray(a)[None, :])


def test_measure_identity_row():
    ms = single_row_set([1.0, 0.0])
    assert measure(ms, np.array([1.0, 0.0])) == pytest.approx([1.0])


def test_measure_zero_signal():
    ms = sample_measurements(TERNARY_REAL, 10, 4, seed=0)
    assert np.all(measure(ms, np.zeros(4)) == 0.0)


def test_measure_matches_rank_one_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ms = MeasurementSet(A)
    y = measure(ms, x)
    for j in range(20):
        Aj = np.outer(A[j], A[j].conj())
        assert y[j] == pytest.approx(float(np.real(x.conj() @ Aj @ x)), abs=1e-12)


def test_measure_rounds_intensities_that_underflow():
    # with no warning: 2^-1060 is a subnormal, 1e-340 rounds to 0.0
    ms = MeasurementSet(np.eye(2))
    assert np.array_equal(measure(ms, np.full(2, 2.0 ** -530)), np.full(2, 2.0 ** -1060))
    assert np.array_equal(measure(ms, np.full(2, 1e-170)), np.zeros(2))


def test_rho_identity_and_scaling():
    y = np.full(17, 0.25)
    assert rho_from_intensities(y, tau1=0.25) == pytest.approx(1.0)
    rho = rho_from_intensities(y, tau1=2.0)
    assert rho_from_intensities(9.0 * y, tau1=2.0) == pytest.approx(3.0 * rho)
    with pytest.raises(ValueError):
        rho_from_intensities(y, tau1=0.0)
    # a subnormal tau1 returned inf with no warning
    assert rho_from_intensities(np.ones(1), 2.0 ** -1070) == 2.0 ** 535


def test_rho_concentrates():
    # |rho^2 - 1| <= 0.1 in at least 95 of 100 seeded trials at N = 200 d
    tau1 = moment_profile(TERNARY_REAL).tau1
    d, N = 32, 200 * 32
    hits = 0
    for t in range(100):
        ms = sample_measurements(TERNARY_REAL, N, d, seed=1000 + t)
        rng = np.random.default_rng(t)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        rho = rho_from_intensities(measure(ms, x), tau1)
        hits += abs(rho ** 2 - 1.0) <= 0.1
    assert hits >= 95


def test_build_Y_single_row():
    ms = single_row_set([1.0, 0.0])
    Y = build_Y(ms, np.array([1.0]))
    assert np.allclose(Y, np.array([[1.0, 0.0], [0.0, 0.0]]))


def _full_product_Y(A, y):
    """The earlier build_Y product, before its symmetrization pass."""
    return (A.T * y) @ A.conj() / A.shape[0]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("case", [
    "N=1", "odd N and d", "d > 64", "zero weights", "all weights zero", "A[::2]",
    "single precision A", "integer A", "float32 y",
])
def test_build_Y_matches_full_product(field, case):
    # at d=65 a general product X.T @ X.copy() is not exactly symmetric
    # with OpenBLAS, so the exact Hermitian check needs the syrk path
    rng = np.random.default_rng(21)
    N, d = {"N=1": (1, 4), "odd N and d": (37, 7), "d > 64": (301, 65)}.get(case, (40, 6))
    A = rng.standard_normal((2 * N if case == "A[::2]" else N, d))
    if field is Field.COMPLEX:
        A = A + 1j * rng.standard_normal(A.shape)
    if case == "A[::2]":
        A = A[::2]
        assert not A.flags.c_contiguous
    elif case == "single precision A":
        A = A.astype(np.complex64 if field is Field.COMPLEX else np.float32)
    elif case == "integer A":
        A = rng.integers(-2, 3, (N, d))
        if field is Field.COMPLEX:
            A = A + 1j * rng.integers(-2, 3, (N, d))
    y = 3.0 * rng.random(N)
    if case == "zero weights":
        y[::3] = 0.0
    elif case == "all weights zero":
        y[:] = 0.0
    elif case == "float32 y":
        y = y.astype(np.float32)
    Y = build_Y(MeasurementSet(A), y)
    ref = _full_product_Y(A, y)
    assert Y.shape == (d, d)
    assert Y.dtype == field.dtype
    assert np.max(np.abs(Y - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(Y, Y.conj().T)
    assert not np.any(np.diagonal(Y).imag)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array whose memory `a` views, or `a` itself."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_Y_of_spent_complex_rows_lies_over_them():
    # complex rows handed over as out, N >= d, receive Y over their first d^2 entries,
    # with every bit of a new Y; fewer rows, real rows and the public calls get a new Y
    rng = np.random.default_rng(53)
    for field, N, d, spent in ((Field.COMPLEX, 40, 6, True), (Field.COMPLEX, 6, 6, True),
                               (Field.COMPLEX, 5, 6, False), (Field.REAL, 40, 6, False)):
        ens = Ensemble(field, GAUSSIAN)
        ms = sample_measurements(ens, N, d, seed=N)
        y = 3.0 * rng.random(N)
        want = _Y(ms.vectors, y)
        rows = ms.vectors.copy()
        Y = _Y(rows, y, out=rows)
        assert Y.tobytes() == want.tobytes()
        assert np.shares_memory(Y, rows) == spent
        if spent:
            assert Y.tobytes() == rows.reshape(-1)[:d * d].tobytes()
        # the public calls own what they return (a scaled Y views a float64 array of
        # its own bytes) and leave the rows as they were
        before = ms.vectors.tobytes()
        results = (build_Y(ms, 2.0 ** 40 * y), gsi(ms, y, moment_profile(ens), seed=1).z0,
                   baseline_si(ms, y, seed=1).z0)
        for a in results:
            assert not np.shares_memory(a, ms.vectors)
            assert _owner(a).nbytes <= max(a.nbytes, d * d * 16)
        assert ms.vectors.tobytes() == before


def test_mean_Y_and_M_match_moment_identity():
    # average over 10^4 seeded size-16 sets at d=4, fixed x, ternary real
    profile = moment_profile(TERNARY_REAL)
    ahat = derived_constants(profile).alpha_hat
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4)
    EY = condition_expectation(profile, x)
    EM = profile.tau2 * float(x @ x) * np.eye(4) + profile.tau3 * np.outer(x, x)
    sum_Y = np.zeros((4, 4))
    sum_M = np.zeros((4, 4))
    n_sets = 10_000
    for t in range(n_sets):
        ms = sample_measurements(TERNARY_REAL, 16, 4, seed=50_000 + t)
        y = measure(ms, x)
        Y = build_Y(ms, y)
        sum_Y += Y
        sum_M += build_M(Y, rho_from_intensities(y, profile.tau1), profile)
    assert hermitian_opnorm(sum_Y / n_sets - EY) <= 0.05 * ahat
    assert hermitian_opnorm(sum_M / n_sets - EM) <= 0.05 * ahat


def test_build_M_tau4_zero_is_identity_map():
    profile = moment_profile(Ensemble(Field.REAL, GAUSSIAN))  # tau4 = 0
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((5, 5))
    Y = (Y + Y.T) / 2
    assert np.array_equal(build_M(Y, rho=1.3, profile=profile), Y)


def test_build_M_identity_fixed_point():
    profile = moment_profile(TERNARY_REAL)
    # Y = I with tau2 rho^2 = 1 leaves the diagonal untouched
    rho = math.sqrt(1.0 / profile.tau2)
    M = build_M(np.eye(2), rho, profile)
    assert np.allclose(M, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
def test_build_M_of_an_integer_Y_is_float(dtype):
    # M's diagonal is formed and judged in float64 whatever Y's dtype, at odd d too
    profile = moment_profile(TERNARY_REAL)
    for rho in (0.5, 1e20):  # rho^2 = 1e40 is beyond float32's range, not float64's
        M = build_M(np.eye(3, dtype=dtype), rho, profile)
        assert M.dtype == np.result_type(dtype, np.float64)
        assert np.array_equal(M, build_M(np.eye(3), rho, profile))


def test_build_M_preserves_off_diagonal():
    profile = moment_profile(Ensemble(Field.COMPLEX, TERNARY))
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Y = (Z + Z.conj().T) / 2
    M = build_M(Y, rho=0.7, profile=profile)
    off = ~np.eye(6, dtype=bool)
    assert np.array_equal(M[off], Y[off])
    assert np.max(np.abs(M - M.conj().T)) <= 1e-14


def test_power_method_diagonal():
    lam, v, res = power_method(np.diag([3.0, 1.0]), iters=50, seed=0)
    assert lam == pytest.approx(3.0, abs=1e-10)
    assert abs(abs(v[0]) - 1.0) < 1e-10
    assert res <= 1e-10


def test_power_method_identity():
    lam, v, res = power_method(np.eye(4), iters=5, seed=1)
    assert lam == pytest.approx(1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert res <= 1e-14


def test_power_method_matches_eigensolver():
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    H = (Z + Z.conj().T) / 2
    H += 20.0 * np.eye(8)  # shift so the dominant eigenvalue has a clear gap
    lam, v, res = power_method(H, iters=200, seed=2)
    top = np.linalg.eigvalsh(H)[-1]
    assert lam == pytest.approx(top, abs=1e-6)


# a valid law, of the Gaussian's moments, that draws only zeros
ZERO = EntryDistribution("zero", 1.0, 3.0, lambda rng, shape: np.zeros(shape))
_BREAKS_DOWN = "power method breaks down: ||M v|| = 0.0; M must be nonzero"
_NO_DIRECTION = "Y = 0: y_j a_j = 0 for every j, so the start has no direction"


def _zero_config(kind, field):
    return ExperimentConfig(kind, Ensemble(field, ZERO), d=4, ratio_grid=(4,), trials=1)


def _rows(field, rows):
    return MeasurementSet(np.array(rows, field.dtype))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=lambda f: f.value)
@pytest.mark.parametrize("call, message", [
    (lambda f: power_method(np.zeros((3, 3), f.dtype)), _BREAKS_DOWN),
    (lambda f: gsi(MeasurementSet(np.zeros((2, 2), f.dtype)), np.array([1.0, 2.0]),
                   moment_profile(Ensemble(f, ZERO))), _NO_DIRECTION),
    (lambda f: gsi(MeasurementSet(np.zeros((2, 2), f.dtype)), np.array([1.0, 2.0]),
                   moment_profile(Ensemble(f, TERNARY))), _NO_DIRECTION),
    (lambda f: baseline_si(MeasurementSet(np.zeros((2, 2), f.dtype)), np.array([1.0, 2.0])),
     _NO_DIRECTION),
    (lambda f: run_init_experiment(_zero_config(ExperimentKind.INIT_ERROR, f)), _NO_DIRECTION),
    (lambda f: run_recovery_trial(_zero_config(ExperimentKind.SUCCESS_RATE, f), 4, 0),
     _NO_DIRECTION),
    (lambda f: gsi(_rows(f, [[1, 2], [3, 4]]), np.zeros(2), moment_profile(Ensemble(f, TERNARY))),
     _NO_DIRECTION),
    (lambda f: baseline_si(_rows(f, [[1, 2], [3, 4]]), np.zeros(2)), _NO_DIRECTION),
    (lambda f: gsi(_rows(f, [[0, 0], [3, 4]]), np.array([1.0, 0.0]),
                   moment_profile(Ensemble(f, TERNARY))), _NO_DIRECTION),
    (lambda f: baseline_si(_rows(f, [[0, 0], [3, 4]]), np.array([1.0, 0.0])), _NO_DIRECTION),
], ids=["power_method", "gsi", "gsi-ternary", "baseline_si", "run_init_experiment",
        "run_recovery_trial", "gsi-y-zero", "baseline_si-y-zero", "gsi-y-on-zero-rows",
        "baseline_si-y-on-zero-rows"])
def test_the_all_zero_problem_is_a_value_error(call, message, field):
    # baseline_si and the init trial raised ZeroDivisionError from SI's scale; gsi with
    # tau4 != 0 returned the power method's random start, as M = c tau2 rho^2 I. Then three
    # judges spoke for Y = 0, and two cases leaked to the power method's message, which names
    # an M the caller never passed: y = 0 over nonzero rows in gsi and baseline_si, and
    # y > 0 only on zero rows in baseline_si
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(field)


def test_gsi_norm_equals_rho():
    ens = Ensemble(Field.COMPLEX, TERNARY)
    profile = moment_profile(ens)
    ms = sample_measurements(ens, 300, 12, seed=3)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    y = measure(ms, x)
    init = gsi(ms, y, profile, seed=5)
    assert np.linalg.norm(init.z0) == pytest.approx(init.rho, rel=8 * np.finfo(float).eps)
    assert init.rho == pytest.approx(rho_from_intensities(y, profile.tau1))


def test_gsi_checks_and_scales_the_intensities_once(monkeypatch):
    # GSI handed its checked, unit-scale y to the public rho_from_intensities,
    # which checked and rescaled it a second time
    ens = Ensemble(Field.COMPLEX, TERNARY)
    ms = sample_measurements(ens, 96, 12, seed=3)
    y = measure(ms, sample_measurements(Ensemble(Field.COMPLEX, GAUSSIAN), 1, 12, 2).vectors[0])
    cfg = ExperimentConfig(ExperimentKind.INIT_ERROR, ens, d=12, ratio_grid=(8,), trials=1)

    def run():
        init = gsi(ms, y, moment_profile(ens), seed=5)
        return (init.z0.tobytes(), init.rho, init.lam, init.residual,
                run_init_experiment(cfg).to_csv())

    want = run()

    def no_rho(*args, **kwargs):
        raise AssertionError("rho_from_intensities was called")

    monkeypatch.setattr("phasekit.spectral.rho_from_intensities", no_rho)
    assert run() == want


def test_gsi_equals_si_direction_when_tau4_zero():
    ens = Ensemble(Field.REAL, GAUSSIAN)
    profile = moment_profile(ens)
    ms = sample_measurements(ens, 200, 10, seed=7)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(10)
    y = measure(ms, x)
    g = gsi(ms, y, profile, seed=9)
    s = baseline_si(ms, y, seed=9)
    assert dist(g.z0 / np.linalg.norm(g.z0), s.z0 / np.linalg.norm(s.z0)) < 1e-8


def test_baseline_si_single_row_direction():
    ms = single_row_set([1.0, 0.0])
    init = baseline_si(ms, np.array([1.0]), power_iters=50, seed=0)
    direction = init.z0 / np.linalg.norm(init.z0)
    assert abs(abs(direction[0]) - 1.0) < 1e-12


def test_gsi_error_improves_with_more_measurements():
    # complex ternary, d=128: error at N=20d below error at N=2d (50 trials)
    ens = Ensemble(Field.COMPLEX, TERNARY)
    profile = moment_profile(ens)
    means = {}
    for ratio in (2, 20):
        errs = []
        for t in range(50):
            rng_sig = np.random.default_rng(3_000 + t)
            x = (rng_sig.standard_normal(128) + 1j * rng_sig.standard_normal(128)) / math.sqrt(2)
            ms = sample_measurements(ens, ratio * 128, 128, seed=4_000 + 100 * ratio + t)
            y = measure(ms, x)
            errs.append(dist(gsi(ms, y, profile, seed=t).z0, x) / np.linalg.norm(x))
        means[ratio] = np.mean(errs)
    assert means[20] < means[2]
