import math

import numpy as np
import pytest

from phasekit import (
    GAUSSIAN,
    TERNARY,
    Ensemble,
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
    sample_measurements,
)
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


def test_measure_rejects_non_finite_signal():
    ms = sample_measurements(TERNARY_REAL, 5, 4, seed=0)
    with pytest.raises(ValueError, match="finite"):
        measure(ms, np.array([1.0, np.nan, 0.0, 0.0]))


def test_measure_dimension_mismatch():
    ms = sample_measurements(TERNARY_REAL, 5, 4, seed=0)
    with pytest.raises(ValueError):
        measure(ms, np.zeros(3))


@pytest.mark.parametrize("init", ["gsi", "baseline_si", "build_Y"])
@pytest.mark.parametrize("bad, match", [
    (lambda y: np.where(np.arange(y.size) == 3, np.nan, y), "finite"),
    (lambda y: np.where(np.arange(y.size) == 3, -np.inf, y), "finite"),
    (lambda y: np.where(np.arange(y.size) == 3, -1.0, y), "nonnegative"),
    (lambda y: y[:-1], "shape"),
])
def test_initializers_reject_bad_intensities(init, bad, match):
    ms = sample_measurements(TERNARY_REAL, 40, 4, seed=5)
    y = bad(measure(ms, np.ones(4)))
    with pytest.raises(ValueError, match=match):
        if init == "gsi":
            gsi(ms, y, moment_profile(TERNARY_REAL))
        elif init == "build_Y":
            build_Y(ms, y)
        else:
            baseline_si(ms, y)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("call", ["measure", "build_Y", "gsi", "baseline_si"])
def test_spectral_calls_leave_the_measurements_unchanged(field, call):
    ens = Ensemble(field, GAUSSIAN)
    ms = sample_measurements(ens, 96, 32, seed=4)
    before = ms.vectors.copy()
    y = measure(ms, np.ones(32))
    if call == "build_Y":
        build_Y(ms, y)
    elif call == "gsi":
        gsi(ms, y, moment_profile(ens))
    elif call == "baseline_si":
        baseline_si(ms, y)
    assert ms.vectors.dtype == before.dtype
    assert ms.vectors.tobytes() == before.tobytes()


def test_rho_identity_and_scaling():
    y = np.full(17, 0.25)
    assert rho_from_intensities(y, tau1=0.25) == pytest.approx(1.0)
    rho = rho_from_intensities(y, tau1=2.0)
    assert rho_from_intensities(9.0 * y, tau1=2.0) == pytest.approx(3.0 * rho)
    with pytest.raises(ValueError):
        rho_from_intensities(y, tau1=0.0)


@pytest.mark.parametrize("y, match", [
    ([-1.0, 0.5], "nonnegative"),
    ([], "nonempty"),
    ([np.nan, 1.0], "finite"),
    ([[1.0, 2.0], [3.0, 4.0]], "1-D"),
])
def test_rho_rejects_bad_intensities(y, match):
    with pytest.raises(ValueError, match=match):
        rho_from_intensities(y, tau1=1.0)


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


def test_build_Y_hermitian_and_psd():
    ms = sample_measurements(Ensemble(Field.COMPLEX, TERNARY), 30, 6, seed=4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    Y = build_Y(ms, measure(ms, x))
    assert np.array_equal(Y, Y.conj().T)
    evals = np.linalg.eigvalsh(Y)
    assert evals.min() >= -1e-10 * hermitian_opnorm(Y)


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


def test_build_Y_length_mismatch():
    ms = sample_measurements(TERNARY_REAL, 5, 4, seed=0)
    with pytest.raises(ValueError):
        build_Y(ms, np.zeros(4))


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


def test_power_method_rejects_zero_matrix():
    with pytest.raises(ValueError):
        power_method(np.zeros((3, 3)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("M", [
    np.full((3, 3), np.nan),
    1e-200 * np.diag([2.0, 1.0]),   # ||M v||^2 underflows to 0
    1e200 * np.diag([2.0, 1.0]),    # ||M v||^2 overflows to inf
], ids=["nan", "tiny", "huge"])
def test_power_method_rejects_products_outside_float_range(M):
    with pytest.raises(ValueError, match="power method"):
        power_method(M)


def test_gsi_rejects_signal_too_small_for_the_power_method():
    # at ||x|| = 1e-100 the entries of M are about 1e-200 and ||M v||^2
    # underflows; the power method must not return a direction it never found
    d = 32
    ms = sample_measurements(TERNARY_REAL, 8 * d, d, seed=0)
    x = np.random.default_rng(0).standard_normal(d)
    x *= 1e-100 / np.linalg.norm(x)
    with pytest.raises(ValueError, match="power method"):
        gsi(ms, measure(ms, x), moment_profile(TERNARY_REAL))


@pytest.mark.parametrize("iters", [2.5, "3", True, 0])
def test_power_method_rejects_bad_step_count(iters):
    with pytest.raises(ValueError, match="iters"):
        power_method(np.eye(3), iters=iters)
    ms = sample_measurements(TERNARY_REAL, 40, 4, seed=5)
    y = measure(ms, np.ones(4))
    with pytest.raises(ValueError, match="iters"):
        gsi(ms, y, moment_profile(TERNARY_REAL), power_iters=iters)
    with pytest.raises(ValueError, match="iters"):
        baseline_si(ms, y, power_iters=iters)


def test_power_method_takes_numpy_integer_step_counts():
    H = np.diag([3.0, 1.0])
    assert power_method(H, iters=np.int64(7), seed=0)[0] == power_method(H, iters=7, seed=0)[0]


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


def test_gsi_beats_si_on_ternary():
    # d=128, N=10d, ternary real: mean GSI error below mean SI error
    ens = TERNARY_REAL
    profile = moment_profile(ens)
    gsi_errs, si_errs = [], []
    for t in range(50):
        rng_sig = np.random.default_rng(900 + t)
        x = rng_sig.standard_normal(128)
        ms = sample_measurements(ens, 1280, 128, seed=10_000 + t)
        y = measure(ms, x)
        nx = np.linalg.norm(x)
        gsi_errs.append(dist(gsi(ms, y, profile, seed=t).z0, x) / nx)
        si_errs.append(dist(baseline_si(ms, y, seed=t).z0, x) / nx)
    assert np.mean(gsi_errs) < np.mean(si_errs)


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
