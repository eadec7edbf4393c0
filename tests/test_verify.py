import math

import numpy as np
import pytest

from phasekit import (
    Ensemble,
    Field,
    GAUSSIAN,
    MomentProfile,
    TERNARY,
    UNIFORM,
    concentration_curve,
    condition_expectation,
    convergence_rate_fit,
    f_block_expectation,
    hermitian_opnorm,
    mc_F_residual,
    mc_condition_residual,
    mc_scalar_identities,
    moment_profile,
    project_admissible,
    scalar_identity_expectations,
)
from phasekit.ensembles import sample_entries
from phasekit.verify import DEFAULT_CHUNKS, _noise_scale

ALL_ENSEMBLES = [
    Ensemble(field, entries)
    for field in (Field.REAL, Field.COMPLEX)
    for entries in (GAUSSIAN, UNIFORM, TERNARY)
]


def unit_vector(d, field, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    if field is Field.COMPLEX:
        v = v + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_hermitian_opnorm_small_and_large():
    assert hermitian_opnorm(np.diag([3.0, -5.0, 1.0])) == 5.0
    assert hermitian_opnorm(np.zeros((4, 4))) == 0.0
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((80, 80))
    H = (Z + Z.T) / 2
    exact = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    assert hermitian_opnorm(H) == pytest.approx(exact, rel=1e-6)
    # +-lambda pair above d = 64, where a power iteration oscillates
    assert hermitian_opnorm(np.diag([5.0, -5.0] + [0.0] * 98)) == 5.0


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=str)
def test_condition_residual_passes(ens):
    x = unit_vector(6, ens.field, seed=1)
    rep = mc_condition_residual(ens, 6, x, n_samples=200_000, seed=3)
    assert rep.passed, f"{rep.residual} > {rep.tolerance}"
    assert rep.sample_count == 200_000
    assert len(rep.components) == 1  # first-moment identity sub-check


@pytest.mark.parametrize("oracle", [
    lambda ens, x, n: mc_condition_residual(ens, 3, x, n_samples=n),
    lambda ens, x, n: mc_F_residual(ens, x, n_samples=n),
    lambda ens, x, n: mc_scalar_identities(ens, x, x, n_samples=n),
], ids=["condition", "F", "scalar"])
@pytest.mark.parametrize("n_samples", [10, 9_999])
def test_oracles_reject_too_few_samples(oracle, n_samples):
    ens = Ensemble(Field.COMPLEX, TERNARY)
    with pytest.raises(ValueError, match="n_samples >= 10000"):
        oracle(ens, unit_vector(3, Field.COMPLEX, seed=0), n_samples)


def test_f_residual_rejects_zero_signal():
    with pytest.raises(ValueError, match="nonzero"):
        mc_F_residual(Ensemble(Field.COMPLEX, TERNARY), np.zeros(3), n_samples=20_000)


def test_condition_residual_detects_wrong_tau():
    ens = Ensemble(Field.REAL, TERNARY)
    good = moment_profile(ens)
    for delta in (0.1, -0.1):
        bad = MomentProfile(good.tau1, good.tau2, good.tau3, good.tau4 + delta)
        rep = mc_condition_residual(ens, 6, unit_vector(6, ens.field, seed=1),
                                    n_samples=200_000, seed=3, profile=bad)
        assert not rep.passed
    bad1 = MomentProfile(good.tau1 + 0.1, good.tau2, good.tau3, good.tau4)
    rep = mc_condition_residual(ens, 6, unit_vector(6, ens.field, seed=1),
                                n_samples=200_000, seed=3, profile=bad1)
    assert not rep.passed  # mean-identity component fails


def test_condition_residual_shrinks_with_samples():
    # residual at 4n below 0.75x the residual at n, averaged over 10 seeds
    ens = Ensemble(Field.COMPLEX, UNIFORM)
    x = unit_vector(5, ens.field, seed=2)
    small, big = [], []
    for s in range(10):
        small.append(mc_condition_residual(ens, 5, x, n_samples=40_000, seed=s).residual)
        big.append(mc_condition_residual(ens, 5, x, n_samples=160_000, seed=s).residual)
    assert np.mean(big) <= 0.75 * np.mean(small)


def test_condition_expectation_hand_case():
    # real profile, x = e1: T = tau2 I + (tau3 + tau4) e1 e1^T
    p = moment_profile(Ensemble(Field.REAL, TERNARY))
    x = np.array([1.0, 0.0, 0.0])
    T = condition_expectation(p, x)
    expected = p.tau2 * np.eye(3)
    expected[0, 0] += p.tau3 + p.tau4
    assert np.allclose(T, expected)


@pytest.mark.parametrize("entries", [GAUSSIAN, UNIFORM, TERNARY], ids=lambda e: e.name)
def test_f_residual_passes_complex(entries):
    ens = Ensemble(Field.COMPLEX, entries)
    x = unit_vector(5, Field.COMPLEX, seed=4)
    rep = mc_F_residual(ens, x, n_samples=200_000, seed=5)
    assert rep.passed, f"{rep.residual} > {rep.tolerance}"


def test_f_residual_rejects_real_field():
    with pytest.raises(ValueError):
        mc_F_residual(Ensemble(Field.REAL, TERNARY), np.ones(4), n_samples=10)


def test_f_block_zero_signal():
    p = moment_profile(Ensemble(Field.COMPLEX, TERNARY))
    F = f_block_expectation(p, np.zeros(3, dtype=complex))
    assert np.array_equal(F, np.zeros((6, 6)))


def test_f_block_structure():
    p = moment_profile(Ensemble(Field.COMPLEX, GAUSSIAN))
    x = unit_vector(4, Field.COMPLEX, seed=6)
    F = f_block_expectation(p, x)
    d = 4
    assert F.shape == (2 * d, 2 * d)
    assert np.max(np.abs(F - F.conj().T)) < 1e-14
    # lower-right block is the conjugate of the upper-left one
    assert np.allclose(F[d:, d:], F[:d, :d].conj())


def test_project_admissible():
    rng = np.random.default_rng(7)
    x = unit_vector(5, Field.COMPLEX, seed=7)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h2 = project_admissible(x, h)
    c = np.vdot(h2, x)
    assert abs(c.imag) < 1e-14
    assert c.real >= 0
    assert np.linalg.norm(h2) == pytest.approx(np.linalg.norm(h))
    # already-admissible input is unchanged
    assert np.array_equal(project_admissible(x, np.zeros(5, dtype=complex)),
                          np.zeros(5, dtype=complex))


def test_scalar_identities_hand_case_h_equals_x():
    # h = x = e1, real ternary: e1 = tau3/2 + tau2 + tau3/2 + tau4 = tau2 + tau3 + tau4,
    # e2 = tau2 + tau3 + tau4, e3 = tau2 + tau3 + tau4
    p = moment_profile(Ensemble(Field.REAL, TERNARY))
    x = np.array([1.0, 0.0])
    e1, e2, e3 = scalar_identity_expectations(p, x, x)
    total = p.tau2 + p.tau3 + p.tau4
    assert e1 == pytest.approx(total)
    assert e2 == pytest.approx(total)
    assert e3 == pytest.approx(total)


def test_scalar_identities_orthogonal_h():
    # x = e1, h = e2: e1 = tau3/2, e2 = 0, e3 = tau2 + tau3 + tau4
    p = moment_profile(Ensemble(Field.REAL, UNIFORM))
    x = np.array([1.0, 0.0])
    h = np.array([0.0, 1.0])
    e1, e2, e3 = scalar_identity_expectations(p, x, h)
    assert e1 == pytest.approx(p.tau3 / 2.0)
    assert e2 == pytest.approx(0.0)
    assert e3 == pytest.approx(p.tau2 + p.tau3 + p.tau4)


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=str)
def test_scalar_identities_mc(ens):
    x = unit_vector(4, ens.field, seed=8)
    h = project_admissible(x, unit_vector(4, ens.field, seed=9))
    rep = mc_scalar_identities(ens, x, h, n_samples=200_000, seed=10)
    assert rep.passed, f"{rep.residual} > {rep.tolerance}"
    assert len(rep.components) == 3


def test_scalar_identities_detect_bad_profile():
    ens = Ensemble(Field.REAL, TERNARY)
    good = moment_profile(ens)
    bad = MomentProfile(good.tau1, good.tau2, good.tau3 + 0.2, good.tau4)
    x = unit_vector(4, Field.REAL, seed=8)
    h = unit_vector(4, Field.REAL, seed=9)
    rep = mc_scalar_identities(ens, x, h, n_samples=200_000, seed=10, profile=bad)
    assert not rep.passed


def test_concentration_curve_shrinks():
    ens = Ensemble(Field.REAL, TERNARY)
    x = unit_vector(16, Field.REAL, seed=11)
    rows = concentration_curve(ens, 16, x, N_grid=[256, 2048], trials=30, seed=12)
    assert [r.N for r in rows] == [256, 2048]
    first, last = rows[0], rows[1]
    assert last.y_dev_median < first.y_dev_median
    assert last.m_dev_median < first.m_dev_median
    assert last.rho_dev_median < first.rho_dev_median
    for r in rows:
        assert r.y_dev_q95 >= r.y_dev_median
        assert r.m_dev_q95 >= r.m_dev_median


def test_concentration_curve_seed_types():
    ens = Ensemble(Field.REAL, TERNARY)
    x = unit_vector(8, Field.REAL, seed=13)

    def rows(seed):
        return [r.to_dict() for r in
                concentration_curve(ens, 8, x, N_grid=[64], trials=20, seed=seed)]

    assert rows(14) == rows(np.random.SeedSequence(14))
    from_gen = rows(np.random.default_rng(15))
    assert from_gen == rows(np.random.default_rng(15))
    assert np.all(np.isfinite(list(from_gen[0].values())))


def test_concentration_curve_keeps_the_spawn_key():
    ens = Ensemble(Field.REAL, TERNARY)
    x = unit_vector(8, Field.REAL, seed=13)

    def rows(seed):
        return [r.to_dict() for r in
                concentration_curve(ens, 8, x, N_grid=[64], trials=20, seed=seed)]

    unkeyed = rows(np.random.SeedSequence(0))
    key1 = rows(np.random.SeedSequence(0, spawn_key=(1,)))
    key2 = rows(np.random.SeedSequence(0, spawn_key=(2,)))
    assert key1 != key2
    assert unkeyed not in (key1, key2)
    assert unkeyed == rows(0)
    assert key1 == rows(np.random.SeedSequence(0).spawn(2)[1])


def test_concentration_curve_zero_signal():
    ens = Ensemble(Field.REAL, TERNARY)
    with pytest.raises(ValueError):
        concentration_curve(ens, 4, np.zeros(4), N_grid=[16], trials=2)


def test_convergence_rate_fit_exact_geometric():
    rate = 0.9
    trace = rate ** np.arange(40)
    slope, r2 = convergence_rate_fit(trace)
    assert slope == pytest.approx(math.log(rate), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_convergence_rate_fit_truncates_at_floor():
    # error decays then bounces in rounding noise; the bounce is excluded
    head = 0.5 ** np.arange(50)
    tail = 1e-16 * (1.0 + 0.5 * np.sin(np.arange(30)))
    slope, r2 = convergence_rate_fit(np.concatenate([head, tail]))
    assert slope == pytest.approx(math.log(0.5), abs=1e-9)
    assert r2 > 0.999


def test_convergence_rate_fit_constant_trace():
    slope, r2 = convergence_rate_fit(np.full(20, 0.3))
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 0.0


def test_convergence_rate_fit_rejects_short_trace():
    with pytest.raises(ValueError):
        convergence_rate_fit(0.5 ** np.arange(5))
    with pytest.raises(ValueError):
        # only 4 points above the floor
        convergence_rate_fit(np.concatenate([0.1 ** np.arange(1, 5), np.full(20, 1e-15)]))


def test_residual_report_to_dict():
    ens = Ensemble(Field.REAL, GAUSSIAN)
    rep = mc_condition_residual(ens, 3, unit_vector(3, Field.REAL, seed=0),
                                n_samples=20_000, seed=0)
    d = rep.to_dict()
    assert d["passed"] == rep.passed
    assert d["samples"] == 20_000
    assert isinstance(d["residual"], float)


# The oracles' chunk statistics in their earlier form: full products with
# A.conj() and inner products A.conj() @ x. The oracles now form the Hermitian
# moments with one syrk and the inner products without copying A; these are
# the references they must agree with.

def _ref_condition_chunks(ens, d, x, n_samples, seed):
    rng = np.random.default_rng(seed)
    m = n_samples // DEFAULT_CHUNKS
    second, first = [], []
    for _ in range(DEFAULT_CHUNKS):
        A = sample_entries(ens, (m, d), rng)
        y = np.abs(A.conj() @ x) ** 2
        second.append((A.T * y) @ A.conj() / m)
        first.append(A.T @ A.conj() / m)
    return second, first


def _ref_f_chunks(ens, x, n_samples, seed):
    rng = np.random.default_rng(seed)
    m = n_samples // DEFAULT_CHUNKS
    f_chunks = []
    for _ in range(DEFAULT_CHUNKS):
        A = sample_entries(ens, (m, x.shape[0]), rng)
        W = A * (A.conj() @ x)[:, None]
        B11 = W.T @ W.conj() / m
        B12 = W.T @ W / m
        f_chunks.append(np.vstack([np.hstack([B11, B12]),
                                   np.hstack([B12.conj().T, B11.conj()])]))
    return f_chunks


def _ref_scalar_means(ens, x, h, n_samples, seed):
    rng = np.random.default_rng(seed)
    m = n_samples // DEFAULT_CHUNKS
    means = np.zeros((DEFAULT_CHUNKS, 3))
    for c in range(DEFAULT_CHUNKS):
        A = sample_entries(ens, (m, x.shape[0]), rng)
        t = np.real((A @ h.conj()) * (A.conj() @ x))
        q = np.abs(A.conj() @ h) ** 2
        means[c] = [np.mean(t ** 2), np.mean(t * q), np.mean(q ** 2)]
    return means


def _residual_and_tolerance(chunks, expected):
    overall = sum(chunks) / len(chunks)
    return hermitian_opnorm(overall - expected), 5.0 * _noise_scale(chunks, overall)


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=str)
def test_condition_residual_matches_full_products(ens):
    d, n = 5, 20_000
    x = unit_vector(d, ens.field, seed=12)
    rep = mc_condition_residual(ens, d, x, n_samples=n, seed=13)
    profile = moment_profile(ens)
    second, first = _ref_condition_chunks(ens, d, x, n, 13)
    r2, tol2 = _residual_and_tolerance(second, condition_expectation(profile, x))
    r1, tol1 = _residual_and_tolerance(first, profile.tau1 * np.eye(d))
    (mean_rep,) = rep.components
    assert rep.residual == pytest.approx(r2, rel=1e-10)
    assert rep.tolerance == pytest.approx(tol2, rel=1e-10)
    assert mean_rep.residual == pytest.approx(r1, rel=1e-10)
    assert mean_rep.tolerance == pytest.approx(tol1, rel=1e-10)


@pytest.mark.parametrize("entries", [GAUSSIAN, UNIFORM, TERNARY], ids=lambda e: e.name)
def test_f_residual_matches_full_products(entries):
    ens = Ensemble(Field.COMPLEX, entries)
    x = unit_vector(5, Field.COMPLEX, seed=14)
    rep = mc_F_residual(ens, x, n_samples=20_000, seed=15)
    r, tol = _residual_and_tolerance(_ref_f_chunks(ens, x, 20_000, 15),
                                     f_block_expectation(moment_profile(ens), x))
    assert rep.residual == pytest.approx(r, rel=1e-10)
    assert rep.tolerance == pytest.approx(tol, rel=1e-10)


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=str)
def test_scalar_identities_match_conj_products(ens):
    x = unit_vector(5, ens.field, seed=16)
    h = project_admissible(x, unit_vector(5, ens.field, seed=17))
    rep = mc_scalar_identities(ens, x, h, n_samples=20_000, seed=18)
    means = _ref_scalar_means(ens, x, h, 20_000, 18)
    devs = np.abs(means.mean(axis=0)
                  - np.array(scalar_identity_expectations(moment_profile(ens), x, h)))
    tols = 5.0 * means.std(axis=0, ddof=1) / math.sqrt(DEFAULT_CHUNKS)
    for comp, dev, tol in zip(rep.components, devs, tols):
        assert comp.residual == pytest.approx(dev, rel=1e-12, abs=1e-12)
        assert comp.tolerance == pytest.approx(tol, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("d", [2, 4, 16])
def test_hermitian_opnorm_rejects_non_finite(d, bad, dtype):
    # eigvalsh gives a case-dependent answer: a number, nan or LinAlgError
    H = np.eye(d, dtype=dtype)
    H[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        hermitian_opnorm(H)


@pytest.mark.parametrize("H", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)), 1.0],
                         ids=["2x3", "vector", "3-D", "scalar"])
def test_hermitian_opnorm_rejects_non_square(H):
    with pytest.raises(ValueError, match="square"):
        hermitian_opnorm(H)


_COMPLEX = Ensemble(Field.COMPLEX, TERNARY)
_X3 = unit_vector(3, Field.COMPLEX, seed=0)
_VECTOR_ORACLES = {
    "condition": lambda x: mc_condition_residual(_COMPLEX, 3, x, n_samples=20_000),
    "F": lambda x: mc_F_residual(_COMPLEX, x, n_samples=20_000),
    "scalar-x": lambda x: mc_scalar_identities(_COMPLEX, x, _X3, n_samples=20_000),
    "scalar-h": lambda h: mc_scalar_identities(_COMPLEX, _X3, h, n_samples=20_000),
    "concentration": lambda x: concentration_curve(_COMPLEX, 3, x, N_grid=[12], trials=20),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("oracle", list(_VECTOR_ORACLES))
def test_oracles_reject_non_finite_vectors(oracle, bad):
    x = _X3.copy()
    x[1] = bad
    with pytest.raises(ValueError, match=r"^[xh] must be finite"):
        _VECTOR_ORACLES[oracle](x)


@pytest.mark.parametrize("oracle, shape", [
    (oracle, shape) for oracle in _VECTOR_ORACLES for shape in ("long", "column")
    if (oracle, shape) != ("F", "long")  # mc_F_residual takes d from x
])
def test_oracles_reject_mis_shaped_vectors(oracle, shape):
    x = unit_vector(4, Field.COMPLEX, seed=0) if shape == "long" else _X3.reshape(3, 1)
    with pytest.raises(ValueError, match=r"^[xh] must have shape"):
        _VECTOR_ORACLES[oracle](x)


_REAL = Ensemble(Field.REAL, TERNARY)
_REAL_X3 = unit_vector(3, Field.REAL, seed=0)
_REAL_LAW_ORACLES = {
    "condition": lambda x: mc_condition_residual(_REAL, 3, x, n_samples=20_000),
    "scalar-x": lambda x: mc_scalar_identities(_REAL, x, _REAL_X3, n_samples=20_000),
    "scalar-h": lambda h: mc_scalar_identities(_REAL, _REAL_X3, h, n_samples=20_000),
    "concentration": lambda x: concentration_curve(_REAL, 3, x, N_grid=[12], trials=20),
}


@pytest.mark.parametrize("oracle", list(_REAL_LAW_ORACLES))
def test_oracles_reject_complex_vectors_for_a_real_law(oracle):
    # a complex x used to lose its imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match=r"^[xh] must be real to match real measurements"):
        _REAL_LAW_ORACLES[oracle](_REAL_X3 * np.exp(0.5j))


def test_concentration_curve_takes_a_zero_signal():
    rows = concentration_curve(_COMPLEX, 3, np.zeros(3), N_grid=[12], trials=20)
    assert rows[0].N == 12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_convergence_rate_fit_rejects_non_finite_before_floor(bad):
    trace = 0.5 ** np.arange(30)
    trace[5] = bad
    with pytest.raises(ValueError, match="finite"):
        convergence_rate_fit(trace)
    # past the floor the trace is rounding noise and is not read
    trace = np.concatenate([0.5 ** np.arange(30), [1e-15, bad]])
    assert convergence_rate_fit(trace)[0] == pytest.approx(math.log(0.5), abs=1e-9)
