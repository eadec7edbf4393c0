import math
from functools import partial

import numpy as np
import pytest

from phasekit import (
    Ensemble,
    EntryDistribution,
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
    moment_profile,
    sample_measurements,
)
from phasekit.verify import DEFAULT_CHUNKS, _condition_chunk, _draws, _f_chunk

ALL_ENSEMBLES = [
    Ensemble(field, entries)
    for field in (Field.REAL, Field.COMPLEX)
    for entries in (GAUSSIAN, UNIFORM, TERNARY)
]


def _id(ens: Ensemble) -> str:
    return f"{ens.field.value}-{ens.entry.name}"


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
    assert hermitian_opnorm(np.full((2, 2), 1e200)) == 2e200


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=_id)
def test_condition_residual_passes(ens):
    x = unit_vector(6, ens.field, seed=1)
    rep = mc_condition_residual(ens, 6, x, n_samples=200_000, seed=3)
    assert rep.passed, f"{rep.residual} > {rep.tolerance}"
    assert rep.sample_count == 200_000
    assert len(rep.components) == 1  # first-moment identity sub-check


@pytest.mark.parametrize("m2_shift, m4_shift", [(0.0, 0.1), (0.0, -0.1), (0.05, 0.0)],
                         ids=["m4+0.1", "m4-0.1", "m2+0.05"])
def test_condition_residual_detects_wrong_declared_moments(m2_shift, m4_shift):
    # ternary draws declared with wrong moments: m4 +- 0.1 shifts tau4 alone
    # by +-0.1; m2 + 0.05 shifts tau1, so the mean component fails too
    law = EntryDistribution("mislabeled-ternary", TERNARY.m2 + m2_shift, TERNARY.m4 + m4_shift,
                            TERNARY.sampler)
    ens = Ensemble(Field.REAL, law)
    rep = mc_condition_residual(ens, 6, unit_vector(6, ens.field, seed=1),
                                n_samples=200_000, seed=3)
    assert not rep.passed and rep.residual > rep.tolerance
    assert rep.components[0].passed is (m2_shift == 0.0)


@pytest.mark.parametrize("j", [0, -570])
def test_matrix_oracles_fail_a_wrong_law_at_any_scale(j):
    # a Gaussian law declared with m4 = 5: at 2^-570 the chunk statistics underflowed to
    # zero, and both oracles passed it with residual 0.0 <= tolerance 0.0
    law = EntryDistribution("gaussian-declared-m4-5", GAUSSIAN.m2, 5.0, GAUSSIAN.sampler)
    x = np.ldexp([1.0, -2.0, 0.5, 1.5], j)
    assert not mc_condition_residual(Ensemble(Field.REAL, law), 4, x, 20_000, 1).passed
    assert not mc_F_residual(Ensemble(Field.COMPLEX, law), x + 0j, 20_000, 1).passed


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


def test_f_block_upper_left_is_condition_ii():
    # one closed form for E(|a* x|^2 a a*), also where tau2 != tau3
    p = MomentProfile(1.0, 1.3, 0.7, 0.0)
    x = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert np.array_equal(f_block_expectation(p, x)[:2, :2], condition_expectation(p, x))
    for entries in (GAUSSIAN, UNIFORM, TERNARY):
        p = moment_profile(Ensemble(Field.COMPLEX, entries))
        x = unit_vector(4, Field.COMPLEX, seed=6)
        assert np.array_equal(f_block_expectation(p, x)[:4, :4], condition_expectation(p, x))


def test_f_block_structure():
    p = moment_profile(Ensemble(Field.COMPLEX, GAUSSIAN))
    x = unit_vector(4, Field.COMPLEX, seed=6)
    F = f_block_expectation(p, x)
    d = 4
    assert F.shape == (2 * d, 2 * d)
    assert np.max(np.abs(F - F.conj().T)) < 1e-14
    # lower-right block is the conjugate of the upper-left one
    assert np.allclose(F[d:, d:], F[:d, :d].conj())


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
        A = sample_measurements(ens, m, d, rng).vectors
        y = np.abs(A.conj() @ x) ** 2
        second.append((A.T * y) @ A.conj() / m)
        first.append(A.T @ A.conj() / m)
    return second, first


def _ref_f_chunks(ens, x, n_samples, seed):
    rng = np.random.default_rng(seed)
    m = n_samples // DEFAULT_CHUNKS
    f_chunks = []
    for _ in range(DEFAULT_CHUNKS):
        A = sample_measurements(ens, m, x.shape[0], rng).vectors
        W = A * (A.conj() @ x)[:, None]
        B11 = W.T @ W.conj() / m
        B12 = W.T @ W / m
        f_chunks.append(np.vstack([np.hstack([B11, B12]),
                                   np.hstack([B12.conj().T, B11.conj()])]))
    return f_chunks


def _residual_and_tolerance(chunks, expected):
    # tolerance: 5x the standard error of the mean of k chunk means, taken as
    # the mean operator-norm deviation of a chunk mean over sqrt(k)
    k = len(chunks)
    overall = sum(chunks) / k
    noise = np.mean([hermitian_opnorm(c - overall) for c in chunks]) / math.sqrt(k)
    return hermitian_opnorm(overall - expected), 5.0 * noise


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=_id)
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


# The oracles' memory contract: one chunk of rows, or one trial's N x d
# matrix, is live at a time. Keeping the previous one while the next is drawn
# puts the peak above twice one chunk. At d = 16 and 2e5 samples a chunk is
# 10,000 rows, so the d x d chunk means are small beside it. At d = 64 and 2e4
# samples a chunk is 1,000 rows, and the means outweigh it unless they are
# held packed, as n(n + 1)/2 entries of a lower triangle, n = d or 2d.
MEMORY_D, MEMORY_SAMPLES = 16, 200_000


def _rows_nbytes(ens, rows, d=MEMORY_D):
    return rows * d * np.dtype(ens.field.dtype).itemsize


def _packed_means_nbytes(oracle, ens, d):
    n, count = (2 * d, DEFAULT_CHUNKS) if oracle is mc_F_residual else (d, 2 * DEFAULT_CHUNKS)
    return count * n * (n + 1) // 2 * np.dtype(ens.field.dtype).itemsize


@pytest.mark.parametrize("d, n_samples, counts_means",
                         [(MEMORY_D, MEMORY_SAMPLES, False), (64, 20_000, True)],
                         ids=["rows", "means"])
@pytest.mark.parametrize("oracle, ens", [
    *(pytest.param(mc_condition_residual, ens, id=_id(ens)) for ens in ALL_ENSEMBLES),
    *(pytest.param(mc_F_residual, ens, id=f"F-{ens.entry.name}") for ens in ALL_ENSEMBLES
      if ens.field is Field.COMPLEX),
])
def test_condition_residual_holds_one_chunk_at_a_time(oracle, ens, d, n_samples, counts_means,
                                                      traced_peak):
    # both matrix oracles weight their chunk in place, so no second N x d buffer
    # is live; either one keeping its previous chunk alive reads 2.07x or more.
    # At d = 64, full d x d (or 2d x 2d) chunk means read 1.20x to 1.53x the bound
    x = unit_vector(d, ens.field, seed=16)
    args = (x,) if oracle is mc_F_residual else (d, x)
    peak = traced_peak(lambda: oracle(ens, *args, n_samples, 17))
    means = _packed_means_nbytes(oracle, ens, d) if counts_means else 0
    assert peak < 1.75 * _rows_nbytes(ens, n_samples // DEFAULT_CHUNKS, d) + means


def test_a_ternary_chunk_is_drawn_beside_one_block_of_raw_words(traced_peak):
    # a ternary draw holding all its raw words and two full-size masks read 1.33x
    ens, d, n_samples = Ensemble(Field.COMPLEX, TERNARY), 64, 200_000
    x = unit_vector(d, ens.field, seed=16)
    peak = traced_peak(lambda: mc_condition_residual(ens, d, x, n_samples, 17))
    chunk = _rows_nbytes(ens, n_samples // DEFAULT_CHUNKS, d)
    assert peak < 1.2 * (chunk + _packed_means_nbytes(mc_condition_residual, ens, d))


@pytest.mark.parametrize("entries", [GAUSSIAN, UNIFORM, TERNARY], ids=lambda e: e.name)
def test_condition_ii_has_one_chunk_statistic(entries):
    # the upper-left d x d block of each F chunk mean is condition II's chunk
    # mean bit for bit: both weight the same rows in place by w_j = <a_j, x>;
    # each comes packed as its lower triangle, unpacked here
    ens, d = Ensemble(Field.COMPLEX, entries), 5
    x = unit_vector(d, Field.COMPLEX, seed=18)
    sizes = [1_000] * DEFAULT_CHUNKS
    low, f_low = (np.tri(n, dtype=bool) for n in (d, 2 * d))
    f_chunks = _draws(ens, x, None, 19)[2](sizes, partial(_f_chunk, f_low))
    condition_chunks = _draws(ens, x, d, 19)[2](sizes, partial(_condition_chunk, low))
    assert len(f_chunks) == len(condition_chunks) == DEFAULT_CHUNKS
    for f, (_, second) in zip(f_chunks, condition_chunks):
        F = np.zeros((2 * d, 2 * d), complex)
        F[f_low] = f
        assert np.array_equal(F[:d, :d][low], second)
        assert np.array_equal(F[d:, :d], F[d:, :d].T)  # B12* is, so B12 is exactly symmetric


@pytest.mark.parametrize("ens", ALL_ENSEMBLES, ids=_id)
def test_concentration_curve_holds_one_trial_at_a_time(ens, traced_peak):
    x = unit_vector(MEMORY_D, ens.field, seed=16)
    peak = traced_peak(lambda: concentration_curve(ens, MEMORY_D, x, [4096], 20, 17))
    assert peak < 1.75 * _rows_nbytes(ens, 4096)


@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
def test_hermitian_opnorm_reads_the_lower_triangle(field):
    # H is taken as Hermitian, unchecked: the strict upper triangle is not read
    assert hermitian_opnorm(np.array([[0.0, 5.0], [0.0, 0.0]])) == 0.0
    assert hermitian_opnorm(np.array([[0.0, 0.0], [5.0, 0.0]])) == 5.0
    rng = np.random.default_rng(0)
    H = rng.standard_normal((6, 6))
    if field is Field.COMPLEX:
        H = H + 1j * rng.standard_normal((6, 6))
    lower = np.tril(H, -1)
    hermitian = lower + lower.conj().T + np.diag(H.diagonal().real)
    assert hermitian_opnorm(H) == pytest.approx(np.linalg.norm(hermitian, 2), rel=1e-12)


_REAL = Ensemble(Field.REAL, TERNARY)
_REAL_X3 = unit_vector(3, Field.REAL, seed=0)


def test_concentration_curve_draws_a_generator_seed_in_order():
    # a Generator seed gave one int draw, whose SeedSequence every trial spawned from
    gen, twin = np.random.default_rng(5), np.random.default_rng(5)
    concentration_curve(_REAL, 3, _REAL_X3, N_grid=[12, 30], trials=20, seed=gen)
    for N in (12, 30):
        for _ in range(20):
            sample_measurements(_REAL, N, 3, twin)
    assert gen.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("trace", [np.ones((12, 2)), np.float64(0.5)], ids=["2-D", "scalar"])
def test_convergence_rate_fit_rejects_a_trace_that_is_not_1d(trace):
    # a 2-D trace raised TypeError from np.polyfit, a scalar IndexError
    with pytest.raises(ValueError, match=r"^trace must be 1-D, got shape "):
        convergence_rate_fit(trace)


@pytest.mark.parametrize("trace", [
    [str(0.5 ** k) for k in range(20)], 0.5 ** np.arange(20) + 0j, [True] * 20,
], ids=["text", "complex", "bool"])
def test_convergence_rate_fit_rejects_a_trace_of_other_than_real_numbers(trace):
    # a text trace was parsed and fitted, a complex one fitted its real parts
    # after numpy's ComplexWarning, and bools were taken as 1.0
    with pytest.raises(ValueError, match=r"^trace must be an array of real numbers, got "):
        convergence_rate_fit(trace)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_convergence_rate_fit_rejects_non_finite_before_floor(bad):
    trace = 0.5 ** np.arange(30)
    trace[5] = bad
    with pytest.raises(ValueError, match="finite"):
        convergence_rate_fit(trace)
    # past the floor the trace is rounding noise and is not read
    trace = np.concatenate([0.5 ** np.arange(30), [1e-15, bad]])
    assert convergence_rate_fit(trace)[0] == pytest.approx(math.log(0.5), abs=1e-9)
