import math

import numpy as np
import pytest

from phasekit import (
    GAUSSIAN,
    TERNARY,
    UNIFORM,
    Ensemble,
    EntryDistribution,
    Field,
    MeasurementSet,
    MomentProfile,
    derived_constants,
    moment_profile,
    sample_measurements,
)

ALL_ENSEMBLES = [
    Ensemble(f, e) for f in (Field.REAL, Field.COMPLEX)
    for e in (GAUSSIAN, UNIFORM, TERNARY)
]


def test_builtin_moments_exact():
    assert (UNIFORM.m2, UNIFORM.m4) == (1 / 3, 1 / 5)
    assert (TERNARY.m2, TERNARY.m4) == (2 / 3, 2 / 3)
    assert (GAUSSIAN.m2, GAUSSIAN.m4) == (1.0, 3.0)


def test_uniform_moments_match_monte_carlo():
    rng = np.random.default_rng(42)
    draws = rng.uniform(-1, 1, 1_000_000)
    assert np.mean(draws ** 2) == pytest.approx(1 / 3, abs=2e-3)
    assert np.mean(draws ** 4) == pytest.approx(1 / 5, abs=2e-3)


def test_entry_distribution_rejects_inconsistent_moments():
    with pytest.raises(ValueError):
        EntryDistribution("bad", m2=1.0, m4=0.5, sampler=lambda rng, s: rng.standard_normal(s))
    with pytest.raises(ValueError):
        EntryDistribution("bad", m2=0.0, m4=0.0, sampler=lambda rng, s: rng.standard_normal(s))


def test_moment_profile_closed_forms():
    p = moment_profile(Ensemble(Field.REAL, UNIFORM))
    assert (p.tau1, p.tau2, p.tau3) == (1 / 3, 1 / 9, 2 / 9)
    assert p.tau4 == pytest.approx(-2 / 15)

    p = moment_profile(Ensemble(Field.COMPLEX, TERNARY))
    assert (p.tau1, p.tau2, p.tau3) == (2 / 3, 4 / 9, 4 / 9)
    assert p.tau4 == pytest.approx(-1 / 3)

    p = moment_profile(Ensemble(Field.REAL, GAUSSIAN))
    assert (p.tau1, p.tau2, p.tau3, p.tau4) == (1.0, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: f"{e.field.value}-{e.entry.name}")
def test_builtin_profiles_satisfy_positivity(ensemble):
    p = moment_profile(ensemble)
    assert p.tau1 > 0 and p.tau2 > 0 and p.tau3 > 0 and p.tau3 + p.tau4 > 0


def test_invalid_profile_names_violated_inequality():
    with pytest.raises(ValueError, match=r"tau3 \+ tau4 > 0"):
        MomentProfile(1.0, 1.0, 1.0, -2.0)
    with pytest.raises(ValueError, match="tau2 > 0"):
        MomentProfile(1.0, -1.0, 1.0, 0.0)


def test_derived_constants_real_gaussian():
    c = derived_constants(moment_profile(Ensemble(Field.REAL, GAUSSIAN)))
    assert c.alpha == 3.0 and c.beta == 2.0 and c.alpha_hat == 3.0
    assert c.epsilon0 == pytest.approx(math.sqrt(20 / 81), rel=1e-12)


def test_derived_constants_tau4_zero_collapses():
    # with tau4 = 0 the radius formula reduces to sqrt(10 beta / (27 alpha))
    c = derived_constants(MomentProfile(1.0, 0.7, 1.3, 0.0))
    assert c.epsilon0 == pytest.approx(math.sqrt(10 * c.beta / (27 * c.alpha)), rel=1e-12)


def test_derived_constants_real_ternary():
    c = derived_constants(moment_profile(Ensemble(Field.REAL, TERNARY)))
    assert c.alpha == pytest.approx(2 / 3)
    assert c.beta == pytest.approx(2 / 9)
    # independent evaluation: (10/18) * (sqrt(16.4) - 4)
    assert c.epsilon0 == pytest.approx((10 / 18) * (math.sqrt(16.4) - 4.0), rel=1e-12)
    assert c.epsilon0 == pytest.approx(0.02761, abs=5e-6)


@pytest.mark.parametrize("ensemble", ALL_ENSEMBLES, ids=lambda e: f"{e.field.value}-{e.entry.name}")
def test_epsilon0_in_range(ensemble):
    c = derived_constants(moment_profile(ensemble))
    assert 0.0 < c.epsilon0 <= math.sqrt(10 / 27) + 1e-15


def test_derived_constants_homogeneity():
    base = moment_profile(Ensemble(Field.REAL, TERNARY))
    c1 = derived_constants(base)
    for scale in (0.5, 3.0, 17.0):
        scaled = MomentProfile(base.tau1 * scale, base.tau2 * scale,
                               base.tau3 * scale, base.tau4 * scale)
        c2 = derived_constants(scaled)
        assert c2.alpha == pytest.approx(scale * c1.alpha, rel=1e-12)
        assert c2.beta == pytest.approx(scale * c1.beta, rel=1e-12)
        assert c2.alpha_hat == pytest.approx(scale * c1.alpha_hat, rel=1e-12)
        # epsilon0 is scale-free: re-evaluation reproduces the unscaled value
        assert c2.epsilon0 == pytest.approx(c1.epsilon0, rel=1e-12)


def test_sampling_rejects_empty():
    ens = Ensemble(Field.REAL, GAUSSIAN)
    for N, d in ((0, 4), (4, 0), (-1, 4), (4, -1)):
        with pytest.raises(ValueError):
            sample_measurements(ens, N, d, seed=0)


@pytest.mark.parametrize("rows", [
    np.ones(3), np.ones((0, 3)), np.ones((3, 0)), np.ones((2, 2, 2)),
    np.ones((2, 2), dtype=bool), np.array([["1", "0"]]), np.array([[1.0, None]]),
], ids=["1-D", "N=0", "d=0", "3-D", "bool", "str", "object"])
def test_measurement_set_rejects_rows_that_are_not_a_nonempty_2d_numeric_array(rows):
    # 1-D rows gave gsi a z0 and solve an IndexError; N=0 rows gave gsi a
    # ZeroDivisionError, solve a NON_FINITE report and build_Y a NaN matrix
    with pytest.raises(ValueError, match=r"nonempty 2-D numeric array, got dtype \S+ and shape"):
        MeasurementSet(rows)


@pytest.mark.parametrize("rows, field, dtype", [
    (np.ones((3, 2)), Field.REAL, np.float64),
    (np.ones((3, 2), dtype=np.complex128), Field.COMPLEX, np.complex128),
    (np.ones((3, 2), dtype=np.int8), Field.REAL, np.float64),
    (np.ones((3, 2), dtype=np.float32), Field.REAL, np.float64),
    (np.ones((3, 2), dtype=np.longdouble), Field.REAL, np.float64),
    (np.ones((3, 2), order="F"), Field.REAL, np.float64),
    (np.ones((3, 2), dtype=np.complex64), Field.COMPLEX, np.complex128),
    ([[1j, 0.0]], Field.COMPLEX, np.complex128),
], ids=["float64", "complex128", "int8", "float32", "longdouble", "fortran", "complex64", "list"])
def test_measurement_set_stores_contiguous_rows_of_their_field(rows, field, dtype):
    # rows already in that form are kept, not copied
    ms = MeasurementSet(rows)
    assert ms.field is field and field.dtype is dtype
    assert ms.vectors.dtype == dtype and ms.vectors.flags.c_contiguous
    assert np.array_equal(ms.vectors, np.asarray(rows))
    assert (ms.vectors is rows) == (getattr(rows, "dtype", None) == dtype
                                    and rows.flags.c_contiguous)


def test_sampling_is_deterministic():
    ens = Ensemble(Field.COMPLEX, UNIFORM)
    a = sample_measurements(ens, 50, 7, seed=123).vectors
    b = sample_measurements(ens, 50, 7, seed=123).vectors
    assert np.array_equal(a, b)
    c = sample_measurements(ens, 50, 7, seed=124).vectors
    assert not np.array_equal(a, c)


def test_ternary_entries_are_atoms():
    ms = sample_measurements(Ensemble(Field.REAL, TERNARY), 200, 11, seed=5)
    assert set(np.unique(ms.vectors)) <= {-1.0, 0.0, 1.0}


def test_uniform_law_of_large_numbers():
    ms = sample_measurements(Ensemble(Field.REAL, UNIFORM), 100_000, 1, seed=9)
    v = ms.vectors.ravel()
    assert abs(np.mean(v)) < 0.01
    assert abs(np.mean(v ** 2) - 1 / 3) < 0.01


@pytest.mark.parametrize("entry", [GAUSSIAN, UNIFORM, TERNARY], ids=lambda e: e.name)
def test_complex_second_moment(entry):
    n = 100_000
    ms = sample_measurements(Ensemble(Field.COMPLEX, entry), n, 1, seed=77)
    sq = np.abs(ms.vectors.ravel()) ** 2
    stderr = np.std(sq) / math.sqrt(n)
    assert abs(np.mean(sq) - entry.m2) <= 3 * stderr


def test_descriptor_round_trip():
    for ens in ALL_ENSEMBLES:
        assert Ensemble.from_dict(ens.to_dict()) == ens
    with pytest.raises(ValueError):
        Ensemble.from_dict({"field": "real", "entry": "cauchy"})


@pytest.mark.parametrize("desc", [
    "real",
    ["real", "ternary"],
    {"field": "real"},
    {"field": "real", "entry": ["ternary"]},
    {"field": 1, "entry": "ternary"},
    {"field": "real", "entry": "ternary", "feild": "complex"},
], ids=repr)
def test_descriptor_rejects_malformed_input(desc):
    with pytest.raises(ValueError, match="ensemble descriptor"):
        Ensemble.from_dict(desc)
