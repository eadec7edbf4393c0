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
    measure,
    moment_profile,
    sample_measurements,
    solve,
)
from phasekit.ensembles import sample_entries

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


@pytest.mark.parametrize("m2, m4", [
    (1.0, math.inf), (math.nan, 3.0), (1.0, math.nan), ("1", 3.0), (True, 3.0), (1.0, 3j),
], ids=["inf-m4", "nan-m2", "nan-m4", "str-m2", "bool-m2", "complex-m4"])
def test_entry_distribution_requires_finite_real_moments(m2, m4):
    # an infinite m4 built a law whose epsilon0 was nan; a string m2 raised
    # TypeError and a bool m2 was taken as 1
    with pytest.raises(ValueError, match="entry distribution 'bad': m[24] must be a finite number"):
        EntryDistribution("bad", m2, m4, TERNARY.sampler)


@pytest.mark.parametrize("taus, name", [
    ((1.0, math.inf, 1.0, 0.0), "tau2"),
    ((1.0, 1.0, 1.0, math.nan), "tau4"),
    ((1.0, 1.0, 1.0, "0.5"), "tau4"),
    ((True, 1.0, 1.0, 0.0), "tau1"),
    ((1.0, 1.0, 1j, 0.0), "tau3"),
], ids=["inf-tau2", "nan-tau4", "str-tau4", "bool-tau1", "complex-tau3"])
def test_moment_profile_requires_finite_real_constants(taus, name):
    # an infinite tau2 built a profile whose alpha was inf and epsilon0 nan;
    # a string tau4 raised TypeError
    with pytest.raises(ValueError, match=f"moment profile: {name} must be a finite number"):
        MomentProfile(*taus)


@pytest.mark.parametrize("field, entry, name", [
    ("real", GAUSSIAN, "field"),
    (None, GAUSSIAN, "field"),
    (Field.REAL, "gaussian", "entry"),
    (Field.COMPLEX, None, "entry"),
], ids=["str-field", "no-field", "str-entry", "no-entry"])
def test_ensemble_requires_a_field_and_an_entry_distribution(field, entry, name):
    # Ensemble("real", GAUSSIAN) took the complex profile and drew complex rows
    with pytest.raises(ValueError, match=f"ensemble '{name}' must be a"):
        Ensemble(field, entry)


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


@pytest.mark.parametrize("N, d, name", [
    (2.5, 4, "N"), (True, 4, "N"), (-1, 4, "N"), (4.0, 4, "N"),
    (4, np.float64(3), "d"), (4, 0, "d"), (4, "3", "d"),
])
def test_sampling_requires_integer_sizes(N, d, name):
    # a float N raised TypeError from inside the ternary draw, a bool N
    # "an integer is required" and a negative N numpy's "negative dimensions"
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        sample_measurements(Ensemble(Field.REAL, TERNARY), N, d, seed=0)


@pytest.mark.parametrize("rows", [
    np.ones(3), np.ones((0, 3)), np.ones((3, 0)), np.ones((2, 2, 2)),
    np.ones((2, 2), dtype=bool), np.array([["1", "0"]]), np.array([[1.0, None]]),
], ids=["1-D", "N=0", "d=0", "3-D", "bool", "str", "object"])
def test_measurement_set_rejects_rows_that_are_not_a_nonempty_2d_numeric_array(rows):
    # 1-D rows gave gsi a z0 and solve an IndexError; N=0 rows gave gsi a
    # ZeroDivisionError, solve a NON_FINITE report and build_Y a NaN matrix
    with pytest.raises(ValueError, match=r"nonempty 2-D numeric array, got dtype \S+ and shape"):
        MeasurementSet(rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
def test_measurement_set_rejects_non_finite_rows(bad, field):
    # measure returned [nan] and solve a NON_FINITE report for such rows
    entry = bad if field is Field.REAL else complex(1.0, bad)
    with pytest.raises(ValueError, match="measurement vectors must be finite"):
        measure(MeasurementSet([[entry, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="measurement vectors must be finite"):
        solve(MeasurementSet([[entry, 1.0], [1.0, 1.0]]), np.ones(2), np.ones(2))


@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
def test_sampling_rejects_a_law_that_draws_non_finite_values(field):
    law = EntryDistribution("nan", 1.0, 3.0, lambda rng, shape: np.full(shape, np.nan))
    with pytest.raises(ValueError, match="measurement vectors must be finite"):
        sample_measurements(Ensemble(field, law), 4, 3, seed=0)


@pytest.mark.parametrize("sampler", [
    lambda rng, shape: rng.standard_normal(shape) + 0j,
    lambda rng, shape: rng.standard_normal(shape[::-1]),
    lambda rng, shape: rng.standard_normal(shape[-1:]),
    lambda rng, shape: np.ones(shape, dtype=bool),
    lambda rng, shape: np.full(shape, "1"),
], ids=["complex", "transposed", "one-row", "bool", "str"])
@pytest.mark.parametrize("field", list(Field), ids=lambda f: f.value)
def test_sampling_rejects_a_sampler_that_returns_other_than_real_numbers_of_the_shape(
        field, sampler):
    # complex draws lost their imaginary part on the real field, a (d, N) draw
    # swapped N and d, and a (d,) draw was broadcast to N equal complex rows
    law = EntryDistribution("bad", 1.0, 3.0, sampler)
    with pytest.raises(ValueError, match=r"entry distribution 'bad': sampler must return real "
                                         r"numbers of shape \(5, 3\)"):
        sample_measurements(Ensemble(field, law), 5, 3, seed=0)


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


def _assert_ternary_draw_matches(rng, ref, shape):
    """TERNARY's draw from rng against numpy's int32 draw from ref: the same
    values and the same generator state after it."""
    got = TERNARY.sampler(rng, shape)
    want = ref.integers(-1, 2, shape, dtype=np.int32)
    assert got.shape == want.shape and np.array_equal(got, want)
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)  # Philox's holds arrays


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (5, 3), (4, 6), (257, 33), (0,)], ids=str)
def test_ternary_draw_is_numpy_int32_draw(shape, buffered):
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # a 32-bit draw leaves the high half of a 64-bit output pending
            assert rng.integers(0, 7, dtype=np.int32) == ref.integers(0, 7, dtype=np.int32)
            assert rng.bit_generator.state["has_uint32"] == 1
        _assert_ternary_draw_matches(rng, ref, shape)
        _assert_ternary_draw_matches(rng, ref, (3,))  # and the draw after it


@pytest.mark.parametrize("shape", [(1,), (6,), (4, 5)], ids=str)
def test_ternary_draw_on_another_bit_generator_is_numpy_int32_draw(shape):
    rng, ref = (np.random.Generator(np.random.Philox(0)) for _ in range(2))
    _assert_ternary_draw_matches(rng, ref, shape)
    _assert_ternary_draw_matches(rng, ref, (3,))


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_about_to_output(low: int, high: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit output has these 32-bit halves.
    PCG64 steps s -> s * MULT + inc and outputs rotr(hi(s) ^ lo(s), s >> 122)
    of the new state; a new state with its top six bits zero does not rotate,
    so its output is hi(s) ^ lo(s)."""
    inc, hi = 0xDA3E39CB94B95BDB, 0x0123456789ABCDEF
    new_state = (hi << 64) | (hi ^ (high << 32 | low))
    state = (new_state - inc) * pow(_PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    probe = np.random.PCG64()
    probe.state = bitgen.state
    assert int(probe.random_raw()) == high << 32 | low
    return np.random.Generator(bitgen)


@pytest.mark.parametrize("low, high", [(0, 5), (5, 0)], ids=["low-zero", "high-zero"])
@pytest.mark.parametrize("shape", [(1,), (2,), (6,), (3, 3)], ids=str)
def test_ternary_draw_replays_numpy_past_a_zero_word(low, high, shape):
    # numpy rejects a zero word and takes the next, so every later value moves;
    # a zero high half left pending by a one-word draw is rejected by the next
    rng, ref = _pcg64_about_to_output(low, high), _pcg64_about_to_output(low, high)
    _assert_ternary_draw_matches(rng, ref, shape)
    _assert_ternary_draw_matches(rng, ref, (5,))


@pytest.mark.parametrize("low, high, values", [
    (1_431_655_765, 1_431_655_766, [-1, 0]),
    (2_863_311_530, 2_863_311_531, [0, 1]),
    (1, 2 ** 32 - 1, [-1, 1]),
], ids=["first-cut", "second-cut", "extremes"])
def test_ternary_draw_maps_words_at_the_cuts(low, high, values):
    rng, ref = _pcg64_about_to_output(low, high), _pcg64_about_to_output(low, high)
    assert TERNARY.sampler(rng, (2,)).tolist() == values
    assert ref.integers(-1, 2, 2, dtype=np.int32).tolist() == values


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 32)], ids=str)
def test_complex_ternary_entries_are_two_numpy_int32_draws(shape):
    # an odd entry count starts the imaginary draw on a pending half word
    got = sample_entries(Ensemble(Field.COMPLEX, TERNARY), shape, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    u = rng.integers(-1, 2, shape, dtype=np.int32)
    v = rng.integers(-1, 2, shape, dtype=np.int32)
    expected = (u + 1j * v) / math.sqrt(2.0)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
