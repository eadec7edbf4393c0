import decimal
import inspect
import math
import pickle
import sys
from decimal import Decimal

import numpy as np
import pytest

import phasekit
from phasekit import (
    GAUSSIAN,
    TERNARY,
    UNIFORM,
    Ensemble,
    EntryDistribution,
    ExperimentConfig,
    Field,
    MeasurementSet,
    MomentProfile,
    SolverConfig,
    baseline_si,
    build_M,
    build_Y,
    concentration_curve,
    condition_expectation,
    derived_constants,
    f_block_expectation,
    generate_signal,
    gradient,
    gsi,
    mc_condition_residual,
    mc_F_residual,
    measure,
    moment_profile,
    objective,
    power_method,
    run_init_experiment,
    run_recovery_experiment,
    run_recovery_trial,
    sample_measurements,
    solve,
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


@pytest.mark.parametrize("m2, m4", [
    (1.0, math.inf), (math.nan, 3.0), (1.0, math.nan), ("1", 3.0), (True, 3.0), (1.0, 3j),
    (1.0, 10 ** 400),
], ids=["inf-m4", "nan-m2", "nan-m4", "str-m2", "bool-m2", "complex-m4", "huge-int-m4"])
def test_entry_distribution_requires_finite_real_moments(m2, m4):
    # an infinite m4 built a law whose epsilon0 was nan; a string m2 raised
    # TypeError, a bool m2 was taken as 1, and an int beyond float range
    # raised OverflowError
    with pytest.raises(ValueError, match="entry distribution 'bad': m[24] must be a finite number"):
        EntryDistribution("bad", m2, m4, TERNARY.sampler)


@pytest.mark.parametrize("name, sampler, message", [
    (3, TERNARY.sampler, "entry distribution name must be an instance of str, got 3"),
    (None, TERNARY.sampler, "entry distribution name must be an instance of str, got None"),
    ("x", 5, "entry distribution 'x': sampler must be an instance of Callable, got 5"),
    ("x", None, "entry distribution 'x': sampler must be an instance of Callable, got None"),
], ids=["int-name", "no-name", "int-sampler", "no-sampler"])
def test_entry_distribution_requires_a_str_name_and_a_callable_sampler(name, sampler, message):
    # an int name built a law that a table's metadata recorded as "entry": 3,
    # and an int sampler built one that raised TypeError at its first draw
    with pytest.raises(ValueError, match=f"^{message}$"):
        EntryDistribution(name, 1.0, 3.0, sampler)


@pytest.mark.parametrize("taus, name", [
    ((1.0, math.inf, 1.0, 0.0), "tau2"),
    ((1.0, 1.0, 1.0, math.nan), "tau4"),
    ((1.0, 1.0, 1.0, "0.5"), "tau4"),
    ((True, 1.0, 1.0, 0.0), "tau1"),
    ((1.0, 1.0, 1j, 0.0), "tau3"),
    ((1.0, 10 ** 400, 1.0, 0.0), "tau2"),
    ((1.0, 10 ** 5000, 1.0, 0.0), "tau2"),
], ids=["inf-tau2", "nan-tau4", "str-tau4", "bool-tau1", "complex-tau3", "huge-int-tau2",
        "unprintable-int-tau2"])
def test_moment_profile_requires_finite_real_constants(taus, name):
    # an infinite tau2 built a profile whose alpha was inf and epsilon0 nan;
    # a string tau4 raised TypeError, an int beyond float range OverflowError,
    # and one of more digits than int-to-text conversion allows raised that
    # conversion's ValueError, which does not name tau2
    with pytest.raises(ValueError, match=f"moment profile: {name} must be a finite number"):
        MomentProfile(*taus)


@pytest.mark.parametrize("field, entry, name", [
    ("real", GAUSSIAN, "field"),
    (None, GAUSSIAN, "field"),
    (Field.REAL, "gaussian", "entry"),
    (Field.COMPLEX, None, "entry"),
    (10 ** 5000, TERNARY, "field"),
], ids=["str-field", "no-field", "str-entry", "no-entry", "unprintable-int-field"])
def test_ensemble_requires_a_field_and_an_entry_distribution(field, entry, name):
    # Ensemble("real", GAUSSIAN) took the complex profile and drew complex rows,
    # and the message for an int too long to print raised in place of this one
    cls = {"field": "Field", "entry": "EntryDistribution"}[name]
    with pytest.raises(ValueError, match=f"^{name} must be an instance of {cls}, got "):
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
    # the same profile of ints: the range check of alpha_hat takes an int as it is
    assert derived_constants(MomentProfile(1, 1, 2, 0)) == c


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


@pytest.mark.parametrize("taus", [
    (1.0, 1.0, 1.0, -1.0 + 2.0 ** -52),
    (1.0, 1e-300, 1.0, -1.0 + 2.0 ** -52),
    (1.0, 1e150, 1.0, -1.0 + 2.0 ** -52),
    (1.0, 1.0, 2.0 ** -1074, 0.0),
    (1.0, 1.0, 2.0 ** -1074, 1e150),
    (1.0, 5e152, 5e152, 0.0),
], ids=["tau3+tau4=ulp", "tiny-tau2", "huge-tau2", "least-tau3", "least-tau3-huge-tau4",
        "alpha_hat=1e153"])
def test_a_valid_profile_has_0_lt_beta_le_alpha(taus):
    # MomentProfile's checks imply these, so derived_constants need not check them
    c = derived_constants(MomentProfile(*taus))
    assert 0.0 < c.beta <= c.alpha <= c.alpha_hat
    assert 0.0 <= c.epsilon0 < math.inf


@pytest.mark.parametrize("build, match", [
    (lambda: EntryDistribution("big", 1e200, 1e300, GAUSSIAN.sampler),
     r"m4 >= m2\^2 required \(got m4=1e\+300, m2\^2=inf\)"),
    (lambda: derived_constants(MomentProfile(1.0, 1e308, 1e308, 0.0)),
     "^alpha_hat is beyond float range$"),
    (lambda: derived_constants(MomentProfile(10**308, 10**308, 10**308, 0)),
     "^alpha_hat is beyond float range$"),
], ids=["m2-squared", "alpha_hat", "int-alpha_hat"])
def test_moment_constants_that_overflow_raise_value_error(build, match):
    # m2 ** 2 raised OverflowError, and an infinite alpha_hat gave alpha = inf
    # and epsilon0 = nan; int constants, whose sum cannot overflow to inf, raised
    # "OverflowError: int too large to convert to float"
    with pytest.raises(ValueError, match=match):
        build()


def _epsilon0_reference(profile: MomentProfile) -> float:
    """epsilon0 by the formula as written, (10/(27 alpha)) (sqrt(36 tau4^2 + 27 alpha beta
    / 10) - 6 |tau4|), in decimal arithmetic of 2,000 digits, which the cancellation of
    the subtraction cannot exhaust for any pair of floats, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        t2, t3, t4 = (Decimal(t) for t in (profile.tau2, profile.tau3, profile.tau4))
        t4_minus = max(-t4, Decimal(0))
        alpha, beta = t2 + t3 - t4_minus, t3 - t4_minus
        return float(10 / (27 * alpha)
                     * ((36 * t4 ** 2 + 27 * alpha * beta / 10).sqrt() - 6 * abs(t4)))


@pytest.mark.parametrize("profile", [
    *(moment_profile(e) for e in ALL_ENSEMBLES),
    MomentProfile(1e-170, 1e-170, 1e-170, 0.0),
    MomentProfile(1.0, 5e-324, 5e-324, 0.0),
    MomentProfile(1.0, 1e-300, 1e-300, 1e153),
    MomentProfile(1.0, 1.0, 1.0, -1.0 + 2.0 ** -52),
    MomentProfile(1.0, 1e-300, 1.0, -1.0 + 2.0 ** -52),
    MomentProfile(1.0, 1e150, 1.0, -1.0 + 2.0 ** -52),
    MomentProfile(1.0, 1.0, 2.0 ** -1074, 0.0),
    MomentProfile(1.0, 1.0, 2.0 ** -1074, 1e150),
    MomentProfile(1.0, 5e152, 5e152, 0.0),
    MomentProfile(1.0, 1.0, 1.0, 1e200),
    MomentProfile(1e-300, 1e-300, 1e-300, -1e-301),
    MomentProfile(1.0, 0.01, 0.01, 1.7e307),
    MomentProfile(1.0, 1e308, 5e-324, 0.0),
], ids=[*(f"{e.field.value}-{e.entry.name}" for e in ALL_ENSEMBLES),
        "tiny-scale", "least-tau2-tau3", "tiny-tau2-tau3-huge-tau4", "tau3+tau4=ulp",
        "tiny-tau2", "huge-tau2", "least-tau3", "least-tau3-huge-tau4", "alpha_hat=1e153",
        "tau4-squared", "tiny-negative-tau4", "subnormal-huge-tau4-over-beta",
        "subnormal-huge-alpha-over-beta"])
def test_epsilon0_matches_a_high_precision_reference(profile):
    # the formula as written cancelled to 0.0 at tiny scale, gave nan at the
    # least tau3, inf for a huge tau4 over tiny tau2 and tau3, and was off by
    # 1.1e-14 relative on real ternary; tau4 = 1e200 raised ValueError; the two
    # subnormal cases gave 0.0, as |tau4| / beta or sqrt(alpha) / sqrt(beta) overflowed
    expected = _epsilon0_reference(profile)
    got = derived_constants(profile).epsilon0
    if expected == 0.0:
        assert got == 0.0
    elif expected < sys.float_info.min:
        # a relative bound underflows to equality here; allow one subnormal step
        assert abs(got - expected) <= math.ulp(0.0)
    else:
        assert abs(got - expected) <= 1e-15 * expected


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
    pytest.param(-10 ** 5000, 3, "N", id="-10**5000-3-N"),
])
def test_sampling_requires_integer_sizes(N, d, name):
    # a float N raised TypeError from inside the ternary draw, a bool N
    # "an integer is required", a negative N numpy's "negative dimensions",
    # and an N too long to print the int-to-text conversion's ValueError
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        sample_measurements(Ensemble(Field.REAL, TERNARY), N, d, seed=0)


@pytest.mark.parametrize("rows", [
    np.ones(3), np.ones((0, 3)), np.ones((3, 0)), np.ones((2, 2, 2)),
    np.ones((2, 2), dtype=bool), np.array([["1", "0"]]), np.array([[1.0, None]]),
    np.ones((4, 2), dtype="m8[s]"),
], ids=["1-D", "N=0", "d=0", "3-D", "bool", "str", "object", "timedelta"])
def test_measurement_set_rejects_rows_that_are_not_a_nonempty_2d_numeric_array(rows):
    # 1-D rows gave gsi a z0 and solve an IndexError; N=0 rows gave gsi a
    # ZeroDivisionError, solve a NON_FINITE report and build_Y a NaN matrix;
    # durations were taken as float64 rows
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
    got = sample_measurements(Ensemble(Field.COMPLEX, TERNARY), *shape,
                              np.random.default_rng(8)).vectors
    rng = np.random.default_rng(8)
    u = rng.integers(-1, 2, shape, dtype=np.int32)
    v = rng.integers(-1, 2, shape, dtype=np.int32)
    expected = (u + 1j * v) / math.sqrt(2.0)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class _NumpyDraw(Exception):
    """Raised by `_NoNumpyDraw.integers`: the ternary draw fell back to numpy's."""


class _NoNumpyDraw(np.random.Generator):
    """A generator whose `integers` raises, to tell which path a ternary draw takes."""

    def integers(self, *args, **kwargs):
        raise _NumpyDraw


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (5, 3), (4, 6), (257, 33)], ids=str)
def test_ternary_draw_on_pcg64_with_no_buffered_half_takes_the_raw_word_path(shape):
    # an edit that sent every draw to numpy's would pass every value test and
    # only show as a slower benchmark
    for seed in range(5):
        rng, ref = _NoNumpyDraw(np.random.PCG64(seed)), np.random.default_rng(seed)
        _assert_ternary_draw_matches(rng, ref, shape)


def _buffered_half() -> np.random.BitGenerator:
    bitgen = np.random.PCG64(3)
    np.random.Generator(bitgen).integers(0, 7, dtype=np.int32)
    assert bitgen.state["has_uint32"] == 1
    return bitgen


@pytest.mark.parametrize("make", [
    _buffered_half,
    lambda: _pcg64_about_to_output(0, 5).bit_generator,
    lambda: _pcg64_about_to_output(5, 0).bit_generator,
    lambda: np.random.Philox(0),
], ids=["buffered-half", "low-zero", "high-zero", "philox"])
@pytest.mark.parametrize("shape", [(2,), (3,), (4, 5)], ids=str)
def test_ternary_draw_in_other_states_is_numpy_draw(make, shape):
    with pytest.raises(_NumpyDraw):
        TERNARY.sampler(_NoNumpyDraw(make()), shape)
    _assert_ternary_draw_matches(np.random.Generator(make()), np.random.Generator(make()), shape)


# every seeded public function, called with only its seed to set
_SEEDED = {
    "sample_measurements":
        lambda seed: sample_measurements(Ensemble(Field.REAL, TERNARY), 4, 2, seed),
    "generate_signal": lambda seed: generate_signal(3, seed),
    "power_method": lambda seed: power_method(np.diag([2.0, 1.0]), iters=3, seed=seed),
    "gsi": lambda seed: gsi(_MSET, _INTENSITIES, moment_profile(Ensemble(Field.REAL, GAUSSIAN)),
                            power_iters=3, seed=seed),
    "baseline_si": lambda seed: baseline_si(_MSET, _INTENSITIES, power_iters=3, seed=seed),
    "mc_condition_residual": lambda seed: mc_condition_residual(
        Ensemble(Field.REAL, TERNARY), 3, np.ones(3), n_samples=10_000, seed=seed),
    "mc_F_residual": lambda seed: mc_F_residual(
        Ensemble(Field.COMPLEX, TERNARY), np.ones(2), n_samples=10_000, seed=seed),
    "concentration_curve": lambda seed: concentration_curve(
        Ensemble(Field.REAL, TERNARY), 2, np.ones(2), [4], trials=20, seed=seed),
}
_MSET = sample_measurements(Ensemble(Field.REAL, GAUSSIAN), 8, 2, 0)
_INTENSITIES = measure(_MSET, np.ones(2))


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True, None], ids=repr)
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seeded_functions_reject_a_seed_that_is_not_seedlike(name, seed):
    # -1 raised numpy's "expected non-negative integer", 1.5 and "a" a
    # TypeError, True ran as seed 1 and None drew fresh OS entropy
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, a SeedSequence or "
                                         f"a Generator, got {seed!r}$"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seeded_functions_keep_the_stream_of_every_seedlike(name):
    results = [pickle.dumps(_SEEDED[name](seed)) for seed in (
        3, np.int64(3), np.uint8(3), np.random.SeedSequence(3))]
    assert results[1:] == results[:-1]
    assert pickle.dumps(_SEEDED[name](4)) != results[0]
    assert pickle.dumps(_SEEDED[name](np.random.default_rng(3))) \
        == pickle.dumps(_SEEDED[name](np.random.default_rng(3)))


def test_the_seed_table_names_every_seeded_export():
    # a new seeded entry point must join the table, so that the tests above check it
    seeded = {name for name, obj in vars(phasekit).items()
              if callable(obj) and not name.startswith("_")
              and "seed" in inspect.signature(obj).parameters}
    assert seeded == set(_SEEDED)


# every public function that takes one of phasekit's objects, called with
# only that argument to set
_PROFILE = moment_profile(Ensemble(Field.REAL, GAUSSIAN))
_OBJECT_ARGS = {
    ("measure", "mset"): lambda v: measure(v, np.ones(2)),
    ("build_Y", "mset"): lambda v: build_Y(v, _INTENSITIES),
    ("gsi", "mset"): lambda v: gsi(v, _INTENSITIES, _PROFILE),
    ("gsi", "profile"): lambda v: gsi(_MSET, _INTENSITIES, v),
    ("baseline_si", "mset"): lambda v: baseline_si(v, _INTENSITIES),
    ("objective", "mset"): lambda v: objective(np.ones(2), v, _INTENSITIES),
    ("gradient", "mset"): lambda v: gradient(np.ones(2), v, _INTENSITIES),
    ("solve", "mset"): lambda v: solve(v, _INTENSITIES, np.ones(2)),
    ("solve", "config"): lambda v: solve(_MSET, _INTENSITIES, np.ones(2), v),
    ("build_M", "profile"): lambda v: build_M(np.eye(2), 1.0, v),
    ("condition_expectation", "profile"): lambda v: condition_expectation(v, np.ones(2)),
    ("f_block_expectation", "profile"): lambda v: f_block_expectation(v, np.ones(2, complex)),
    ("derived_constants", "profile"): derived_constants,
    ("moment_profile", "ensemble"): moment_profile,
    ("sample_measurements", "ensemble"): lambda v: sample_measurements(v, 4, 2, 0),
    ("mc_condition_residual", "ensemble"):
        lambda v: mc_condition_residual(v, 2, np.ones(2), n_samples=10_000),
    ("mc_F_residual", "ensemble"): lambda v: mc_F_residual(v, np.ones(2), n_samples=10_000),
    ("concentration_curve", "ensemble"):
        lambda v: concentration_curve(v, 2, np.ones(2), [4], trials=20),
    ("run_init_experiment", "config"): run_init_experiment,
    ("run_recovery_experiment", "config"): run_recovery_experiment,
    ("run_recovery_trial", "config"): lambda v: run_recovery_trial(v, 4, 0),
    ("generate_signal", "field"): lambda v: generate_signal(3, 0, v),
}
# a stand-in of the wrong type per parameter name: the rows, a law's name,
# the profile's taus, a mapping of settings and a field's value
_NOT_AN_OBJECT = {"mset": _MSET.vectors, "ensemble": "ternary",
                  "profile": (1.0, 1.0, 2.0, 0.0), "config": {"max_iters": 3},
                  "field": "complex"}
_OBJECT_TYPES = (MeasurementSet, Ensemble, MomentProfile, SolverConfig, ExperimentConfig, Field)


@pytest.mark.parametrize("name, parameter", sorted(_OBJECT_ARGS),
                         ids=[f"{n}-{p}" for n, p in sorted(_OBJECT_ARGS)])
def test_object_arguments_of_the_wrong_type_are_rejected_by_name(name, parameter):
    # rows for a MeasurementSet raised "'numpy.ndarray' object has no attribute
    # 'N'", a law's name for an Ensemble "'str' object has no attribute 'entry'"
    cls = inspect.signature(getattr(phasekit, name), eval_str=True).parameters[parameter]
    with pytest.raises(ValueError, match=f"^{parameter} must be an instance of "
                                         f"{cls.annotation.__name__}, got "):
        _OBJECT_ARGS[name, parameter](_NOT_AN_OBJECT[parameter])


def test_the_object_table_names_every_object_parameter():
    # a new public function taking one of these objects must join the table,
    # so that the test above checks it
    annotated = {(name, p.name) for name, obj in vars(phasekit).items()
                 if inspect.isfunction(obj) and not name.startswith("_")
                 for p in inspect.signature(obj, eval_str=True).parameters.values()
                 if p.annotation in _OBJECT_TYPES}
    assert annotated == set(_OBJECT_ARGS)
