import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from phasekit import (
    GAUSSIAN,
    TERNARY,
    UNIFORM,
    Ensemble,
    Field,
    MeasurementSet,
    MomentProfile,
    derived_constants,
    moment_profile,
    sample_measurements,
)
from phasekit.ensembles import _TERNARY_BLOCK

ALL_ENSEMBLES = [
    Ensemble(f, e) for f in (Field.REAL, Field.COMPLEX)
    for e in (GAUSSIAN, UNIFORM, TERNARY)
]


def test_builtin_moments_exact():
    assert (UNIFORM.m2, UNIFORM.m4) == (1 / 3, 1 / 5)
    assert (TERNARY.m2, TERNARY.m4) == (2 / 3, 2 / 3)
    assert (GAUSSIAN.m2, GAUSSIAN.m4) == (1.0, 3.0)


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


def test_derived_constants_real_gaussian():
    c = derived_constants(moment_profile(Ensemble(Field.REAL, GAUSSIAN)))
    assert c.alpha == 3.0 and c.beta == 2.0 and c.alpha_hat == 3.0
    assert c.epsilon0 == pytest.approx(math.sqrt(20 / 81), rel=1e-12)
    # the same profile of ints: the range check of alpha_hat takes an int as it is
    assert derived_constants(MomentProfile(1, 1, 2, 0)) == c
    # and of Fractions, which the decimal evaluation of epsilon0 takes as floats
    assert derived_constants(MomentProfile(*map(Fraction, (1, 1, 2, 0)))) == c


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


@pytest.mark.parametrize("law", [
    *ALL_ENSEMBLES,
    (1e-170, 1e-170, 1e-170, 0.0),
    (1.0, 5e-324, 5e-324, 0.0),
    (1.0, 1e-300, 1e-300, 1e153),
    (1.0, 1.0, 1.0, -1.0 + 2.0 ** -52),
    (1.0, 1e-300, 1.0, -1.0 + 2.0 ** -52),
    (1.0, 1e150, 1.0, -1.0 + 2.0 ** -52),
    (1.0, 1.0, 2.0 ** -1074, 0.0),
    (1.0, 1.0, 2.0 ** -1074, 1e150),
    (1.0, 5e152, 5e152, 0.0),
    (1.0, 1.0, 1.0, 1e200),
    (1e-300, 1e-300, 1e-300, -1e-301),
    (1.0, 0.01, 0.01, 1.7e307),
    (1.0, 1e308, 5e-324, 0.0),
], ids=[*(f"{e.field.value}-{e.entry.name}" for e in ALL_ENSEMBLES),
        "tiny-scale", "least-tau2-tau3", "tiny-tau2-tau3-huge-tau4", "tau3+tau4=ulp",
        "tiny-tau2", "huge-tau2", "least-tau3", "least-tau3-huge-tau4", "alpha_hat=1e153",
        "tau4-squared", "tiny-negative-tau4", "subnormal-huge-tau4-over-beta",
        "subnormal-huge-alpha-over-beta"])
def test_epsilon0_matches_a_high_precision_reference(law):
    # the formula as written cancelled to 0.0 at tiny scale, gave nan at the
    # least tau3, inf for a huge tau4 over tiny tau2 and tau3, and was off by
    # 1.1e-14 relative on real ternary; tau4 = 1e200 raised ValueError; the two
    # subnormal cases gave 0.0, as |tau4| / beta or sqrt(alpha) / sqrt(beta) overflowed
    profile = moment_profile(law) if isinstance(law, Ensemble) else MomentProfile(*law)
    expected = _epsilon0_reference(profile)
    assert derived_constants(profile).epsilon0 == expected


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


# the entries of one block of a ternary draw: two 32-bit halves per raw word
_ENTRIES = 2 * _TERNARY_BLOCK


def _assert_ternary_draw_matches(rng, ref, shape):
    """TERNARY's draw from rng against numpy's int32 draw from ref: the same
    values and the same generator state after it."""
    got = TERNARY.sampler(rng, shape)
    want = ref.integers(-1, 2, shape, dtype=np.int32)
    assert got.shape == want.shape and np.array_equal(got, want)
    np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)  # Philox's holds arrays


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (5, 3), (4, 6), (257, 33), (0,),
                                   (2 * _ENTRIES,), (2 * _ENTRIES + 1,), (4 * _ENTRIES - 1,),
                                   (2560, 128)], ids=str)
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


def _pcg64_about_to_output(low: int, high: int, word: int = 0) -> np.random.Generator:
    """A PCG64 generator whose 64-bit output number `word`, counted from 0, so
    by default its next, has these 32-bit halves. PCG64 steps
    s -> s * MULT + inc and outputs rotr(hi(s) ^ lo(s), s >> 122) of the new
    state; a new state with its top six bits zero does not rotate, so its
    output is hi(s) ^ lo(s). Then it steps back `word` outputs."""
    inc, hi = 0xDA3E39CB94B95BDB, 0x0123456789ABCDEF
    new_state = (hi << 64) | (hi ^ (high << 32 | low))
    state = (new_state - inc) * pow(_PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    bitgen.advance(-word % 2 ** 128)
    probe = np.random.PCG64()
    probe.state = bitgen.state
    assert int(probe.random_raw(word + 1)[-1]) == high << 32 | low
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


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (5, 3), (4, 6), (257, 33),
                                   (2 * _ENTRIES + 1,), (2560, 128)], ids=str)
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


@pytest.mark.parametrize("low, high", [(0, 5), (5, 0)], ids=["low-zero", "high-zero"])
@pytest.mark.parametrize("word", [_TERNARY_BLOCK, _TERNARY_BLOCK + 3, 2 * _TERNARY_BLOCK - 1],
                         ids=["second-block-first", "second-block-fourth", "second-block-last"])
def test_ternary_draw_replays_numpy_past_a_zero_word_in_a_later_block(low, high, word):
    # the blocks before it were already mapped, and must be drawn again by numpy
    shape = (4 * _ENTRIES - 1,)
    with pytest.raises(_NumpyDraw):
        TERNARY.sampler(_NoNumpyDraw(_pcg64_about_to_output(low, high, word).bit_generator), shape)
    rng, ref = (_pcg64_about_to_output(low, high, word) for _ in range(2))
    _assert_ternary_draw_matches(rng, ref, shape)
    _assert_ternary_draw_matches(rng, ref, (5,))


def test_ternary_draw_holds_one_block_of_raw_words(traced_peak):
    # all raw words of the draw and two full-size masks beside its int8 values
    # read 6.01 B per entry
    rng, shape = np.random.default_rng(0), (8192, 128)
    peak = traced_peak(lambda: TERNARY.sampler(rng, shape))
    assert peak < 2 * math.prod(shape)


def test_ternary_draw_releases_each_block_of_raw_words_before_the_next(traced_peak):
    # the int8 values, one 256 KiB block of raw words and its mask read 1.32 B per
    # entry; the previous block, kept alive while the next was drawn, read 1.56
    rng, shape = np.random.default_rng(0), (8192, 128)
    assert traced_peak(lambda: TERNARY.sampler(rng, shape)) <= 1.35 * math.prod(shape)
