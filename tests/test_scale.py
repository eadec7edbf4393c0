"""README's "One scale rule": one row per kernel of the rule, and one row per named raise.

`_SCALES` gives each kernel its scales, and `_kernels(field)` its call and the name of a
result of it beyond float range; `_RANGE` gives each named raise its call and whole message.
No table calls the library while it is collected, so a broken kernel fails its own rows. The
completeness test fails when a public function is neither a kernel nor in `_OUTSIDE_THE_RULE`.
"""
import inspect
import math
import re

import numpy as np
import pytest

import phasekit
from phasekit import (GAUSSIAN, TERNARY, Ensemble, EntryDistribution, ExperimentConfig,
                      ExperimentKind, Field, MeasurementSet, SolverConfig, baseline_si, build_M,
                      build_Y, concentration_curve, condition_expectation, dist,
                      f_block_expectation, gradient, gsi, hermitian_opnorm, mc_F_residual,
                      mc_condition_residual, measure, moment_profile, objective, power_method,
                      rho_from_intensities, run_recovery_trial, sample_measurements, solve,
                      trial_seed)

TERNARY_REAL = Ensemble(Field.REAL, TERNARY)


def _ldexp(v, k):
    """v * 2^k, exactly while it stays normal, for a float or a real or complex array."""
    v = np.asarray(v)
    return np.ldexp(v.view(np.float64), k).view(v.dtype)


def _report(rep) -> list:
    """An oracle report's residual, tolerance and `passed`, the last as a float of k = 0."""
    return list(zip([rep.residual, rep.tolerance, float(rep.passed)], [2, 2, 0]))


def _init(init) -> list:
    """An InitResult's z0 and rho, k = 1, and its lam and residual, k = 2."""
    return [(init.z0, 1), (init.rho, 1), (init.lam, 2), (init.residual, 2)]


_WIDE, _CHAIN = (-600, 520), (-500, 500)
_SCALES = {"measure": _WIDE, "objective": _WIDE, "gradient": _WIDE, "dist": _WIDE,
           "rho_from_intensities": _WIDE, "build_Y": _WIDE, "build_M": (-100, -1, 1, 100),
           "power_method": _WIDE, "gsi": _CHAIN, "baseline_si": _CHAIN, "solve": _CHAIN,
           "condition_expectation": _WIDE, "f_block_expectation": _WIDE,
           "mc_condition_residual": _WIDE, "mc_F_residual": _WIDE, "concentration_curve": _WIDE}


def _kernels(field) -> dict:
    """Each kernel of the rule as (call(j), the name of a result beyond float range, None
    where its `_SCALES` keep every result in range), with points taken to 2^j and
    intensities to 2^(2j). A point that meets intensities sits near 2^-12, so 2^(2j) y stays
    in range at j = 520; rho's tau1 goes to 2^-j, so its inputs stay in range too. The
    gsi/solve chain runs at d = 32, and build_M's rho is one whose square glibc 2.36 misrounds."""
    ens = Ensemble(field, TERNARY)
    profile = moment_profile(ens)
    ms = sample_measurements(ens, 24, 6, seed=7)
    z, x = sample_measurements(Ensemble(field, GAUSSIAN), 2, 6, seed=6).vectors
    zs, ys = _ldexp(z, -12), measure(ms, _ldexp(x, -12))
    M, rho = build_Y(ms, measure(ms, x)), 7.117367069018061
    y3 = _ldexp(np.array([3.0, 3.0, 0.25]), 502)  # at 2^520 its sum is beyond float range
    chain = sample_measurements(ens, 8 * 32, 32, seed=3)
    y = measure(chain, sample_measurements(Ensemble(field, GAUSSIAN), 1, 32, seed=4).vectors[0])
    z0 = gsi(chain, y, profile, seed=5).z0

    def solved(j):
        rep = solve(chain, _ldexp(y, 2 * j), _ldexp(z0, j), SolverConfig(trace=True))
        return [(z, 1) for z in rep.iterates] + [(float(rep.iterations), 0)]

    return {
        "measure": (lambda j: [(measure(ms, _ldexp(x, j)), 2)], "y_j = |<a_j, x>|^2"),
        "objective": (lambda j: [(objective(_ldexp(zs, j), ms, _ldexp(ys, 2 * j)), 4)],
                      "the objective"),
        "gradient": (lambda j: [(gradient(_ldexp(zs, j), ms, _ldexp(ys, 2 * j)), 3)],
                     "the gradient"),
        "dist": (lambda j: [(dist(_ldexp(z, j), _ldexp(x, j)), 1)], "the distance of z and x"),
        "rho_from_intensities": (lambda j: [(rho_from_intensities(
            _ldexp(y3, j), math.ldexp(2.0, -j)), 1)], "rho = sqrt(sum(intensities) / (tau1 N))"),
        "build_Y": (lambda j: [(build_Y(ms, _ldexp(ys, 2 * j)), 2)], "Y"),
        "build_M": (lambda j: [(build_M(_ldexp(M, 2 * j), math.ldexp(rho, j), profile), 2)], None),
        "power_method": (lambda j: list(zip(power_method(_ldexp(M, j)), [1, 0, 1])), "lam"),
        "gsi": (lambda j: _init(gsi(chain, _ldexp(y, 2 * j), profile, seed=5)), "z0"),
        "baseline_si": (lambda j: _init(baseline_si(chain, _ldexp(y, 2 * j), seed=6)), "z0"),
        "solve": (solved, None),
        "condition_expectation": (lambda j: [(condition_expectation(
            profile, _ldexp(x, j)), 2)], "E((x* A x) A)"),
        "f_block_expectation": (lambda j: [(f_block_expectation(
            profile, _ldexp(x, j)), 2)], "the F block"),
        "mc_condition_residual": (lambda j: _report(mc_condition_residual(
            ens, 6, _ldexp(x, j), 10_000, 8)), "the residual of condition-II-identity"),
        "mc_F_residual": (lambda j: _report(mc_F_residual(
            Ensemble(Field.COMPLEX, TERNARY), _ldexp(x, j), 10_000, 8)),
            "the residual of stacked-block-identity"),
        "concentration_curve": (lambda j: list(zip(list(concentration_curve(
            ens, 6, _ldexp(x, j), [12], 20, 8)[0].to_dict().values())[1:], [2, 2, 2, 2, 0, 0])),
            "y_dev_median"),
    }


def _bits(values) -> list:
    """The dtype and bytes of each value, its zeros taken as +0.0: an entry whose inputs
    underflow too may round to a zero of either sign."""
    return [(np.asarray(v).dtype.str, (np.asarray(v) + 0.0).tobytes()) for v in values]


@pytest.mark.parametrize("kernel, field, j", [
    pytest.param(kernel, field, j, id=f"{kernel}-{field.value}-{j}")
    for field in Field for kernel, scales in _SCALES.items() for j in scales])
def test_every_kernel_gives_the_same_bits_at_any_power_of_two_scale(kernel, field, j):
    # f(2^j z; 2^(2j) y) = 2^(k j) f(z; y): bit for bit where the scaled value is a
    # normal float, its rounding where it underflows, and a ValueError that names it
    # where it overflows. At 2^-600 dist's squares underflowed to 0.0 for distinct
    # vectors, power_method broke down and concentration_curve's rho columns read 0.0;
    # at 2^520 measure, objective, gradient and both matrix oracles returned inf with
    # numpy's "overflow encountered" warning, and both expectations nan with "invalid
    # value encountered in multiply". At 2^-500 gsi raised "power method breaks down";
    # at 2^500 _Y leaked "overflow encountered in matmul", then raised "Y must be a
    # finite square matrix". build_M's rho ** 2 called libm pow, which misrounds the
    # square of its rho but not of 2^j rho, so M differed from the scaled M in a bit
    call, name = _kernels(field)[kernel]
    with np.errstate(over="ignore"):
        want = [_ldexp(v, k * j) for v, k in call(0)]
    if all(np.isfinite(v).all() for v in want):
        assert _bits(v for v, _ in call(j)) == _bits(want)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} is beyond float range"):
            call(j)


# the public functions outside the rule, each with its reason
_OUTSIDE_THE_RULE = {
    "sample_measurements": "draws rows, which the rule leaves unscaled",
    "generate_signal": "draws a signal at the protocol's scale",
    "moment_profile": "gives a law's constants, which no signal scales",
    "derived_constants": "gives a profile's constants, which no signal scales",
    "trial_seed": "gives a seed, no value that scales",
    "hermitian_opnorm": "calls LAPACK's eigvalsh, which is not shown exact under scaling",
    "convergence_rate_fit": "fits a trace of errors down to an absolute floor, 1e-12",
    "run_init_experiment": "runs the protocol on signals at its own scale",
    "run_recovery_experiment": "runs the protocol on signals at its own scale",
    "run_recovery_trial": "runs the protocol on a signal at its own scale",
}


def test_every_public_function_is_a_row_or_outside_the_rule():
    # a new public kernel must join the table, or be named outside the rule with a reason
    public = {name for name, obj in vars(phasekit).items()
              if not name.startswith("_") and inspect.isfunction(obj)}
    rows, outside = set(_SCALES), set(_OUTSIDE_THE_RULE)
    assert all(set(_kernels(field)) == rows for field in Field)
    assert sorted(public - rows - outside) == []
    assert sorted((rows | outside) - public) == [] and rows.isdisjoint(outside)


# a call with numpy's overflow and invalid warnings off: rows or a law so large that a
# unit-scale product overflows are outside the rule, but the result still raises
_quiet = np.errstate(over="ignore", invalid="ignore")
_EYE, _ONES, _X3 = MeasurementSet(np.eye(2)), np.ones(2), np.array([1.0, -2.0, 0.5])
_ROWS_1E200, _ROWS_1E160 = (MeasurementSet(np.diag([s, 1.0])) for s in (1e200, 1e160))
_HUGE = EntryDistribution("huge", 1.0, 3.0, lambda rng, shape: 1e160 * rng.standard_normal(shape))
_X4 = np.ldexp([1.0, -2.0, 0.5, 1.5], 520)
_COMPLEX = Ensemble(Field.COMPLEX, TERNARY)
_BEYOND = " is beyond float range"
_RANGE = [  # (id, call, its whole message); "near 2^t" gives the size of a finite result
    ("measure", lambda: measure(_EYE, np.full(2, 1e200)),
     "y_j = |<a_j, x>|^2" + _BEYOND + ", near 2^1329"),
    ("objective", lambda: objective(np.full(2, 1e100), _EYE, _ONES),
     "the objective" + _BEYOND + ", near 2^1328"),
    ("gradient", lambda: gradient(np.full(2, 1e110), _EYE, _ONES),
     "the gradient" + _BEYOND + ", near 2^1096"),
    ("dist", lambda: dist(np.array([1e308, 1e308]), np.array([1e308, -1e308])),
     "the distance of z and x" + _BEYOND + ", near 2^1025"),
    ("rho_from_intensities-1e-320", lambda: rho_from_intensities([1e308], 1e-320),
     "rho = sqrt(sum(intensities) / (tau1 N))" + _BEYOND + ", near 2^1044"),
    ("rho_from_intensities-5e-324", lambda: rho_from_intensities([1e308, 1e308], 5e-324),
     "rho = sqrt(sum(intensities) / (tau1 N))" + _BEYOND + ", near 2^1049"),
    ("build_M-square-of-rho", lambda: build_M(np.eye(2), 1e200, moment_profile(TERNARY_REAL)),
     "M's diagonal at rho=1e+200" + _BEYOND),
    ("build_M-diagonal", lambda: build_M(1e308 * np.eye(2), 0.0, moment_profile(TERNARY_REAL)),
     "M's diagonal at rho=0.0" + _BEYOND),
    ("build_M-int-rho", lambda: build_M(np.eye(2), 10**200, moment_profile(TERNARY_REAL)),
     "M's diagonal at rho=1e+200" + _BEYOND),
    ("condition_expectation", lambda: condition_expectation(moment_profile(TERNARY_REAL),
                                                            np.full(2, 1e160)),
     "E((x* A x) A)" + _BEYOND + ", near 2^1064"),
    ("f_block_expectation", lambda: f_block_expectation(moment_profile(_COMPLEX),
                                                        np.full(2, 1e160) + 0j),
     "the F block" + _BEYOND + ", near 2^1064"),
    ("mc_condition_residual", lambda: mc_condition_residual(TERNARY_REAL, 4, _X4, 10_000),
     "the residual of condition-II-identity" + _BEYOND + ", near 2^1038"),
    ("mc_F_residual", lambda: mc_F_residual(_COMPLEX, _X4 + 0j, 10_000),
     "the residual of stacked-block-identity" + _BEYOND + ", near 2^1039"),
    ("concentration_curve", lambda: concentration_curve(TERNARY_REAL, 4, _X4, [64], 20),
     "y_dev_median" + _BEYOND + ", near 2^1042"),
    ("hermitian_opnorm", lambda: hermitian_opnorm(np.full((2, 2), 1e308)),
     "the operator norm of H" + _BEYOND),
    ("measure-huge-rows", _quiet(lambda: measure(_ROWS_1E200, _ONES)),
     "y_j = |<a_j, x>|^2" + _BEYOND),
    ("objective-huge-rows", _quiet(lambda: objective(_ONES, _ROWS_1E200, _ONES)),
     "the objective" + _BEYOND),
    ("gradient-huge-rows", _quiet(lambda: gradient(_ONES, _ROWS_1E200, _ONES)),
     "the gradient" + _BEYOND),
    ("build_Y-huge-rows", _quiet(lambda: build_Y(_ROWS_1E160, _ONES)), "Y" + _BEYOND),
    ("gsi-huge-rows", _quiet(lambda: gsi(_ROWS_1E160, _ONES, moment_profile(TERNARY_REAL))),
     "Y" + _BEYOND),
    ("baseline_si-huge-rows", _quiet(lambda: baseline_si(_ROWS_1E160, _ONES)), "Y" + _BEYOND),
    ("mc_condition_residual-huge-law", _quiet(lambda: mc_condition_residual(
        Ensemble(Field.REAL, _HUGE), 3, _X3, 20_000)),
     "the mean of the chunk means of ensemble-mean-identity" + _BEYOND),
    ("mc_F_residual-huge-law", _quiet(lambda: mc_F_residual(
        Ensemble(Field.COMPLEX, _HUGE), _X3 + 0j, 20_000)),
     "the mean of the chunk means of stacked-block-identity" + _BEYOND),
    ("concentration_curve-huge-law", _quiet(lambda: concentration_curve(
        Ensemble(Field.REAL, _HUGE), 3, _X3, [16], 20)), "Y" + _BEYOND),
    ("ExperimentConfig-ratio", lambda: ExperimentConfig(
        ExperimentKind.SUCCESS_RATE, TERNARY_REAL, ratio_grid=(2, 1e306)),
     "1000 * ratio_grid[1]" + _BEYOND),
    ("trial_seed-ratio", lambda: trial_seed(0, 1e306, 0), "1000 * ratio" + _BEYOND),
    ("run_recovery_trial-ratio", lambda: run_recovery_trial(ExperimentConfig(
        ExperimentKind.SUCCESS_RATE, TERNARY_REAL, d=16, ratio_grid=(6,)), 1e306, 0),
     "1000 * ratio" + _BEYOND),
    ("solve-y-at-z0-scale", lambda: solve(_EYE, _ONES, np.full(2, 2.0 ** -600)),
     "y at z0's scale (y * 2^1198) is beyond float range, near 2^1199"),
]


@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=label)
                                           for label, call, message in _RANGE])
def test_a_result_beyond_float_range_raises_naming_it(call, message):
    # each returned inf with numpy's "overflow encountered" warning, or nan with "invalid
    # value"; rho_from_intensities and hermitian_opnorm inf with none; build_M's rho ** 2
    # raised OverflowError, as did the int() of a ratio's key 1000 * ratio. With huge rows or
    # law the unit-scale result overflows: measure returned [inf, 1.], gsi raised "Y must be a
    # finite square matrix", baseline_si "power method breaks down", both matrix oracles "H
    # must be a finite square matrix" and concentration_curve named rho, formed after Y
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
