"""The argument contract of every public function: one test per kind of argument.

Every public function checks its arguments by their kind, one rule per kind, and raises
ValueError with a message that names the argument and the rule; each kind's section below
states its rule. CALLS gives every public function and checked class of phasekit one valid
call on a tiny problem, by keyword, so a test sets any parameter by name; every count in it
is at its floor. `kind` sorts the public parameters into the kinds by name or annotation. Each
kind's tests take their cases from that scan and assert the kind's whole message, and
`test_the_table_names_every_parameter_of_a_kind` fails when a parameter of the kind is
missing from CALLS. A rejection test that takes the `checked_first` fixture runs with
spectral's `_Y` disabled, so a call that forms Y before it checks its arguments fails.
"""

import collections.abc
import dataclasses
import inspect
import math
import typing
from typing import Optional, Union

import numpy as np
import pytest

import phasekit
from phasekit import (
    GAUSSIAN,
    BarzilaiBorwein,
    Ensemble,
    EntryDistribution,
    ExperimentConfig,
    ExperimentKind,
    Field,
    MeasurementSet,
    MomentProfile,
    SolverConfig,
    derived_constants,
)

# the values of sample_measurements(_REAL or _COMPLEX, 4, 2, 0), measure(_MSET, np.ones(2))
# and moment_profile(_REAL), built without them so a broken kernel fails only its own rows
_REAL, _COMPLEX = Ensemble(Field.REAL, GAUSSIAN), Ensemble(Field.COMPLEX, GAUSSIAN)
_MSET = MeasurementSet(np.random.default_rng(0).standard_normal((4, 2)))
_U, _V = np.random.default_rng(0).standard_normal((2, 4, 2))
_COMPLEX_MSET = MeasurementSet((_U + 1j * _V) / np.sqrt(2))
_Y = (_MSET.vectors @ np.ones(2)) ** 2
_PROFILE = MomentProfile(1.0, 1.0, 2.0, 0.0)
_RECOVERY = ExperimentConfig(ExperimentKind.SUCCESS_RATE, _REAL, d=2, ratio_grid=(1,), trials=1,
                             max_iters=1, base_seed=0)
_INIT = dataclasses.replace(_RECOVERY, kind=ExperimentKind.INIT_ERROR)

CALLS = {
    "EntryDistribution": dict(name="x", m2=1.0, m4=3.0, sampler=GAUSSIAN.sampler),
    "MomentProfile": dict(tau1=1.0, tau2=1.0, tau3=2.0, tau4=0.0),
    "Ensemble": dict(field=Field.REAL, entry=GAUSSIAN),
    "MeasurementSet": dict(vectors=np.eye(2)),
    "moment_profile": dict(ensemble=_REAL),
    "derived_constants": dict(profile=_PROFILE),
    "sample_measurements": dict(ensemble=_REAL, N=1, d=1, seed=0),
    "FixedStep": dict(mu=1.0),
    "SolverConfig": dict(step_mode=BarzilaiBorwein(), max_iters=1, trace=False),
    "objective": dict(z=np.ones(2), mset=_MSET, y=_Y),
    "gradient": dict(z=np.ones(2), mset=_MSET, y=_Y),
    "dist": dict(z=np.ones(2), x=np.ones(2)),
    "solve": dict(mset=_MSET, y=_Y, z0=np.ones(2), config=SolverConfig(max_iters=1)),
    "measure": dict(mset=_MSET, x=np.ones(2)),
    "rho_from_intensities": dict(y=_Y, tau1=1.0),
    "build_Y": dict(mset=_MSET, y=_Y),
    "build_M": dict(Y=np.eye(2), rho=1.0, profile=_PROFILE),
    "power_method": dict(M=np.diag([2.0, 1.0]), iters=1, seed=0),
    "gsi": dict(mset=_MSET, y=_Y, profile=_PROFILE, power_iters=1, seed=0),
    "baseline_si": dict(mset=_MSET, y=_Y, power_iters=1, seed=0),
    "hermitian_opnorm": dict(H=np.eye(2)),
    "condition_expectation": dict(profile=_PROFILE, x=np.ones(2)),
    "f_block_expectation": dict(profile=_PROFILE, x=np.ones(2)),
    "mc_condition_residual": dict(ensemble=_REAL, d=1, x=np.ones(1), n_samples=10_000, seed=0),
    "mc_F_residual": dict(ensemble=_COMPLEX, x=np.ones(1, complex), n_samples=10_000, seed=0),
    "concentration_curve": dict(ensemble=_REAL, d=1, x=np.ones(1), N_grid=[1], trials=20, seed=0),
    "convergence_rate_fit": dict(trace=0.5 ** np.arange(10)),
    "ExperimentConfig": {f.name: getattr(_RECOVERY, f.name) for f in dataclasses.fields(_RECOVERY)},
    "trial_seed": dict(base_seed=0, ratio=1.0, trial=0),
    "generate_signal": dict(d=2, seed=0, field=Field.REAL),
    "run_init_experiment": dict(config=_INIT),
    "run_recovery_experiment": dict(config=_RECOVERY),
    "run_recovery_trial": dict(config=_RECOVERY, ratio=1.0, trial=0),
}
# a constant's bound, where it has one
_BOUNDS = {("EntryDistribution", "m2"): (">", 0), ("FixedStep", "mu"): (">", 0),
           ("rho_from_intensities", "tau1"): (">", 0), ("build_M", "rho"): (">=", 0),
           ("trial_seed", "ratio"): (">=", 0), ("run_recovery_trial", "ratio"): (">=", 0)}
# the vectors of any length; the others have the length of the rows, of d or of dist's z
_ANY_LENGTH = {("dist", "z"), ("condition_expectation", "x"), ("f_block_expectation", "x"),
               ("mc_F_residual", "x"), ("rho_from_intensities", "y")}


def call(fn: str, **override):
    """The table's call of fn, with the parameters of `override` set to its values."""
    return getattr(phasekit, fn)(**(CALLS[fn] | override))


def _public() -> dict:
    """The public functions and checked classes (those with `__post_init__`) of phasekit."""
    return {name: obj for name, obj in vars(phasekit).items() if not name.startswith("_") and
            (inspect.isfunction(obj) or inspect.isclass(obj) and hasattr(obj, "__post_init__"))}


# the parameter of no kind: convergence_rate_fit's trace has a rule of its own
_NO_KIND = {("convergence_rate_fit", "trace")}


def kind(fn: str, p: inspect.Parameter) -> Optional[str]:
    """The kind of parameter p of fn, or None."""
    a = p.annotation
    if (fn, p.name) in _NO_KIND:
        return None
    if p.name == "seed":
        return "seeds"
    if p.name.endswith("_grid"):
        return "grids"
    if a in (int, Optional[int]):
        return "counts"
    if a is float:
        return "constants"
    if a is np.ndarray:
        return "rows" if p.name == "vectors" else "matrices" if p.name.isupper() else "vectors"
    return "types" if typing.get_origin(a) in (None, Union, collections.abc.Callable) else None


_PARAMETERS = [(fn, p) for fn, obj in _public().items()
               for p in inspect.signature(obj, eval_str=True).parameters.values()]
KINDS = ("counts", "grids", "constants", "vectors", "matrices", "rows", "types", "seeds", "laws")


def scan(of_kind: str) -> list:
    """(fn, parameter) of every public parameter of the kind; the laws' are the ensembles of
    seeded functions, which draw rows from their law."""
    if of_kind == "laws":
        return [(fn, p) for fn, p in scan("types") if p.name == "ensemble"
                and any(f == fn and q.name == "seed" for f, q in _PARAMETERS)]
    return [(fn, p) for fn, p in _PARAMETERS if kind(fn, p) == of_kind]


def cases(of_kind: str, bad) -> list:
    """pytest.param(fn, p.name, value, message) of each (id, value, message) of bad(fn, p),
    for every (fn, p) of the kind."""
    return [pytest.param(fn, p.name, value, message, id=f"{fn}-{p.name}-{label}")
            for fn, p in scan(of_kind) for label, value, message in bad(fn, p)]


def _label(fn: str, p: str) -> str:
    """How a message names parameter p of fn."""
    if fn == "EntryDistribution":
        return "entry distribution name" if p == "name" else f"entry distribution 'x': {p}"
    return f"moment profile: {p}" if fn == "MomentProfile" else "intensities" if p == "y" else p


_HUGE = -10 ** 5000  # more digits than repr allows


def _shown(v) -> str:
    return "a negative int of 16610 bits" if v is _HUGE else repr(v)


def _form(v):
    """v as nested tuples of types and values, arrays as bytes: equal forms, equal bits."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if dataclasses.is_dataclass(v):
        return type(v), _form({f.name: getattr(v, f.name) for f in dataclasses.fields(v)})
    if isinstance(v, dict):
        return type(v), tuple((k, _form(w)) for k, w in v.items())
    if isinstance(v, (list, tuple)):
        return type(v), tuple(map(_form, v))
    return type(v), v.state if isinstance(v, np.random.SeedSequence) else v


@pytest.fixture
def checked_first(monkeypatch):
    def formed(*args, **kwargs):
        raise AssertionError("Y was formed before the arguments were checked")
    monkeypatch.setattr("phasekit.spectral._Y", formed)


def rejects(fn: str, message: str, **override) -> None:
    with pytest.raises(ValueError) as raised:
        call(fn, **override)
    assert str(raised.value) == message


@pytest.mark.parametrize("fn", sorted(CALLS))
def test_the_table_call_is_valid(fn):
    call(fn)


def test_the_table_calls_every_public_function_and_checked_class():
    assert sorted(CALLS) == sorted(_public())


@pytest.mark.parametrize("of_kind", KINDS)
def test_the_table_names_every_parameter_of_a_kind(of_kind):
    # a new public function or parameter must join CALLS, so that the kind's tests check it
    assert scan(of_kind) and [(fn, p.name) for fn, p in scan(of_kind)
                              if p.name not in CALLS.get(fn, {})] == []


def test_every_public_parameter_but_the_exempt_has_a_kind():
    # an annotation that `kind` does not know would drop out of every kind's tests
    assert {(fn, p.name) for fn, p in _PARAMETERS if kind(fn, p) is None} == _NO_KIND


# Counts: integers, not bools (numpy integers count), at or above a floor

def _bad_counts(name: str, floor: int, optional: bool = False) -> list:
    """(id, value, message) of values that a count `name` >= floor rejects; None is one
    unless the count is optional."""
    values = [("below", floor - 1), ("fraction", floor + 0.5), ("float", float(floor)),
              ("np.float64", np.float64(floor)), ("bool", True), ("text", str(floor)),
              ("huge", _HUGE), *([] if optional else [("None", None)])]
    return [(label, v, f"{name} must be an integer >= {floor}, got {_shown(v)}")
            for label, v in values]


@pytest.mark.parametrize("fn, p, value, message", cases("counts", lambda fn, p: _bad_counts(
    p.name, CALLS[fn][p.name], p.default is None)))
def test_a_count_is_an_integer_at_or_above_its_floor(fn, p, value, message, checked_first):
    rejects(fn, message, **{p: value})


@pytest.mark.parametrize("fn, p", [(fn, p.name) for fn, p in scan("counts")])
def test_a_numpy_count_is_its_python_int(fn, p):
    assert _form(call(fn, **{p: np.int64(CALLS[fn][p])})) == _form(call(fn))


# Constants: finite real numbers, not bools, some with a bound

def _bad_constants(name: str, bound: Optional[tuple]) -> list:
    """(id, value, message) of values that a constant `name` of bound (op, low) rejects."""
    op, low = bound or (None, None)
    values = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("text", "1.0"),
              ("bool", True), ("complex", 1j), ("None", None), ("beyond-float", 10 ** 400),
              ("huge", _HUGE), *([] if op is None else [("below", low - (op == ">="))])]
    rule = "" if op is None else f" {op} {low}"
    return [(label, v, f"{name} must be a finite number{rule}, got {_shown(v)}")
            for label, v in values]


@pytest.mark.parametrize("fn, p, value, message", cases(
    "constants", lambda fn, p: _bad_constants(_label(fn, p.name), _BOUNDS.get((fn, p.name)))))
def test_a_constant_is_a_finite_real_number(fn, p, value, message, checked_first):
    rejects(fn, message, **{p: value})


@pytest.mark.parametrize("number", [np.float64, np.int64])
@pytest.mark.parametrize("fn, p", [(fn, p.name) for fn, p in scan("constants")])
def test_a_numpy_constant_is_its_python_number(fn, p, number):
    # the classes kept numpy scalars as given, so a profile's or a law's sums could wrap
    plain = CALLS[fn][p] if number is np.float64 else int(CALLS[fn][p])
    assert _form(call(fn, **{p: number(plain)})) == _form(call(fn, **{p: plain}))


def test_numpy_integer_constants_are_combined_as_python_ints():
    # with numpy's overflow warnings, the sum 2^63 wrapped to -2^63, alpha's sum gave
    # "math domain error", and m2 * m2 = 2^64 wrapped to 0, so the law was accepted
    big = np.int64(2 ** 62)
    assert call("MomentProfile", tau3=big, tau4=big) \
        == call("MomentProfile", tau3=2 ** 62, tau4=2 ** 62)
    assert derived_constants(MomentProfile(big, big, big, np.int64(0))) \
        == derived_constants(MomentProfile(*[2.0 ** 62] * 3, 0.0))
    rejects("EntryDistribution", "entry distribution 'x': m4 >= m2^2 required "
            "(got m4=4611686018427387904, m2^2=18446744073709551616)", m2=np.int64(2 ** 32), m4=big)


# Grids: a sequence or a 1-D array, each entry checked by its kind's rule and named by index

def _bad_grids(fn: str, p: inspect.Parameter) -> list:
    """Grids that are no sequence, text, and [floor, e] for each bad entry e: a grid of
    Sequence[int] holds counts, ratio_grid constants, each >= the table's first entry."""
    floor, counts = CALLS[fn][p.name][0], typing.get_args(p.annotation) == (int,)
    entry, rule = f"{p.name}[1]", ("an integer" if counts else "a finite number") + f" >= {floor}"
    bad_entries = _bad_counts(entry, floor) if counts else _bad_constants(entry, (">=", floor))
    return [(label, v, f"{p.name} must be a sequence or a 1-D array, got {v!r}")
            for label, v in (("int", 4), ("None", None), ("0-d", np.array(4.0)))] + [
        ("text", "1", f"{p.name}[0] must be {rule}, got '1'"),
        *((f"entry-{label}", [floor, v], message) for label, v, message in bad_entries)]


@pytest.mark.parametrize("fn, p, value, message", cases("grids", _bad_grids))
def test_a_grid_is_a_sequence_of_checked_entries(fn, p, value, message, checked_first):
    rejects(fn, message, **{p: value})


# Vectors: 1-D finite arrays of numbers; a point takes the rows' or the law's field and
# shape (d,); intensities are real, nonnegative and of shape (N,); an oracle's x is nonzero

def _with_first(v: np.ndarray, value) -> np.ndarray:
    v = v.astype(np.result_type(v, type(value)))
    v[0] = value
    return v


def _takes_complex(fn: str, p: str) -> bool:
    """Whether vector p of fn may be complex: intensities are real, and a point of real rows
    or of a real law is too, as the table's are, except mc_F_residual's."""
    return CALLS[fn][p].dtype.kind == "c" or not {"mset", "ensemble", "y"} & {*CALLS[fn], p}


def _bad_vectors(fn: str, p: inspect.Parameter) -> list:
    v, name = CALLS[fn][p.name], _label(fn, p.name)
    n, length = len(v), "n" if (fn, p.name) in _ANY_LENGTH else len(v)
    takes_complex = _takes_complex(fn, p.name)
    values = [(str(bad), _with_first(v, bad), "must be finite")
              for bad in (np.nan, np.inf, -np.inf, *[complex(1.0, np.nan)] * takes_complex)]
    values += [(kind_, w, f"must be an array of numbers, got {w.dtype}") for kind_, w in (
        ("text", v.astype(str)), ("bool", v != 0), ("object", v.astype(object)),
        ("timedelta", np.ones(n, "m8[s]")))]
    values.append(("column", v[:, None], f"must have shape ({length},), got ({n}, 1)"))
    if length != "n":
        values.append(("long", np.append(v, v[:1]), f"must have shape ({n},), got ({n + 1},)"))
    if not takes_complex:
        values.append(("complex", v + 1j, "must be real, got complex128"))
    if p.name == "y":
        values.append(("negative", _with_first(v, -1.0), "must be nonnegative"))
        values += [("empty", np.array([]), "must be nonempty")] if length == "n" else []
    if "ensemble" in CALLS[fn]:
        values.append(("zero", 0 * v, "must be nonzero"))
    return [(label, w, f"{name} {message}") for label, w, message in values]


@pytest.mark.parametrize("fn, p, value, message", cases("vectors", _bad_vectors))
def test_a_vector_is_a_finite_1d_array_of_numbers(fn, p, value, message, checked_first):
    rejects(fn, message, **{p: value})


@pytest.mark.parametrize("fn, p", [(fn, p.name) for fn, p in scan("vectors")])
def test_a_vector_is_taken_as_its_array(fn, p):
    # a list is taken as its array, and a real point as complex for complex rows or law
    v = CALLS[fn][p]
    for w in (v, v + 1j) if _takes_complex(fn, p) else (v,):
        assert _form(call(fn, **{p: w.tolist()})) == _form(call(fn, **{p: w}))
    complex_ = {k: c for k, c in (("mset", _COMPLEX_MSET), ("ensemble", _COMPLEX))
                if k in CALLS[fn]}
    if complex_ and p != "y":
        assert _form(call(fn, **complex_, **{p: v})) == _form(call(fn, **complex_, **{p: v + 0j}))


# Matrices: finite square arrays of numbers

def _bad_matrices(fn: str, p: inspect.Parameter) -> list:
    M = CALLS[fn][p.name]
    values = [(str(bad), _with_first(M, bad))
              for bad in (np.nan, np.inf, complex(0, np.nan), complex(0, np.inf))]
    values += [("2x3", np.ones((2, 3))), ("1-D", np.ones(2)), ("3-D", np.ones((2, 2, 2))),
               ("scalar", np.float64(2.0)), ("text", M.astype(str)), ("bool", M != 0),
               ("object", M.astype(object)), ("timedelta", np.ones(M.shape, "m8[s]"))]
    return [(label, w, f"{p.name} must be a finite square matrix of numbers, "
                       f"got {np.asarray(w).dtype} of shape {np.shape(w)}") for label, w in values]


@pytest.mark.parametrize("fn, p, value, message", cases("matrices", _bad_matrices))
def test_a_matrix_is_a_finite_square_array_of_numbers(fn, p, value, message, checked_first):
    rejects(fn, message, **{p: value})


# Rows: a nonempty, finite 2-D array of numbers

def _bad_rows(fn: str, p: inspect.Parameter) -> list:
    shaped = [("1-D", np.ones(3)), ("N=0", np.ones((0, 3))), ("d=0", np.ones((3, 0))),
              ("3-D", np.ones((2, 2, 2))), ("bool", np.ones((2, 2), bool)),
              ("text", np.array([["1", "0"]])), ("object", np.array([[1.0, None]])),
              ("timedelta", np.ones((4, 2), "m8[s]"))]
    return [(label, A, "measurement vectors must be a nonempty 2-D numeric array, "
                       f"got dtype {A.dtype} and shape {A.shape}") for label, A in shaped] + [
        (str(entry), np.array([[entry, 1.0]]), "measurement vectors must be finite")
        for bad in (np.nan, np.inf, -np.inf) for entry in (bad, complex(1.0, bad))]


@pytest.mark.parametrize("fn, p, value, message", cases("rows", _bad_rows))
def test_rows_are_a_nonempty_finite_2d_array_of_numbers(fn, p, value, message):
    rejects(fn, message, **{p: value})


# Arrays: no call writes an array it is given, its rows included

@pytest.mark.parametrize("scale", ["as-given", "e=0"])
@pytest.mark.parametrize("fn", [fn for fn, args in CALLS.items() if "mset" in args
                                or any(isinstance(v, np.ndarray) for v in args.values())])
def test_a_call_leaves_the_arrays_it_is_given_unchanged(fn, scale):
    # its ndarray arguments (y, x, z, z0, Y, M, H, trace, vectors) and its real or complex
    # rows; at e=0 each array's largest entry or part is 1/2, where the scale rule leaves a
    # value as it is, so a scale-in that skipped its copy there would pass the caller's array
    for mset in (_MSET, _COMPLEX_MSET) if "mset" in CALLS[fn] else (None,):
        given = {p: v * (0.5 / np.abs(v.view(np.float64)).max())
                 if scale == "e=0" and isinstance(v, np.ndarray) else v
                 for p, v in CALLS[fn].items()} | ({"mset": mset} if mset else {})
        arrays = [v for v in given.values() if isinstance(v, np.ndarray)] + \
            ([mset.vectors] if mset else [])
        before = [(a.dtype, a.tobytes()) for a in arrays]
        call(fn, **given)
        assert [(a.dtype, a.tobytes()) for a in arrays] == before


# Types: an instance of the annotated class, checked before any work

def _classes(annotation) -> tuple:
    origin = typing.get_origin(annotation)
    return typing.get_args(annotation) if origin is Union else (origin or annotation,)


def _bad_types(fn: str, p: inspect.Parameter) -> list:
    classes = _classes(p.annotation)
    names = " or ".join(c.__name__ for c in classes)
    rule = f"{_label(fn, p.name)} must be an instance of {names}"
    values = [("None", None), ("int", 1), ("text", "real"), ("rows", _MSET.vectors),
              ("law", GAUSSIAN), ("class", classes[0]), ("huge", _HUGE)]
    bad = [(label, v, f"{rule}, got {_shown(v)}") for label, v in values
           if not isinstance(v, classes)]
    if p.annotation is ExperimentConfig:  # and of the kind the function runs
        config = CALLS[fn][p.name]
        other = dataclasses.replace(config, kind=next(k for k in ExperimentKind
                                                      if k is not config.kind))
        bad.append(("other-kind", other, f"config kind must be {config.kind.name}, "
                                         f"got {other.kind}"))
    return bad


@pytest.mark.parametrize("fn, p, value, message", cases("types", _bad_types))
def test_an_object_is_an_instance_of_its_class(fn, p, value, message, checked_first):
    rejects(fn, message, **{p: value})


# Seeds: an integer >= 0, a SeedSequence or a Generator, drawn from in order

def _bad_seeds(fn: str, p: inspect.Parameter) -> list:
    return [(_shown(v), v, "seed must be an integer >= 0, a SeedSequence or a Generator, "
                           f"got {_shown(v)}") for v in (-1, 1.5, "a", True, None, _HUGE)]


@pytest.mark.parametrize("fn, p, value, message", cases("seeds", _bad_seeds))
def test_a_seed_is_seedlike(fn, p, value, message, checked_first):
    # None would draw fresh OS entropy
    rejects(fn, message, **{p: value})


@pytest.mark.parametrize("fn", [fn for fn, _ in scan("seeds")])
def test_a_seed_keeps_the_stream_of_every_seedlike(fn):
    results = [_form(call(fn, seed=seed)) for seed in (
        3, np.int64(3), np.uint8(3), np.random.SeedSequence(3))]
    assert results[1:] == results[:-1] and _form(call(fn, seed=4)) != results[0]
    assert _form(call(fn, seed=np.random.default_rng(3))) \
        == _form(call(fn, seed=np.random.default_rng(3)))


# Laws: the rules of a law's moments and of its draws

def _profile_breaking(rule: str, **taus) -> tuple:
    """(fn, override, message) of a MomentProfile of the table's taus, but `taus`."""
    taus = CALLS["MomentProfile"] | taus
    shown = ", ".join(f"{name}={tau}" for name, tau in taus.items())
    return "MomentProfile", taus, f"moment profile violates {rule}: MomentProfile({shown})"


@pytest.mark.parametrize("fn, override, message", [
    ("EntryDistribution", dict(m4=0.5),
     "entry distribution 'x': m4 >= m2^2 required (got m4=0.5, m2^2=1.0)"),
    ("EntryDistribution", dict(m2=1e200, m4=1e300),
     "entry distribution 'x': m4 >= m2^2 required (got m4=1e+300, m2^2=inf)"),
    _profile_breaking("tau1 > 0", tau1=-1.0), _profile_breaking("tau2 > 0", tau2=-1.0),
    _profile_breaking("tau3 > 0", tau3=-1.0, tau4=2.0),
    _profile_breaking("tau3 + tau4 > 0", tau4=-2.0),
    ("derived_constants", dict(profile=MomentProfile(1.0, 1e308, 1e308, 0.0)),
     "alpha_hat is beyond float range"),
    ("derived_constants", dict(profile=MomentProfile(10 ** 308, 10 ** 308, 10 ** 308, 0)),
     "alpha_hat is beyond float range"),
], ids=["m4-below-m2-squared", "m2-squared-overflows", "tau1", "tau2", "tau3", "tau3+tau4",
        "alpha_hat", "int-alpha_hat"])
def test_a_law_that_breaks_a_moment_rule_is_rejected(fn, override, message):
    rejects(fn, message, **override)


# Sizes: a draw's rows, at their field's bytes per entry, must fit one numpy array

_TOO_BIG = " rows of {} entries are more than a numpy array holds"


@pytest.mark.parametrize("fn, override, message", [
    ("sample_measurements", dict(N=2 ** 62, d=8), "N = 4.61169e+18" + _TOO_BIG.format(8)),
    ("sample_measurements", dict(ensemble=_COMPLEX, N=2 ** 59), "N = 5.76461e+17"
     + _TOO_BIG.format(1)),  # 2^63 B at 16 B per entry; 2^59 real entries fit
    ("generate_signal", dict(d=2 ** 62), "d = 4.61169e+18" + _TOO_BIG.format(1)),
    ("concentration_curve", dict(N_grid=[2 ** 62]), "N_grid[0] = 4.61169e+18"
     + _TOO_BIG.format(1)),
    ("mc_condition_residual", dict(n_samples=10 ** 20), "n_samples // 20 = 5e+18"
     + _TOO_BIG.format(1)),
    ("mc_F_residual", dict(n_samples=10 ** 20), "n_samples // 20 = 5e+18" + _TOO_BIG.format(1)),
], ids=["sample_measurements-real", "sample_measurements-complex", "generate_signal",
        "concentration_curve", "mc_condition_residual", "mc_F_residual"])
def test_a_draw_beyond_numpy_s_largest_array_is_named(fn, override, message):
    # numpy raised "array is too big" or "Maximum allowed dimension exceeded", naming no
    # argument; the check comes first, so no array is allocated
    rejects(fn, message, **override)


# the table's calls of a law ask for draws of (1, 1), which a transposed draw keeps
_NOT_SQUARE = {"sample_measurements": dict(N=5, d=3), "concentration_curve": dict(N_grid=[2])}
_BAD_DRAWS = {
    "nan": lambda rng, shape: np.full(shape, np.nan),
    "inf": lambda rng, shape: np.full(shape, np.inf),
    "complex": lambda rng, shape: rng.standard_normal(shape) + 0j,
    "one-row": lambda rng, shape: rng.standard_normal(shape[-1:]),
    "extra-axis": lambda rng, shape: rng.standard_normal((*shape, 1)),
    "transposed": lambda rng, shape: rng.standard_normal(shape[::-1]),
    "bool": lambda rng, shape: np.ones(shape, dtype=bool),
    "text": lambda rng, shape: np.full(shape, "1"),
}


@pytest.mark.parametrize("draw", list(_BAD_DRAWS))
@pytest.mark.parametrize("fn, field", [
    (fn, field) for fn, _ in scan("laws")
    for field in Field if field is Field.COMPLEX or CALLS[fn]["ensemble"].field is Field.REAL])
def test_a_seeded_function_of_an_ensemble_checks_the_draws_of_its_law(fn, field, draw):
    # the matrix oracles drew their chunks outside MeasurementSet, so inf or nan rows
    # reached their Gram matrices; a sampler's draw of another shape was broadcast, and a
    # draw of (d, N) for (N, d) swapped N and d
    asked = []
    law = EntryDistribution("bad", 1.0, 3.0,
                            lambda rng, shape: asked.append(shape) or _BAD_DRAWS[draw](rng, shape))
    with pytest.raises(ValueError) as raised:
        call(fn, ensemble=Ensemble(field, law), **_NOT_SQUARE.get(fn, {}))
    assert asked[-1] != asked[-1][::-1]
    got = np.asarray(_BAD_DRAWS[draw](np.random.default_rng(), asked[-1]))
    assert str(raised.value) == (
        "measurement vectors must be finite" if draw in ("nan", "inf") else
        f"entry distribution 'bad': sampler must return real numbers of shape {asked[-1]}, "
        f"got {got.dtype} of shape {got.shape}")


def _read_only(rng, shape):
    draw = rng.standard_normal(shape)
    draw.flags.writeable = False
    return draw


@pytest.mark.parametrize("fn", ["run_init_experiment", "run_recovery_trial",
                                "mc_condition_residual", "concentration_curve"])
def test_a_real_law_s_draws_are_never_written(fn):
    # a real law's float64 draw was kept as the rows, which these calls weight in place:
    # a read-only draw raised numpy's bare "output array is read-only", and a pool lent
    # as views was overwritten, so run_recovery_trial's second draw blamed the sampler
    def run(sampler):
        law = Ensemble(Field.REAL, EntryDistribution("x", 1.0, 3.0, sampler))
        config = CALLS[fn].get("config")
        return call(fn, **({"config": dataclasses.replace(config, ensemble=law)} if config
                           else {"ensemble": law}))
    assert _form(run(_read_only)) == _form(run(GAUSSIAN.sampler))
    pool = np.random.default_rng(1).standard_normal(1 << 10)
    before = pool.tobytes()
    run(lambda rng, shape: pool[:math.prod(shape)].reshape(shape))
    assert pool.tobytes() == before
