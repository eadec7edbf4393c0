"""Measurement ensembles: entry distributions, moment constants, sampling.

A measurement vector a in R^d or C^d has i.i.d. entries drawn from a
mean-zero symmetric scalar law. In the complex case each entry is
(1/sqrt(2)) * (u + i*v) with u, v independent draws of the same law.
The rank-one measurement is A = a a*.

For such ensembles the two moment identities

    E(A)            = tau1 * I
    E((x* A x) A)   = tau2 ||x||^2 I + tau3 x x* + tau4 diag(|x_i|^2)

hold with constants determined by the entry moments m2 = E u^2 and
m4 = E u^4.  The closed forms used here are gated behind the Monte-Carlo
oracles in :mod:`phasekit.verify`.

Ternary draws are bit-identical to ``rng.integers(-1, 2, shape,
dtype=np.int32)``, values and generator state alike, but computed in bulk.
numpy draws that range by Lemire's multiply-shift on successive 32-bit
words u: the value is (3u >> 32) - 1, that is [u >= 2863311531] -
[u < 1431655766], and only u == 0 is rejected, since
(2^32 - 3) mod 3 = 1. For a PCG64 generator that holds no buffered half, the
words are its raw 64-bit outputs, each taken low half first, then high
half; an odd word count leaves the last high half buffered. They are drawn
in fixed blocks of whole 64-bit words, so beside its int8 values a draw of
any size holds one block of raw words (256 KiB) and one mask for it. A
buffered half, a zero word in any block or another bit generator restores
the saved state and replays numpy's int32 call. In every case the values
and the state are numpy's. That fallback must stay int32: an int8 bounded
draw cuts each 32-bit word into four bytes, so its stream differs.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]
# dtype kinds of arrays of numbers (not bools, text, objects, dates or durations), of real ones
_NUMBERS, _REALS = "iufc", "iuf"


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> type:
        """The numpy type of the field's numbers: float64 or complex128."""
        return np.complex128 if self is Field.COMPLEX else np.float64


def _shown(v) -> str:
    """repr(v), or the sign and bit length of an int of more digits than repr allows."""
    try:
        return repr(v)
    except ValueError:  # a container holding such an int is shown by its type
        return (f"{'a negative' if v < 0 else 'an'} int of {v.bit_length()} bits"
                if isinstance(v, int) else type(v).__name__)


def _integer(v, name: str, low: int, also: str = "") -> int:
    """v as a Python int, checked as an integer, not a bool (numpy ones count), >= low;
    `also` names in the message what else the caller takes."""
    if not (isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low):
        raise ValueError(f"{name} must be an integer >= {low}{also}, got {_shown(v)}")
    return int(v)


def _rng(seed) -> np.random.Generator:
    """The one Generator a seeded call draws from in order, for `seed` checked as a SeedLike:
    a Generator as itself, else `np.random.default_rng` of the SeedSequence or checked int."""
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        seed = _integer(seed, "seed", 0, ", a SeedSequence or a Generator")
    return np.random.default_rng(seed)


def _ratio_key(ratio: float, name: str = "ratio") -> int:
    """The key of a checked ratio in its trials' streams: round(1000 * ratio), judged by _ldexp."""
    return int(round(_ldexp(1000 * ratio, 0, f"1000 * {name}")))


def _number(v, name: str, low: Optional[float] = None, strict: bool = False):
    """v as a Python number, checked as a real, not a bool, finite as a float (so an
    int beyond float range fails too), > low if strict else >= low."""
    if not (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max  # false for nan; compares ints exactly
            and (low is None or (v > low if strict else v >= low))):
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be a finite number{bound}, got {_shown(v)}")
    return v.item() if isinstance(v, np.generic) else v


def _instance(v, name: str, *classes: type):
    """v, checked as an instance of one of `classes`."""
    if not isinstance(v, classes):
        names = " or ".join(c.__name__ for c in classes)
        raise ValueError(f"{name} must be an instance of {names}, got {_shown(v)}")
    return v


def _sequence(v, name: str, check: Callable, *args) -> tuple:
    """`check(item, f"{name}[i]", *args)` of each item of v, a sequence or a 1-D array."""
    if not (isinstance(v, Sequence) or isinstance(v, np.ndarray) and v.ndim == 1):
        raise ValueError(f"{name} must be a sequence or a 1-D array, got {_shown(v)}")
    return tuple(check(item, f"{name}[{i}]", *args) for i, item in enumerate(v))


def _vector(v, d: Optional[int], dtype: type, name="x") -> np.ndarray:
    """v as an array of `dtype`, a `Field.dtype`, after checking that it holds numbers,
    not bools, is real when `dtype` is, has shape (d,) (1-D if d is None) and is finite."""
    v = np.asarray(v)
    if v.dtype.kind not in _NUMBERS:
        raise ValueError(f"{name} must be an array of numbers, got {v.dtype}")
    if v.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise ValueError(f"{name} must be real, got {v.dtype}")
    v = v.astype(dtype, copy=False)
    if v.ndim != 1 or d not in (None, v.shape[0]):
        raise ValueError(f"{name} must have shape ({'n' if d is None else d},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _matrix(M, name: str) -> np.ndarray:
    """M as an array, after checking that it is a finite square matrix of numbers, not bools."""
    M = np.asarray(M)
    if not (M.ndim == 2 and M.shape[0] == M.shape[1] and M.dtype.kind in _NUMBERS
            and np.isfinite(M).all()):
        raise ValueError(f"{name} must be a finite square matrix of numbers, "
                         f"got {M.dtype} of shape {M.shape}")
    return M


def _intensities(y, n: Optional[int] = None) -> np.ndarray:
    """`y` as float64, checked by `_vector`, then as nonempty and nonnegative."""
    y = _vector(y, n, np.float64, "intensities")
    if y.size == 0:
        raise ValueError("intensities must be nonempty")
    if np.any(y < 0):
        raise ValueError("intensities must be nonnegative")
    return y


@dataclass(frozen=True)
class EntryDistribution:
    """A scalar entry law with declared second and fourth absolute moments.

    The sampler maps (rng, shape) to a real array, as a function of those two
    alone: a recovery trial draws its rows twice from one seed and raises
    ValueError when the draws differ. The law must be mean-zero and symmetric;
    finite real moments, stored as Python numbers, with m2 > 0 and m4 >= m2^2
    are enforced, m2^2 as the product m2 * m2, so an m2 whose square overflows
    fails. Declared moments of a custom law are trusted only after the
    Monte-Carlo condition check in :func:`phasekit.verify.mc_condition_residual`.
    """

    name: str
    m2: float
    m4: float
    sampler: Callable[[np.random.Generator, tuple], np.ndarray] = field(repr=False)

    def __post_init__(self):
        _instance(self.name, "entry distribution name", str)
        law = f"entry distribution {self.name!r}"
        _instance(self.sampler, f"{law}: sampler", Callable)
        object.__setattr__(self, "m2", _number(self.m2, f"{law}: m2", 0, strict=True))
        object.__setattr__(self, "m4", _number(self.m4, f"{law}: m4"))
        if self.m4 < self.m2 * self.m2:  # m2 ** 2 raises OverflowError where this is inf
            raise ValueError(f"{law}: m4 >= m2^2 required "
                             f"(got m4={self.m4}, m2^2={self.m2 * self.m2})")


GAUSSIAN = EntryDistribution("gaussian", 1.0, 3.0, lambda rng, shape: rng.standard_normal(shape))
UNIFORM = EntryDistribution("uniform", 1.0 / 3.0, 1.0 / 5.0, lambda rng, shape: rng.uniform(-1.0, 1.0, shape))
# the least 32-bit words u that numpy's int32 draw on [-1, 2) maps to 0 and to 1
_TERNARY_CUTS = (1_431_655_766, 2_863_311_531)
_TERNARY_BLOCK = 1 << 15  # raw 64-bit words a ternary draw holds at once: 256 KiB


def _ternary_block(bitgen: np.random.BitGenerator, part: np.ndarray) -> Optional[int]:
    """Writes the values of part.size words, from one block of ceil(part.size / 2) raw words,
    into the int8 `part` and returns the high half of the last raw word; None, with `part`
    unwritten, if a word is zero. The block dies with this call, so a draw never holds two."""
    raw = bitgen.random_raw((part.size + 1) // 2)
    words = raw.astype("<u8", copy=False).view("<u4")[:part.size]  # low half, then high
    if not words.min():
        return None
    np.greater_equal(words, _TERNARY_CUTS[1], out=part.view(bool))
    part -= words < _TERNARY_CUTS[0]
    return int(raw[-1] >> 32)


def _ternary(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """The values of rng.integers(-1, 2, shape, dtype=np.int32), leaving the
    generator in the state that call leaves. A PCG64 generator that holds no
    buffered half gives them as int8 computed from its raw words, drawn in
    blocks of `_TERNARY_BLOCK` whole words (see the module docstring); a
    buffered half, a zero word in any block or another bit generator replays
    that call itself. It reads, draws and then sets the state, so unlike one
    numpy call it is not atomic: threads must not share `rng`."""
    bitgen = rng.bit_generator
    saved = bitgen.state
    n = math.prod(shape)
    if saved["bit_generator"] == "PCG64" and not saved["has_uint32"] and n:
        draw = np.empty(n, dtype=np.int8)
        for start in range(0, n, 2 * _TERNARY_BLOCK):
            high = _ternary_block(bitgen, draw[start:start + 2 * _TERNARY_BLOCK])
            if high is None:  # a zero word: its rejection shifts the stream
                break
        else:  # no zero word in any block
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = n % 2, high
            bitgen.state = state
            return draw.reshape(shape)
        bitgen.state = saved
    return rng.integers(-1, 2, shape, dtype=np.int32)


TERNARY = EntryDistribution("ternary", 2.0 / 3.0, 2.0 / 3.0, _ternary)

BUILTIN_ENTRIES = {e.name: e for e in (GAUSSIAN, UNIFORM, TERNARY)}


@dataclass(frozen=True)
class MomentProfile:
    """The ensemble constants tau1..tau4, finite real numbers (not bools) stored
    as Python numbers, together with the positivity checks tau1 > 0, tau2 > 0, tau3 > 0 and
    tau3 + tau4 > 0."""

    tau1: float
    tau2: float
    tau3: float
    tau4: float

    def __post_init__(self):
        for name in ("tau1", "tau2", "tau3", "tau4"):
            value = _number(getattr(self, name), f"moment profile: {name}")
            object.__setattr__(self, name, value)
        for name, ok in (("tau1 > 0", self.tau1 > 0), ("tau2 > 0", self.tau2 > 0),
                         ("tau3 > 0", self.tau3 > 0),
                         ("tau3 + tau4 > 0", self.tau3 + self.tau4 > 0)):
            if not ok:
                raise ValueError(f"moment profile violates {name}: {self}")


@dataclass(frozen=True)
class Ensemble:
    """A measurement ensemble: field plus i.i.d. entry law."""

    field: Field
    entry: EntryDistribution

    def __post_init__(self):
        _instance(self.field, "field", Field)
        _instance(self.entry, "entry", EntryDistribution)

    def to_dict(self) -> dict:
        return {"field": self.field.value, "entry": self.entry.name}


@dataclass(frozen=True)
class MeasurementSet:
    """N >= 1 measurement vectors a_j of dimension d >= 1, the rows of
    `vectors`: a nonempty, finite 2-D numeric array stored C-contiguous in its
    field's dtype, as itself if it is. Points they measure take that dtype: a
    complex point for real rows raises ValueError."""

    vectors: np.ndarray  # shape (N, d)

    def __post_init__(self):
        A = np.asarray(self.vectors)
        if A.ndim != 2 or 0 in A.shape or A.dtype.kind not in _NUMBERS:
            raise ValueError("measurement vectors must be a nonempty 2-D numeric array, "
                             f"got dtype {A.dtype} and shape {A.shape}")
        dtype = (Field.COMPLEX if A.dtype.kind == "c" else Field.REAL).dtype
        A = np.ascontiguousarray(A, dtype=dtype)
        if not np.isfinite(A.view(np.float64)).all():  # complex as its parts: faster
            raise ValueError("measurement vectors must be finite")
        object.__setattr__(self, "vectors", A)

    @property
    def field(self) -> Field:
        return Field.COMPLEX if self.vectors.dtype.kind == "c" else Field.REAL

    @property
    def N(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def _inner(A: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w_j = <a_j, z> = a_j* z for every row a_j of A, and |w_j|^2 as a new
    array. A complex w is formed as conj(A @ conj(z)), so A is never copied."""
    if A.dtype.kind == "c":
        w = np.conj(A @ np.conj(z))
        return w, w.real ** 2 + w.imag ** 2
    w = A @ z
    return w, w * w


def _gram(B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """B^T conj(B) = sum_j b_j b_j* over the rows b_j of a C-contiguous
    float64 or complex128 B, as a matrix of B's dtype.

    numpy evaluates a product X.T @ X of one buffer as a BLAS syrk: one
    triangle, half the flops of a general product, the other triangle copied,
    so the result is exactly symmetric. A complex B goes through its
    zero-copy (N, 2d) float64 view V, whose rows interleave real and
    imaginary parts; from G = V^T V, Re = G[re, re] + G[im, im] and
    Im = G[im, re] - G[re, im], so the result is exactly Hermitian with a
    real diagonal, and no conj copy is made. That fold reads only G, so it
    is written to `out`, a d x d complex128 array that may lie over B's own
    entries, or to a new array when None; a real B's product is always new."""
    if B.dtype.kind != "c":
        return B.T @ B
    V = B.view(np.float64)
    G = V.T @ V
    if out is None:
        out = np.empty((B.shape[1], B.shape[1]), dtype=np.complex128)
    np.add(G[0::2, 0::2], G[1::2, 1::2], out=out.real)
    np.subtract(G[1::2, 0::2], G[0::2, 1::2], out=out.imag)
    return out


def _norm(v: np.ndarray) -> float:
    """||v|| by the formula np.linalg.norm uses for a vector, so the bits
    agree, without its per-call overhead."""
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _ldexp(v, e: int, name: str = ""):
    """Scale out: v * 2^e for a real number, or a float64 or C-contiguous complex128 array
    (then a new array), exact while it stays normal, or rounded to a subnormal or 0.0 with no
    warning. The package's one power-of-two scaling and one judge of a result beyond float
    range: a named v beyond it at 2^e (an int too) or with an inf or nan raises a ValueError
    naming `name`, and at e = 0 comes back as itself, uncopied. An unnamed v must have none."""
    array = isinstance(v, np.ndarray)
    if name:  # 2^(top-1) <= big < 2^top for the largest |value| big, if finite
        big = float(np.abs(v.view(np.float64)).max(initial=0.0)) if array else abs(v)
        finite = big <= sys.float_info.max  # false for inf and nan; compares ints exactly
        top = e + math.frexp(big)[1] if finite else None
        if not finite or top > 1024 and big:
            raise ValueError(f"{name} is beyond float range{f', near 2^{top}' if finite else ''}")
        if not e:
            return v
    return np.ldexp(v.view(np.float64), e).view(v.dtype) if array else math.ldexp(v, e)


def _to_unit(*points, y=None) -> tuple:
    """Scale in: (e, *(p * 2^-e for p in points)), then y * 2^-2e if y is given, for float64
    or complex128 points, taken C-contiguous, and checked intensities y. e is the exponent
    of `math.frexp` of the largest entry (or part) of the points and of sqrt(y), so every
    scaled entry is below 1; a zero part sets no scale, and e = 0 when all are zero or empty."""
    points = [np.ascontiguousarray(p) for p in points]
    tops = [float(np.abs(p.view(np.float64)).max(initial=0.0)) for p in points]
    e = math.frexp(max(tops + ([] if y is None else [math.sqrt(float(y.max()))])))[1]
    return (e, *(_ldexp(p, -e) for p in points), *([] if y is None else [_ldexp(y, -2 * e)]))


def _unit_args(mset, **args) -> tuple:
    """Every measuring kernel's way in: checks mset, then each named point by `_vector` at the
    rows' dtype and shape (d,), then `y`, if named, by `_intensities` of length N, and returns
    `_to_unit(*points, y=y)`: e, the points in the order named, then y if named."""
    _instance(mset, "mset", MeasurementSet)
    points = [_vector(v, mset.d, mset.field.dtype, k) for k, v in args.items() if k != "y"]
    y = _intensities(args["y"], mset.N) if "y" in args else None
    return _to_unit(*points, y=y)


def _direction(rng: np.random.Generator, d: int, complex_: bool) -> np.ndarray:
    """A random unit vector of R^d, or of C^d if complex_: d standard normal
    draws, then d more for the imaginary parts, over their norm."""
    v = rng.standard_normal(d)
    if complex_:
        v = v + 1j * rng.standard_normal(d)
    return v / _norm(v)


def moment_profile(ensemble: Ensemble) -> MomentProfile:
    """Closed-form tau1..tau4 for an i.i.d. symmetric entry ensemble.

    Real field:    (m2, m2^2, 2 m2^2, m4 - 3 m2^2)
    Complex field: (m2, m2^2,   m2^2, (m4 - 3 m2^2) / 2)
    """
    _instance(ensemble, "ensemble", Ensemble)
    m2, m4 = ensemble.entry.m2, ensemble.entry.m4
    if ensemble.field is Field.REAL:
        return MomentProfile(m2, m2 ** 2, 2.0 * m2 ** 2, m4 - 3.0 * m2 ** 2)
    return MomentProfile(m2, m2 ** 2, m2 ** 2, (m4 - 3.0 * m2 ** 2) / 2.0)


@dataclass(frozen=True)
class DerivedConstants:
    """alpha, beta, alpha_hat and the basin radius epsilon0 of a profile."""

    alpha: float
    beta: float
    alpha_hat: float
    epsilon0: float


def derived_constants(profile: MomentProfile) -> DerivedConstants:
    """alpha = tau2+tau3-(tau4)_-, beta = tau3-(tau4)_-, alpha_hat = tau2+tau3+|tau4| >= |tau4|,
    alpha >= beta > 0, and epsilon0 = (10/(27 alpha)) * (sqrt(36 tau4^2 + 27 alpha beta / 10)
    - 6 |tau4|) = 1 / (sqrt(36 r^2 + 2.7 alpha/beta) + 6 r), r = |tau4|/beta: the paper's formula,
    correctly rounded from 40-digit decimals. An alpha_hat beyond float range raises, naming it."""
    _instance(profile, "profile", MomentProfile)
    t4_minus = max(-profile.tau4, 0.0)
    alpha = profile.tau2 + profile.tau3 - t4_minus
    beta = profile.tau3 - t4_minus
    alpha_hat = _ldexp(profile.tau2 + profile.tau3 + abs(profile.tau4), 0, "alpha_hat")
    import decimal  # here, not at the top: `import phasekit` does not load it
    with decimal.localcontext(decimal.Context(prec=40)):
        t2, t3, t4 = (decimal.Decimal(t if isinstance(t, (int, float)) else float(t))
                      for t in (profile.tau2, profile.tau3, profile.tau4))  # a Fraction as a float
        b = t3 - max(-t4, 0)
        r6 = 6 * abs(t4) / b
        eps0 = float(1 / ((r6 * r6 + decimal.Decimal("2.7") * (t2 + b) / b).sqrt() + r6))
    return DerivedConstants(alpha, beta, alpha_hat, eps0)


def _draw(entry: EntryDistribution, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """One call of the law's sampler, after checking that it gave real numbers of `shape`."""
    draw = np.asarray(entry.sampler(rng, shape))
    if draw.shape != tuple(shape) or draw.dtype.kind not in _REALS:
        raise ValueError(f"entry distribution {entry.name!r}: sampler must return real numbers "
                         f"of shape {tuple(shape)}, got {draw.dtype} of shape {draw.shape}")
    return draw


def _fits(rows, d: int, name: str, itemsize: int = 16) -> None:
    """The package's one judge of array size: `rows` rows (a count, or a float such as
    ratio * d) of d entries of `itemsize` B must fit one numpy array, whose bytes intp's
    maximum bounds, else a ValueError naming `name`, before anything is allocated."""
    if not rows <= np.iinfo(np.intp).max // itemsize // d:
        raise ValueError(f"{name} = {rows:.6g} rows of {d} entries are more than "
                         "a numpy array holds")


def sample_measurements(ensemble: Ensemble, N: int, d: int, seed: SeedLike) -> MeasurementSet:
    """N measurement vectors of dimension d, integers >= 1, drawn in order from `_rng(seed)`:
    identical seeds give identical bits, and a Generator seed continues its stream. Every row
    phasekit draws comes from here, as its own: i.i.d. draws of the law as float64 (a read-only
    or borrowed draw is copied, so no sampler's array is written), or (u + i v)/sqrt(2) for a
    complex field; a draw of another shape or non-real or non-finite entries raises ValueError."""
    _instance(ensemble, "ensemble", Ensemble)
    shape = (_integer(N, "N", 1), _integer(d, "d", 1))
    _fits(N, d, "N", np.dtype(ensemble.field.dtype).itemsize)
    rng = _rng(seed)
    if ensemble.field is Field.REAL:  # cast first: a narrower draw is gone before the check
        return MeasurementSet(np.require(_draw(ensemble.entry, shape, rng), float, ["C", "W", "O"]))
    # each part is written as soon as it is drawn, u before v, so the two
    # draws and the output are never all live at once; the same bits as
    # (u + 1j*v) / sqrt(2), whose complex division multiplies by 1/sqrt(2),
    # without complex temporaries; the float64 loop is named because a small
    # integer draw times a Python float promotes to float16 under numpy 1.x
    out = np.empty(shape, dtype=np.complex128)
    scale = 1.0 / math.sqrt(2.0)
    np.multiply(_draw(ensemble.entry, shape, rng), scale, out=out.real, dtype=np.float64)
    np.multiply(_draw(ensemble.entry, shape, rng), scale, out=out.imag, dtype=np.float64)
    return MeasurementSet(out)
