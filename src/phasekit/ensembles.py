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
words u: the value is (3u >> 32) - 1, that is [u >= 1431655766] +
[u >= 2863311531] - 1, and only u == 0 is rejected, since
(2^32 - 3) mod 3 = 1. For a PCG64 generator the words are its raw 64-bit
outputs, each taken low half first, then high half, after any buffered
half the generator holds; an odd word count leaves the last high half
buffered. A zero word, or another bit generator, restores the saved state
and replays numpy's int32 call. That fallback must stay int32: an int8
bounded draw cuts each 32-bit word into four bytes, so its stream differs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


class Field(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> type:
        """The numpy type of the field's numbers: float64 or complex128."""
        return np.complex128 if self is Field.COMPLEX else np.float64


def _is_int(v) -> bool:
    """An integer other than a bool; numpy integers count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A real number other than a bool; numpy floats and integers count."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class EntryDistribution:
    """A scalar entry law with declared second and fourth absolute moments.

    The sampler maps (rng, shape) to a real array. The law must be
    mean-zero and symmetric; finite real moments with m2 > 0 and m4 >= m2^2
    are enforced. Declared moments of a custom law are trusted only after the
    Monte-Carlo condition check in :func:`phasekit.verify.mc_condition_residual`.
    """

    name: str
    m2: float
    m4: float
    sampler: Callable[[np.random.Generator, tuple], np.ndarray] = field(repr=False)

    def __post_init__(self):
        for key in ("m2", "m4"):
            v = getattr(self, key)
            if not (_is_real(v) and math.isfinite(v)):
                raise ValueError(
                    f"entry distribution {self.name!r}: {key} must be a finite number, got {v!r}")
        if not (self.m2 > 0):
            raise ValueError(f"entry distribution {self.name!r}: m2 must be > 0, got {self.m2}")
        if self.m4 < self.m2 ** 2:
            raise ValueError(
                f"entry distribution {self.name!r}: m4 >= m2^2 required "
                f"(got m4={self.m4}, m2^2={self.m2 ** 2})"
            )


GAUSSIAN = EntryDistribution("gaussian", 1.0, 3.0, lambda rng, shape: rng.standard_normal(shape))
UNIFORM = EntryDistribution("uniform", 1.0 / 3.0, 1.0 / 5.0, lambda rng, shape: rng.uniform(-1.0, 1.0, shape))
# the least 32-bit words u that numpy's int32 draw on [-1, 2) maps to 0 and to 1
_TERNARY_CUTS = (1_431_655_766, 2_863_311_531)


def _ternary(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """The values of rng.integers(-1, 2, shape, dtype=np.int32), leaving the
    generator in the state that call leaves, as int8 computed from raw PCG64
    words (see the module docstring); a zero word or another bit generator
    replays that call itself. It reads, draws and then sets the state, so
    unlike one numpy call it is not atomic: threads must not share `rng`."""
    bitgen = rng.bit_generator
    saved = bitgen.state
    n = math.prod(shape)
    if saved["bit_generator"] == "PCG64" and n:
        pending = saved["has_uint32"]
        raw = bitgen.random_raw((n - pending + 1) // 2)
        words = raw.astype("<u8", copy=False).view("<u4")  # low half, then high
        if pending:
            words = np.concatenate((np.array([saved["uinteger"]], np.uint32), words))
        words = words[:n]
        if words.min():  # no zero word, so no rejection shifts the stream
            draw = (words >= _TERNARY_CUTS[0]).view(np.int8)
            draw += words >= _TERNARY_CUTS[1]
            draw -= 1
            state = bitgen.state
            state["has_uint32"] = (n - pending) % 2
            if raw.size:  # else the buffered half was the only word
                state["uinteger"] = int(raw[-1] >> 32)
            bitgen.state = state
            return draw.reshape(shape)
        bitgen.state = saved
    return rng.integers(-1, 2, shape, dtype=np.int32)


TERNARY = EntryDistribution("ternary", 2.0 / 3.0, 2.0 / 3.0, _ternary)

BUILTIN_ENTRIES = {e.name: e for e in (GAUSSIAN, UNIFORM, TERNARY)}


@dataclass(frozen=True)
class MomentProfile:
    """The ensemble constants tau1..tau4, finite real numbers (not bools),
    together with the positivity checks tau1 > 0, tau2 > 0, tau3 > 0 and
    tau3 + tau4 > 0."""

    tau1: float
    tau2: float
    tau3: float
    tau4: float

    def __post_init__(self):
        for name in ("tau1", "tau2", "tau3", "tau4"):
            v = getattr(self, name)
            if not (_is_real(v) and math.isfinite(v)):
                raise ValueError(f"moment profile: {name} must be a finite number, got {v!r}")
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
        for name, cls in (("field", Field), ("entry", EntryDistribution)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(
                    f"ensemble {name!r} must be a {cls.__name__}, got {getattr(self, name)!r}")

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
        if A.ndim != 2 or 0 in A.shape or not np.issubdtype(A.dtype, np.number):
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


def _gram(B: np.ndarray) -> np.ndarray:
    """B^T conj(B) = sum_j b_j b_j* over the rows b_j of a C-contiguous
    float64 or complex128 B, as a matrix of B's dtype.

    numpy evaluates a product X.T @ X of one buffer as a BLAS syrk: one
    triangle, half the flops of a general product, the other triangle copied,
    so the result is exactly symmetric. A complex B goes through its
    zero-copy (N, 2d) float64 view V, whose rows interleave real and
    imaginary parts; from G = V^T V, Re = G[re, re] + G[im, im] and
    Im = G[im, re] - G[re, im], so the result is exactly Hermitian with a
    real diagonal, and no conj copy is made."""
    if B.dtype.kind != "c":
        return B.T @ B
    V = B.view(np.float64)
    G = V.T @ V
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


def _vector(v, d: Optional[int], dtype: type, name="x") -> np.ndarray:
    """v as an array of `dtype`, a `Field.dtype`, after checking that it has
    shape (d,), or is 1-D of any length when d is None, is finite and is real
    when `dtype` is."""
    v = np.asarray(v)
    if v.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise ValueError(f"{name} must be real to match real measurements, got {v.dtype}")
    v = v.astype(dtype, copy=False)
    if v.ndim != 1 or d not in (None, v.shape[0]):
        raise ValueError(f"{name} must have shape ({d or 'd'},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _intensities(y, n: Optional[int] = None) -> np.ndarray:
    """`y` as float64, after checking that it is real, has shape (n,), or is
    1-D and nonempty when n is None, and is finite and nonnegative."""
    y = np.asarray(y)
    if y.dtype.kind == "c":
        raise ValueError(f"intensities must be real, got {y.dtype}")
    y = y.astype(np.float64, copy=False)
    if n is None and (y.ndim != 1 or y.size == 0):
        raise ValueError(f"intensity vector must be 1-D and nonempty, got shape {y.shape}")
    if n is not None and y.shape != (n,):
        raise ValueError(f"intensity vector has shape {y.shape}, expected ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("intensities must be finite")
    if np.any(y < 0):
        raise ValueError("intensities must be nonnegative")
    return y


def moment_profile(ensemble: Ensemble) -> MomentProfile:
    """Closed-form tau1..tau4 for an i.i.d. symmetric entry ensemble.

    Real field:    (m2, m2^2, 2 m2^2, m4 - 3 m2^2)
    Complex field: (m2, m2^2,   m2^2, (m4 - 3 m2^2) / 2)
    """
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
    """alpha = tau2+tau3-(tau4)_-, beta = tau3-(tau4)_-, alpha_hat = tau2+tau3+|tau4|,
    epsilon0 = (10/(27 alpha)) * (sqrt(36 tau4^2 + 27 alpha beta / 10) - 6 |tau4|)."""
    t4_minus = max(-profile.tau4, 0.0)
    alpha = profile.tau2 + profile.tau3 - t4_minus
    beta = profile.tau3 - t4_minus
    alpha_hat = profile.tau2 + profile.tau3 + abs(profile.tau4)
    if not (0.0 < beta <= alpha):
        raise ValueError(f"profile yields invalid constants: alpha={alpha}, beta={beta}")
    eps0 = (10.0 / (27.0 * alpha)) * (
        math.sqrt(36.0 * profile.tau4 ** 2 + 27.0 * alpha * beta / 10.0) - 6.0 * abs(profile.tau4)
    )
    return DerivedConstants(alpha, beta, alpha_hat, eps0)


def _draw(entry: EntryDistribution, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """One call of the law's sampler, after checking that it gave real numbers of `shape`."""
    draw = np.asarray(entry.sampler(rng, shape))
    if draw.shape != tuple(shape) or draw.dtype.kind not in "iuf":
        raise ValueError(f"entry distribution {entry.name!r}: sampler must return real numbers "
                         f"of shape {tuple(shape)}, got {draw.dtype} of shape {draw.shape}")
    return draw


def sample_entries(ensemble: Ensemble, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. float64 draws of `shape`; complex128 draws are (u + i v)/sqrt(2).
    A sampler that returns another shape or non-real numbers raises ValueError."""
    if ensemble.field is Field.REAL:
        return _draw(ensemble.entry, shape, rng).astype(np.float64, copy=False)
    # each part is written as soon as it is drawn, u before v, so the two
    # draws and the output are never all live at once; the same bits as
    # (u + 1j*v) / sqrt(2), whose complex division multiplies by 1/sqrt(2),
    # without complex temporaries; the float64 loop is named because a small
    # integer draw times a Python float promotes to float16 under numpy 1.x
    out = np.empty(shape, dtype=np.complex128)
    scale = 1.0 / math.sqrt(2.0)
    np.multiply(_draw(ensemble.entry, shape, rng), scale, out=out.real, dtype=np.float64)
    np.multiply(_draw(ensemble.entry, shape, rng), scale, out=out.imag, dtype=np.float64)
    return out


def sample_measurements(ensemble: Ensemble, N: int, d: int, seed: SeedLike) -> MeasurementSet:
    """N measurement vectors of dimension d, integers >= 1; identical seeds, identical bits."""
    for name, v in (("N", N), ("d", d)):
        if not (_is_int(v) and v >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
    return MeasurementSet(sample_entries(ensemble, (N, d), np.random.default_rng(seed)))
