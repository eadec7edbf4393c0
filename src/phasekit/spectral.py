"""Spectral initialization: the Y and M matrices, power method, GSI and SI.

Given measurements y_j = |<a_j, x>|^2 the matrices are

    Y = (1/N) sum_j y_j a_j a_j*
    M = Y - (tau4 / (tau3 + tau4)) * D(Y - tau2 rho^2 I)

where rho^2 = (sum_j y_j) / (tau1 N) estimates ||x||^2 and D takes the
diagonal part. The generalized spectral initialization (GSI) z0 is the
dominant eigenvector of M scaled to norm rho; the classical baseline (SI)
uses Y itself.

Y is formed from one triangle, as a rank-N update with the rows
sqrt(y_j) a_j (a BLAS syrk), and is exactly Hermitian with a real diagonal;
the intensities y must be finite and nonnegative. The public functions
weight a copy of the caller's rows and leave `mset.vectors` as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    MeasurementSet,
    MomentProfile,
    SeedLike,
    _checked_intensities,
    _finite_nonnegative,
    _gram,
    _inner,
    _is_int,
    _norm,
    _vector,
)

DEFAULT_POWER_ITERS = 50


@dataclass(frozen=True)
class InitResult:
    """An initial guess z0 with its scale and power-method diagnostics."""

    z0: np.ndarray
    rho: float
    lam: float          # dominant eigenvalue estimate v* M v
    residual: float     # ||M v - lam v|| at the returned direction v


def measure(mset: MeasurementSet, x: np.ndarray) -> np.ndarray:
    """Intensities y_j = |<a_j, x>|^2, without forming any A_j. `x` must be
    finite, of shape (d,) and real for real rows."""
    return _inner(mset.vectors, _vector(x, mset.d, mset.field.dtype, nonzero=False))[1]


def rho_from_intensities(y: np.ndarray, tau1: float) -> float:
    """rho = sqrt(sum(y) / (tau1 * N)). `y` must be a nonempty 1-D array of
    finite, nonnegative intensities; other input raises ValueError."""
    if not tau1 > 0:
        raise ValueError(f"tau1 must be positive, got {tau1}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"intensity vector must be 1-D and nonempty, got shape {y.shape}")
    return _rho(_finite_nonnegative(y), tau1)


def _rho(y: np.ndarray, tau1: float) -> float:
    """rho_from_intensities for a checked `y` and a tau1 > 0."""
    return math.sqrt(float(np.sum(y)) / (tau1 * y.size))


def build_Y(mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """Y = (1/N) sum_j y_j a_j a_j*, PSD, without materializing the rank-one
    matrices: one triangle is formed by a rank-N update with the rows
    sqrt(y_j) a_j, so Y is exactly Hermitian with a real diagonal. The rows
    are weighted in a copy; `mset.vectors` is left unchanged.

    `y` must be finite, nonnegative and of shape (N,); other input raises
    ValueError."""
    return _Y(mset.vectors, _checked_intensities(mset, y))


def _Y(A: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Y of the rows of A for a checked `y`, the one place rows are weighted.
    The rows sqrt(y_j) a_j are written to `out`, a new array when None; a
    caller that owns A and is done with its plain rows passes out=A."""
    return _gram(np.multiply(A, np.sqrt(y)[:, None], out=out)) / A.shape[0]


def build_M(Y: np.ndarray, rho: float, profile: MomentProfile) -> np.ndarray:
    """M = Y - (tau4/(tau3+tau4)) * D(Y - tau2 rho^2 I); off-diagonal equals Y's."""
    c = profile.tau4 / (profile.tau3 + profile.tau4)
    M = Y.copy()
    diag = np.diagonal(Y).real
    np.fill_diagonal(M, diag - c * (diag - profile.tau2 * rho ** 2))
    return M


def power_method(
    M: np.ndarray,
    iters: int = DEFAULT_POWER_ITERS,
    seed: SeedLike = 0,
) -> tuple[float, np.ndarray, float]:
    """Dominant eigenpair of a Hermitian matrix by fixed-count power iteration.

    Starts from a random unit vector drawn from `seed` and runs exactly
    `iters` steps, an integer >= 1. Returns (lam, v, residual) with ||v|| = 1.

    Each step takes one product M v, which also serves the next step, so
    `lam = v* M v` and `residual = ||M v - lam v||` are formed once at the
    end. A residual that is not small against |lam| means `iters` steps were
    not enough, as when the top two eigenvalues are close or of opposite sign
    with equal modulus; `InitResult.residual` carries it out of `gsi` and
    `baseline_si`.
    Raises ValueError when a product has a norm outside (0, inf): M is zero,
    not finite, or so small or large that ||M v||^2 underflows or overflows.
    """
    if not (_is_int(iters) and iters >= 1):
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    rng = np.random.default_rng(seed)
    d = M.shape[0]
    v = rng.standard_normal(d)
    if np.iscomplexobj(M):
        v = v + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    Mv = M @ v
    for _ in range(iters):
        nw = _norm(Mv)
        if not 0.0 < nw < math.inf:
            raise ValueError(f"power method breaks down: ||M v|| = {nw}; M must be "
                             "finite and nonzero, with ||M v||^2 within float range")
        v = Mv / nw
        Mv = M @ v
    lam, residual = _rayleigh(v, Mv)
    return lam, v, residual


def _rayleigh(v: np.ndarray, Mv: np.ndarray) -> tuple[float, float]:
    """lam = v* M v and ||M v - lam v|| for a unit v, given M v."""
    lam = float(np.vdot(v, Mv).real)
    return lam, _norm(Mv - lam * v)


def _gsi_from_Y(Y: np.ndarray, y: np.ndarray, profile: MomentProfile,
                power_iters: int, seed: SeedLike) -> InitResult:
    rho = _rho(y, profile.tau1)
    M = build_M(Y, rho, profile)
    lam, v, residual = power_method(M, iters=power_iters, seed=seed)
    return InitResult(rho * v, rho, lam, residual)


def _sum_sq(A: np.ndarray) -> float:
    """sum_j ||a_j||^2 over the rows of A, as one BLAS dot."""
    return float(np.vdot(A, A).real)


def _si_from_Y(Y: np.ndarray, y: np.ndarray, sum_a2: float,
               power_iters: int, seed: SeedLike) -> InitResult:
    """SI from Y and sum_a2 = `_sum_sq` of the plain rows."""
    lam, v, residual = power_method(Y, iters=power_iters, seed=seed)
    scale = math.sqrt(Y.shape[0] * float(np.sum(y)) / sum_a2)
    return InitResult(scale * v, scale, lam, residual)


def gsi(
    mset: MeasurementSet,
    y: np.ndarray,
    profile: MomentProfile,
    power_iters: int = DEFAULT_POWER_ITERS,
    seed: SeedLike = 0,
) -> InitResult:
    """Generalized spectral initialization: z0 = rho * (top eigenvector of M).

    `y` must be finite, nonnegative and of shape (N,)."""
    y = _checked_intensities(mset, y)
    return _gsi_from_Y(_Y(mset.vectors, y), y, profile, power_iters, seed)


def baseline_si(
    mset: MeasurementSet,
    y: np.ndarray,
    power_iters: int = DEFAULT_POWER_ITERS,
    seed: SeedLike = 0,
) -> InitResult:
    """Classical spectral initialization: top eigenvector of Y, scaled by
    lam_SI = sqrt(d * sum(y) / sum_j ||a_j||^2). `y` must be finite,
    nonnegative and of shape (N,)."""
    y = _checked_intensities(mset, y)
    return _si_from_Y(_Y(mset.vectors, y), y, _sum_sq(mset.vectors), power_iters, seed)
