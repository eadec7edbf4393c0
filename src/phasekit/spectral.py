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
the intensities y must be finite and nonnegative.
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
    _gram,
    _inner,
    _norm,
    as_rng,
)


@dataclass(frozen=True)
class InitResult:
    """An initial guess z0 with its scale and power-method diagnostics."""

    z0: np.ndarray
    rho: float
    lam: float          # dominant eigenvalue estimate v* M v
    residual: float     # ||M v - lam v|| at the returned direction v


def measure(mset: MeasurementSet, x: np.ndarray) -> np.ndarray:
    """Intensities y_j = |<a_j, x>|^2, without forming any A_j."""
    x = np.asarray(x)
    if x.shape != (mset.d,):
        raise ValueError(f"signal has shape {x.shape}, expected ({mset.d},)")
    return _inner(mset.vectors, x)[1]


def rho_from_intensities(y: np.ndarray, tau1: float) -> float:
    """rho = sqrt(sum(y) / (tau1 * N))."""
    if not tau1 > 0:
        raise ValueError(f"tau1 must be positive, got {tau1}")
    y = np.asarray(y, dtype=np.float64)
    return math.sqrt(float(np.sum(y)) / (tau1 * y.size))


def build_Y(mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """Y = (1/N) sum_j y_j a_j a_j*, PSD, without materializing the rank-one
    matrices: one triangle is formed by a rank-N update with the rows
    sqrt(y_j) a_j, so Y is exactly Hermitian with a real diagonal.

    `y` must be finite, nonnegative and of shape (N,); other input raises
    ValueError."""
    return _build_Y(mset, _checked_intensities(mset, y))


def _build_Y(mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """build_Y for a `y` already checked by `_checked_intensities`."""
    return _gram(mset.vectors, y) / mset.N


def build_M(Y: np.ndarray, rho: float, profile: MomentProfile) -> np.ndarray:
    """M = Y - (tau4/(tau3+tau4)) * D(Y - tau2 rho^2 I); off-diagonal equals Y's."""
    c = profile.tau4 / (profile.tau3 + profile.tau4)
    M = Y.copy()
    diag = np.diagonal(Y).real
    np.fill_diagonal(M, diag - c * (diag - profile.tau2 * rho ** 2))
    return M


def power_method(
    M: np.ndarray,
    iters: int = 50,
    seed: SeedLike = 0,
) -> tuple[float, np.ndarray, float]:
    """Dominant eigenpair of a Hermitian matrix by fixed-count power iteration.

    Starts from a random unit vector drawn from `seed` and runs exactly
    `iters` steps. Returns (lam, v, residual) with ||v|| = 1.

    Each step takes one product M v, which also serves the next step, so
    `lam = v* M v` and `residual = ||M v - lam v||` are formed once at the
    end. A residual that is not small against |lam| means `iters` steps were
    not enough, as when the top two eigenvalues are close or of opposite sign
    with equal modulus; `InitResult.residual` carries it out of `gsi` and
    `baseline_si`.
    A step whose product vanishes (v in the kernel of M) restarts from a
    fresh random direction; `lam` and `residual` always belong to the
    returned v, also when the last step was such a restart.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not np.any(M):
        raise ValueError("power method undefined for the zero matrix")
    rng = as_rng(seed)
    d = M.shape[0]
    cplx = np.iscomplexobj(M)

    def random_unit() -> np.ndarray:
        if cplx:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        else:
            v = rng.standard_normal(d)
        return v / np.linalg.norm(v)

    v = random_unit()
    Mv = M @ v
    for _ in range(iters):
        nw = _norm(Mv)
        if nw == 0.0:
            # started in the kernel; restart from a fresh direction
            v = random_unit()
            Mv = M @ v
            continue
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
    rho = rho_from_intensities(y, profile.tau1)
    M = build_M(Y, rho, profile)
    lam, v, residual = power_method(M, iters=power_iters, seed=seed)
    return InitResult(rho * v, rho, lam, residual)


def _si_from_Y(mset: MeasurementSet, Y: np.ndarray, y: np.ndarray,
               power_iters: int, seed: SeedLike) -> InitResult:
    lam, v, residual = power_method(Y, iters=power_iters, seed=seed)
    sum_a2 = float(np.vdot(mset.vectors, mset.vectors).real)  # sum_j ||a_j||^2, one BLAS dot
    scale = math.sqrt(mset.d * float(np.sum(y)) / sum_a2)
    return InitResult(scale * v, scale, lam, residual)


def gsi(
    mset: MeasurementSet,
    y: np.ndarray,
    profile: MomentProfile,
    power_iters: int = 50,
    seed: SeedLike = 0,
) -> InitResult:
    """Generalized spectral initialization: z0 = rho * (top eigenvector of M).

    `y` must be finite, nonnegative and of shape (N,)."""
    y = _checked_intensities(mset, y)
    return _gsi_from_Y(_build_Y(mset, y), y, profile, power_iters, seed)


def baseline_si(
    mset: MeasurementSet,
    y: np.ndarray,
    power_iters: int = 50,
    seed: SeedLike = 0,
) -> InitResult:
    """Classical spectral initialization: top eigenvector of Y, scaled by
    lam_SI = sqrt(d * sum(y) / sum_j ||a_j||^2). `y` must be finite,
    nonnegative and of shape (N,)."""
    y = _checked_intensities(mset, y)
    return _si_from_Y(mset, _build_Y(mset, y), y, power_iters, seed)
