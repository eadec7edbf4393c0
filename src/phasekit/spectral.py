"""Spectral initialization: the Y and M matrices, power method, GSI and SI.

Given measurements y_j = |<a_j, x>|^2 the matrices are

    Y = (1/N) sum_j y_j a_j a_j*
    M = Y - (tau4 / (tau3 + tau4)) * D(Y - tau2 rho^2 I)

where rho^2 = (sum_j y_j) / (tau1 N) estimates ||x||^2 and D takes the
diagonal part. The generalized spectral initialization (GSI) z0 is the
dominant eigenvector of M scaled to norm rho; the classical baseline (SI)
uses Y itself.
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
    _inner,
    as_rng,
)


@dataclass(frozen=True)
class InitResult:
    """An initial guess z0 with its scale and power-method diagnostics."""

    z0: np.ndarray
    rho: float
    lam: float          # dominant eigenvalue estimate v* M v
    residual: float     # ||M v - lam v|| at the returned direction v

    def to_dict(self) -> dict:
        return {"rho": self.rho, "lam": self.lam, "residual": self.residual}


def measure(mset: MeasurementSet, x: np.ndarray) -> np.ndarray:
    """Intensities y_j = |<a_j, x>|^2, without forming any A_j."""
    x = np.asarray(x)
    if x.shape != (mset.d,):
        raise ValueError(f"signal has shape {x.shape}, expected ({mset.d},)")
    return _inner(mset, x)[1]


def rho_from_intensities(y: np.ndarray, tau1: float) -> float:
    """rho = sqrt(sum(y) / (tau1 * N))."""
    if not tau1 > 0:
        raise ValueError(f"tau1 must be positive, got {tau1}")
    y = np.asarray(y, dtype=np.float64)
    return math.sqrt(float(np.sum(y)) / (tau1 * y.size))


def build_Y(mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """Y = (1/N) sum_j y_j a_j a_j*, Hermitian PSD, accumulated without
    materializing the rank-one matrices."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (mset.N,):
        raise ValueError(f"intensity vector has shape {y.shape}, expected ({mset.N},)")
    A = mset.vectors
    Y = (A.T * y) @ A.conj() / mset.N
    return (Y + Y.conj().T) / 2.0


def build_M(Y: np.ndarray, rho: float, profile: MomentProfile) -> np.ndarray:
    """M = Y - (tau4/(tau3+tau4)) * D(Y - tau2 rho^2 I); off-diagonal equals Y's."""
    profile.validate()
    c = profile.tau4 / (profile.tau3 + profile.tau4)
    M = Y.copy()
    diag = np.diagonal(Y).real
    np.fill_diagonal(M, diag - c * (diag - profile.tau2 * rho ** 2))
    return M


def power_method(
    M: np.ndarray,
    iters: int = 50,
    seed: SeedLike = 0,
    residual_tol: float | None = None,
) -> tuple[float, np.ndarray, float]:
    """Dominant eigenpair of a Hermitian matrix by fixed-count power iteration.

    Starts from a random unit vector drawn from `seed`; runs exactly `iters`
    steps unless `residual_tol` is given, in which case it may stop early once
    ||M v - lam v|| <= residual_tol. Returns (lam, v, residual) with ||v|| = 1.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not np.any(M):
        raise ValueError("power method undefined for the zero matrix")
    rng = as_rng(seed)
    d = M.shape[0]
    if np.iscomplexobj(M):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        v = rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # started in the kernel; restart from a fresh direction
            v = rng.standard_normal(d) if not np.iscomplexobj(M) else (
                rng.standard_normal(d) + 1j * rng.standard_normal(d))
            v = v / np.linalg.norm(v)
            continue
        v = w / nw
        lam = float(np.real(np.vdot(v, M @ v)))
        if residual_tol is not None and np.linalg.norm(M @ v - lam * v) <= residual_tol:
            break
    residual = float(np.linalg.norm(M @ v - lam * v))
    return lam, v, residual


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
    rho = rho_from_intensities(y, profile.tau1)
    Y = build_Y(mset, y)
    M = build_M(Y, rho, profile)
    lam, v, residual = power_method(M, iters=power_iters, seed=seed)
    return InitResult(rho * v, rho, lam, residual)


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
    Y = build_Y(mset, y)
    lam, v, residual = power_method(Y, iters=power_iters, seed=seed)
    scale = math.sqrt(mset.d * float(np.sum(y)) / float(np.sum(np.abs(mset.vectors) ** 2)))
    return InitResult(scale * v, scale, lam, residual)
