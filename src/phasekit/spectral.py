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
    _direction,
    _exponent,
    _gram,
    _inner,
    _instance,
    _integer,
    _intensities,
    _matrix,
    _norm,
    _number,
    _rng,
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
    _instance(mset, "mset", MeasurementSet)
    return _inner(mset.vectors, _vector(x, mset.d, mset.field.dtype))[1]


def rho_from_intensities(y: np.ndarray, tau1: float) -> float:
    """rho = sqrt(sum(y) / (tau1 * N)) for a nonempty 1-D `y` of real, finite,
    nonnegative intensities and a finite real tau1 > 0; other input raises ValueError.

    With tau1 = m 2^t, m in [0.5, 1), it is formed as sqrt(s / (m N)) 2^(k/2), s the
    sum of y * 2^-(k+t) and k even, y's largest entry fixing k so that s stays in
    range: every rounding is the formula's, so no power-of-two rescaling of y or tau1
    changes a bit, and a rho beyond float range raises ValueError."""
    _number(tau1, "tau1", 0, strict=True)
    y = _intensities(y)
    m, t = math.frexp(tau1)
    k = _exponent(y) - t
    k -= k % 2  # even, so the root halves it exactly
    q = float(np.ldexp(y, -(k + t)).sum()) / (m * y.size)
    try:
        return math.ldexp(math.sqrt(q), k // 2)
    except OverflowError:
        raise ValueError("rho = sqrt(sum(intensities) / (tau1 N)) is beyond float range: "
                         f"sqrt({q}) * 2^{k // 2} for tau1={tau1}") from None


def build_Y(mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """Y = (1/N) sum_j y_j a_j a_j*, PSD, without materializing the rank-one
    matrices: one triangle is formed by a rank-N update with the rows
    sqrt(y_j) a_j, so Y is exactly Hermitian with a real diagonal. The rows
    are weighted in a copy; `mset.vectors` is left unchanged.

    `y` must be real, finite, nonnegative and of shape (N,); other input
    raises ValueError."""
    _instance(mset, "mset", MeasurementSet)
    return _Y(mset.vectors, _intensities(y, mset.N))


def _Y(A: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Y of the rows of A for a checked `y`, the one place rows are weighted by y.
    The rows sqrt(y_j) a_j are written to `out`, a new array when None; a
    caller that owns A and is done with its plain rows passes out=A."""
    return _gram(np.multiply(A, np.sqrt(y)[:, None], out=out)) / A.shape[0]


def build_M(Y: np.ndarray, rho: float, profile: MomentProfile) -> np.ndarray:
    """M = Y - (tau4/(tau3+tau4)) * D(Y - tau2 rho^2 I); off-diagonal equals Y's.
    `Y` must be a finite square numeric matrix, taken as Hermitian unchecked (an
    integer one gives a float64 M), and `rho` a finite real >= 0, else ValueError; so
    is a tau2 rho^2 or a diagonal of M beyond float range."""
    Y = _matrix(Y, "Y")
    rho = _number(rho, "rho", 0)
    _instance(profile, "profile", MomentProfile)
    c = profile.tau4 / (profile.tau3 + profile.tau4)
    try:  # ** raises OverflowError where the product would be inf
        shift = profile.tau2 * rho ** 2
    except OverflowError:
        shift = math.inf
    M = Y.astype(np.result_type(Y, np.float64))
    diag = np.diagonal(Y).real
    with np.errstate(over="ignore", invalid="ignore"):
        diag = diag - c * (diag - shift)
    if not np.isfinite(diag).all():  # an inf shift leaves it inf or nan
        raise ValueError(f"M's diagonal leaves float range at rho={rho}: tau2 rho^2 = {shift}")
    np.fill_diagonal(M, diag)
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
    Raises ValueError when M, taken as Hermitian unchecked, is not a finite
    square numeric matrix, and when a product has a norm outside (0, inf): M
    is zero, or so small or large that ||M v||^2 underflows or overflows.
    """
    _integer(iters, "iters", 1)
    M = _matrix(M, "M")
    v = _direction(_rng(seed), M.shape[0], np.iscomplexobj(M))
    Mv = M @ v
    for _ in range(iters):
        nw = _norm(Mv)
        if not 0.0 < nw < math.inf:
            raise ValueError(f"power method breaks down: ||M v|| = {nw}; M must be "
                             "nonzero, with ||M v||^2 within float range")
        v = Mv / nw
        Mv = M @ v
    lam = float(np.vdot(v, Mv).real)
    return lam, v, _norm(Mv - lam * v)


def _gsi_from_Y(Y: np.ndarray, y: np.ndarray, profile: MomentProfile,
                power_iters: int, seed: SeedLike) -> InitResult:
    rho = rho_from_intensities(y, profile.tau1)
    M = build_M(Y, rho, profile)
    lam, v, residual = power_method(M, iters=power_iters, seed=seed)
    return InitResult(rho * v, rho, lam, residual)


def _si_from_Y(Y: np.ndarray, y: np.ndarray, sum_a2: float,
               power_iters: int, seed: SeedLike) -> InitResult:
    """SI from Y and sum_a2 = sum_j ||a_j||^2 over the plain rows."""
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

    `y` must be real, finite, nonnegative and of shape (N,). Every argument is
    checked before Y is formed."""
    _instance(mset, "mset", MeasurementSet)
    y = _intensities(y, mset.N)
    _instance(profile, "profile", MomentProfile)
    _integer(power_iters, "iters", 1)
    rng = _rng(seed)
    return _gsi_from_Y(_Y(mset.vectors, y), y, profile, power_iters, rng)


def baseline_si(
    mset: MeasurementSet,
    y: np.ndarray,
    power_iters: int = DEFAULT_POWER_ITERS,
    seed: SeedLike = 0,
) -> InitResult:
    """Classical spectral initialization: top eigenvector of Y, scaled by
    lam_SI = sqrt(d * sum(y) / sum_j ||a_j||^2). `y` must be real, finite,
    nonnegative and of shape (N,). Every argument is checked before Y is formed."""
    A, y = _instance(mset, "mset", MeasurementSet).vectors, _intensities(y, mset.N)
    _integer(power_iters, "iters", 1)
    rng = _rng(seed)
    return _si_from_Y(_Y(A, y), y, float(np.vdot(A, A).real), power_iters, rng)
