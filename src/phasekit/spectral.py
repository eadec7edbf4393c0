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
weight a copy of the caller's rows, leave `mset.vectors` as it was and
return a Y of its own; only a private caller done with its rows lets them
be weighted in place and, when complex, receive Y too (`_Y`).
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
    _gram,
    _inner,
    _instance,
    _integer,
    _intensities,
    _ldexp,
    _matrix,
    _norm,
    _number,
    _rng,
    _to_unit,
    _unit_args,
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
    finite, of shape (d,) and real for real rows. One scale rule (README),
    k = 2: underflow rounds silently to a subnormal or 0.0."""
    e, x = _unit_args(mset, x=x)
    return _ldexp(_inner(mset.vectors, x)[1], 2 * e, "y_j = |<a_j, x>|^2")


def rho_from_intensities(y: np.ndarray, tau1: float) -> float:
    """rho = sqrt(sum(y) / (tau1 * N)) for a nonempty 1-D `y` of real, finite,
    nonnegative intensities and a finite real tau1 > 0; other input raises ValueError.

    With tau1 = m 2^t, m in [0.5, 1), it is formed as sqrt(s / (m 2^(t % 2) N))
    2^(e - t // 2), s the sum of y at unit scale, y * 2^-2e: every rounding is the
    formula's, so no power-of-two rescaling of y or tau1 changes a bit. One scale
    rule (README), k = 1: underflow rounds silently to a subnormal."""
    _number(tau1, "tau1", 0, strict=True)
    return _rho(*_to_unit(y=_intensities(y)), tau1)


def _rho(e: int, y: np.ndarray, tau1: float) -> float:
    """`rho_from_intensities` of checked intensities at unit scale, y * 2^-2e."""
    m, t = math.frexp(tau1)
    q = float(y.sum()) / (math.ldexp(m, t % 2) * y.size)
    return _ldexp(math.sqrt(q), e - t // 2, "rho = sqrt(sum(intensities) / (tau1 N))")


def build_Y(mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """Y = (1/N) sum_j y_j a_j a_j*, PSD, without materializing the rank-one
    matrices: one triangle is formed by a rank-N update with the rows
    sqrt(y_j) a_j, so Y is exactly Hermitian with a real diagonal. The rows
    are weighted in a copy; `mset.vectors` is left unchanged.

    `y` must be real, finite, nonnegative and of shape (N,); other input
    raises ValueError. Scale rule k = 2, as `measure` says."""
    e, y = _unit_args(mset, y=y)
    return _ldexp(_Y(mset.vectors, y), 2 * e, "Y")


def _Y(A: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Y of the rows of A for a checked `y`, the one place rows are weighted by y.
    The rows sqrt(y_j) a_j are written to `out`, a new array when None; a
    caller that owns A and is done with its plain rows passes out=A. Such spent
    rows, if complex and N >= d, also receive Y: `_gram` folds it over their
    first d^2 entries, so the real product of their view is the one new array;
    real rows, or fewer than d, give a new Y. The public calls pass no `out`, so
    none returns a view of rows. A Y beyond float range, as rows too large for
    the scale rule give, raises naming Y."""
    W = np.multiply(A, np.sqrt(y)[:, None], out=out)
    N, d = W.shape
    spent = out is not None and W.dtype.kind == "c" and N >= d
    Y = _gram(W, W.reshape(-1)[:d * d].reshape(d, d) if spent else None)
    Y /= N
    return _ldexp(Y, 0, "Y")


def build_M(Y: np.ndarray, rho: float, profile: MomentProfile) -> np.ndarray:
    """M = Y - (tau4/(tau3+tau4)) * D(Y - tau2 rho^2 I), rho^2 = rho * rho; off-diagonal
    equals Y's. `Y` must be a finite square numeric matrix, taken as Hermitian unchecked (M
    is float64 or complex128 for any dtype), and `rho` a finite real >= 0, else ValueError;
    so is a diagonal of M beyond float range, named with rho. M(4^j Y, 2^j rho) = 4^j M(Y, rho)
    bit for bit, since a float product is correctly rounded; rho ** 2 calls libm's pow, which
    glibc does not always round correctly."""
    Y = _matrix(Y, "Y")
    rho = float(_number(rho, "rho", 0))  # so an int's square overflows to inf, not an int
    _instance(profile, "profile", MomentProfile)
    c = profile.tau4 / (profile.tau3 + profile.tau4)
    shift = profile.tau2 * (rho * rho)  # a product, exact under power-of-two scaling
    M = Y.astype(np.result_type(Y, np.float64))
    diag = np.diagonal(M).real  # float64, as _ldexp requires, where Y's may be float32
    with np.errstate(over="ignore", invalid="ignore"):  # an inf shift leaves it inf or nan
        diag = diag - c * (diag - shift)
    np.fill_diagonal(M, _ldexp(diag, 0, f"M's diagonal at rho={rho}"))
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
    `baseline_si`. One scale rule (README): lam and residual k = 1, v k = 0;
    underflow rounds silently to a subnormal or 0.0. Raises ValueError also when
    M, taken as Hermitian unchecked, is not a finite square numeric matrix or is 0.
    """
    _integer(iters, "iters", 1)
    M = _matrix(M, "M")
    e, M = _to_unit(M.astype(np.result_type(M, np.float64), copy=False))
    lam, v, residual = _power(M, iters, seed)
    return _ldexp(lam, e, "lam"), v, _ldexp(residual, e, "residual")


def _power(M: np.ndarray, iters: int, seed: SeedLike) -> tuple[float, np.ndarray, float]:
    """`power_method` without input checks or scaling, for M at unit scale."""
    v = _direction(_rng(seed), M.shape[0], np.iscomplexobj(M))
    Mv = M @ v
    for _ in range(iters):
        nw = _norm(Mv)
        if not nw > 0.0:
            raise ValueError(f"power method breaks down: ||M v|| = {nw}; M must be nonzero")
        v = Mv / nw
        Mv = M @ v
    lam = float(np.vdot(v, Mv).real)
    return lam, v, _norm(Mv - lam * v)


def _init(M: np.ndarray, scale: float, e: int, power_iters: int, seed: SeedLike) -> InitResult:
    """z0 = scale * (top eigenvector of M) for M and scale formed from y * 2^-2e, scaled
    back: z0 and its scale by 2^e, and lam and residual, as M scales with y, by 2^(2e)."""
    lam, v, residual = _power(M, power_iters, seed)
    return InitResult(_ldexp(scale * v, e, "z0"), _ldexp(scale, e, "rho"),
                      _ldexp(lam, 2 * e, "lam"), _ldexp(residual, 2 * e, "residual"))


def _gsi_matrices(A: np.ndarray, y: np.ndarray, profile: MomentProfile,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, float, np.ndarray]:
    """GSI's (Y, rho, M) of rows A and checked unit-scale y, Y written to `out` as `_Y` says."""
    Y, rho = _Y(A, y, out=out), _rho(0, y, profile.tau1)
    return Y, rho, build_M(Y, rho, profile)


def _si_scale(A: np.ndarray, y: np.ndarray) -> float:
    """SI's scale sqrt(d sum(y) / sum_j ||a_j||^2) of plain C-contiguous rows A and unit-scale y.
    The squares are summed row by row, then over rows, so no BLAS thread count sets the order."""
    V = A.view(np.float64)
    sum_sq = float(np.einsum("ij,ij->i", V, V).sum())
    if sum_sq == 0.0:
        raise ValueError(f"SI's scale breaks down: sum_j ||a_j||^2 = {sum_sq}; "
                         "the rows must be nonzero")
    return math.sqrt(A.shape[1] * float(np.sum(y)) / sum_sq)


def gsi(
    mset: MeasurementSet,
    y: np.ndarray,
    profile: MomentProfile,
    power_iters: int = DEFAULT_POWER_ITERS,
    seed: SeedLike = 0,
) -> InitResult:
    """Generalized spectral initialization: z0 = rho * (top eigenvector of M).

    `y` must be real, finite, nonnegative and of shape (N,). Every argument is
    checked before Y is formed, from a weighted copy of the rows; nonzero y with
    all-zero rows raises ValueError. One scale rule (README): z0 and rho k = 1, lam
    and residual k = 2; underflow rounds silently to a subnormal or 0.0."""
    y = _intensities(y, _instance(mset, "mset", MeasurementSet).N)  # at the caller's scale
    _instance(profile, "profile", MomentProfile)
    _integer(power_iters, "power_iters", 1)
    return _paired_init(mset.vectors, y, profile, power_iters, _rng(seed))[0]


def baseline_si(
    mset: MeasurementSet,
    y: np.ndarray,
    power_iters: int = DEFAULT_POWER_ITERS,
    seed: SeedLike = 0,
) -> InitResult:
    """Classical spectral initialization: top eigenvector of Y, scaled by
    lam_SI = sqrt(d * sum(y) / sum_j ||a_j||^2). `y` must be real, finite,
    nonnegative and of shape (N,). Every argument is checked before Y is formed.
    Scale rule as `gsi` says."""
    e, y = _unit_args(mset, y=y)
    _integer(power_iters, "power_iters", 1)
    A, rng = mset.vectors, _rng(seed)
    return _init(_Y(A, y), _si_scale(A, y), e, power_iters, rng)


def _paired_init(A: np.ndarray, y: np.ndarray, profile: MomentProfile, power_iters: int,
                 gsi_seed: SeedLike, si_seed: SeedLike | None = None,
                 out: np.ndarray | None = None) -> tuple[InitResult, InitResult | None]:
    """The one GSI recipe: (`gsi`, `baseline_si`) of rows A and checked y from one Y, written
    to `out` as `_Y` says; SI is None unless si_seed is given, and its scale is taken from the
    plain rows first. Nonzero y with Y = 0 leaves M no direction: a ValueError."""
    e, y = _to_unit(y=y)
    scale = None if si_seed is None else _si_scale(A, y)  # before the rows are weighted
    Y, rho, M = _gsi_matrices(A, y, profile, out=out)
    if not Y.any() and y.any():  # M = c tau2 rho^2 I: no direction to find
        raise ValueError("GSI breaks down: Y = 0 while y != 0; the rows must be nonzero")
    g = _init(M, rho, e, power_iters, gsi_seed)  # rho at y's unit scale; _init scales it back
    return g, None if si_seed is None else _init(Y, scale, e, power_iters, si_seed)
