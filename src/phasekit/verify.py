"""Monte-Carlo oracles for the moment identities and concentration behavior.

These estimators are the independent check that gates the closed-form
moment profiles in :mod:`phasekit.ensembles`: each one averages raw samples
of the relevant statistic and compares against the claimed expectation.
Tolerances are statistical: 5x a standard-error estimate from the spread of
20 equal chunk means (batch means), never fixed absolute numbers.

The curvature analysis's scalar expectations E(Re^2(h* A x)), E(Re(h* A x)
h* A h) and E((h* A h)^2) are quadratic forms of condition II's matrix and of
the F block, so a law that passes the two matrix oracles has them too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .ensembles import (
    Ensemble,
    Field,
    MomentProfile,
    SeedLike,
    _gram,
    _inner,
    _instance,
    _integer,
    _ldexp,
    _matrix,
    _REALS,
    _rng,
    _sequence,
    _to_unit,
    _vector,
    moment_profile,
    sample_measurements,
)
from .spectral import _gsi_matrices

DEFAULT_CHUNKS = 20
FIT_FLOOR = 1e-12  # errors at or below this are rounding noise


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one Monte-Carlo check. `passed` holds iff residual <= tolerance at
    unit scale (one scale rule, README) and every component passed. Components carry
    sub-checks evaluated from the same sample stream.
    """

    estimator_name: str
    sample_count: int
    residual: float
    tolerance: float
    passed: bool
    components: tuple = field(default=())

    def to_dict(self) -> dict:
        out = {
            "estimator": self.estimator_name,
            "samples": self.sample_count,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.components:
            out["components"] = [c.to_dict() for c in self.components]
        return out


def hermitian_opnorm(H: np.ndarray) -> float:
    """Operator norm (largest |eigenvalue|) of a finite square numeric matrix
    by a dense eigensolve. H is taken as Hermitian, unchecked: only its lower
    triangle is read, so [[0, 5], [0, 0]] gives 0.0; a norm beyond float range raises."""
    vals = np.linalg.eigvalsh(_matrix(H, "H"))
    return _ldexp(float(np.max(np.abs(vals))) if vals.size else 0.0, 0, "the operator norm of H")


def _draws(ensemble: Ensemble, x, d: Optional[int], seed: SeedLike) -> tuple:
    """The oracles' one sampling loop: (e, x * 2^-e, draw), x checked as a nonzero finite
    vector of the law's field and shape (d,) (any length if d is None), e by `_to_unit`.
    `draw(sizes, stat)` is [stat(A, x * 2^-e) for N in sizes], A the rows of a checked
    `sample_measurements` call of N rows on the one generator `_rng(seed)`, in order. A
    goes straight to `stat`, which may weight it in place, so one row set is live at a time, beside
    the stats so far: `mc_*` chunk means packed as the lower triangles `hermitian_opnorm` reads."""
    x = _vector(x, d, ensemble.field.dtype)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    e, x = _to_unit(x)
    rng = _rng(seed)

    def draw(sizes: Sequence[int], stat: Callable) -> list:
        return [stat(sample_measurements(ensemble, N, x.shape[0], rng).vectors, x)
                for N in sizes]
    return e, x, draw


def _condition_chunk(tril: np.ndarray, A: np.ndarray, x: np.ndarray) -> tuple:
    """The packed chunk means of A and of (x* A x) A, the second from the rows w_j a_j over A."""
    mean = _gram(A).ravel()[tril] / A.shape[0]
    A *= _inner(A, x)[0][:, None]
    return mean, _gram(A).ravel()[tril] / A.shape[0]


def _f_chunk(tril: np.ndarray, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The F block's packed chunk mean from the rows w_j a_j, w_j = <a_j, x>, written over A."""
    A *= _inner(A, x)[0][:, None]
    return _f_block(_gram(A) / A.shape[0], A.T @ A / A.shape[0]).ravel()[tril]


def _f_block(B11: np.ndarray, B12: np.ndarray) -> np.ndarray:
    """[[B11, B12], [B12*, conj(B11)]] for a symmetric B12, as a syrk's X.T @ X is."""
    F = np.empty((2, len(B11), 2, len(B11)), np.result_type(B11, B12))  # F[a, :, b]: block a, b
    F[0, :, 0], F[0, :, 1], F[1, :, 0], F[1, :, 1] = B11, B12, B12.conj(), B11.conj()
    return F.reshape(2 * len(B11), -1)


def _matrix_check(name: str, chunk_tris: Sequence, tril: np.ndarray, expected: np.ndarray,
                  sample_count: int, e: int, components: tuple = ()) -> ResidualReport:
    """Score a matrix identity at unit scale, where `passed` is decided: the operator-norm
    distance of the mean of the k chunk means from `expected`, against 5x its standard
    error, the chunk means' mean operator-norm deviation from it over sqrt(k), scaled back
    by 2^(2e). Either, or the mean itself, beyond float range raises a ValueError naming it.
    Chunk means come packed, as lower triangles C.ravel()[tril]; each difference is unpacked
    into one n x n buffer, upper triangle 0, as `hermitian_opnorm` reads only the lower one."""
    k, H = len(chunk_tris), np.zeros(expected.shape, expected.dtype)
    overall = _ldexp(sum(chunk_tris) / k, 0, f"the mean of the chunk means of {name}")

    def opnorm(lower: np.ndarray) -> float:
        H.ravel()[tril] = lower
        return hermitian_opnorm(H)
    noise = float(np.mean([opnorm(c - overall) for c in chunk_tris])) / math.sqrt(k)
    r, t = opnorm(overall - expected.ravel()[tril]), 5.0 * noise
    return ResidualReport(name, sample_count, _ldexp(r, 2 * e, f"the residual of {name}"),
                          _ldexp(t, 2 * e, f"the tolerance of {name}"),
                          r <= t and all(c.passed for c in components), components)


def condition_expectation(profile: MomentProfile, x: np.ndarray) -> np.ndarray:
    """E((x* A x) A) = tau2 ||x||^2 I + tau3 x x* + tau4 diag(|x_i|^2), for x a finite
    1-D array of numbers, taken as float64 or, if complex, complex128. One scale rule
    (README), k = 2: underflow rounds silently to a subnormal or 0.0."""
    _instance(profile, "profile", MomentProfile)
    x = _vector(x, None, np.complex128 if np.iscomplexobj(x) else np.float64)
    e, x = _to_unit(x)
    d = x.shape[0]
    T = profile.tau2 * float(np.vdot(x, x).real) * np.eye(d, dtype=x.dtype) \
        + profile.tau3 * np.outer(x, x.conj())
    T[np.diag_indices(d)] += profile.tau4 * np.abs(x) ** 2
    return _ldexp(T, 2 * e, "E((x* A x) A)")


def mc_condition_residual(
    ensemble: Ensemble,
    d: int,
    x: np.ndarray,
    n_samples: int = 1_000_000,
    seed: SeedLike = 0,
) -> ResidualReport:
    """Check E((x* A x) A) and E(A) against the law's closed-form profile.

    The main residual is the operator-norm deviation of the empirical
    (1/n) sum (x* A x) A from the condition-(II) closed form; the component
    report checks (1/n) sum A against tau1 I.
    """
    _integer(d, "d", 1)
    profile = moment_profile(ensemble)
    e, x, draw = _draws(ensemble, x, d, seed)
    m = _integer(n_samples, "n_samples", 10_000) // DEFAULT_CHUNKS
    tril = np.flatnonzero(np.tri(d, dtype=bool))
    first_chunks, second_chunks = zip(*draw([m] * DEFAULT_CHUNKS, partial(_condition_chunk, tril)))
    mean_report = _matrix_check("ensemble-mean-identity", first_chunks, tril,
                                profile.tau1 * np.eye(d, dtype=x.dtype), DEFAULT_CHUNKS * m, 0)
    return _matrix_check("condition-II-identity", second_chunks, tril,
                         condition_expectation(profile, x), DEFAULT_CHUNKS * m, e, (mean_report,))


def f_block_expectation(profile: MomentProfile, x: np.ndarray) -> np.ndarray:
    """Expected 2d x 2d block matrix of the stacked (A x, conj(A x)) outer
    products for a complex-field ensemble. Its upper-left block is
    condition II's E((x* A x) A), `condition_expectation(profile, x)`; x is
    checked, and the result scaled, as there."""
    x = _vector(x, None, np.complex128 if np.iscomplexobj(x) else np.float64)
    e, x = _to_unit(x)  # so condition_expectation's own e is 0
    B11 = condition_expectation(profile, x)
    B12 = (profile.tau2 + profile.tau3) * np.outer(x, x) + profile.tau4 * np.diag(x ** 2)
    return _ldexp(_f_block(B11, B12), 2 * e, "the F block")


def mc_F_residual(
    ensemble: Ensemble,
    x: np.ndarray,
    n_samples: int = 1_000_000,
    seed: SeedLike = 0,
) -> ResidualReport:
    """Check the block expectation of (1/n) sum [w; conj(w)][w; conj(w)]* with w = A_j x,
    for complex ensembles only. Both blocks come from the chunk's rows weighted in place,
    and the upper-left one is `mc_condition_residual`'s condition-II chunk mean."""
    if _instance(ensemble, "ensemble", Ensemble).field is not Field.COMPLEX:
        raise ValueError("mc_F_residual requires a complex-field ensemble; "
                         "use mc_condition_residual for real fields")
    profile = moment_profile(ensemble)
    e, x, draw = _draws(ensemble, x, None, seed)
    m = _integer(n_samples, "n_samples", 10_000) // DEFAULT_CHUNKS
    tril = np.flatnonzero(np.tri(2 * x.shape[0], dtype=bool))
    chunks = draw([m] * DEFAULT_CHUNKS, partial(_f_chunk, tril))
    return _matrix_check("stacked-block-identity", chunks, tril, f_block_expectation(profile, x),
                         DEFAULT_CHUNKS * m, e)


@dataclass(frozen=True)
class ConcentrationRow:
    N: int
    y_dev_median: float
    y_dev_q95: float
    m_dev_median: float
    m_dev_q95: float
    rho_dev_median: float
    rho_dev_q95: float

    def to_dict(self) -> dict:
        return asdict(self)


def concentration_curve(
    ensemble: Ensemble,
    d: int,
    x: np.ndarray,
    N_grid: Sequence[int],
    trials: int = 50,
    seed: SeedLike = 0,
) -> list[ConcentrationRow]:
    """Empirical quantiles of ||Y - E(Y)||, ||M - E(M)|| and |rho^2 - ||x||^2| / ||x||^2
    over seeded trials, per measurement count N.

    Reference expectations use the analytic profile with the exact ||x||: E(Y) =
    `condition_expectation(profile, x)`, and E(M) is that with tau4 = 0 (M drops Y's tau4
    part). The trials draw their rows through `_draws`, grid entry by grid entry, as the
    `mc_*` oracles draw their chunks, and work at x's unit scale, where each measures the
    Y, rho and M that `gsi` forms, with rho^2 = rho * rho. One scale rule (README):
    the Y and M columns are scaled back by 2^(2e), raising a ValueError that names one
    beyond float range, and the relative rho columns have k = 0.
    """
    _integer(d, "d", 1)
    _integer(trials, "trials", 20)
    N_grid = _sequence(N_grid, "N_grid", _integer, 1)
    profile = moment_profile(ensemble)
    e, x, draw = _draws(ensemble, x, d, seed)
    nx2 = float(np.vdot(x, x).real)
    EY = condition_expectation(profile, x)
    EM = condition_expectation(replace(profile, tau4=0.0), x)

    def trial(A: np.ndarray, x: np.ndarray) -> tuple[float, float, float]:
        Y, rho, M = _gsi_matrices(A, _inner(A, x)[1], profile, out=A)
        return hermitian_opnorm(Y - EY), hermitian_opnorm(M - EM), abs(rho * rho - nx2) / nx2

    def quantiles(devs: Sequence[float], k: int, name: str) -> list[float]:
        return [_ldexp(float(np.median(devs)), k * e, f"{name}_median"),
                _ldexp(float(np.quantile(devs, 0.95)), k * e, f"{name}_q95")]

    rows = []
    for N in N_grid:
        y_devs, m_devs, rho_devs = zip(*draw([N] * trials, trial))
        rows.append(ConcentrationRow(N, *quantiles(y_devs, 2, "y_dev"),
                                     *quantiles(m_devs, 2, "m_dev"),
                                     *quantiles(rho_devs, 0, "rho_dev")))
    return rows


def convergence_rate_fit(trace: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of log(error) vs iteration on the segment between
    the first iterate and the numerical floor, i.e. up to the first point
    with error <= FIT_FLOOR = 1e-12 (once at the floor the error only bounces
    around in rounding noise). Returns (slope, r_squared); slope < 0 indicates
    geometric decay. A constant trace reports r_squared = 0."""
    trace = np.asarray(trace)
    if trace.dtype.kind not in _REALS:
        raise ValueError(f"trace must be an array of real numbers, got {trace.dtype}")
    trace = trace.astype(np.float64, copy=False)
    if trace.ndim != 1:
        raise ValueError(f"trace must be 1-D, got shape {trace.shape}")
    at_floor = np.flatnonzero(trace <= FIT_FLOOR)
    end = int(at_floor[0]) if at_floor.size else trace.size
    if not np.isfinite(trace[:end]).all():
        raise ValueError("trace must be finite before the floor")
    pts = np.log(trace[:end])
    ks = np.arange(end, dtype=np.float64)
    if pts.size < 10:
        raise ValueError(f"need >= 10 trace points above floor, got {pts.size}")
    slope, intercept = np.polyfit(ks, pts, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((pts - fitted) ** 2))
    ss_tot = float(np.sum((pts - np.mean(pts)) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)
