"""Monte-Carlo oracles for the moment identities and concentration behavior.

These estimators are the independent check that gates the closed-form
moment profiles in :mod:`phasekit.ensembles`: each one averages raw samples
of the relevant statistic and compares against the claimed expectation.
Tolerances are statistical: 5x a standard-error estimate obtained from
chunked (jackknife-style) resampling, never fixed absolute numbers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .ensembles import (
    Ensemble,
    Field,
    MomentProfile,
    SeedLike,
    _gram,
    _inner,
    as_rng,
    moment_profile,
    sample_entries,
    sample_measurements,
)
from .spectral import build_M, measure, rho_from_intensities

DEFAULT_CHUNKS = 20
FIT_FLOOR = 1e-12  # errors at or below this are rounding noise


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one Monte-Carlo check.

    `passed` holds iff residual <= tolerance and every component passed.
    Components carry sub-checks evaluated from the same sample stream.
    """

    estimator_name: str
    sample_count: int
    residual: float
    tolerance: float
    components: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance and all(c.passed for c in self.components)

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
    """Operator norm (largest |eigenvalue|) of a Hermitian matrix, by a dense
    eigensolve."""
    if not np.isfinite(H).all():
        raise ValueError("H must be finite")
    vals = np.linalg.eigvalsh(H)
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def _vector(v, d: Optional[int], dtype=None, name="x", nonzero=True) -> np.ndarray:
    """v as an array of `dtype` after checking that it has shape (d,), or is
    1-D of any length when d is None, is finite and, if `nonzero`, not zero."""
    v = np.asarray(v, dtype=dtype)
    if v.ndim != 1 or d not in (None, v.shape[0]):
        raise ValueError(f"{name} must have shape ({d or 'd'},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    if nonzero and not np.any(v):
        raise ValueError(f"{name} must be nonzero")
    return v


def _noise_scale(chunk_mats: Sequence[np.ndarray], overall: np.ndarray) -> float:
    """Standard-error estimate of the full-sample matrix mean, in operator
    norm, from the spread of equally sized chunk means."""
    k = len(chunk_mats)
    devs = [hermitian_opnorm(c - overall) for c in chunk_mats]
    return float(np.mean(devs)) / math.sqrt(k)


def _sample_chunks(ensemble: Ensemble, d: int, n_samples: int,
                   seed: SeedLike) -> tuple[int, Iterator[np.ndarray]]:
    """(m, chunks): DEFAULT_CHUNKS blocks of m = n_samples // DEFAULT_CHUNKS
    measurement rows of dimension d each, drawn one block at a time from one
    generator. Every Monte-Carlo oracle draws through here."""
    if n_samples < 10_000:
        raise ValueError("need n_samples >= 10000 for a meaningful check")
    rng = as_rng(seed)
    m = n_samples // DEFAULT_CHUNKS
    return m, (sample_entries(ensemble, (m, d), rng) for _ in range(DEFAULT_CHUNKS))


def _matrix_check(name: str, chunk_mats: Sequence[np.ndarray], expected: np.ndarray,
                  sample_count: int, components: tuple = ()) -> ResidualReport:
    """Score a matrix identity: the operator-norm distance of the mean of the
    chunk means from `expected`, against 5x their `_noise_scale`."""
    overall = sum(chunk_mats) / len(chunk_mats)
    return ResidualReport(name, sample_count, hermitian_opnorm(overall - expected),
                          5.0 * _noise_scale(chunk_mats, overall), components)


def condition_expectation(profile: MomentProfile, x: np.ndarray) -> np.ndarray:
    """E((x* A x) A) = tau2 ||x||^2 I + tau3 x x* + tau4 diag(|x_i|^2)."""
    d = x.shape[0]
    T = profile.tau2 * float(np.vdot(x, x).real) * np.eye(d, dtype=x.dtype) \
        + profile.tau3 * np.outer(x, x.conj())
    T[np.diag_indices(d)] += profile.tau4 * np.abs(x) ** 2
    return T


def mc_condition_residual(
    ensemble: Ensemble,
    d: int,
    x: np.ndarray,
    n_samples: int = 1_000_000,
    seed: SeedLike = 0,
    profile: Optional[MomentProfile] = None,
) -> ResidualReport:
    """Check E((x* A x) A) and E(A) against the (possibly injected) profile.

    The main residual is the operator-norm deviation of the empirical
    (1/n) sum (x* A x) A from the condition-(II) closed form; the component
    report checks (1/n) sum A against tau1 I.
    """
    dtype = np.complex128 if ensemble.field is Field.COMPLEX else np.float64
    x = _vector(x, d, dtype)
    m, chunks = _sample_chunks(ensemble, d, n_samples, seed)
    if profile is None:
        profile = moment_profile(ensemble)

    second_chunks, first_chunks = [], []
    for A in chunks:
        first_chunks.append(_gram(A) / m)
        A *= np.sqrt(_inner(A, x)[1])[:, None]  # the chunk is ours: weight in place
        second_chunks.append(_gram(A) / m)

    n = DEFAULT_CHUNKS * m
    mean_report = _matrix_check("ensemble-mean-identity", first_chunks,
                                profile.tau1 * np.eye(d, dtype=dtype), n)
    return _matrix_check("condition-II-identity", second_chunks,
                         condition_expectation(profile, x), n, (mean_report,))


def f_block_expectation(profile: MomentProfile, x: np.ndarray) -> np.ndarray:
    """Expected 2d x 2d block matrix of the stacked (A x, conj(A x)) outer
    products for a complex-field ensemble."""
    d = x.shape[0]
    I = np.eye(d)
    nx2 = float(np.vdot(x, x).real)
    B11 = profile.tau3 * nx2 * I + profile.tau2 * np.outer(x, x.conj()) \
        + profile.tau4 * np.diag(np.abs(x) ** 2)
    B12 = (profile.tau2 + profile.tau3) * np.outer(x, x) + profile.tau4 * np.diag(x ** 2)
    top = np.hstack([B11, B12])
    bottom = np.hstack([B12.conj(), B11.conj()])
    return np.vstack([top, bottom])


def mc_F_residual(
    ensemble: Ensemble,
    x: np.ndarray,
    n_samples: int = 1_000_000,
    seed: SeedLike = 0,
    profile: Optional[MomentProfile] = None,
) -> ResidualReport:
    """Check the block expectation of (1/n) sum [w; conj(w)][w; conj(w)]*
    with w = A_j x, for complex ensembles only."""
    if ensemble.field is not Field.COMPLEX:
        raise ValueError("mc_F_residual requires a complex-field ensemble; "
                         "use mc_condition_residual for real fields")
    x = _vector(x, None, np.complex128)
    m, chunks = _sample_chunks(ensemble, x.shape[0], n_samples, seed)
    if profile is None:
        profile = moment_profile(ensemble)

    f_chunks = []
    for A in chunks:
        w, w2 = _inner(A, x)
        W = A * w[:, None]                    # rows are A_j x
        B12 = W.T @ W / m
        A *= np.sqrt(w2)[:, None]             # the chunk is ours: weight in place
        B11 = _gram(A) / m                    # sum_j |<a_j, x>|^2 a_j a_j*
        top = np.hstack([B11, B12])
        bottom = np.hstack([B12.conj().T, B11.conj()])
        f_chunks.append(np.vstack([top, bottom]))
    return _matrix_check("stacked-block-identity", f_chunks,
                         f_block_expectation(profile, x), DEFAULT_CHUNKS * m)


def scalar_identity_expectations(profile: MomentProfile, x: np.ndarray, h: np.ndarray) -> tuple:
    """Closed forms of E(Re^2(h*Ax)), E(Re(h*Ax) h*Ah), E((h*Ah)^2) for
    unit-norm x, h with real h*x."""
    re_xh = float(np.real(np.vdot(x, h)))
    dx2h = float(np.real(np.vdot(h, (np.abs(x) ** 2) * h)))
    hx2h = complex(np.sum((x ** 2) * (h.conj() ** 2)))  # h* D(x^2) conj(h)
    e1 = profile.tau3 / 2.0 + (profile.tau2 + profile.tau3 / 2.0) * re_xh ** 2 \
        + (profile.tau4 / 2.0) * (dx2h + hx2h.real)
    e2 = (profile.tau2 + profile.tau3) * re_xh \
        + profile.tau4 * float(np.real(np.vdot(x, (np.abs(h) ** 2) * h)))
    e3 = (profile.tau2 + profile.tau3) + profile.tau4 * float(np.sum(np.abs(h) ** 4))
    return e1, e2, e3


def project_admissible(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rotate h's global phase so that h* x is real and nonnegative."""
    c = np.vdot(h, x)  # h* x
    if c == 0:
        return h
    return h * (c / abs(c))


def mc_scalar_identities(
    ensemble: Ensemble,
    x: np.ndarray,
    h: np.ndarray,
    n_samples: int = 1_000_000,
    seed: SeedLike = 0,
    profile: Optional[MomentProfile] = None,
) -> ResidualReport:
    """Check the three scalar expectations behind the curvature analysis.

    Requires ||x|| = ||h|| = 1; h is phase-projected to make h* x real.
    The report's residual is the largest of the three deviations measured in
    units of its own 5x-stderr tolerance (so tolerance is normalized to 1).
    """
    dtype = np.complex128 if ensemble.field is Field.COMPLEX else np.float64
    x = _vector(x, None, dtype)
    h = _vector(h, x.shape[0], dtype, "h")
    if abs(np.linalg.norm(x) - 1.0) > 1e-9 or abs(np.linalg.norm(h) - 1.0) > 1e-9:
        raise ValueError("x and h must be unit norm")
    h = project_admissible(x, h)
    if abs(float(np.imag(np.vdot(h, x)))) > 1e-9:
        raise ValueError("h* x must be real after phase projection")
    m, chunks = _sample_chunks(ensemble, x.shape[0], n_samples, seed)
    if profile is None:
        profile = moment_profile(ensemble)

    means = np.zeros((DEFAULT_CHUNKS, 3))
    for c, A in enumerate(chunks):
        wh, q = _inner(A, h)                    # <a_j, h> and h* A h >= 0
        t = (wh.conj() * _inner(A, x)[0]).real  # Re(h* A x)
        means[c] = [np.mean(t ** 2), np.mean(t * q), np.mean(q ** 2)]
    overall = means.mean(axis=0)
    stderr = means.std(axis=0, ddof=1) / math.sqrt(DEFAULT_CHUNKS)

    expected = np.array(scalar_identity_expectations(profile, x, h))
    devs = np.abs(overall - expected)
    tols = 5.0 * np.maximum(stderr, 1e-300)
    names = ("E(Re^2(h*Ax))", "E(Re(h*Ax) h*Ah)", "E((h*Ah)^2)")
    comps = tuple(
        ResidualReport(n, DEFAULT_CHUNKS * m, float(dv), float(tl))
        for n, dv, tl in zip(names, devs, tols)
    )
    worst = float(np.max(devs / tols))
    return ResidualReport("scalar-identities", DEFAULT_CHUNKS * m, worst, 1.0, comps)


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
    """Empirical quantiles of ||Y - E(Y)||, ||M - E(M)|| and |rho^2 - ||x||^2|
    over seeded trials, per measurement count N.

    Reference expectations use the analytic profile with the exact ||x||:
    E(Y) = tau2 ||x||^2 I + tau3 x x* + tau4 diag(|x_i|^2) and
    E(M) = tau2 ||x||^2 I + tau3 x x*.
    Trial (ni, t) draws from the seed's SeedSequence with (ni, t) appended to
    its spawn key; a Generator seed supplies the entropy by one draw of its
    stream.
    """
    if trials < 20:
        raise ValueError("need trials >= 20")
    profile = moment_profile(ensemble)
    dtype = np.complex128 if ensemble.field is Field.COMPLEX else np.float64
    x = _vector(x, d, dtype, nonzero=False)
    nx2 = float(np.vdot(x, x).real)

    EY = condition_expectation(profile, x)
    EM = profile.tau2 * nx2 * np.eye(d, dtype=dtype) + profile.tau3 * np.outer(x, x.conj())

    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(2 ** 63))
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rows = []
    for ni, N in enumerate(N_grid):
        y_devs, m_devs, rho_devs = [], [], []
        for t in range(trials):
            ss = np.random.SeedSequence(entropy=root.entropy,
                                        spawn_key=root.spawn_key + (ni, t))
            mset = sample_measurements(ensemble, N, d, ss)
            y = measure(mset, x)
            rho = rho_from_intensities(y, profile.tau1)
            A = mset.vectors
            A *= np.sqrt(y)[:, None]  # the trial's own rows: weight in place
            Y = _gram(A) / N
            M = build_M(Y, rho, profile)
            y_devs.append(hermitian_opnorm(Y - EY))
            m_devs.append(hermitian_opnorm(M - EM))
            rho_devs.append(abs(rho ** 2 - nx2) / nx2 if nx2 > 0 else abs(rho ** 2))
        rows.append(ConcentrationRow(
            int(N),
            float(np.median(y_devs)), float(np.quantile(y_devs, 0.95)),
            float(np.median(m_devs)), float(np.quantile(m_devs, 0.95)),
            float(np.median(rho_devs)), float(np.quantile(rho_devs, 0.95)),
        ))
    return rows


def convergence_rate_fit(trace: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of log(error) vs iteration on the segment between
    the first iterate and the numerical floor, i.e. up to the first point
    with error <= FIT_FLOOR = 1e-12 (once at the floor the error only bounces
    around in rounding noise). Returns (slope, r_squared); slope < 0 indicates
    geometric decay. A constant trace reports r_squared = 0."""
    trace = np.asarray(trace, dtype=np.float64)
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
