"""Monte-Carlo oracles for the moment identities and concentration behavior.

These estimators are the independent check that gates the closed-form
moment profiles in :mod:`phasekit.ensembles`: each one averages raw samples
of the relevant statistic and compares against the claimed expectation.
Tolerances are statistical: 5x a standard-error estimate from the spread of
20 equal chunk means (batch means), never fixed absolute numbers. Each chunk
is drawn as near-equal row blocks of at most 4 MiB whose sums are added in
place, so an oracle's memory does not grow with n_samples (`_draws` gives what
it holds). A chunk of more than one block is drawn block by block: a real law's
rows are those of one draw of the chunk, summed in another order, but a
complex law draws u and v per block, so its stream differs from a one-shot
draw. Each seed still gives the same bits on every run.

The curvature analysis's scalar expectations E(Re^2(h* A x)), E(Re(h* A x)
h* A h) and E((h* A h)^2) are quadratic forms of condition II's matrix and of
the F block, so a law that passes the two matrix oracles has them too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .ensembles import (
    Ensemble,
    Field,
    MomentProfile,
    SeedLike,
    _fits,
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
DEFAULT_SAMPLES = 1_000_000  # an oracle's n_samples, and verify-moments' --samples
_BLOCK_BYTES = 1 << 22  # the most bytes of rows an `mc_*` oracle draws at once: 4 MiB
FIT_FLOOR = 1e-12  # errors at or below this are rounding noise


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one Monte-Carlo check. `passed` holds iff residual <= tolerance at
    unit scale (one scale rule, README), so a pair that underflows to 0.0 at the caller's
    scale does not pass a wrong law, and every component passed. Components carry
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
    triangle is read, so [[0, 5], [0, 0]] gives 0.0; a norm beyond float range raises.
    LAPACK's solve may change its last bits with the BLAS thread count, as a complex
    256 x 256 one did (the limit `phasekit.bench` names)."""
    vals = np.linalg.eigvalsh(_matrix(H, "H"))
    return _ldexp(float(np.max(np.abs(vals))) if vals.size else 0.0, 0, "the operator norm of H")


def _draws(ensemble: Ensemble, x, d: Optional[int], seed: SeedLike) -> tuple:
    """The oracles' one sampler: (e, x * 2^-e, draw), x checked as a nonzero finite vector
    of the law's field and shape (d,) (any length if d is None), e by `_to_unit`.
    `draw(N, stat)` is stat(A, x * 2^-e), A the rows of a checked `sample_measurements` call
    of N rows on the one generator `_rng(seed)`, so successive calls continue one stream.
    A goes straight to `stat`, which may weight it in place (numpy does so through a buffer
    of at most 8192 entries), so one row set is live at a time. An `mc_*` oracle's chunk
    loop is `_chunk_means`, which draws each of its 20 chunks as `_blocks` of at most
    `_BLOCK_BYTES` (4 MiB) and packs each chunk's mean as the lower triangle
    `hermitian_opnorm` reads. So at any n_samples it holds one block of rows of d
    entries (8 B real, 16 B complex; a ternary draw adds 1 B per entry for one part's int8
    values and at most one 256 KiB block of raw words), the block's sums, and its packed
    means: 40 of n = d for condition II, 20 of n = 2d for the F block; at complex d = 128,
    5.0 and 10.0 MiB (10 and 20 MiB as full matrices), and half that for real means.
    `concentration_curve` draws each trial as one block, so it holds one trial's rows at a
    time."""
    x = _vector(x, d, ensemble.field.dtype)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    e, x = _to_unit(x)
    rng = _rng(seed)

    def draw(N: int, stat: Callable) -> tuple:
        return stat(sample_measurements(ensemble, N, x.shape[0], rng).vectors, x)
    return e, x, draw


def _blocks(m: int, x: np.ndarray) -> list:
    """The row counts of a chunk of m rows of x's length and dtype cut into k near-equal blocks,
    k = ceil(chunk bytes / `_BLOCK_BYTES`) but at most m, the first m % k one row longer."""
    k = min(m, -(-m * x.nbytes // _BLOCK_BYTES))
    return [m // k + (i < m % k) for i in range(k)]


def _condition_sums(A: np.ndarray, x: np.ndarray) -> tuple:
    """The block sums of A and of (x* A x) A, the second from the rows w_j a_j over A."""
    first = _gram(A)
    A *= _inner(A, x)[0][:, None]
    return first, _gram(A)


def _f_sums(A: np.ndarray, x: np.ndarray) -> tuple:
    """The F block's two block sums from the rows w_j a_j, w_j = <a_j, x>, written over A."""
    A *= _inner(A, x)[0][:, None]
    return _gram(A), A.T @ A


def _chunk_means(draw: Callable, n_samples, x: np.ndarray, stat: Callable,
                 form: Callable = lambda *means: means) -> tuple:
    """The oracles' one chunk loop: (20 m, the chunks of matrix 1, of matrix 2, ...), for
    n_samples an integer >= 10000 and m = n_samples // 20; a chunk of x's length and dtype
    that no numpy array holds raises, naming it. Each of the 20 chunks is drawn as `_blocks`
    of m rows, each block's `stat` sums added in place into the first block's. `form` maps
    the chunk's means (the sums over m) to its matrices, the means themselves by default,
    and each matrix is packed as its lower triangle, row by row, which `_matrix_check` reads."""
    m = _integer(n_samples, "n_samples", 10_000) // DEFAULT_CHUNKS
    _fits(m, x.shape[0], f"n_samples // {DEFAULT_CHUNKS}", x.itemsize)
    blocks = _blocks(m, x)

    def chunk() -> list:  # a scope, so no chunk's sums are live while the next is drawn
        sums = draw(blocks[0], stat)
        for N in blocks[1:]:
            for total, s in zip(sums, draw(N, stat)):
                total += s
        return [C[np.tri(len(C), dtype=bool)] for C in form(*(s / m for s in sums))]
    return (DEFAULT_CHUNKS * m, *zip(*(chunk() for _ in range(DEFAULT_CHUNKS))))


def _f_block(B11: np.ndarray, B12: np.ndarray) -> np.ndarray:
    """[[B11, B12], [B12*, conj(B11)]] for a symmetric B12, as a syrk's X.T @ X is."""
    F = np.empty((2, len(B11), 2, len(B11)), np.result_type(B11, B12))  # F[a, :, b]: block a, b
    F[0, :, 0], F[0, :, 1], F[1, :, 0], F[1, :, 1] = B11, B12, B12.conj(), B11.conj()
    return F.reshape(2 * len(B11), 2 * len(B11))


def _matrix_check(name: str, chunk_tris: Sequence, expected: np.ndarray, sample_count: int,
                  e: int, components: tuple = ()) -> ResidualReport:
    """Score a matrix identity at unit scale, where `passed` is decided: the operator-norm
    distance of the mean of the k chunk means from `expected`, against 5x its standard
    error, the chunk means' mean operator-norm deviation from it over sqrt(k), scaled back
    by 2^(2e). Either, or the mean itself, beyond float range raises a ValueError naming it.
    Chunk means come packed by `_chunk_means`; each difference is unpacked into one n x n
    buffer, upper triangle 0, as `hermitian_opnorm` reads only the lower one."""
    k, H = len(chunk_tris), np.zeros(expected.shape, expected.dtype)
    low = np.tri(len(H), dtype=bool)
    overall = _ldexp(sum(chunk_tris) / k, 0, f"the mean of the chunk means of {name}")

    def opnorm(lower: np.ndarray) -> float:
        H[low] = lower
        return hermitian_opnorm(H)
    noise = float(np.mean([opnorm(c - overall) for c in chunk_tris])) / math.sqrt(k)
    r, t = opnorm(overall - expected[low]), 5.0 * noise
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
    n_samples: int = DEFAULT_SAMPLES,
    seed: SeedLike = 0,
) -> ResidualReport:
    """Check E((x* A x) A) and E(A) against the law's closed-form profile.

    The main residual is the operator-norm deviation of the empirical
    (1/n) sum (x* A x) A from the condition-(II) closed form; the component
    report checks (1/n) sum A against tau1 I. The law's declared moments are the
    ones checked: to check others, declare them on an EntryDistribution, which may
    reuse a built-in law's sampler. One scale rule (README): residual and tolerance
    k = 2, the component's k = 0, as E(A) does not depend on x. Each of the 20 chunks of
    n_samples // 20 rows is drawn in row blocks of at most 4 MiB (the module docstring), so
    the call holds one block, its two Gram sums and the packed chunk means at any n_samples.
    """
    _integer(d, "d", 1)
    profile = moment_profile(ensemble)
    e, x, draw = _draws(ensemble, x, d, seed)
    count, first_chunks, second_chunks = _chunk_means(draw, n_samples, x, _condition_sums)
    mean_report = _matrix_check("ensemble-mean-identity", first_chunks,
                                profile.tau1 * np.eye(d, dtype=x.dtype), count, 0)
    return _matrix_check("condition-II-identity", second_chunks,
                         condition_expectation(profile, x), count, e, (mean_report,))


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
    n_samples: int = DEFAULT_SAMPLES,
    seed: SeedLike = 0,
) -> ResidualReport:
    """Check the block expectation of (1/n) sum [w; conj(w)][w; conj(w)]* with w = A_j x,
    for complex ensembles only. Both blocks come from the rows weighted in place, and the
    upper-left one is `mc_condition_residual`'s condition-II chunk mean. Scale rule and row
    blocks as there: residual and tolerance k = 2, and the call holds one block, its two
    sums and the packed chunk means at any n_samples."""
    if _instance(ensemble, "ensemble", Ensemble).field is not Field.COMPLEX:
        raise ValueError("mc_F_residual requires a complex-field ensemble; "
                         "use mc_condition_residual for real fields")
    profile = moment_profile(ensemble)
    e, x, draw = _draws(ensemble, x, None, seed)
    count, chunks = _chunk_means(draw, n_samples, x, _f_sums,
                                 lambda B11, B12: (_f_block(B11, B12),))
    return _matrix_check("stacked-block-identity", chunks, f_block_expectation(profile, x),
                         count, e)


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
    part). The trials draw their rows through `_draws`, grid entry by grid entry, each
    trial's N rows as one block, since `gsi` forms Y with one syrk; an N_grid[i] of more
    rows than a numpy array holds raises a ValueError naming it (`_fits`) before any draw.
    They work at x's unit scale, where each measures the Y, rho and M that `gsi` forms,
    with rho^2 = rho * rho. One scale rule (README): the Y and M columns are scaled back by
    2^(2e), raising a ValueError that names one beyond float range, and the relative rho
    columns have k = 0.
    """
    _integer(d, "d", 1)
    _integer(trials, "trials", 20)
    N_grid = _sequence(N_grid, "N_grid", _integer, 1)
    profile = moment_profile(ensemble)
    e, x, draw = _draws(ensemble, x, d, seed)
    for i, N in enumerate(N_grid):
        _fits(N, d, f"N_grid[{i}]", x.itemsize)
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
        y_devs, m_devs, rho_devs = zip(*(draw(N, trial) for _ in range(trials)))
        rows.append(ConcentrationRow(N, *quantiles(y_devs, 2, "y_dev"),
                                     *quantiles(m_devs, 2, "m_dev"),
                                     *quantiles(rho_devs, 0, "rho_dev")))
    return rows


def convergence_rate_fit(trace: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of log(error) vs iteration on the segment between
    the first iterate and the numerical floor, i.e. up to the first point
    with error <= FIT_FLOOR = 1e-12 (once at the floor the error only bounces
    around in rounding noise). Returns (slope, r_squared); slope < 0 indicates
    geometric decay. A constant trace reports r_squared = 0. The trace is 1-D and real;
    its values before the floor must be finite, and those past it are not read."""
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
