"""Nonconvex objective, gradient, phase-aligned distance and the descent loop.

The objective is E(z) = (1/2N) sum_j (|<a_j, z>|^2 - y_j)^2 with gradient

    g(z) = (1/N) sum_j (|<a_j, z>|^2 - y_j) <a_j, z> a_j

fixed by the convention that the real directional derivative of E along a
direction u equals 2 Re<u, g>. The same formulas serve both fields.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .ensembles import Field, MeasurementSet, _checked_intensities, _inner, _is_int, _norm

DEFAULT_MAX_ITERS = 2000
# the descent stops once ||g(z)|| <= GRAD_NORM_TOL * ||z||^3; the gradient is
# cubic in the signal scale, g(c z; c^2 y) = c^3 g(z; y), so the rule is too
GRAD_NORM_TOL = 1e-13


@dataclass(frozen=True)
class FixedStep:
    xi: float

    def __post_init__(self):
        if not self.xi > 0:
            raise ValueError(f"fixed step size must be positive, got {self.xi}")


@dataclass(frozen=True)
class BarzilaiBorwein:
    """BB stepping. `first_step` defaults to 0.1/||g(z0)||; a step whose BB
    quotient is degenerate (see `bb_step`) takes the first step again."""

    first_step: Optional[float] = None


StepMode = Union[FixedStep, BarzilaiBorwein]


class SolveStatus(Enum):
    GRAD_TOLERANCE_MET = "grad_tolerance_met"
    MAX_ITERS = "max_iters"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class SolverConfig:
    """Descent settings. `max_iters`, an integer >= 1, caps the updates."""

    step_mode: StepMode = field(default_factory=BarzilaiBorwein)
    max_iters: int = DEFAULT_MAX_ITERS
    trace: bool = False

    def __post_init__(self):
        if not (_is_int(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"'max_iters' must be an integer >= 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class AlignedDistance:
    theta: float   # in [0, 2*pi)
    value: float   # min over theta of ||z - x e^{i theta}||


@dataclass
class SolveReport:
    final_z: np.ndarray
    iterations: int
    status: SolveStatus
    objectives: Optional[list] = None
    grad_norms: Optional[list] = None
    rel_errors: Optional[list] = None


def _gradient(A: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """g(z) without input checks: the kernel of `gradient` and `solve`."""
    w, r = _inner(A, z)
    r -= y
    g = (r * w) @ A
    g /= A.shape[0]
    return g


def _checked_point(z: np.ndarray, mset: MeasurementSet) -> np.ndarray:
    z = np.asarray(z)
    if z.shape != (mset.d,):
        raise ValueError(f"z has shape {z.shape}, expected ({mset.d},)")
    return z


def objective(z: np.ndarray, mset: MeasurementSet, y: np.ndarray) -> float:
    """(1/2N) sum_j (|<a_j, z>|^2 - y_j)^2."""
    r = _inner(mset.vectors, _checked_point(z, mset))[1] - y
    return float(np.sum(r ** 2)) / (2.0 * mset.N)


def gradient(z: np.ndarray, mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """(1/N) sum_j (|w_j|^2 - y_j) w_j a_j with w_j = <a_j, z>."""
    return _gradient(mset.vectors, y, _checked_point(z, mset))


def phase_align(z: np.ndarray, x: np.ndarray) -> AlignedDistance:
    """theta minimizing ||z - x e^{i theta}|| and the minimal value.

    Complex inputs: theta = arg(x* z); real inputs: theta in {0, pi}.
    If x* z = 0 the angle is defined as 0."""
    z = np.asarray(z)
    x = np.asarray(x)
    if z.shape != x.shape:
        raise ValueError(f"shape mismatch {z.shape} vs {x.shape}")
    c = np.vdot(x, z)  # x* z
    if np.iscomplexobj(z) or np.iscomplexobj(x):
        theta = cmath.phase(c) % (2.0 * math.pi) if c != 0 else 0.0
        value = np.linalg.norm(z - x * cmath.exp(1j * theta))
    else:
        theta = 0.0 if c.real >= 0 else math.pi
        value = np.linalg.norm(z - x if c.real >= 0 else z + x)
    return AlignedDistance(float(theta), float(value))


def dist(z: np.ndarray, x: np.ndarray) -> float:
    """Phase-invariant distance min_theta ||z - x e^{i theta}||."""
    return phase_align(z, x).value


def bb_step(s: np.ndarray, g: np.ndarray, fallback: float) -> float:
    """xi = |Re<s, g>| / ||g||^2; degenerate cases return `fallback`."""
    gg = float(np.vdot(g, g).real)
    if gg == 0.0:
        return fallback
    num = abs(float(np.vdot(s, g).real))
    if num == 0.0:
        return fallback
    return num / gg


def solve(
    mset: MeasurementSet,
    y: np.ndarray,
    z0: np.ndarray,
    config: SolverConfig = SolverConfig(),
    ground_truth: Optional[np.ndarray] = None,
) -> SolveReport:
    """Gradient descent z_{k+1} = z_k - xi_k g(z_k) from z0.

    Fixed mode uses a constant step; BB mode uses
    xi_k = |Re<s_k, g_k - g_{k-1}>| / ||g_k - g_{k-1}||^2 with
    s_k = z_k - z_{k-1} (first iteration uses `first_step`).
    Stops with GRAD_TOLERANCE_MET once ||g|| <= GRAD_NORM_TOL * ||z||^3 (a
    relative tolerance), or with MAX_ITERS after `config.max_iters` updates.
    A non-finite iterate or gradient aborts with NON_FINITE and the
    last finite iterate. `y` must be finite, nonnegative and of shape (N,).
    """
    if mset.field is Field.COMPLEX:
        z = np.asarray(z0, dtype=np.complex128).copy()
    else:
        z = np.asarray(z0, dtype=np.float64).copy()
    if z.shape != (mset.d,):
        raise ValueError(f"z0 has shape {z.shape}, expected ({mset.d},)")
    if not np.all(np.isfinite(z)):
        raise ValueError("z0 must be finite")
    y = _checked_intensities(mset, y)

    A = mset.vectors
    trace = config.trace
    objectives = [] if trace else None
    grad_norms = [] if trace else None
    rel_errors = [] if (trace and ground_truth is not None) else None
    if rel_errors is not None:
        x_norm = float(np.linalg.norm(ground_truth))

    g = _gradient(A, y, z)
    gnorm = _norm(g)
    znorm = _norm(z)

    bb = isinstance(config.step_mode, BarzilaiBorwein)
    if bb:
        first = config.step_mode.first_step
        if first is None:
            first = 0.1 / gnorm if gnorm > 0 else 1.0
    else:
        xi = config.step_mode.xi

    iterations = 0
    z_prev = None
    g_prev = None
    while True:
        if trace:
            objectives.append(objective(z, mset, y))
            grad_norms.append(gnorm)
            if rel_errors is not None:
                rel_errors.append(dist(z, ground_truth) / x_norm if x_norm else float("nan"))
        if not math.isfinite(gnorm):
            status = SolveStatus.NON_FINITE
            break
        # ||z||^3 as a product: a float product saturates at inf, where ** raises
        if gnorm <= GRAD_NORM_TOL * znorm * znorm * znorm:
            status = SolveStatus.GRAD_TOLERANCE_MET
            break
        if iterations == config.max_iters:
            status = SolveStatus.MAX_ITERS
            break
        if bb:
            xi = first if z_prev is None else bb_step(z - z_prev, g - g_prev, first)
        z_new = z - xi * g
        # a finite ||z_new|| proves every entry finite; only an inf or nan
        # norm, which finite entries can also overflow to, needs the full test
        znorm = _norm(z_new)
        if not math.isfinite(znorm) and not np.all(np.isfinite(z_new)):
            status = SolveStatus.NON_FINITE
            break
        z_prev, g_prev = z, g
        z = z_new
        g = _gradient(A, y, z)
        gnorm = _norm(g)
        iterations += 1

    return SolveReport(z, iterations, status, objectives, grad_norms, rel_errors)
