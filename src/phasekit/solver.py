"""Nonconvex objective, gradient, phase-invariant distance and the descent loop.

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

from .ensembles import (MeasurementSet, _inner, _instance, _integer, _intensities,
                        _ldexp, _norm, _number, _to_unit, _unit_args, _vector)

# a cap: at d=128, successful protocol trials at N = 6d..20d stop after 28-167 BB steps
# (10 trials per law and ratio), at a relative error below 1e-11
DEFAULT_MAX_ITERS = 2000
# the descent stops once ||g(z)|| <= GRAD_NORM_TOL * ||z||^3; the gradient is
# cubic in the signal scale, g(c z; c^2 y) = c^3 g(z; y), so the rule is too
GRAD_NORM_TOL = 1e-13


@dataclass(frozen=True)
class FixedStep:
    """The constant step mu / ||z0||^2, Wirtinger flow's without its warm-up."""

    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _number(self.mu, "mu", 0, strict=True))


@dataclass(frozen=True)
class BarzilaiBorwein:
    """BB stepping. The first step, and a step whose BB quotient is degenerate
    (see `_bb_step`), is 0.1 / ||z0||^2."""


StepMode = Union[FixedStep, BarzilaiBorwein]


class SolveStatus(Enum):
    GRAD_TOLERANCE_MET = "grad_tolerance_met"
    MAX_ITERS = "max_iters"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class SolverConfig:
    """Descent settings. `max_iters`, an integer >= 1, caps the updates;
    `trace`, a bool, keeps every iterate in `SolveReport.iterates`."""

    step_mode: StepMode = field(default_factory=BarzilaiBorwein)
    max_iters: int = DEFAULT_MAX_ITERS
    trace: bool = False

    def __post_init__(self):
        _instance(self.step_mode, "step_mode", FixedStep, BarzilaiBorwein)
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters", 1))
        _instance(self.trace, "trace", bool)


@dataclass(frozen=True)
class SolveReport:
    final_z: np.ndarray
    iterations: int
    status: SolveStatus
    iterates: Optional[list] = None   # z_0 .. z_iterations when traced


def _gradient(A: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """g(z) without input checks: the kernel of `gradient` and `solve`."""
    w, r = _inner(A, z)
    r -= y
    g = (r * w) @ A
    g /= A.shape[0]
    return g


def objective(z: np.ndarray, mset: MeasurementSet, y: np.ndarray) -> float:
    """(1/2N) sum_j (|<a_j, z>|^2 - y_j)^2. `z` must be finite, of shape
    (d,) and real for real rows; `y` real, finite, nonnegative, of shape (N,).
    One scale rule (README), k = 4: underflow rounds silently to a subnormal or 0.0."""
    e, z, y = _unit_args(mset, z=z, y=y)
    r = _inner(mset.vectors, z)[1] - y
    return _ldexp(float(np.sum(r ** 2)) / (2.0 * mset.N), 4 * e, "the objective")


def gradient(z: np.ndarray, mset: MeasurementSet, y: np.ndarray) -> np.ndarray:
    """(1/N) sum_j (|w_j|^2 - y_j) w_j a_j with w_j = <a_j, z>. `z` and `y`
    are checked as by `objective`. Scale rule k = 3, as `objective` says."""
    e, z, y = _unit_args(mset, z=z, y=y)
    return _ldexp(_gradient(mset.vectors, y, z), 3 * e, "the gradient")


def dist(z: np.ndarray, x: np.ndarray) -> float:
    """Phase-invariant distance min_theta ||z - x e^{i theta}||, the package's one alignment.

    The minimizing theta is arg(x* z) for complex inputs and 0 or pi for real
    ones; if x* z = 0 it is taken as 0. `z` and `x` must be finite 1-D arrays
    of one length; both are taken as complex if either is. One scale rule
    (README), k = 1: underflow rounds silently to a subnormal or 0.0."""
    dtype = np.complex128 if np.iscomplexobj(z) or np.iscomplexobj(x) else np.float64
    z = _vector(z, None, dtype, "z")
    e, z, x = _to_unit(z, _vector(x, z.shape[0], dtype, "x"))
    c = np.vdot(x, z)  # x* z
    if dtype is np.complex128:
        theta = cmath.phase(c) % (2.0 * math.pi) if c != 0 else 0.0
        r = _norm(z - x * cmath.exp(1j * theta))
    else:
        r = _norm(z - x if c.real >= 0 else z + x)
    return _ldexp(r, e, "the distance of z and x")


def _bb_step(s: np.ndarray, g: np.ndarray, fallback: float) -> float:
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
) -> SolveReport:
    """Gradient descent z_{k+1} = z_k - xi_k g(z_k) from z0.

    Every absolute step is mu / ||z0||^2, so the run does not depend on the
    signal's scale if z0 carries it. FixedStep(mu) always takes it; BB mode
    takes xi_k = |Re<s_k, g_k - g_{k-1}>| / ||g_k - g_{k-1}||^2 with
    s_k = z_k - z_{k-1}, or mu = 0.1 first and for a degenerate quotient.
    Stops with GRAD_TOLERANCE_MET once ||g|| <= GRAD_NORM_TOL * ||z||^3 (a
    relative tolerance), or with MAX_ITERS after `config.max_iters` updates.
    One scale rule (README), k = 1, e from z0 alone: an iterate entry below float
    range rounds silently to a subnormal or 0.0; an iterate not finite at the caller's
    scale, or a non-finite gradient, aborts with NON_FINITE and the last finite iterate,
    and no floating-point warning. `z0` must be finite, of shape (d,) and real for real
    rows; `y` real, finite, nonnegative, of shape (N,), checked after z0; one that overflows at
    z0's scale, or is nonzero and underflows there to all zero, raises ValueError.
    With `config.trace`, `iterates` lists z_0 (a copy of z0) to z_K, K =
    `iterations`, so `iterates[-1] is final_z`; measure them with `objective`,
    `gradient` or `dist`. Without it, `iterates` is None.
    """
    _instance(config, "config", SolverConfig)
    e, z = _unit_args(mset, z0=z0)
    y_given = _intensities(y, mset.N)
    y = _ldexp(y_given, -2 * e, f"y at z0's scale (y * 2^{-2 * e})")
    if not np.any(y) and np.any(y_given):
        raise ValueError("z0 and y differ in scale beyond float range: y at z0's scale, "
                         f"y * 2^{-2 * e}, is all zero")
    # an iterate is finite at the caller's scale iff its entries are below this
    zmax = math.ldexp(1.0, 1024 - e) if e > 0 else math.inf

    A = mset.vectors
    iterates = [] if config.trace else None

    with np.errstate(over="ignore", invalid="ignore"):  # the stops below judge inf and nan
        g = _gradient(A, y, z)
        gnorm = _norm(g)
        znorm = _norm(z)

        bb = isinstance(config.step_mode, BarzilaiBorwein)
        mu = 0.1 if bb else config.step_mode.mu

        iterations = 0
        z_prev = None
        g_prev = None
        while True:
            if iterates is not None:
                iterates.append(z)
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
            if z_prev is None:  # z0 = 0 has stopped above
                xi = step = mu / (znorm * znorm)
            elif bb:
                xi = _bb_step(z - z_prev, g - g_prev, step)
            z_new = z - xi * g
            # ||z_new|| < zmax proves every entry below it; only a larger or nan
            # norm, which smaller entries can also overflow to, needs the full test
            znorm = _norm(z_new)
            if not znorm < zmax and not np.all(np.abs(z_new.view(np.float64)) < zmax):
                status = SolveStatus.NON_FINITE
                break
            z_prev, g_prev = z, g
            z = z_new
            g = _gradient(A, y, z)
            gnorm = _norm(g)
            iterations += 1

    if iterates is not None:
        iterates = [_ldexp(v, e) for v in iterates]
    return SolveReport(iterates[-1] if iterates else _ldexp(z, e), iterations, status, iterates)
