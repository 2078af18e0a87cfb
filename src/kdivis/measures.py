"""Trace-distance (BLP) and divisibility-based (RHP) non-Markovianity measures.

The BLP measure accumulates every increase of the trace distance between an
evolved pair of states, maximized over a deterministic family of antipodal
pure pairs. The RHP measure integrates the trace-norm excess of the
complement map's Choi matrix,

    g(t) = (|| choi(L_{t+eps,t}) ||_1 - 1) / eps,

which vanishes exactly when the step is CP. Both work on the same uniform
time grid as the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config, divisibility, models, qmat
from .errors import AllStepsSingular

__all__ = [
    "BlpResult",
    "RhpResult",
    "blp_measure",
    "rhp_g",
    "rhp_measure",
    "blp_detects",
    "rhp_detects",
]


@dataclass(frozen=True)
class BlpResult:
    #: grid times, length n_steps + 1
    times: np.ndarray
    #: sampled antipodal pair directions, shape (n_pairs, 3)
    directions: np.ndarray
    #: discrete trace-distance rate per step and pair, shape (n_steps, n_pairs)
    sigma_series: np.ndarray
    #: max over pairs of the summed positive trace-distance increments
    measure: float
    #: Bloch direction of the maximizing pair
    argmax_pair: np.ndarray


@dataclass(frozen=True)
class RhpResult:
    #: left endpoints of the complement steps, length n_steps
    times: np.ndarray
    #: g(t) per step, NaN at singular steps
    g_series: np.ndarray
    #: trapezoidal integral of g over the valid steps
    measure: float
    singular_times: list[float]


def blp_from_grid(grid: models.PropagatorGrid, n_pairs: int) -> BlpResult:
    """BLP data from precomputed propagators.

    For an antipodal pure pair along ``u`` the evolved trace distance equals
    the Euclidean length of the evolved Bloch difference, ``|M_t u|``.
    """
    dirs = qmat.fibonacci_sphere(n_pairs)
    m = grid.ptm[:, 1:, 1:]
    evolved = (m.reshape(-1, 3) @ dirs.T).reshape(len(m), 3, n_pairs)
    # in place: fresh arrays this size are page-faulted in on every call
    dist = np.sqrt(np.square(evolved, out=evolved).sum(axis=1))
    inc = np.diff(dist, axis=0)
    sigma = inc / grid.dt
    positive = np.clip(inc, 0.0, None, out=inc).sum(axis=0)
    best = int(np.argmax(positive))
    return BlpResult(
        times=grid.times,
        directions=dirs,
        sigma_series=sigma,
        measure=float(positive[best]),
        argmax_pair=dirs[best],
    )


def blp_measure(
    model,
    horizon: float,
    n_steps: int = 500,
    n_pairs: int = 64,
    tolerances: config.Tolerances = config.DEFAULT,
) -> BlpResult:
    """BLP measure of a model over ``[0, horizon]``.

    Restricted to antipodal pure pairs with deterministic Fibonacci-sphere
    directions, so the result is a reproducible lower bound to the full
    pair-optimized measure.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    grid = models.propagator_grid(model, horizon, n_steps, tolerances=tolerances)
    return blp_from_grid(grid, n_pairs)


def rhp_g(step: divisibility.ComplementStep) -> float:
    """Instantaneous RHP rate of one complement step, clamped at zero."""
    val = (qmat.trace_norm(qmat.choi_of(step.lambda_map)) - 1.0) / step.epsilon
    return val if val >= 1e-12 else 0.0


def rhp_from_scan(scan: divisibility.ComplementScan) -> RhpResult:
    g = (scan.choi_trace_norm - 1.0) / scan.epsilon
    # the trace-norm excess is twice the negative Choi mass, so anything
    # below twice the per-step numerical noise floor is indistinguishable
    # from an exactly CP step
    floor = np.maximum(1e-12, 2.0 * scan.noise_floor / scan.epsilon)
    g = np.where(g < floor, 0.0, g)
    valid = ~scan.singular
    g = np.where(valid, g, np.nan)
    both = valid[:-1] & valid[1:]
    measure = float(np.sum(0.5 * (g[:-1][both] + g[1:][both])) * scan.dt)
    return RhpResult(
        times=scan.times,
        g_series=g,
        measure=measure,
        singular_times=[float(t) for t in scan.times[scan.singular]],
    )


def rhp_measure(
    model,
    horizon: float,
    n_steps: int = 500,
    epsilon: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> RhpResult:
    """RHP measure of a model over ``[0, horizon]``.

    Singular complement steps are skipped and reported; the integral runs
    over the remaining trapezoids.
    """
    grid = models.propagator_grid(model, horizon, n_steps, epsilon, tolerances)
    scan = divisibility.complement_scan(grid, tolerances=tolerances)
    if scan.singular.all():
        raise AllStepsSingular("every complement step over the horizon failed")
    return rhp_from_scan(scan)


def blp_detects(
    model,
    horizon: float,
    n_steps: int = 500,
    n_pairs: int = 64,
    threshold: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> bool:
    """Whether the BLP measure exceeds the detection threshold."""
    if threshold is None:
        threshold = tolerances.detection
    return blp_measure(model, horizon, n_steps, n_pairs, tolerances).measure > threshold


def rhp_detects(
    model,
    horizon: float,
    n_steps: int = 500,
    epsilon: float | None = None,
    threshold: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> bool:
    """Whether the RHP measure exceeds the detection threshold."""
    if threshold is None:
        threshold = tolerances.detection
    return rhp_measure(model, horizon, n_steps, epsilon, tolerances).measure > threshold
