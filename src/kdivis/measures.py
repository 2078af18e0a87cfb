"""Trace-distance (BLP) and divisibility-based (RHP) non-Markovianity measures.

The BLP measure accumulates every increase of the trace distance between an
evolved pair of states, maximized over a deterministic family of antipodal
pure pairs. For the pair along ``u`` the distance is ``|M_t u|``, read from
the grid's Bloch rows as ``sqrt(sum_k d_k^2 u_k^2)``. One kernel serves every
model family; it walks time in blocks whose temporaries stay within 64 KiB,
so a call reuses heap memory instead of page-faulting fresh mappings.

The RHP measure integrates the trace-norm excess of the complement map's
Choi matrix,

    g(t) = (|| choi(L_{t+eps,t}) ||_1 - 1) / eps,

which vanishes exactly when the step is CP. :func:`rhp_from_scan` reads it
per step from the Choi trace norms of the classifier's complement scan, so
both measures work on the same uniform time grid as the classifier.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import config, divisibility, models, qmat
from .errors import AllStepsSingular

__all__ = [
    "BlpResult",
    "RhpResult",
    "blp_measure",
    "rhp_measure",
    "blp_detects",
    "rhp_detects",
]


@dataclass(frozen=True)
class BlpResult:
    """BLP measure of one grid, with the per-step rates derived on demand.

    The result keeps the ``(n_steps + 1, 3)`` Gram rows of the propagators
    rather than the ``(n_steps, n_pairs)`` rate series, so callers that read
    only ``measure`` never build the series.
    """

    #: grid times, length n_steps + 1
    times: np.ndarray
    #: grid spacing
    dt: float
    #: sampled antipodal pair directions, shape (n_pairs, 3), read-only
    directions: np.ndarray
    #: diagonal (d_x^2, d_y^2, d_z^2) of M_t^T M_t per grid time,
    #: shape (n_steps + 1, 3)
    gram: np.ndarray
    #: max over pairs of the summed positive trace-distance increments
    measure: float
    #: Bloch direction of the maximizing pair
    argmax_pair: np.ndarray

    @property
    def sigma_series(self) -> np.ndarray:
        """Discrete trace-distance rate per step and pair, shape (n_steps, n_pairs)."""
        dist = np.empty((len(self.gram), len(self.directions)))
        _pair_distances(self.gram, _gram_weights(self.directions), dist)
        return np.diff(dist, axis=0) / self.dt


@dataclass(frozen=True)
class RhpResult:
    #: left endpoints of the complement steps, length n_steps
    times: np.ndarray
    #: g(t) per step, NaN at singular steps
    g_series: np.ndarray
    #: trapezoidal integral of g over the valid steps
    measure: float
    singular_times: list[float]


#: largest Bloch row entry whose square is finite in float64, about 1.3e154
_GRAM_MAX = float(np.sqrt(np.finfo(float).max))

#: elements of one BLP time-block temporary: 8192 float64 are 64 KiB, half
#: of glibc's default mmap threshold, so the blocks come from the heap and
#: are not mapped and page-faulted afresh on every call
_BLOCK_ELEMS = 8192


def _gram_weights(dirs: np.ndarray) -> np.ndarray:
    """Weights ``(x², y², z²)`` per direction, shape (3, n), so that
    ``gram @ weights`` is ``|M u|²`` for every direction ``u``."""
    return np.ascontiguousarray(dirs.T ** 2)


@functools.lru_cache(maxsize=8)
def _pair_directions(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Fibonacci pair directions and their Gram weights, shared read-only."""
    dirs = qmat.fibonacci_sphere(n_pairs)
    weights = _gram_weights(dirs)
    dirs.flags.writeable = weights.flags.writeable = False
    return dirs, weights


def _pair_distances(gram: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """Trace distances ``sqrt(G_t · w_u)`` of every pair, into ``out``; sums
    of squares times squares, never negative."""
    np.matmul(gram, weights, out=out)
    np.sqrt(out, out=out)


def blp_from_grid(grid: models.PropagatorGrid, n_pairs: int) -> BlpResult:
    """BLP data from precomputed propagators.

    For an antipodal pure pair along ``u`` the evolved trace distance equals
    the Euclidean length of the evolved Bloch difference, ``|M_t u|``; the
    rows' ``M_t = diag(d)`` has the Gram diagonal ``d * d``. An entry of
    ``d`` whose square overflows float64 raises ``ValueError`` naming the
    first time; only a map that is not positive has an entry above 1.
    """
    models.check_count("n_pairs", n_pairs, 1)
    dirs, weights = _pair_directions(n_pairs)
    d = grid.bloch[:, :3]
    if np.abs(d).max() > _GRAM_MAX:
        first = (np.abs(d) > _GRAM_MAX).any(axis=1).argmax()
        raise ValueError(
            f"BLP Gram diagonal overflows float64 from t = {grid.times[first]:.6g}: "
            f"a Bloch eigenvalue exceeds {_GRAM_MAX:.3g}")
    gram = d * d
    rows = max(1, _BLOCK_ELEMS // n_pairs - 1)
    # row 0 of dist carries the last distance of the previous block; row 0
    # of inc carries the running sum, so the increments add up in time
    # order whatever the block size
    dist = np.empty((rows + 1, n_pairs))
    inc = np.zeros((rows + 1, n_pairs))
    _pair_distances(gram[:1], weights, dist[:1])
    for start in range(1, len(gram), rows):
        k = min(rows, len(gram) - start)
        _pair_distances(gram[start:start + k], weights, dist[1:k + 1])
        np.subtract(dist[1:k + 1], dist[:k], out=inc[1:k + 1])
        np.maximum(inc[1:k + 1], 0.0, out=inc[1:k + 1])
        inc[0] = inc[:k + 1].sum(axis=0)
        dist[0] = dist[k]
    best = int(np.argmax(inc[0]))
    return BlpResult(
        times=grid.times,
        dt=grid.dt,
        directions=dirs,
        gram=gram,
        measure=float(inc[0, best]),
        argmax_pair=dirs[best],
    )


def blp_measure(
    model,
    horizon: float,
    n_steps: int = 500,
    n_pairs: int = 64,
) -> BlpResult:
    """BLP measure of a model over ``[0, horizon]``.

    Restricted to antipodal pure pairs with deterministic Fibonacci-sphere
    directions, so the result is a reproducible lower bound to the full
    pair-optimized measure.
    """
    return blp_from_grid(models.propagator_grid(model, horizon, n_steps), n_pairs)


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
) -> RhpResult:
    """RHP measure of a model over ``[0, horizon]``.

    Singular complement steps are skipped and reported; the integral runs
    over the remaining trapezoids.
    """
    grid = models.propagator_grid(model, horizon, n_steps, epsilon)
    scan = divisibility.complement_scan(grid)
    if scan.singular.all():
        raise AllStepsSingular("every complement step over the horizon failed")
    return rhp_from_scan(scan)


def blp_detects(model, horizon: float, n_steps: int = 500, n_pairs: int = 64) -> bool:
    """Whether the BLP measure exceeds the detection threshold."""
    return blp_measure(model, horizon, n_steps, n_pairs).measure > config.DEFAULT.detection


def rhp_detects(model, horizon: float, n_steps: int = 500,
                epsilon: float | None = None) -> bool:
    """Whether the RHP measure exceeds the detection threshold."""
    return rhp_measure(model, horizon, n_steps, epsilon).measure > config.DEFAULT.detection
