"""Complement maps, k-positivity tests and divisibility classification.

A process ``E_t`` is sliced into two-point complement steps
``L = E_{t+eps} . E_t^{-1}`` on a uniform grid. Each step is tested for
complete positivity (smallest eigenvalue of its Choi matrix) and for
positivity preservation (smallest output eigenvalue over pure input states,
solved exactly as a trust-region subproblem on the Bloch sphere, hard case
included). A process whose steps all pass the CP test is classified PD2,
one that passes only the positivity test PD1, anything else PD0.

Steps where the propagator is not invertible under the active condition
threshold are skipped and reported, never silently pseudo-inverted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import config, models, qmat
from .errors import AllStepsSingular

__all__ = [
    "DivisibilityClass",
    "DivisibilityVerdict",
    "ComplementStep",
    "ComplementScan",
    "complement_map",
    "complement_scan",
    "is_cp",
    "is_positive",
    "is_positive_pauli_diagonal",
    "classify",
    "verdict_from_scan",
    "constant_pauli_class",
    "near_boundary",
]


class DivisibilityClass(enum.IntEnum):
    """Proper divisibility classes for qubit processes, ordered PD0 < PD1 < PD2.

    PD2: CP-divisible everywhere (Markovian). PD1: P-divisible everywhere
    but not CP-divisible somewhere. PD0: P-divisibility violated somewhere
    (essentially non-Markovian).
    """

    PD0 = 0
    PD1 = 1
    PD2 = 2

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ComplementStep:
    """The map connecting ``E_t`` to ``E_{t+eps}``."""

    t: float
    epsilon: float
    lambda_map: np.ndarray


@dataclass(frozen=True)
class DivisibilityVerdict:
    pd_class: DivisibilityClass
    #: most negative complement-Choi eigenvalue over the horizon
    worst_cp_violation: float
    #: most negative output eigenvalue over pure states and times
    worst_p_violation: float
    #: timepoints skipped because the propagator was not invertible
    singular_times: list[float]
    #: per-step witness tolerance the verdict was decided under
    tol: float


@dataclass(frozen=True)
class ComplementScan:
    """Per-step witnesses of a process over the horizon.

    ``times`` holds the left endpoint of each complement step. Entries of
    the witness arrays are NaN where ``singular`` is set. ``noise_floor``
    is the per-step numerical trust limit: on the generic matrix-inversion
    path it scales with the propagator condition number, on the closed-form
    fast paths it is zero. Witnesses smaller in magnitude than the floor do
    not count as violations.
    """

    times: np.ndarray
    epsilon: float
    dt: float
    cp_witness: np.ndarray
    p_witness: np.ndarray
    choi_trace_norm: np.ndarray
    singular: np.ndarray
    noise_floor: np.ndarray


def complement_map(
    e_t: np.ndarray,
    e_te: np.ndarray,
    t: float = 0.0,
    epsilon: float = 1.0,
    cond_threshold: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> ComplementStep:
    """Two-point complement ``L = E_{t+eps} . E_t^{-1}``.

    Propagates :class:`SingularMap` from the inversion; callers record a
    singular timepoint in that case.
    """
    inv = qmat.invert(e_t, cond_threshold=cond_threshold, tolerances=tolerances)
    return ComplementStep(t=t, epsilon=epsilon, lambda_map=qmat.compose(e_te, inv))


def is_cp(
    l: np.ndarray, tol: float = 1e-9,
) -> tuple[bool, float]:
    """Complete-positivity test via the Choi spectrum.

    Returns ``(ok, witness)`` where the witness is the smallest Choi
    eigenvalue; ``ok`` iff it is above ``-tol``.
    """
    c = qmat.choi_of(l)
    c = 0.5 * (c + c.conj().T)
    witness = float(np.linalg.eigvalsh(c)[0])
    return witness >= -tol, witness


#: Newton's method on ``1/|u(nu)|`` converges monotonically and
#: quadratically; the cap only bounds pathological rounding
_NEWTON_MAX = 50


def _p_witness(ptm: np.ndarray) -> np.ndarray:
    """Positivity witness of stacked ``(n, 4, 4)`` transfer matrices.

    The pure input ``(I + u.sigma)/2`` has output trace ``F00 + F0.u`` and
    output Bloch vector ``M u + c``, so the smallest output eigenvalue over
    all inputs is at least ``(F00 - |F0| - max_{|u|=1} |M u + c|) / 2``,
    with equality for trace-preserving maps (``F0 = 0``).

    The maximum is a trust-region subproblem on the unit sphere (More &
    Sorensen 1983). With ``M^T M = Q diag(lam) Q^T``, top eigenvalue
    ``lam_1`` and ``beta = Q^T M^T c``, a maximizer has the eigen-coordinates
    ``beta_i / (nu + lam_1 - lam_i)`` for the root ``nu >= 0`` of
    ``sum_i beta_i^2 / (nu + lam_1 - lam_i)^2 = 1`` (easy case), found by
    Newton's method on ``1/|u(nu)|`` from the lower bound ``|beta_top|``.
    When ``beta`` vanishes on the top eigenspace and the sum at ``nu = 0``
    stays below 1 (hard case), the maximizer is ``w +- sqrt(1 - |w|^2) q_1``
    with ``w`` the remaining coordinates at ``nu = 0``. Every candidate is
    evaluated as a unit vector, so rounding can only lower the maximum.
    """
    m = ptm[:, 1:, 1:]
    c = ptm[:, 1:, 0]
    lam, q = np.linalg.eigh(np.swapaxes(m, 1, 2) @ m)  # ascending: top is last
    mq = m @ q
    beta = (c[:, None, :] @ mq)[:, 0]
    # only exact ties form the top eigenspace; a pair split by rounding needs
    # no merging, because the root is solved in nu = mu - lam_1, where the
    # split enters as nu + gap, and a hard-case candidate spoiled by a tiny
    # gap only arises where the easy-case root is exact
    gap = lam[:, 2:] - lam
    top = gap == 0.0
    live = beta != 0.0
    b2 = beta * beta
    zeros = np.zeros_like(beta)

    nu_lo = np.sqrt(np.where(top, b2, 0.0).sum(axis=1))
    nu_hi = np.sqrt(b2.sum(axis=1))
    nu = nu_lo
    for _ in range(_NEWTON_MAX):
        d = nu[:, None] + gap
        u2 = np.divide(b2, d * d, out=zeros.copy(), where=live)
        r2 = u2.sum(axis=1)
        s3 = np.divide(u2, d, out=zeros.copy(), where=live).sum(axis=1)
        step = np.divide(r2 * (np.sqrt(r2) - 1.0), s3,
                         out=np.zeros_like(nu), where=s3 > 0.0)
        nu_next = np.clip(nu + step, nu_lo, nu_hi)
        moved = np.abs(nu_next - nu) > 4.0 * np.finfo(float).eps * nu_next
        nu = nu_next
        if not moved.any():
            break

    # candidates as columns: the easy-case solution and both hard-case ones
    w = np.divide(beta, gap, out=zeros.copy(), where=~top)
    tau = np.sqrt(np.maximum(0.0, 1.0 - (w * w).sum(axis=1)))
    cand = np.empty(beta.shape + (3,))
    cand[:, :, 0] = np.divide(beta, nu[:, None] + gap, out=zeros.copy(), where=live)
    cand[:, :, 1] = w
    cand[:, :, 2] = w
    cand[:, 2, 1] += tau
    cand[:, 2, 2] -= tau
    norm = np.sqrt((cand * cand).sum(axis=1, keepdims=True))
    np.divide(cand, norm, out=cand, where=norm > 0.0)
    cand[:, 2, :] += norm[:, 0, :] == 0.0
    out = mq @ cand + c[:, :, None]
    reach = np.sqrt((out * out).sum(axis=1)).max(axis=1)
    return 0.5 * (ptm[:, 0, 0] - np.linalg.norm(ptm[:, 0, 1:], axis=1) - reach)


def is_positive(l: np.ndarray, tol: float = 1e-9) -> tuple[bool, float]:
    """Positivity-preservation test of a trace-preserving qubit map.

    The witness is the smallest output eigenvalue over all input states,
    ``(1 - max_{|u|=1} |M u + c|) / 2`` for the Bloch form ``r -> M r + c``,
    computed exactly as a trust-region subproblem; pure inputs suffice
    because the functional is concave over the state space. Raises
    :class:`ValueError` when the map is not trace preserving. Returns
    ``(ok, witness)``.
    """
    if not qmat.is_trace_preserving(l):
        raise ValueError("the positivity witness needs a trace-preserving map")
    witness = float(_p_witness(qmat.pauli_transfer_matrix(l)[None])[0])
    return witness >= -tol, witness


def is_positive_pauli_diagonal(mu, tol: float = 1e-9) -> bool:
    """Positivity of a Pauli-diagonal map with Bloch eigenvalues ``mu``.

    A unital qubit map preserves positivity iff it maps the Bloch ball into
    itself, i.e. ``|mu_j| <= 1`` for all j. For an infinitesimal complement
    with ``mu_j = 1 - eps (g_k + g_l)`` this reduces to nonnegativity of the
    pairwise rate sums.
    """
    return bool(np.all(np.abs(np.asarray(mu, dtype=float)) <= 1.0 + tol))


# ---------------------------------------------------------------------------
# Batched scan over a propagator grid
# ---------------------------------------------------------------------------

#: witness error of the inversion path is of order macheps * cond(E_t);
#: this multiplier turns that estimate into a trust limit
_NOISE_FACTOR = 4.0


def _scan_generic(grid: models.PropagatorGrid,
                  cond_threshold: float) -> ComplementScan:
    e_t = grid.maps[:-1]
    e_te = grid.maps_shift

    u_svd, s, vh = np.linalg.svd(e_t)
    smin = s[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / smin
    singular = ~np.isfinite(cond) | (cond > cond_threshold)
    noise = _NOISE_FACTOR * np.finfo(float).eps * np.where(singular, np.inf, cond)
    s_safe = np.where(singular[:, None], 1.0, s)
    inv = (vh.conj().transpose(0, 2, 1) / s_safe[:, None, :]) @ u_svd.conj().transpose(0, 2, 1)
    lam = e_te @ inv

    choi = qmat.choi_of(lam)
    choi = 0.5 * (choi + choi.conj().transpose(0, 2, 1))
    evals = np.linalg.eigvalsh(choi)
    cp_witness = evals[:, 0].copy()
    trace_norm = np.abs(evals).sum(axis=1)
    # the inverted trace row carries noise of the noise floor's order; the
    # kernel's -|F0| term turns it into a lower bound within that floor
    p_witness = np.full(len(lam), np.nan)
    p_witness[~singular] = _p_witness(qmat.pauli_transfer_matrix(lam[~singular]))

    cp_witness[singular] = np.nan
    trace_norm[singular] = np.nan
    return ComplementScan(grid.times[:-1], grid.eps, grid.dt,
                          cp_witness, p_witness, trace_norm, singular, noise)


def _scan_damping(grid: models.PropagatorGrid) -> ComplementScan:
    """Closed-form scan for amplitude-damping grids.

    The complement of a damping map is the damping map with survival ratio
    ``g = G(t+eps)/G(t)``; its Choi eigenvalues are ``(1 +- g^2)/2`` and 0,
    and the worst output eigenvalue over pure states is ``min(0, 1 - g^2)``
    (attained at the excited pole). Exact ratios avoid the ill-conditioned
    matrix inversion near zeros of G, where the violations actually live.
    """
    g_t = grid.survival[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = grid.survival_shift / g_t
    singular = ~np.isfinite(ratio) | (np.abs(g_t) < 1e-300)
    r2 = ratio * ratio
    cp_witness = np.minimum(0.0, 0.5 * (1.0 - r2))
    p_witness = np.minimum(0.0, 1.0 - r2)
    trace_norm = 0.5 * (1.0 + r2) + 0.5 * np.abs(1.0 - r2)
    cp_witness[singular] = np.nan
    p_witness[singular] = np.nan
    trace_norm[singular] = np.nan
    return ComplementScan(grid.times[:-1], grid.eps, grid.dt,
                          cp_witness, p_witness, trace_norm, singular,
                          np.zeros(len(g_t)))


def _scan_pauli(grid: models.PropagatorGrid) -> ComplementScan:
    """Closed-form scan for Pauli-diagonal grids.

    The complement has Bloch eigenvalues ``mu_j = lambda_j(t+eps) /
    lambda_j(t)``; its Choi eigenvalues are the four levels
    ``(1 +- mu_1 +- mu_2 +- mu_3)/4`` with an even number of minus signs,
    and positivity holds iff every ``|mu_j| <= 1``.
    """
    lam_t = grid.bloch_eigs[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = grid.bloch_eigs_shift / lam_t
    singular = (~np.isfinite(mu) | (np.abs(lam_t) < 1e-300)).any(axis=1)
    m1, m2, m3 = mu[:, 0], mu[:, 1], mu[:, 2]
    levels = 0.25 * np.stack([
        1.0 + m1 + m2 + m3, 1.0 + m1 - m2 - m3,
        1.0 - m1 + m2 - m3, 1.0 - m1 - m2 + m3], axis=1)
    cp_witness = levels.min(axis=1)
    trace_norm = np.abs(levels).sum(axis=1)
    p_witness = 0.5 * (1.0 - np.abs(mu).max(axis=1))
    cp_witness[singular] = np.nan
    p_witness[singular] = np.nan
    trace_norm[singular] = np.nan
    return ComplementScan(grid.times[:-1], grid.eps, grid.dt,
                          cp_witness, p_witness, trace_norm, singular,
                          np.zeros(len(lam_t)))


def complement_scan(
    grid: models.PropagatorGrid,
    cond_threshold: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> ComplementScan:
    """Witnesses of every complement step of a propagator grid."""
    if cond_threshold is None:
        cond_threshold = tolerances.cond_threshold
    if grid.survival is not None:
        return _scan_damping(grid)
    if grid.bloch_eigs is not None:
        return _scan_pauli(grid)
    return _scan_generic(grid, cond_threshold)


def verdict_from_scan(
    scan: ComplementScan, tol: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> DivisibilityVerdict:
    """Fold per-step witnesses into a verdict.

    ``tol`` is the absolute per-step witness tolerance; by default it scales
    with the step as ``tolerances.violation_per_eps * epsilon``. A step only
    votes for a violation when its witness is beyond both ``tol`` and its
    numerical noise floor.
    """
    if tol is None:
        tol = tolerances.violation_per_eps * scan.epsilon
    valid = ~scan.singular
    if not valid.any():
        raise AllStepsSingular("every complement step over the horizon failed")
    cut = np.maximum(tol, scan.noise_floor[valid])
    cp_violated = bool((scan.cp_witness[valid] < -cut).any())
    p_violated = bool((scan.p_witness[valid] < -cut).any())
    if not cp_violated:
        pd = DivisibilityClass.PD2
    elif not p_violated:
        pd = DivisibilityClass.PD1
    else:
        pd = DivisibilityClass.PD0
    return DivisibilityVerdict(
        pd_class=pd,
        worst_cp_violation=float(np.min(scan.cp_witness[valid])),
        worst_p_violation=float(np.min(scan.p_witness[valid])),
        singular_times=[float(t) for t in scan.times[scan.singular]],
        tol=float(tol),
    )


def classify(
    model,
    horizon: float,
    n_steps: int = 500,
    epsilon: float | None = None,
    tol: float | None = None,
    cond_threshold: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> DivisibilityVerdict:
    """Classify a process over ``[0, horizon]`` into PD0 / PD1 / PD2.

    Builds propagators on a uniform grid of ``n_steps`` steps, forms each
    two-point complement (step ``epsilon``, by default the grid spacing),
    and applies the CP and positivity tests. Singular timepoints are
    excluded from voting and reported in the verdict.
    """
    grid = models.propagator_grid(model, horizon, n_steps, epsilon, tolerances)
    scan = complement_scan(grid, cond_threshold, tolerances)
    return verdict_from_scan(scan, tol, tolerances)


def near_boundary(verdict: DivisibilityVerdict, band: float = 10.0) -> bool:
    """Whether a verdict sits close to a class boundary.

    Computed from the violation magnitudes alone (never from neighboring
    grid cells): a witness within a factor ``band`` of the decision
    threshold on either side flags the cell.
    """
    lo, hi = verdict.tol / band, verdict.tol * band
    for w in (verdict.worst_cp_violation, verdict.worst_p_violation):
        if w < 0.0 and lo <= -w <= hi:
            return True
    return False


def constant_pauli_class(g1: float, g2: float, g3: float) -> DivisibilityClass:
    """Analytic region predicates for constant-rate Pauli channels.

    All rates nonnegative: PD2. All pairwise sums nonnegative: PD1.
    Otherwise PD0.
    """
    rates = (g1, g2, g3)
    if all(g >= 0.0 for g in rates):
        return DivisibilityClass.PD2
    if g1 + g2 >= 0.0 and g2 + g3 >= 0.0 and g3 + g1 >= 0.0:
        return DivisibilityClass.PD1
    return DivisibilityClass.PD0
