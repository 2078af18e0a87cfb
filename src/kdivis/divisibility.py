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
:func:`complement_scan` reads a grid's diagonal Bloch rows in closed form;
it has one path, and it is the one kernel the classifier and the RHP measure
use. :func:`is_cp` and
:func:`is_positive` test single superoperators and serve as its oracles, with
the generic inversion scan of ``tests/oracles.py``.
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
    "ComplementScan",
    "complement_scan",
    "is_cp",
    "is_positive",
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
    the witness arrays are NaN where ``singular`` is set. Every grid is
    scanned in closed form from its Bloch rows; the generic inversion scan
    of ``tests/oracles.py`` is its oracle. ``noise_floor`` is the
    per-step numerical trust limit: on a conditioned grid (the composite
    families) it scales with the condition number of the transfer matrices,
    as on the generic scan; on the Pauli and amplitude-damping grids it is
    zero. Witnesses smaller in magnitude than the floor do not count as
    violations.
    """

    times: np.ndarray
    epsilon: float
    dt: float
    cp_witness: np.ndarray
    p_witness: np.ndarray
    choi_trace_norm: np.ndarray
    singular: np.ndarray
    noise_floor: np.ndarray


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


#: Newton's method on ``1/|u(nu)|`` converges monotonically, each step
#: squaring the error; the cap only bounds pathological rounding
_NEWTON_MAX = 50


def _p_witness(f: np.ndarray) -> np.ndarray:
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
    m = f[:, 1:, 1:]
    c = f[:, 1:, 0]
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
    return 0.5 * (f[:, 0, 0] - np.linalg.norm(f[:, 0, 1:], axis=1) - reach)


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


# ---------------------------------------------------------------------------
# Batched scan over a propagator grid
# ---------------------------------------------------------------------------

#: witness error of a conditioned grid is of order macheps * cond(E_t);
#: this multiplier turns that estimate into a trust limit
_NOISE_FACTOR = 4.0


def _cond(f: np.ndarray) -> np.ndarray:
    """Condition numbers of the transfer matrices of stacked Bloch rows.

    ``F`` splits into ``|d_x|``, ``|d_y|`` and the z block
    ``[[1, 0], [c_z, d_z]]``. With ``s = 1 + c_z^2 + d_z^2`` the z block has
    ``sigma_max^2 = (s + sqrt(s^2 - 4 d_z^2))/2`` and
    ``sigma_min = |d_z|/sigma_max``; ``s^2 - 4 d_z^2`` is the product of
    ``(1 -+ |d_z|)^2 + c_z^2``, so neither involves a cancellation.
    """
    perp, d_z, c_z = np.abs(f[:, :2]), np.abs(f[:, 2]), f[:, 3]
    root = np.hypot(1.0 - d_z, c_z) * np.hypot(1.0 + d_z, c_z)
    s_max = np.sqrt(0.5 * (1.0 + c_z * c_z + d_z * d_z + root))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.maximum(s_max, perp.max(axis=1)) / np.minimum(d_z / s_max, perp.min(axis=1))


def _scan_rows(grid: models.PropagatorGrid):
    """Closed-form witnesses of a grid of Bloch rows.

    The complement of ``r -> diag(d) r + c_z z`` is exact from ratios:
    ``mu = d(t+eps)/d(t)`` and ``c = c_z(t+eps) - mu_3 c_z(t)``, which avoids
    the ill-conditioned inversion near zeros of the propagator. The Choi
    matrix of the complement has two 2x2 blocks with eigenvalues
    ``((1 + mu_3) +- sqrt(c^2 + (mu_1 + mu_2)^2))/4`` and
    ``((1 - mu_3) +- sqrt(c^2 + (mu_1 - mu_2)^2))/4``. With
    ``m = max(mu_1^2, mu_2^2)``, the squared output Bloch length over the
    unit sphere peaks at ``f(u_z) = m (1 - u_z^2) + (mu_3 u_z + c)^2``: at a
    pole, ``(|mu_3| + |c|)^2``, or at the vertex ``m + c^2 m / (m - mu_3^2)``
    when ``|mu_3 c| <= m - mu_3^2`` puts it inside ``[-1, 1]``.

    On the Pauli and amplitude-damping grids only a vanishing ``d`` makes a
    step singular, and the noise floor is zero. A conditioned grid (the
    composite families, whose entries sum terms of either sign) takes the
    generic scan's criterion, ``cond(F_t)`` against
    ``config.DEFAULT.cond_threshold``, and its noise floor.
    """
    f, f_eps = grid.bloch[:-1], grid.bloch_shift
    d_t = f[:, :3]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = f_eps[:, :3] / d_t
        c = f_eps[:, 3] - mu[:, 2] * f[:, 3]
    singular = (~np.isfinite(mu) | (np.abs(d_t) < 1e-300)).any(axis=1) | ~np.isfinite(c)
    noise = np.zeros(len(d_t))
    if grid.conditioned:
        cond = _cond(f)
        singular |= ~np.isfinite(cond) | (cond > config.DEFAULT.cond_threshold)
        noise = _NOISE_FACTOR * np.finfo(float).eps * np.where(singular, np.inf, cond)
    mu[singular], c[singular] = 1.0, 0.0  # finite placeholders, masked later
    m1, m2, m3 = mu.T
    r_plus, r_minus = np.hypot(c, m1 + m2), np.hypot(c, m1 - m2)
    levels = (1.0 + m3 - r_plus, 1.0 - m3 - r_minus, 1.0 - m3 + r_minus, 1.0 + m3 + r_plus)

    m = np.maximum(m1 * m1, m2 * m2)
    k = m - m3 * m3
    inside = (k > 0.0) & (np.abs(m3 * c) <= k)
    # the vertex is the maximum when inside; the larger of the two candidates
    # lets rounding only lower the witness
    vertex = np.where(inside, m + c * c * m / np.where(inside, k, 1.0), 0.0)
    reach2 = np.maximum((np.abs(m3) + np.abs(c)) ** 2, vertex)
    trace_norm = 0.25 * (np.abs(levels[0]) + np.abs(levels[1]) + np.abs(levels[2])
                         + np.abs(levels[3]))
    return (0.25 * np.minimum(levels[0], levels[1]), 0.5 * (1.0 - np.sqrt(reach2)),
            trace_norm, singular, noise)


def complement_scan(grid: models.PropagatorGrid) -> ComplementScan:
    """Witnesses of every complement step of a propagator grid."""
    cp, p, trace_norm, singular, noise = _scan_rows(grid)
    for w in (cp, p, trace_norm):
        w[singular] = np.nan
    return ComplementScan(grid.times[:-1], grid.eps, grid.dt,
                          cp, p, trace_norm, singular, noise)


def verdict_from_scan(scan: ComplementScan) -> DivisibilityVerdict:
    """Fold per-step witnesses into a verdict.

    The per-step witness tolerance scales with the step as
    ``config.DEFAULT.violation_per_eps * epsilon``. A step only votes for a
    violation when its witness is beyond both that tolerance and its
    numerical noise floor.
    """
    tol = config.DEFAULT.violation_per_eps * scan.epsilon
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
) -> DivisibilityVerdict:
    """Classify a process over ``[0, horizon]`` into PD0 / PD1 / PD2.

    Builds propagators on a uniform grid of ``n_steps`` steps, forms each
    two-point complement (step ``epsilon``, by default the grid spacing),
    and applies the CP and positivity tests at the tolerance of
    :func:`verdict_from_scan`. Singular timepoints are skipped and reported.
    """
    grid = models.propagator_grid(model, horizon, n_steps, epsilon)
    return verdict_from_scan(complement_scan(grid))


def near_boundary(verdict: DivisibilityVerdict) -> bool:
    """Whether a verdict sits close to a class boundary.

    Computed from the violation magnitudes alone (never from neighboring
    grid cells): a witness within a factor 10 of the decision threshold on
    either side flags the cell.
    """
    lo, hi = verdict.tol / 10.0, verdict.tol * 10.0
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
