"""Test oracles: full transfer matrices, the generic complement scan, the
single-map toolbox, the joint two-qubit dynamics of the composite models and
the JSON schema run configs were once checked against.

The package writes every model's maps in closed form as diagonal Bloch rows
``(d_x, d_y, d_z, c_z)`` and scans them in closed form. The tests check it
against the routes kept here: full 4x4 real Pauli transfer matrices, with
the rotation of the C-NOT maps that the rows drop; the generic scan, which
inverts every full transfer matrix by SVD; single maps as 4x4 complex
superoperators in the column-stacking convention of :mod:`kdivis.qmat`,
propagated analytically or by fixed-step RK4; and the composite models'
16x16 joint generators, whose reduced maps come from ``expm`` or RK4 and a
partial trace. :func:`schema_config_error` is the former config check: a
JSON schema, then the family's parameters, then finite run values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import jsonschema
import numpy as np
from scipy.linalg import expm

from kdivis import cli, config, divisibility, figures, models, qmat


class NotHermitian(Exception):
    """A state failed its Hermiticity check."""


class IntegrationUnstable(Exception):
    """Halving the RK4 step changed the propagator beyond tolerance."""


#: Hermiticity and trace deviation accepted of a state
HERMITICITY = 1e-12
#: change under step halving beyond which RK4 output is rejected
INTEGRATION = 1e-6

#: lowering operator |0><1| in the convention that |1> is the excited state
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# Full transfer matrices
# ---------------------------------------------------------------------------

#: positions of the Bloch diagonal ``(d_x, d_y, d_z)`` and of ``c_z`` in a
#: transfer matrix ``F_mn = Tr(sigma_m E(sigma_n))/2``
_ROWS_AT = (np.array([1, 2, 3, 3]), np.array([1, 2, 3, 0]))


def embed(rows) -> np.ndarray:
    """Transfer matrices of the maps ``r -> diag(d) r + (0, 0, c_z)`` given
    as Bloch rows ``(d_x, d_y, d_z, c_z)``; shape ``(..., 4, 4)``."""
    rows = np.asarray(rows, dtype=float)
    out = np.zeros(rows.shape[:-1] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., _ROWS_AT[0], _ROWS_AT[1]] = rows
    return out


def bloch_rows(f, atol: float = 1e-14) -> np.ndarray:
    """Inverse of :func:`embed`: the Bloch rows of transfer matrices
    ``(..., 4, 4)``. Raises ``ValueError`` when a map is not diagonal-affine
    about z, trace preserving included, to within ``atol``; the default
    admits the rounding of :func:`kdivis.qmat.pauli_transfer_matrix`."""
    f = np.asarray(f, dtype=float)
    rows = f[..., _ROWS_AT[0], _ROWS_AT[1]]
    dev = np.abs(f - embed(rows)).max(initial=0.0)
    if dev > atol:
        raise ValueError(f"not a diagonal-affine map about z: an entry off the "
                         f"pattern is {dev:.3e}")
    return rows


def transfer_matrices(model, times) -> np.ndarray:
    """Full transfer matrices of a model's maps ``E_t`` at ``times``, shape
    ``(len(times), 4, 4)``.

    The C-NOT yz block is the scaled rotation ``[[A, -B], [B, A]]``,
    ``A = shrink (1 - a + a cos Jt)`` and ``B = shrink a sin Jt``, whose
    rotation the model's Bloch rows drop; the other families' maps are their
    rows.
    """
    if not isinstance(model, models.CnotControlModel):
        return embed(model.bloch_form(times))
    times = np.asarray(times, dtype=float)
    shrink = np.exp(-2.0 * model.gamma * times)
    jt = model.J * times
    rot_a = shrink * (1.0 - model.a + model.a * np.cos(jt))
    rot_b = shrink * model.a * np.sin(jt)
    out = embed(np.stack([shrink, rot_a, rot_a, np.zeros_like(shrink)], axis=1))
    out[:, 3, 2] = rot_b
    out[:, 2, 3] = -rot_b
    return out


class FullGrid(NamedTuple):
    """The maps of a propagator grid as full transfer matrices: ``ptm`` at
    the grid times and ``ptm_shift`` a complement step ``eps`` later."""

    times: np.ndarray
    dt: float
    eps: float
    ptm: np.ndarray
    ptm_shift: np.ndarray


def full_grid(model, grid: models.PropagatorGrid, maps=transfer_matrices) -> FullGrid:
    """The maps of ``model`` at the times of its propagator grid ``grid``,
    as full transfer matrices from ``maps(model, times)``."""
    ptm = maps(model, grid.times)
    shift = ptm[1:] if grid.eps == grid.dt else maps(model, grid.times[:-1] + grid.eps)
    return FullGrid(grid.times, grid.dt, grid.eps, ptm, shift)


# ---------------------------------------------------------------------------
# Generic complement scan
# ---------------------------------------------------------------------------

def generic_scan(
    grid: FullGrid,
    cond_threshold: float = config.DEFAULT.cond_threshold,
) -> divisibility.ComplementScan:
    """Witnesses of every complement step ``L = F(t+eps) F(t)^-1`` of a grid
    of full transfer matrices, inverting ``F(t)`` by SVD; steps with
    ``cond(F(t))`` above ``cond_threshold`` are singular, with NaN
    witnesses."""
    # the transfer matrix is a unitary change of basis of the superoperator,
    # so it has the same singular values and condition number
    u_svd, s, vh = np.linalg.svd(grid.ptm[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    singular = ~np.isfinite(cond) | (cond > cond_threshold)
    noise = divisibility._NOISE_FACTOR * np.finfo(float).eps * np.where(singular, np.inf, cond)
    s_safe = np.where(singular[:, None], 1.0, s)
    inv = (np.swapaxes(vh, 1, 2) / s_safe[:, None, :]) @ np.swapaxes(u_svd, 1, 2)
    lam = grid.ptm_shift @ inv

    evals = np.linalg.eigvalsh(choi_of_ptm(lam))
    # the inverted trace row carries noise of the noise floor's order; the
    # kernel's -|F0| term turns it into a lower bound within that floor
    p_witness = np.full(len(lam), np.nan)
    p_witness[~singular] = divisibility._p_witness(lam[~singular])
    cp_witness, trace_norm = evals[:, 0].copy(), np.abs(evals).sum(axis=1)
    for w in (cp_witness, p_witness, trace_norm):
        w[singular] = np.nan
    return divisibility.ComplementScan(grid.times[:-1], grid.eps, grid.dt, cp_witness,
                                       p_witness, trace_norm, singular, noise)


#: ``sigma_n^T o sigma_m / 4`` at index ``4m + n``
_CHOI_TERMS = 0.25 * np.stack([np.kron(sn.T, sm) for sm in qmat.PAULIS for sn in qmat.PAULIS])


def choi_of_ptm(f: np.ndarray) -> np.ndarray:
    """:func:`kdivis.qmat.choi_of` from the real Pauli transfer matrix ``F``
    of a map, ``sum_mn F_mn sigma_n^T o sigma_m / 4``; supports stacked input.
    """
    f = np.asarray(f, dtype=float)
    return np.einsum("...k,kij->...ij", f.reshape(*f.shape[:-2], 16), _CHOI_TERMS)


# ---------------------------------------------------------------------------
# Superoperators and states
# ---------------------------------------------------------------------------

def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def superop_from_kraus(kraus_ops) -> np.ndarray:
    """Superoperator of X -> sum_k K_k X K_k^dag."""
    out = None
    for k in kraus_ops:
        term = np.kron(np.asarray(k, dtype=complex).conj(), k)
        out = term if out is None else out + term
    return out


def depolarizing_superop() -> np.ndarray:
    """The completely depolarizing channel rho -> I/2."""
    v = qmat.vec(qmat.IDENTITY)
    return 0.5 * np.outer(v, v.conj())


def pauli_diagonal_superop(mu) -> np.ndarray:
    """Unital qubit map scaling the Bloch components by ``mu = (m1, m2, m3)``."""
    weights = (1.0, *mu)
    out = np.zeros((4, 4), dtype=complex)
    for w, p in zip(weights, qmat.PAULIS):
        v = qmat.vec(p)
        out += 0.5 * w * np.outer(v, v.conj())
    return out


def apply_superop(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a superoperator in matrix form to a square operator."""
    x = np.asarray(x, dtype=complex)
    return (np.asarray(e, dtype=complex) @ qmat.vec(x)).reshape(x.shape, order="F")


def superop_of_choi(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`kdivis.qmat.choi_of`."""
    return qmat.reshuffle(c) * 2.0


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ``Tr sqrt(A^dag A)``, the sum of singular values."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance ``0.5 * ||rho1 - rho2||_1`` between two states."""
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def bloch_affine(e: np.ndarray):
    """Affine Bloch form ``r -> M r + c`` of a qubit map.

    Returns ``(M, c)`` with shapes ``(..., 3, 3)`` and ``(..., 3)``.
    """
    f = qmat.pauli_transfer_matrix(e)
    return f[..., 1:, 1:], f[..., 1:, 0]


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(Tr(sigma_j rho))_j`` of a qubit state."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(s @ rho).real for s in qmat.PAULIS[1:]])


def density_from_bloch(r) -> np.ndarray:
    """State ``(I + r . sigma) / 2`` from a Bloch vector with ``|r| <= 1``."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (qmat.IDENTITY + r[0] * qmat.SIGMA_X + r[1] * qmat.SIGMA_Y
                  + r[2] * qmat.SIGMA_Z)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; returns the input array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY:
        raise NotHermitian(f"state deviates from Hermitian by {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > HERMITICITY:
        raise ValueError(f"state trace {tr} is not 1")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -config.DEFAULT.check:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


def is_hermiticity_preserving(e: np.ndarray, tol: float = config.DEFAULT.check) -> bool:
    """Whether the map sends Hermitian inputs to Hermitian outputs.

    Equivalent to Hermiticity of the Choi matrix.
    """
    c = qmat.choi_of(e)
    return bool(np.abs(c - c.conj().T).max() <= tol)


# ---------------------------------------------------------------------------
# Single-map propagators
# ---------------------------------------------------------------------------

def pauli_generator(model: models.PauliChannelModel, t: float) -> np.ndarray:
    """Superoperator of the instantaneous Pauli-channel generator at time t."""
    out = np.zeros((4, 4), dtype=complex)
    eye = np.eye(4, dtype=complex)
    for g, s in zip(model.rates, qmat.PAULIS[1:]):
        out += 0.5 * float(g(t)) * (sandwich_superop(s, s) - eye)
    return out


def pauli_propagator_analytic(model: models.PauliChannelModel, t: float) -> np.ndarray:
    """Propagator of the Pauli channel, diagonal in the Pauli basis."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam = model.bloch_eigenvalues(np.array([t]))[0]
    return pauli_diagonal_superop(lam)


def damping_superop(g) -> np.ndarray:
    """Qubit map scaling coherences by ``g`` and the excited population
    (of ``|1>``) by ``g**2``, with the ground population adjusted to keep the
    trace. CPTP exactly when ``|g| <= 1``; well defined as a linear map for
    any real ``g``. Accepts scalars or arrays (stacked output).
    """
    g = np.asarray(g, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    out = np.zeros((g.size, 4, 4), dtype=complex)
    out[:, 0, 0] = 1.0
    out[:, 0, 3] = 1.0 - g * g
    out[:, 1, 1] = g
    out[:, 2, 2] = g
    out[:, 3, 3] = g * g
    return out[0] if scalar else out


def amplitude_damping_propagator(model: models.AmplitudeDampingModel, t: float) -> np.ndarray:
    """Propagator of the amplitude-damping model at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return damping_superop(model.survival(t))


def _rk4(gen_fn, t: float, steps: int, y0: np.ndarray) -> np.ndarray:
    h = t / steps
    y = y0.astype(complex).copy()
    for i in range(steps):
        t0 = i * h
        l0 = gen_fn(t0)
        lh = gen_fn(t0 + 0.5 * h)
        l1 = gen_fn(t0 + h)
        k1 = l0 @ y
        k2 = lh @ (y + 0.5 * h * k1)
        k3 = lh @ (y + 0.5 * h * k2)
        k4 = l1 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def propagate_rk4(gen_fn, t: float, steps: int, check: bool = False) -> np.ndarray:
    """Fixed-step fourth-order integration of ``dE/dt = L(t) E`` from E(0)=I.

    ``gen_fn`` maps a time to a generator in superoperator form (any square
    dimension). With ``check=True`` the integration is repeated at half the
    step; disagreement beyond tolerance raises :class:`IntegrationUnstable`.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t == 0.0:
        return np.eye(gen_fn(0.0).shape[0], dtype=complex)
    dim = gen_fn(0.0).shape[0]
    eye = np.eye(dim, dtype=complex)
    e = _rk4(gen_fn, t, steps, eye)
    if check:
        e_fine = _rk4(gen_fn, t, 2 * steps, eye)
        dev = np.abs(e_fine - e).max()
        if dev > INTEGRATION:
            raise IntegrationUnstable(
                f"halving the step changed the propagator by {dev:.2e}")
        e = e_fine
    return e


def _joint_basis_columns(env_state: np.ndarray, which_env: int) -> np.ndarray:
    """vec'ed joint inputs (rho_env x |i><j|) for the four system basis ops,
    as a (16, 4) matrix with column index 2j + i.
    """
    cols = np.zeros((16, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            joint = np.kron(env_state, basis) if which_env == 0 else np.kron(basis, env_state)
            cols[:, 2 * j + i] = qmat.vec(joint)
    return cols


def _reduce_joint_columns(y: np.ndarray, which_env: int) -> np.ndarray:
    """Contract evolved joint columns ``(..., 16, 4)`` into system superoperators
    ``(..., 4, 4)`` by tracing out the environment factor.
    """
    lead = y.shape[:-2]
    # vec index v = 4c + r with c, r two-qubit indices (2 b0 + b1, 2 a0 + a1)
    y6 = y.reshape(*lead, 2, 2, 2, 2, 4)
    if which_env == 0:
        out = np.einsum("...ebeak->...abk", y6)
    else:
        out = np.einsum("...beaek->...abk", y6)
    n = out.ndim
    # (..., row a, col b, k) -> vec index 2b + a in the first output axis
    return out.transpose(*range(n - 3), n - 2, n - 3, n - 1).reshape(*lead, 4, 4)


def reduced_propagator(
    gen: np.ndarray,
    env_state: np.ndarray,
    which_env: int,
    t: float,
    steps: int,
    check: bool = False,
) -> np.ndarray:
    """System propagator ``rho_S -> Tr_env[e^{L t}(rho_S x rho_env)]``.

    Evolves the four system basis operators jointly with the environment
    state under the two-qubit generator ``gen`` and traces out the factor
    ``which_env``.
    """
    validate_density_matrix(env_state)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cols = _joint_basis_columns(np.asarray(env_state, dtype=complex), which_env)
    if t == 0.0:
        return np.eye(4, dtype=complex)
    gen = np.asarray(gen, dtype=complex)
    y = _rk4(lambda _t: gen, t, steps, cols)
    if check:
        y_fine = _rk4(lambda _t: gen, t, 2 * steps, cols)
        dev = np.abs(_reduce_joint_columns(y_fine, which_env)
                     - _reduce_joint_columns(y, which_env)).max()
        if dev > INTEGRATION:
            raise IntegrationUnstable(
                f"halving the step changed the reduced propagator by {dev:.2e}")
        y = y_fine
    return _reduce_joint_columns(y, which_env)


# ---------------------------------------------------------------------------
# Composite models as joint two-qubit dynamics
# ---------------------------------------------------------------------------

def cnot_generator(model: models.CnotControlModel) -> np.ndarray:
    """Joint generator of a C-NOT model, built term by term from Kronecker
    products with the control as the first factor: the C-NOT-type
    interaction and the target's isotropic depolarizing."""
    p1 = np.diag([0.0, 1.0]).astype(complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    h = 0.5 * model.J * (np.kron(p1, qmat.SIGMA_X) + np.kron(p0, qmat.IDENTITY))
    eye4 = np.eye(4, dtype=complex)
    gen = -1j * (np.kron(eye4, h) - np.kron(h.T, eye4))
    eye16 = np.eye(16, dtype=complex)
    for s in qmat.PAULIS[1:]:
        s_t = np.kron(qmat.IDENTITY, s)
        gen += 0.5 * model.gamma * (np.kron(s_t.T, s_t) - eye16)
    return gen


def superradiance_generator(model: models.SuperradianceModel) -> np.ndarray:
    """Joint generator of two atoms decaying into a common reservoir with the
    rate matrix of ``model``, built term by term from Kronecker products."""
    lowers = (np.kron(SIGMA_MINUS, qmat.IDENTITY), np.kron(qmat.IDENTITY, SIGMA_MINUS))
    rates = model.rate_matrix()
    eye4 = np.eye(4, dtype=complex)
    gen = np.zeros((16, 16), dtype=complex)
    for i in range(2):
        for j in range(2):
            raise_i = lowers[i].conj().T
            pipj = raise_i @ lowers[j]
            gen += rates[i, j] * (np.kron(raise_i.T, lowers[j])
                                  - 0.5 * (np.kron(eye4, pipj) + np.kron(pipj.T, eye4)))
    return gen


def joint_dynamics(model) -> tuple[np.ndarray, np.ndarray, int]:
    """The joint generator of a composite model, the initial state
    ``diag(1 - a, a)`` of its environment qubit and the index of that
    qubit's tensor factor: the first arguments of :func:`reduced_propagator`.
    The environment is the control (factor 0) for C-NOT and the partner
    atom (factor 1) for superradiance."""
    env = np.diag([1.0 - model.a, model.a]).astype(complex)
    if isinstance(model, models.CnotControlModel):
        return cnot_generator(model), env, 0
    if isinstance(model, models.SuperradianceModel):
        return superradiance_generator(model), env, 1
    raise TypeError(f"{type(model).__name__} has no joint dynamics")


def reduced_expm(model, times) -> np.ndarray:
    """Reduced superoperators of a composite model at each of ``times``, each
    from one ``expm`` of the joint generator; shape ``(len(times), 4, 4)``."""
    gen, env, which = joint_dynamics(model)
    cols = _joint_basis_columns(env, which)
    return _reduce_joint_columns(np.stack([expm(gen * t) @ cols for t in times]), which)


# ---------------------------------------------------------------------------
# The JSON schema of run configs
# ---------------------------------------------------------------------------

_AXIS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "n": {"type": "integer", "minimum": 2},
    },
    "required": ["name", "min", "max", "n"],
}

#: the schema, with ``run`` and ``output`` as the flag table declared them
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(models.MODEL_FAMILIES)},
                **{name: {"type": ["string", "number"] if p.rate else "number"}
                   for name, p in models.MODEL_PARAMS.items()},
            },
            "required": ["family"],
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"x": _AXIS_SCHEMA, "y": _AXIS_SCHEMA},
            "required": ["x", "y"],
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pairs": {"type": "integer", "minimum": 1},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 2},
                "epsilon": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "jobs": {"type": "integer", "minimum": 1},
                "measures": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": list(figures.FORMATS)},
                "dir": {"type": "string"},
            },
        },
    },
}


def schema_config_error(cfg) -> str | None:
    """The message of the error the schema-based check raised for ``cfg``,
    or None if it accepted it. It checked the schema first, then the
    family's parameters, then that every float of the run block is finite."""
    validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
    exc = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        return f"config field {where}: {exc.message}"
    if "model" in cfg:
        try:
            cli._check_params(cfg["model"], allow_missing=True)
        except cli.RunConfigError as exc:
            return str(exc)
    for key, val in cfg.get("run", {}).items():
        if isinstance(val, float) and not math.isfinite(val):
            return f"config field run/{key}: {val} is not finite"
    return None
