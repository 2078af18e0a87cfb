"""The four qubit dynamics families and their time-local propagators.

Every model produces a family of qubit maps ``E_t`` (4x4 superoperators in
the column-stacking convention of :mod:`kdivis.qmat`):

* :class:`PauliChannelModel` -- dephasing along the three Pauli axes with
  time-dependent rates; solved in closed form in the Pauli eigenbasis.
* :class:`AmplitudeDampingModel` -- decay into a Lorentzian reservoir of
  width ``lam`` and coupling ``gamma0``; the survival amplitude ``G(t)`` is
  the resonant damped-oscillator solution, which changes character at
  ``gamma0 = lam/2``.
* :class:`CnotControlModel` -- a target qubit driven by a mixed control
  qubit through a C-NOT-type interaction plus isotropic depolarizing noise;
  the control is traced out.
* :class:`SuperradianceModel` -- two atoms decaying into a common photon
  reservoir with cross-rate ``gamma0 * sin(x)/x``; the partner atom is
  traced out.

The first two have analytic propagators; the composite ones evolve the
joint two-qubit generator and trace out the environment factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import expm

from . import config, qmat
from .errors import IntegrationUnstable, QuadratureFailure

__all__ = [
    "RateFn",
    "PauliChannelModel",
    "AmplitudeDampingModel",
    "CnotControlModel",
    "SuperradianceModel",
    "PropagatorGrid",
    "pauli_generator",
    "pauli_propagator_analytic",
    "amplitude_damping_propagator",
    "damping_superop",
    "joint_generator",
    "reduced_propagator",
    "propagate_rk4",
    "propagator_grid",
    "model_from_params",
    "model_params",
    "MODEL_FAMILIES",
]


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------

def _log_cosh(t):
    # stable ln cosh t = |t| + ln(1 + e^{-2|t|}) - ln 2
    t = np.abs(t)
    return t + np.log1p(np.exp(-2.0 * t)) - np.log(2.0)


@dataclass(frozen=True)
class RateFn:
    """A scalar rate function of time with an optional closed-form integral.

    ``tag`` is the serialization vocabulary: ``const:c``, ``tanh-neg``,
    ``sin``, ``sin-neg`` or ``custom``.
    """

    tag: str
    fn: Callable = field(compare=False)
    antiderivative: Callable | None = field(default=None, compare=False)

    def __call__(self, t):
        return self.fn(t)

    @classmethod
    def constant(cls, c: float) -> "RateFn":
        c = float(c)
        return cls(f"const:{c:g}", lambda t: c * np.ones_like(np.asarray(t, float)),
                   lambda t: c * np.asarray(t, float))

    @classmethod
    def tanh_neg(cls) -> "RateFn":
        return cls("tanh-neg", lambda t: -np.tanh(t), lambda t: -_log_cosh(t))

    @classmethod
    def sine(cls) -> "RateFn":
        return cls("sin", np.sin, lambda t: -np.cos(t))

    @classmethod
    def sine_neg(cls) -> "RateFn":
        return cls("sin-neg", lambda t: -np.sin(t), np.cos)

    @classmethod
    def of(cls, spec) -> "RateFn":
        """Coerce a number, vocabulary string or callable into a RateFn."""
        if isinstance(spec, RateFn):
            return spec
        if isinstance(spec, (int, float)):
            return cls.constant(spec)
        if isinstance(spec, str):
            if spec.startswith("const:"):
                return cls.constant(float(spec.split(":", 1)[1]))
            named = {"tanh-neg": cls.tanh_neg, "sin": cls.sine, "sin-neg": cls.sine_neg}
            if spec in named:
                return named[spec]()
            try:
                return cls.constant(float(spec))
            except ValueError:
                raise ValueError(f"unknown rate spec {spec!r}") from None
        if callable(spec):
            return cls("custom", spec)
        raise TypeError(f"cannot build a rate function from {spec!r}")

    def integral(self, t: float, tolerances: config.Tolerances = config.DEFAULT) -> float:
        """Integral of the rate over ``[0, t]``."""
        if self.antiderivative is not None:
            return float(self.antiderivative(t) - self.antiderivative(0.0))
        return _quad_checked(self.fn, 0.0, t, tolerances)

    def integrals_on_grid(self, times: np.ndarray,
                          tolerances: config.Tolerances = config.DEFAULT) -> np.ndarray:
        """Integrals from 0 to each entry of a sorted time grid."""
        times = np.asarray(times, dtype=float)
        if self.antiderivative is not None:
            return np.asarray(self.antiderivative(times) - self.antiderivative(0.0), dtype=float)
        segs = [0.0 if times[0] == 0.0 else _quad_checked(self.fn, 0.0, times[0], tolerances)]
        for a, b in zip(times[:-1], times[1:]):
            segs.append(_quad_checked(self.fn, a, b, tolerances))
        return np.cumsum(segs)


def _quad_checked(fn, a, b, tolerances: config.Tolerances) -> float:
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(fn, a, b, epsabs=tolerances.quadrature, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureFailure(f"rate integral on [{a}, {b}] did not converge: {exc}") from exc
    if err > 1e4 * tolerances.quadrature:
        raise QuadratureFailure(
            f"rate integral on [{a}, {b}] error estimate {err:.2e} above target")
    return float(val)


# ---------------------------------------------------------------------------
# Pauli channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliChannelModel:
    """``drho/dt = 1/2 sum_j g_j(t) (sigma_j rho sigma_j - rho)``."""

    g1: RateFn
    g2: RateFn
    g3: RateFn

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            object.__setattr__(self, name, RateFn.of(getattr(self, name)))

    @classmethod
    def constant(cls, c1: float, c2: float, c3: float) -> "PauliChannelModel":
        return cls(RateFn.constant(c1), RateFn.constant(c2), RateFn.constant(c3))

    @classmethod
    def hall(cls) -> "PauliChannelModel":
        """Rates (1, 1, -tanh t): non-Markovian at all times, yet P-divisible."""
        return cls(RateFn.constant(1.0), RateFn.constant(1.0), RateFn.tanh_neg())

    @classmethod
    def sine_eternal(cls) -> "PauliChannelModel":
        """Rates (1, sin t, -sin t): same eternal character as :meth:`hall`."""
        return cls(RateFn.constant(1.0), RateFn.sine(), RateFn.sine_neg())

    @property
    def rates(self) -> tuple[RateFn, RateFn, RateFn]:
        return (self.g1, self.g2, self.g3)

    def bloch_eigenvalues(self, times, tolerances: config.Tolerances = config.DEFAULT) -> np.ndarray:
        """Bloch scaling factors ``lambda_j(t) = exp(-Gamma_k - Gamma_l)``,
        ``(j, k, l)`` cyclic, on a sorted time grid; shape ``(len(times), 3)``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        gam = np.stack([g.integrals_on_grid(times, tolerances) for g in self.rates], axis=1)
        lam = np.empty_like(gam)
        for j, (k, l) in enumerate(((1, 2), (2, 0), (0, 1))):
            lam[:, j] = np.exp(-(gam[:, k] + gam[:, l]))
        return lam


def pauli_generator(model: PauliChannelModel, t: float) -> np.ndarray:
    """Superoperator of the instantaneous Pauli-channel generator at time t."""
    out = np.zeros((4, 4), dtype=complex)
    eye = np.eye(4, dtype=complex)
    for g, s in zip(model.rates, qmat.PAULIS[1:]):
        out += 0.5 * float(g(t)) * (qmat.sandwich_superop(s, s) - eye)
    return out


def _pauli_diagonal_batch(lam: np.ndarray) -> np.ndarray:
    """Stacked Pauli-diagonal superoperators from Bloch eigenvalue rows."""
    weights = np.concatenate([np.ones((lam.shape[0], 1)), lam], axis=1)
    cols = qmat._PAULI_COLS
    return 0.5 * np.einsum("mk,ik,jk->mij", weights.astype(complex), cols, cols.conj())


def pauli_propagator_analytic(
    model: PauliChannelModel, t: float,
    tolerances: config.Tolerances = config.DEFAULT,
) -> np.ndarray:
    """Propagator of the Pauli channel, diagonal in the Pauli basis."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam = model.bloch_eigenvalues(np.array([t]), tolerances)[0]
    return qmat.pauli_diagonal_superop(lam)


# ---------------------------------------------------------------------------
# Amplitude damping with a Lorentzian reservoir
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeDampingModel:
    """Qubit decay with memory: coupling ``gamma0``, reservoir width ``lam``.

    The excited-state survival amplitude is

        G(t) = e^{-lam t/2} [cosh(d t/2) + (lam/d) sinh(d t/2)],
        d = sqrt(lam^2 - 2 gamma0 lam),

    continued analytically (d imaginary) for ``gamma0 > lam/2``, where G has
    zeros and the time-local rate ``-2 Re(G'/G)`` turns negative in between.
    """

    gamma0: float
    lam: float

    def __post_init__(self):
        if self.gamma0 <= 0 or self.lam <= 0:
            raise ValueError("gamma0 and lam must be positive")

    @property
    def _d(self) -> complex:
        return np.sqrt(complex(self.lam * self.lam - 2.0 * self.gamma0 * self.lam))

    def survival(self, t):
        """G(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        d = self._d
        half = t / 2.0
        envelope = np.exp(-self.lam * half)
        if abs(d) < 1e-8 * max(self.lam, 1.0):
            val = envelope * (1.0 + self.lam * half)
        else:
            val = (envelope * (np.cosh(d * half) + (self.lam / d) * np.sinh(d * half))).real
        return float(val) if np.isscalar(t) or t.ndim == 0 else val

    def survival_derivative(self, t):
        """dG/dt in closed form."""
        t = np.asarray(t, dtype=float)
        d = self._d
        half = t / 2.0
        envelope = np.exp(-self.lam * half)
        if abs(d) < 1e-8 * max(self.lam, 1.0):
            val = -self.gamma0 * self.lam * envelope * half
        else:
            val = (-(self.gamma0 * self.lam / d) * envelope * np.sinh(d * half)).real
        return float(val) if np.isscalar(t) or t.ndim == 0 else val

    def rate(self, t):
        """Time-local decay rate ``gamma(t) = -2 Re(G'(t)/G(t))``."""
        return -2.0 * self.survival_derivative(t) / self.survival(t)

    def first_zero(self) -> float | None:
        """First zero of G, or None on the monotonic branch."""
        if self.gamma0 <= self.lam / 2.0:
            return None
        dabs = abs(self._d)
        return 2.0 * (np.pi - np.arctan(dabs / self.lam)) / dabs


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


def amplitude_damping_propagator(model: AmplitudeDampingModel, t: float) -> np.ndarray:
    """Propagator of the amplitude-damping model at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return damping_superop(model.survival(t))


# ---------------------------------------------------------------------------
# Composite two-qubit models
# ---------------------------------------------------------------------------

def _lk(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # X -> A X B on the joint space
    return np.kron(b.T, a)


def _dissipator(l_op: np.ndarray) -> np.ndarray:
    d = l_op.shape[0]
    eye = np.eye(d, dtype=complex)
    ldl = l_op.conj().T @ l_op
    return (_lk(l_op, l_op.conj().T)
            - 0.5 * (_lk(ldl, eye) + _lk(eye, ldl)))


def _hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (_lk(h, eye) - _lk(eye, h))


@dataclass(frozen=True)
class CnotControlModel:
    """Target qubit coupled to a mixed control qubit, plus isotropic noise.

    Interaction ``H = J/2 (|1_c><1_c| x sigma_x + |0_c><0_c| x I)``; the
    control (first tensor factor) starts in ``a|1><1| + (1-a)|0><0|`` and is
    traced out. The target additionally sees a depolarizing channel with
    equal rates ``gamma`` on all three Pauli axes.
    """

    J: float
    gamma: float
    a: float

    #: index of the traced-out tensor factor (the control qubit)
    env_factor = 0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must lie in [0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    def joint_generator(self) -> np.ndarray:
        p1 = np.diag([0.0, 1.0]).astype(complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        h = 0.5 * self.J * (np.kron(p1, qmat.SIGMA_X) + np.kron(p0, qmat.IDENTITY))
        gen = _hamiltonian_superop(h)
        eye16 = np.eye(16, dtype=complex)
        for s in qmat.PAULIS[1:]:
            s_t = np.kron(qmat.IDENTITY, s)
            gen += 0.5 * self.gamma * (_lk(s_t, s_t) - eye16)
        return gen

    def env_state(self) -> np.ndarray:
        return np.diag([1.0 - self.a, self.a]).astype(complex)


@dataclass(frozen=True)
class SuperradianceModel:
    """Two atoms in a common reservoir; the partner atom is the environment.

    Decay-rate matrix ``[[g0, g0 sin(x)/x], [g0 sin(x)/x, g0]]`` with
    ``x = q d`` the dimensionless separation; positive semidefinite for all
    ``x > 0``. Only the dissipative cross-coupling is kept, so the single
    atom is exactly Markovian at ``x = n pi``. The environment atom (second
    factor) starts with excited population ``a``.
    """

    gamma0: float
    x: float
    a: float

    env_factor = 1

    def __post_init__(self):
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if self.x <= 0.0:
            raise ValueError("x must be positive")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must lie in [0, 1]")

    @property
    def cross_rate(self) -> float:
        return self.gamma0 * float(np.sinc(self.x / np.pi))

    def rate_matrix(self) -> np.ndarray:
        g12 = self.cross_rate
        return np.array([[self.gamma0, g12], [g12, self.gamma0]])

    def joint_generator(self) -> np.ndarray:
        lowers = (np.kron(qmat.SIGMA_MINUS, qmat.IDENTITY),
                  np.kron(qmat.IDENTITY, qmat.SIGMA_MINUS))
        rates = self.rate_matrix()
        eye4 = np.eye(4, dtype=complex)
        gen = np.zeros((16, 16), dtype=complex)
        for i in range(2):
            for j in range(2):
                raise_i = lowers[i].conj().T
                pipj = raise_i @ lowers[j]
                gen += rates[i, j] * (_lk(lowers[j], raise_i)
                                      - 0.5 * (_lk(pipj, eye4) + _lk(eye4, pipj)))
        return gen

    def env_state(self) -> np.ndarray:
        return np.diag([1.0 - self.a, self.a]).astype(complex)


def joint_generator(model) -> np.ndarray:
    """Joint two-qubit generator of a composite model, as a 16x16 superoperator."""
    return model.joint_generator()


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

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


def propagate_rk4(
    gen_fn, t: float, steps: int, check: bool = False,
    tolerances: config.Tolerances = config.DEFAULT,
) -> np.ndarray:
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
        if dev > tolerances.integration:
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
    tolerances: config.Tolerances = config.DEFAULT,
) -> np.ndarray:
    """System propagator ``rho_S -> Tr_env[e^{L t}(rho_S x rho_env)]``.

    Evolves the four system basis operators jointly with the environment
    state under the two-qubit generator ``gen`` and traces out the factor
    ``which_env``.
    """
    qmat.validate_density_matrix(env_state, tolerances)
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
        if dev > tolerances.integration:
            raise IntegrationUnstable(
                f"halving the step changed the reduced propagator by {dev:.2e}")
        y = y_fine
    return _reduce_joint_columns(y, which_env)


# ---------------------------------------------------------------------------
# Propagators on a time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagatorGrid:
    """Propagators ``E_{t_i}`` on a uniform grid plus the shifted maps
    ``E_{t_i + eps}`` needed for two-point complement steps.

    ``survival`` carries the amplitude-damping ``G`` values and
    ``bloch_eigs`` the Pauli-diagonal eigenvalues when the model admits the
    corresponding closed-form complement fast path (exact eigenvalue ratios
    instead of ill-conditioned matrix inversion).
    """

    times: np.ndarray
    dt: float
    eps: float
    maps: np.ndarray
    maps_shift: np.ndarray
    survival: np.ndarray | None = None
    survival_shift: np.ndarray | None = None
    bloch_eigs: np.ndarray | None = None
    bloch_eigs_shift: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def propagator_grid(
    model,
    horizon: float,
    n_steps: int,
    eps: float | None = None,
    tolerances: config.Tolerances = config.DEFAULT,
) -> PropagatorGrid:
    """Build the propagator family of a model on a uniform time grid."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)
    if eps is None:
        eps = dt
    if not 0.0 < eps <= dt * (1.0 + 1e-12):
        raise ValueError("epsilon must lie in (0, horizon/n_steps]")
    on_grid = abs(eps - dt) <= 1e-12 * dt

    if isinstance(model, PauliChannelModel):
        lam = model.bloch_eigenvalues(times, tolerances)
        maps = _pauli_diagonal_batch(lam)
        if on_grid:
            lam_shift, shift = lam[1:], maps[1:]
        else:
            lam_shift = model.bloch_eigenvalues(times[:-1] + eps, tolerances)
            shift = _pauli_diagonal_batch(lam_shift)
        return PropagatorGrid(times, dt, eps, maps, shift,
                              bloch_eigs=lam, bloch_eigs_shift=lam_shift)

    if isinstance(model, AmplitudeDampingModel):
        g = model.survival(times)
        maps = damping_superop(g)
        if on_grid:
            g_shift, shift = g[1:], maps[1:]
        else:
            g_shift = model.survival(times[:-1] + eps)
            shift = damping_superop(g_shift)
        return PropagatorGrid(times, dt, eps, maps, shift,
                              survival=g, survival_shift=g_shift)

    if isinstance(model, (CnotControlModel, SuperradianceModel)):
        gen = model.joint_generator()
        cols = _joint_basis_columns(model.env_state(), model.env_factor)
        step = expm(gen * dt)
        joint = np.empty((n_steps + 1, 16, 4), dtype=complex)
        joint[0] = cols
        for i in range(n_steps):
            joint[i + 1] = step @ joint[i]
        maps = _reduce_joint_columns(joint, model.env_factor)
        if on_grid:
            shift = maps[1:]
        else:
            step_eps = expm(gen * eps)
            shift = _reduce_joint_columns(
                np.einsum("ij,njk->nik", step_eps, joint[:-1]), model.env_factor)
        return PropagatorGrid(times, dt, eps, maps, shift)

    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Config-facing construction
# ---------------------------------------------------------------------------

MODEL_FAMILIES = ("pauli", "ad", "cnot", "superradiance")


def model_from_params(family: str, params: dict):
    """Instantiate a model from its family tag and a flat parameter mapping."""
    if family == "pauli":
        return PauliChannelModel(params["g1"], params["g2"], params["g3"])
    if family == "ad":
        return AmplitudeDampingModel(gamma0=float(params["gamma0"]),
                                     lam=float(params["lambda"]))
    if family == "cnot":
        return CnotControlModel(J=float(params["J"]), gamma=float(params["gamma"]),
                                a=float(params["a"]))
    if family == "superradiance":
        return SuperradianceModel(gamma0=float(params["gamma0"]),
                                  x=float(params["x"]), a=float(params["a"]))
    raise ValueError(f"unknown model family {family!r}")


def model_params(model) -> tuple[str, dict]:
    """Inverse of :func:`model_from_params` for serialization."""
    if isinstance(model, PauliChannelModel):
        return "pauli", {"g1": model.g1.tag, "g2": model.g2.tag, "g3": model.g3.tag}
    if isinstance(model, AmplitudeDampingModel):
        return "ad", {"gamma0": model.gamma0, "lambda": model.lam}
    if isinstance(model, CnotControlModel):
        return "cnot", {"J": model.J, "gamma": model.gamma, "a": model.a}
    if isinstance(model, SuperradianceModel):
        return "superradiance", {"gamma0": model.gamma0, "x": model.x, "a": model.a}
    raise TypeError(f"unsupported model type {type(model).__name__}")
