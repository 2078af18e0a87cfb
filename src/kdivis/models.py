"""The four qubit dynamics families and their time-local propagators.

Every model produces a family of qubit maps ``E_t``. Single maps are 4x4
superoperators in the column-stacking convention of :mod:`kdivis.qmat`;
time grids (:class:`PropagatorGrid`) hold the real Pauli transfer matrices
that the divisibility scan and the measures work on:

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

Each model class carries its family tag. :data:`MODEL_FAMILIES`, built once
from the dataclass fields, is the one table of parameters that configs, flags
and sweeps are checked against and models are built from.

The first two have analytic propagators whose transfer matrices are
diagonal-affine and are written directly. The composite ones are built in
real arithmetic in the orthonormal two-qubit Pauli basis
``sigma_a x sigma_b / 2``, where the Hermiticity-preserving joint generator
is a real 16x16 matrix: one ``expm`` of the time step, propagated by
doubling, and the reduced transfer matrices are the rows with the identity
on the environment factor, since the partial trace keeps exactly those.
:func:`reduced_propagator` keeps the complex superoperator route as the RK4
oracle. Each model class declares the axis its maps are covariant about:
z for the diagonal-affine Pauli, amplitude-damping and superradiance maps,
x for the C-NOT maps, whose yz block is a scaled rotation. Every grid takes
the one closed-form complement scan about its axis; the composite grids add
the conditioning criterion of a propagated grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, get_type_hints

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
    "reduced_propagator",
    "propagate_rk4",
    "check_time_grid",
    "propagator_grid",
    "model_from_params",
    "model_params",
    "ModelParam",
    "ModelFamily",
    "MODEL_FAMILIES",
    "MODEL_PARAMS",
]


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------

def _log_cosh(t):
    # stable ln cosh t = |t| + ln(1 + e^{-2|t|}) - ln 2
    t = np.abs(t)
    return t + np.log1p(np.exp(-2.0 * t)) - np.log(2.0)


#: constructor of each named rate in the vocabulary
_RATE_NAMES = {"tanh-neg": "tanh_neg", "sin": "sine", "sin-neg": "sine_neg"}


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
        if not math.isfinite(c):
            raise ValueError(f"constant rate must be finite, got {c}")
        # RateFn equality compares tags, so a tag must give back c exactly
        tag = f"{c:g}" if float(f"{c:g}") == c else repr(c)
        return cls(f"const:{tag}", lambda t: c * np.ones_like(np.asarray(t, float)),
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
            if spec in _RATE_NAMES:
                return getattr(cls, _RATE_NAMES[spec])()
            try:
                c = float(spec)
            except ValueError:
                raise ValueError(f"unknown rate spec {spec!r}") from None
            return cls.constant(c)
        if callable(spec):
            return cls("custom", spec)
        raise TypeError(f"cannot build a rate function from {spec!r}")

    def integral(self, t: float) -> float:
        """Integral of the rate over ``[0, t]``."""
        if self.antiderivative is not None:
            return float(self.antiderivative(t) - self.antiderivative(0.0))
        return _quad_checked(self.fn, 0.0, t)

    def integrals_on_grid(self, times: np.ndarray) -> np.ndarray:
        """Integrals from 0 to each entry of a sorted time grid."""
        times = np.asarray(times, dtype=float)
        if self.antiderivative is not None:
            return np.asarray(self.antiderivative(times) - self.antiderivative(0.0), dtype=float)
        segs = [0.0 if times[0] == 0.0 else _quad_checked(self.fn, 0.0, times[0])]
        for a, b in zip(times[:-1], times[1:]):
            segs.append(_quad_checked(self.fn, a, b))
        return np.cumsum(segs)


def _quad_checked(fn, a, b) -> float:
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(fn, a, b, epsabs=config.DEFAULT.quadrature, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureFailure(f"rate integral on [{a}, {b}] did not converge: {exc}") from exc
    if err > 1e4 * config.DEFAULT.quadrature:
        raise QuadratureFailure(
            f"rate integral on [{a}, {b}] error estimate {err:.2e} above target")
    return float(val)


def _check_finite(model, *attrs: str) -> None:
    """Raise ``ValueError`` naming the first of the number fields ``attrs``
    of ``model`` that is NaN or infinite."""
    for attr in attrs:
        val = getattr(model, attr)
        if not math.isfinite(val):
            raise ValueError(f"{_PARAM_NAMES.get(attr, attr)} must be finite, got {val}")


# ---------------------------------------------------------------------------
# Pauli channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliChannelModel:
    """``drho/dt = 1/2 sum_j g_j(t) (sigma_j rho sigma_j - rho)``."""

    family = "pauli"
    #: Pauli index (1, 2, 3 for x, y, z) of the grids' covariance axis, read
    #: by :func:`propagator_grid`; diagonal maps take z
    axis = 3

    g1: RateFn
    g2: RateFn
    g3: RateFn

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            try:
                object.__setattr__(self, name, RateFn.of(getattr(self, name)))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

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

    def bloch_eigenvalues(self, times) -> np.ndarray:
        """Bloch scaling factors ``lambda_j(t) = exp(-Gamma_k - Gamma_l)``,
        ``(j, k, l)`` cyclic, on a sorted time grid; shape ``(len(times), 3)``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        gam = np.stack([g.integrals_on_grid(times) for g in self.rates], axis=1)
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


def pauli_propagator_analytic(model: PauliChannelModel, t: float) -> np.ndarray:
    """Propagator of the Pauli channel, diagonal in the Pauli basis."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam = model.bloch_eigenvalues(np.array([t]))[0]
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

    family = "ad"
    axis = 3

    gamma0: float
    lam: float

    def __post_init__(self):
        _check_finite(self, "gamma0", "lam")
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


def _hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (_lk(h, eye) - _lk(eye, h))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _cnot_terms() -> tuple[np.ndarray, np.ndarray]:
    """Generator terms of :class:`CnotControlModel` at ``J = 1`` and at
    ``gamma = 1``: the C-NOT-type interaction and the target's depolarizing."""
    p1 = np.diag([0.0, 1.0]).astype(complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    ham = _hamiltonian_superop(0.5 * (np.kron(p1, qmat.SIGMA_X) + np.kron(p0, qmat.IDENTITY)))
    eye16 = np.eye(16, dtype=complex)
    dep = np.zeros((16, 16), dtype=complex)
    for s in qmat.PAULIS[1:]:
        s_t = np.kron(qmat.IDENTITY, s)
        dep += 0.5 * (_lk(s_t, s_t) - eye16)
    return _frozen(ham), _frozen(dep)


def _superradiance_terms() -> tuple[np.ndarray, np.ndarray]:
    """Generator terms of :class:`SuperradianceModel` at unit rates: the
    independent decays of the two atoms (diagonal of the rate matrix) and
    their collective cross-coupling (off-diagonal)."""
    lowers = (np.kron(qmat.SIGMA_MINUS, qmat.IDENTITY),
              np.kron(qmat.IDENTITY, qmat.SIGMA_MINUS))
    eye4 = np.eye(4, dtype=complex)
    own = np.zeros((16, 16), dtype=complex)
    cross = np.zeros((16, 16), dtype=complex)
    for i in range(2):
        for j in range(2):
            raise_i = lowers[i].conj().T
            pipj = raise_i @ lowers[j]
            term = _lk(lowers[j], raise_i) - 0.5 * (_lk(pipj, eye4) + _lk(eye4, pipj))
            if i == j:
                own += term
            else:
                cross += term
    return _frozen(own), _frozen(cross)


_CNOT_HAM, _CNOT_DEP = _cnot_terms()
_SR_OWN, _SR_CROSS = _superradiance_terms()


@dataclass(frozen=True)
class CnotControlModel:
    """Target qubit coupled to a mixed control qubit, plus isotropic noise.

    Interaction ``H = J/2 (|1_c><1_c| x sigma_x + |0_c><0_c| x I)``; the
    control (first tensor factor) starts in ``a|1><1| + (1-a)|0><0|`` and is
    traced out. The target additionally sees a depolarizing channel with
    equal rates ``gamma`` on all three Pauli axes.
    """

    family = "cnot"
    #: a control-diagonal mixture of rotations about x, then isotropic
    #: depolarizing: covariant about x
    axis = 1

    J: float
    gamma: float
    a: float

    #: index of the traced-out tensor factor (the control qubit)
    env_factor = 0

    def __post_init__(self):
        _check_finite(self, "J", "gamma", "a")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must lie in [0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    def joint_generator(self) -> np.ndarray:
        return self.J * _CNOT_HAM + self.gamma * _CNOT_DEP

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

    family = "superradiance"
    #: phase covariant about z
    axis = 3

    gamma0: float
    x: float
    a: float

    env_factor = 1

    def __post_init__(self):
        _check_finite(self, "gamma0", "x", "a")
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
        return self.gamma0 * _SR_OWN + self.cross_rate * _SR_CROSS

    def env_state(self) -> np.ndarray:
        return np.diag([1.0 - self.a, self.a]).astype(complex)


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
        if dev > config.DEFAULT.integration:
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
    qmat.validate_density_matrix(env_state)
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
        if dev > config.DEFAULT.integration:
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
    ``E_{t_i + eps}`` needed for two-point complement steps, as real Pauli
    transfer matrices ``F_mn = Tr(sigma_m E(sigma_n))/2``: ``F[1:, 1:]`` and
    ``F[1:, 0]`` are the Bloch-affine form ``r -> M r + c``.

    ``axis`` is the Pauli index (1, 2, 3 for x, y, z) of the axis every map
    of the grid is covariant about, or None for no known structure. About
    axis ``a`` the Bloch form splits into ``r_a -> d_a r_a + c_a`` and a 2x2
    block on the perpendicular plane, with exact zeros elsewhere. The block
    is diagonal (Pauli, amplitude-damping and superradiance families, all
    about z) or a scaled rotation ``[[A, -B], [B, A]]`` (C-NOT, about x), so
    the complements follow exactly from ratios instead of matrix inversion.
    Composite grids evolve the joint state's real Pauli coordinates,
    ``y_i = e^{G dt i} y_0``, and read ``F`` off the rows of ``y_i`` that
    carry the identity on the environment factor; ``propagated`` marks
    them, since their maps carry rounding of order ``macheps * cond(F)``
    that an analytic grid does not.
    """

    times: np.ndarray
    dt: float
    eps: float
    ptm: np.ndarray
    ptm_shift: np.ndarray
    axis: int | None = None
    propagated: bool = False

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _diagonal_ptm(d: np.ndarray, c_z) -> np.ndarray:
    """Stacked transfer matrices of the maps ``r -> diag(d) r + (0, 0, c_z)``."""
    out = np.zeros((len(d), 4, 4))
    out[:, 0, 0] = 1.0
    out[:, 3, 0] = c_z
    axes = np.arange(1, 4)
    out[:, axes, axes] = d
    return out


#: columns ``vec(sigma_a x sigma_b) / 2`` at index ``4a + b``, the orthonormal
#: two-qubit Pauli basis
_PAULI2 = _frozen(np.stack([qmat.vec(np.kron(sa, sb)) / 2.0
                            for sa in qmat.PAULIS for sb in qmat.PAULIS], axis=1))

#: rows of one propagation product: 512 x 16 doubles is 64 KiB, and
#: 512 * 16 * 16 stays below OpenBLAS's threading threshold
_BLOCK_ROWS = 512


def _propagate(step: np.ndarray, cols: np.ndarray, n_steps: int) -> np.ndarray:
    """The columns ``step^i @ cols`` for ``i = 0..n_steps``, transposed, as
    ``(n_steps + 1, k, 16)`` for ``k`` columns.

    Filled by doubling: ``y[p:2p] = step^p y[0:p]`` with ``step^p`` squared
    after each block, until a block reaches ``_BLOCK_ROWS`` rows; from then
    on blocks of that size advance with the last power.
    """
    k = cols.shape[1]
    y = np.empty((n_steps + 1, k, 16))
    y[0] = cols.T
    flat = y.reshape(-1, 16)
    cap = max(1, _BLOCK_ROWS // k)
    power, p, filled = step.T, 1, 1
    while filled <= n_steps:
        m = min(p, n_steps + 1 - filled)
        src = filled - p
        np.matmul(flat[k * src:k * (src + m)], power, out=flat[k * filled:k * (filled + m)])
        filled += m
        if p < cap and filled <= n_steps:
            power = power @ power
            p *= 2
    return y


def check_time_grid(horizon: float, n_steps: int,
                    eps: float | None = None) -> tuple[float, float]:
    """Grid spacing ``dt`` and complement step ``eps`` (default ``dt``) of a
    uniform grid over ``[0, horizon]``; raises ``ValueError`` when the grid
    or the step is invalid."""
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    dt = horizon / n_steps
    if eps is None:
        eps = dt
    if not 0.0 < eps <= dt * (1.0 + 1e-12):
        raise ValueError("epsilon must lie in (0, horizon/n_steps]")
    return dt, eps


def propagator_grid(
    model,
    horizon: float,
    n_steps: int,
    eps: float | None = None,
) -> PropagatorGrid:
    """Build the propagator family of a model on a uniform time grid."""
    dt, eps = check_time_grid(horizon, n_steps, eps)
    times = np.linspace(0.0, horizon, n_steps + 1)
    on_grid = abs(eps - dt) <= 1e-12 * dt

    if isinstance(model, PauliChannelModel):
        def diagonal_ptm(ts):
            return _diagonal_ptm(model.bloch_eigenvalues(ts), 0.0)
    elif isinstance(model, AmplitudeDampingModel):
        def diagonal_ptm(ts):
            g = model.survival(ts)
            return _diagonal_ptm(np.stack([g, g, g * g], axis=1), 1.0 - g * g)
    elif isinstance(model, (CnotControlModel, SuperradianceModel)):
        # Hermiticity preservation makes the generator real in this basis
        gen = (_PAULI2.conj().T @ model.joint_generator() @ _PAULI2).real
        # rho_env x sigma_n = sum_c r_c sigma_c x sigma_n / 2: column n has r
        # at the rows of sigma_c x sigma_n; the partial trace keeps c = 0
        r = np.array([1.0, *qmat.bloch_from_density(model.env_state())])[:, None]
        if model.env_factor == 0:
            cols, sel = np.kron(r, np.eye(4)), slice(0, 4)
        else:
            cols, sel = np.kron(np.eye(4), r), slice(0, 16, 4)
        if not on_grid:
            # E_{t+eps} = e^{G t} e^{G eps}: the shifted inputs ride along
            cols = np.hstack([cols, expm(gen * eps) @ cols])
        y = _propagate(expm(gen * dt), cols, n_steps)
        ptm = np.ascontiguousarray(y[:, :4, sel].transpose(0, 2, 1))
        shift = ptm[1:] if on_grid else np.ascontiguousarray(
            y[:-1, 4:, sel].transpose(0, 2, 1))
        # the covariance leaves exact zeros off the pattern of the axis: the
        # generator and its products have those zeros
        return PropagatorGrid(times, dt, eps, ptm, shift, model.axis, propagated=True)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    ptm = diagonal_ptm(times)
    shift = ptm[1:] if on_grid else diagonal_ptm(times[:-1] + eps)
    return PropagatorGrid(times, dt, eps, ptm, shift, model.axis)


# ---------------------------------------------------------------------------
# Model-family registry
# ---------------------------------------------------------------------------

#: config, flag and sweep-axis names of the fields named otherwise
#: (``lambda`` is a Python keyword)
_PARAM_NAMES = {"lam": "lambda"}


class ModelParam(NamedTuple):
    """A model parameter: its config, flag and sweep-axis ``name``, the
    dataclass field ``attr`` it sets, and whether it is a ``rate`` function
    (a vocabulary string or a number) rather than a number."""

    name: str
    attr: str
    rate: bool


class ModelFamily:
    """A model class under its family tag, with its parameters in field order.

    ``build`` maps a parameter dict to a model, passing rates on and the rest
    through ``float``. It is compiled once, as :mod:`dataclasses` compiles
    ``__init__``, so that a sweep cell pays for the dict lookups alone.
    """

    def __init__(self, cls: type):
        hints = get_type_hints(cls)
        self.tag, self.cls = cls.family, cls
        self.params = tuple(ModelParam(_PARAM_NAMES.get(f.name, f.name), f.name,
                                       hints[f.name] is RateFn) for f in fields(cls))
        self.names = frozenset(p.name for p in self.params)
        args = ", ".join(f"p[{p.name!r}]" if p.rate else f"float(p[{p.name!r}])"
                         for p in self.params)
        self.build = eval(f"lambda p: cls({args})", {"cls": cls})

    def check(self, names, allow_missing: bool = False) -> None:
        """Raise ``ValueError`` naming the parameters among ``names`` that
        the family does not accept and, unless ``allow_missing``, those it
        needs that ``names`` lacks."""
        unknown = sorted(set(names) - self.names)
        missing = [] if allow_missing else sorted(self.names - set(names))
        problems = ([f"does not accept parameter(s) {unknown}"] if unknown else []) + (
            [f"is missing parameter(s) {missing}"] if missing else [])
        if problems:
            raise ValueError(f"model family {self.tag!r} " + " and ".join(problems))


#: the model families by tag, in the order the paper introduces them
MODEL_FAMILIES: dict[str, ModelFamily] = {fam.tag: fam for fam in map(ModelFamily, (
    PauliChannelModel, AmplitudeDampingModel, CnotControlModel, SuperradianceModel))}

#: every parameter of any family by name; families that share a name
#: (``gamma0``, ``a``) share its field and kind
MODEL_PARAMS: dict[str, ModelParam] = {
    p.name: p for fam in MODEL_FAMILIES.values() for p in fam.params}

_FAMILY_OF_CLASS = {fam.cls: fam for fam in MODEL_FAMILIES.values()}


def model_from_params(family: str, params: dict):
    """Instantiate a model from its family tag and a flat parameter mapping.

    Rate parameters are passed on as given; the others go through
    ``float``. Raises ``ValueError`` for an unknown family and for missing
    or unknown parameters, naming them.
    """
    fam = MODEL_FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown model family {family!r}")
    if len(params) != len(fam.params):
        fam.check(params)
    try:
        return fam.build(params)
    except KeyError:
        fam.check(params)  # as many names as parameters, one missing
        raise


def model_params(model) -> tuple[str, dict]:
    """Inverse of :func:`model_from_params` for serialization; rate
    parameters come back as their vocabulary tags."""
    fam = _FAMILY_OF_CLASS.get(type(model))
    if fam is None:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return fam.tag, {p.name: getattr(model, p.attr).tag if p.rate else getattr(model, p.attr)
                     for p in fam.params}
