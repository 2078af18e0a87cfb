"""The four qubit dynamics families and their time-local propagators.

Every model produces a family of qubit maps ``E_t``, held on time grids
(:class:`PropagatorGrid`) as the diagonal Bloch rows that the divisibility
scan and the measures work on:

* :class:`PauliChannelModel` -- dephasing along the three Pauli axes with
  time-dependent rates from the :class:`RateFn` vocabulary, each with a
  closed-form integral; solved in closed form in the Pauli eigenbasis.
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

Every family has a closed-form propagator, ``model.bloch_form(times)``: the
Pauli and amplitude-damping maps from their rate integrals and survival
amplitude, the C-NOT target as a depolarized mixture of the identity and a
rotation about x, and the superradiant atom as sums of exponentials in
``gamma0 +- gamma12`` (Ficek & Tanas 2002). Each row ``(d_x, d_y, d_z, c_z)``
is the Bloch-affine map ``r -> diag(d) r + (0, 0, c_z)``: ``E_t`` itself for
the Pauli, amplitude-damping and superradiance families, and ``E_t`` without
its rotation of the yz plane about x for C-NOT. That unitary changes neither
the witnesses of a complement step nor the trace distances BLP reads
(Ruskai, Szarek & Werner 2002). The composite classes declare that their
grids take the conditioning criterion.
The full transfer matrices, the joint two-qubit generators, the single-map
superoperator and RK4 routes and the generic inversion scan are test oracles
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

__all__ = [
    "RateFn",
    "PauliChannelModel",
    "AmplitudeDampingModel",
    "CnotControlModel",
    "SuperradianceModel",
    "PropagatorGrid",
    "check_count",
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

#: largest x with a finite float64 exp(x)
_EXP_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class RateFn:
    """A scalar rate function of time with its closed-form integral.

    ``tag`` is the serialization vocabulary: ``const:c``, ``tanh-neg``,
    ``sin`` or ``sin-neg``; ``antiderivative`` is any antiderivative of
    ``fn``.
    """

    tag: str
    fn: Callable = field(compare=False)
    antiderivative: Callable = field(compare=False)

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
        """Coerce a number or vocabulary string into a RateFn."""
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
        raise TypeError(f"cannot build a rate function from {spec!r}; rates are a "
                        f"number or one of 'const:c', {', '.join(map(repr, _RATE_NAMES))}")

    def integrals_on_grid(self, times: np.ndarray) -> np.ndarray:
        """Integrals from 0 to each entry of a time grid."""
        return self.antiderivative(np.asarray(times, dtype=float)) - self.antiderivative(0.0)


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
    #: whether the grids take the conditioning criterion of the scan (see
    #: :class:`PropagatorGrid`); products of exponentials need none
    conditioned = False

    g1: RateFn
    g2: RateFn
    g3: RateFn

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            try:
                object.__setattr__(self, name, RateFn.of(getattr(self, name)))
            except (ValueError, TypeError) as exc:
                raise type(exc)(f"{name}: {exc}") from None

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

        Raises ``ValueError`` at the first time where a pair of rates
        integrates so far below zero that ``lambda_j`` overflows float64.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        gam = np.stack([g.integrals_on_grid(times) for g in self.rates], axis=1)
        lam = np.empty_like(gam)
        for j, (k, l) in enumerate(((1, 2), (2, 0), (0, 1))):
            lam[:, j] = -(gam[:, k] + gam[:, l])
        over = (lam > _EXP_MAX).any(axis=1)
        if over.any():
            raise ValueError(
                f"Bloch eigenvalue overflows float64 from t = {times[over.argmax()]:.6g}: "
                f"a pair of rates integrates below -{_EXP_MAX:.1f}")
        return np.exp(lam, out=lam)

    def bloch_form(self, times) -> np.ndarray:
        """Bloch rows ``(d_x, d_y, d_z, c_z)`` of ``E_t`` on a sorted time
        grid, shape ``(len(times), 4)``: the eigenvalues and no offset."""
        lam = self.bloch_eigenvalues(times)
        return np.column_stack([lam, np.zeros(len(lam))])


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
    It is evaluated as ``1/2 e^{-(lam-d) t/2} [(2 + E) - (lam/d) E]`` with
    ``E = expm1(-d t)``: no exponent is positive, so G neither overflows
    nor turns NaN at large ``d t``, where cosh overflows and the envelope
    underflows.
    """

    family = "ad"
    conditioned = False

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
        if abs(d) < 1e-8 * max(self.lam, 1.0):
            val = np.exp(-self.lam * half) * (1.0 + self.lam * half)
        else:
            e = np.expm1(-d * t)
            val = (0.5 * np.exp(-(self.lam - d) * half) * ((2.0 + e) - (self.lam / d) * e)).real
        return float(val) if np.isscalar(t) or t.ndim == 0 else val

    def survival_derivative(self, t):
        """dG/dt in closed form, ``(gamma0 lam / 2d) e^{-(lam-d) t/2} E``."""
        t = np.asarray(t, dtype=float)
        d = self._d
        half = t / 2.0
        if abs(d) < 1e-8 * max(self.lam, 1.0):
            val = -self.gamma0 * self.lam * np.exp(-self.lam * half) * half
        else:
            val = ((self.gamma0 * self.lam / (2.0 * d)) * np.exp(-(self.lam - d) * half)
                   * np.expm1(-d * t)).real
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

    def bloch_form(self, times) -> np.ndarray:
        """Bloch rows of ``E_t``: ``d = (G, G, G^2)``, ``c_z = 1 - G^2``."""
        g = self.survival(times)
        return np.stack([g, g, g * g, 1.0 - g * g], axis=1)


# ---------------------------------------------------------------------------
# Composite two-qubit models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnotControlModel:
    """Target qubit coupled to a mixed control qubit, plus isotropic noise.

    Interaction ``H = J/2 (|1_c><1_c| x sigma_x + |0_c><0_c| x I)``; the
    control (first tensor factor) starts in ``a|1><1| + (1-a)|0><0|`` and is
    traced out. The target additionally sees a depolarizing channel with
    equal rates ``gamma`` on all three Pauli axes.
    """

    family = "cnot"
    #: the yz entries sum terms of either sign, so the scan trusts them only
    #: up to ``macheps * cond(F)``
    conditioned = True

    J: float
    gamma: float
    a: float

    def __post_init__(self):
        _check_finite(self, "J", "gamma", "a")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must lie in [0, 1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    def bloch_form(self, times) -> np.ndarray:
        """Bloch rows ``(shrink, |z|, |z|, 0)`` of ``E_t``.

        Depolarizing shrinks the Bloch ball by ``shrink = e^{-2 gamma t}``,
        and the yz block is that times ``(1 - a) I + a R_x(J t)``, the
        control-weighted mixture: the scaled rotation ``[[A, -B], [B, A]]``,
        ``z = A + iB``. It commutes with the x part, so ``E_t`` is the
        rotation about x by ``arg z`` after ``diag(shrink, |z|, |z|)``, and
        the rows drop the rotation.
        """
        times = np.asarray(times, dtype=float)
        shrink = np.exp(-2.0 * self.gamma * times)
        jt = self.J * times
        z = np.hypot(shrink * (1.0 - self.a + self.a * np.cos(jt)),
                     shrink * self.a * np.sin(jt))
        return np.stack([shrink, z, z, np.zeros_like(z)], axis=1)


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
    #: ``d_z`` sums terms of either sign and can cross zero, so the scan
    #: trusts the entries only up to ``macheps * cond(F)``
    conditioned = True

    gamma0: float
    x: float
    a: float

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

    def bloch_form(self, times) -> np.ndarray:
        """Bloch rows of ``E_t``, sums of exponentials in the decay
        rates ``sigma, delta = gamma0 +- g`` of the symmetric and antisymmetric
        states, with ``g`` the cross rate.

        With ``p = e^{-delta t/2}`` and ``q = e^{-sigma t/2}``,
        ``d_x = d_y = (p + q)/2 + (a g/gamma0) expm1(-gamma0 t) (p - q)/2``,
        ``d_z = (p + q)^2/4 + a g [e^{-sigma t} (1 - e^{-delta t})/delta
        + e^{-delta t} expm1(-sigma t)/sigma]`` and
        ``c_z = 1 - d_z - a (p - q)^2/2``. Every exponent is at most zero, so
        nothing overflows; ``(1 - e^{-delta t})/delta`` is ``t`` where
        ``delta`` rounds to zero (``x`` below about 1e-8).
        """
        times = np.asarray(times, dtype=float)
        g0, g, a = self.gamma0, self.cross_rate, self.a
        delta, sigma = g0 - g, g0 + g  # |g| <= gamma0: delta >= 0, sigma > 0
        p, q = np.exp(-0.5 * delta * times), np.exp(-0.5 * sigma * times)
        d_xy = 0.5 * (p + q) + (a * g / g0) * np.expm1(-g0 * times) * 0.5 * (p - q)
        rise = times if delta == 0.0 else -np.expm1(-delta * times) / delta
        d_z = 0.25 * (p + q) ** 2 + a * g * (np.exp(-sigma * times) * rise
                                             + np.exp(-delta * times)
                                             * np.expm1(-sigma * times) / sigma)
        return np.stack([d_xy, d_xy, d_z, 1.0 - d_z - 0.5 * a * (p - q) ** 2], axis=1)


# ---------------------------------------------------------------------------
# Propagators on a time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagatorGrid:
    """Propagators ``E_{t_i}`` on a uniform grid plus the shifted maps
    ``E_{t_i + eps}`` needed for two-point complement steps, as Bloch rows
    ``(d_x, d_y, d_z, c_z)`` of shape ``(n, 4)``: the trace-preserving map
    ``r -> diag(d) r + (0, 0, c_z)``, exact up to a rotation of the C-NOT
    maps about x that no witness or trace distance sees (see
    :mod:`kdivis.models`). A complement then follows exactly from ratios
    instead of matrix inversion. ``conditioned`` is the model class's flag
    of the same name: the composite maps sum terms of either sign, so near a
    zero of an entry their rounding is of order ``macheps * cond(F)``, and
    the scan takes the conditioning criterion and noise floor of a generic
    inversion on them.
    """

    times: np.ndarray
    dt: float
    eps: float
    bloch: np.ndarray
    bloch_shift: np.ndarray
    conditioned: bool = False


def check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int or numpy int (no bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def check_time_grid(horizon: float, n_steps: int,
                    eps: float | None = None) -> tuple[float, float]:
    """Grid spacing ``dt`` and complement step ``eps`` (default ``dt``) of a
    uniform grid over ``[0, horizon]``; raises ``ValueError`` when the grid
    or the step is invalid."""
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    check_count("n_steps", n_steps, 2)
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
    if type(model) not in _FAMILY_OF_CLASS:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    times = np.linspace(0.0, horizon, n_steps + 1)
    on_grid = abs(eps - dt) <= 1e-12 * dt
    bloch = model.bloch_form(times)
    shift = bloch[1:] if on_grid else model.bloch_form(times[:-1] + eps)
    return PropagatorGrid(times, dt, eps, bloch, shift, model.conditioned)


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

    :meth:`build` maps a parameter dict to a model, passing rates on and
    the rest through ``float``.
    """

    def __init__(self, cls: type):
        hints = get_type_hints(cls)
        self.tag, self.cls = cls.family, cls
        self.params = tuple(ModelParam(_PARAM_NAMES.get(f.name, f.name), f.name,
                                       hints[f.name] is RateFn) for f in fields(cls))
        self.names = frozenset(p.name for p in self.params)

    def build(self, params: dict):
        return self.cls(**{p.attr: params[p.name] if p.rate else float(params[p.name])
                           for p in self.params})

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
