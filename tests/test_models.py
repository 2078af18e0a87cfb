import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

import oracles
from kdivis import config, divisibility, measures, models, qmat


def _is_tp(e, tol=1e-8):
    return qmat.is_trace_preserving(e, tol)


def _annihilates_trace(gen, tol=1e-10):
    vid = qmat.vec(np.eye(int(np.sqrt(gen.shape[0]))))
    return np.abs(vid.conj() @ gen).max() <= tol


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def test_rate_presets_match_quadrature():
    times = (0.3, 1.7, 6.0)
    for rate in (models.RateFn.constant(0.7), models.RateFn.tanh_neg(),
                 models.RateFn.sine(), models.RateFn.sine_neg()):
        for t, integral in zip(times, rate.integrals_on_grid(times)):
            ref, _ = quad(lambda s: float(rate(s)), 0.0, t, epsabs=1e-12)
            assert_allclose(integral, ref, atol=1e-9)


def test_rate_vocabulary_round_trip():
    for spec in ("const:0.5", "tanh-neg", "sin", "sin-neg"):
        assert models.RateFn.of(spec).tag == spec
    assert models.RateFn.of(2).tag == "const:2"
    assert models.RateFn.of("0.25").tag == "const:0.25"
    with pytest.raises(ValueError):
        models.RateFn.of("cosh")
    # a callable has no closed-form integral: it is no rate
    with pytest.raises(TypeError, match="cannot build a rate function"):
        models.RateFn.of(lambda t: np.exp(-t))
    with pytest.raises(TypeError, match=r"^g1: cannot build .*'tanh-neg', 'sin', 'sin-neg'"):
        models.PauliChannelModel(lambda t: 1 + 0 * t, 1.0, 1.0)


@pytest.mark.parametrize("c", [0.1234567, 1 / 3, -2.5e-7, 123456789.0, 5e-324])
def test_constant_rate_tag_round_trips_exactly(c):
    rate = models.RateFn.constant(c)
    assert float(models.RateFn.of(rate.tag)(1.0)) == c
    model = models.PauliChannelModel(c, 1.0, 1.0)
    rebuilt = models.model_from_params(*models.model_params(model))
    assert rebuilt == model
    assert np.array_equal(models.propagator_grid(rebuilt, 2.0, 20).bloch,
                          models.propagator_grid(model, 2.0, 20).bloch)


def test_constant_rates_that_differ_in_the_seventh_digit_differ():
    assert (models.PauliChannelModel(0.1234567, 1, 1)
            != models.PauliChannelModel(0.1234568, 1, 1))
    # a value that :g reproduces keeps its short tag
    assert [models.RateFn.constant(c).tag for c in (2, 0.5, -0.5, 1e-5)] == [
        "const:2", "const:0.5", "const:-0.5", "const:1e-05"]


# ---------------------------------------------------------------------------
# Pauli channel
# ---------------------------------------------------------------------------

def test_pauli_generator_zero_rates():
    model = models.PauliChannelModel.constant(0.0, 0.0, 0.0)
    assert_allclose(oracles.pauli_generator(model, 1.0), np.zeros((4, 4)))


def test_pauli_generator_dephasing_action():
    model = models.PauliChannelModel.constant(0.0, 0.0, 0.8)
    gen = oracles.pauli_generator(model, 0.0)
    # sigma_z sigma_x sigma_z = -sigma_x, so L(sigma_x) = -g3 sigma_x
    assert_allclose(oracles.apply_superop(gen, qmat.SIGMA_X), -0.8 * qmat.SIGMA_X,
                    atol=1e-13)


def test_pauli_generator_hall_at_zero_time():
    # tanh 0 = 0, so the Hall rates start at (1, 1, 0)
    hall = models.PauliChannelModel.hall()
    ref = models.PauliChannelModel.constant(1.0, 1.0, 0.0)
    assert_allclose(oracles.pauli_generator(hall, 0.0),
                    oracles.pauli_generator(ref, 5.0), atol=1e-13)


def test_pauli_generator_invariants():
    gen = oracles.pauli_generator(models.PauliChannelModel.hall(), 0.7)
    assert _annihilates_trace(gen)
    choi = qmat.reshuffle(gen)
    assert np.abs(choi - choi.conj().T).max() < 1e-12


def test_pauli_propagator_identity_at_zero():
    model = models.PauliChannelModel.hall()
    assert_allclose(oracles.pauli_propagator_analytic(model, 0.0), np.eye(4),
                    atol=1e-14)


def test_pauli_propagator_constant_rates():
    model = models.PauliChannelModel.constant(1.0, 1.0, 0.0)
    for t in (0.5, 2.0):
        lam = model.bloch_eigenvalues(np.array([t]))[0]
        assert_allclose(lam, [np.exp(-t), np.exp(-t), np.exp(-2 * t)], atol=1e-12)


def test_pauli_propagator_hall_eigenvalues():
    model = models.PauliChannelModel.hall()
    ts = np.linspace(0.1, 5.0, 7)
    lam = model.bloch_eigenvalues(ts)
    assert_allclose(lam[:, 0], np.exp(-ts) * np.cosh(ts), rtol=1e-12)
    assert_allclose(lam[:, 1], np.exp(-ts) * np.cosh(ts), rtol=1e-12)
    assert_allclose(lam[:, 2], np.exp(-2 * ts), rtol=1e-12)


def test_pauli_propagator_matches_rk4():
    for model in (models.PauliChannelModel.hall(),
                  models.PauliChannelModel.constant(1.0, 1.0, 1.0)):
        gen_fn = lambda t: oracles.pauli_generator(model, t)
        for t in (1.0, 5.0):
            rk = oracles.propagate_rk4(gen_fn, t, steps=max(200, int(200 * t)))
            exact = oracles.pauli_propagator_analytic(model, t)
            assert np.abs(rk - exact).max() < 1e-6


def test_rk4_matches_analytic_on_random_bounded_triples(rng):
    # 50 random constant-rate triples whose propagator stays bounded on
    # [0, 5] (all pairwise rate sums nonnegative, so no exponential growth)
    checked = 0
    while checked < 50:
        g = rng.uniform(-1.0, 1.0, size=3)
        if g[0] + g[1] < 0 or g[1] + g[2] < 0 or g[2] + g[0] < 0:
            continue
        checked += 1
        model = models.PauliChannelModel.constant(*g)
        gen = oracles.pauli_generator(model, 0.0)
        rk = oracles.propagate_rk4(lambda t: gen, 5.0, steps=1000)
        exact = oracles.pauli_propagator_analytic(model, 5.0)
        assert np.abs(rk - exact).max() <= 1e-6, g


# ---------------------------------------------------------------------------
# amplitude damping
# ---------------------------------------------------------------------------

def _survival_ode_oracle(gamma0, lam, ts):
    # G'' + lam G' + (gamma0 lam / 2) G = 0, G(0) = 1, G'(0) = 0, which is the
    # memory-kernel equation for the Lorentzian reservoir
    sol = solve_ivp(lambda t, y: [y[1], -lam * y[1] - 0.5 * gamma0 * lam * y[0]],
                    [0.0, float(ts[-1])], [1.0, 0.0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    return np.array([sol.sol(t)[0] for t in ts])


@pytest.mark.parametrize("gamma0,lam", [(0.3, 1.0), (0.5, 1.0), (2.0, 1.0), (1.2, 0.4)])
def test_survival_amplitude_against_ode(gamma0, lam):
    model = models.AmplitudeDampingModel(gamma0, lam)
    ts = np.linspace(0.0, 6.0, 25)
    assert_allclose(model.survival(ts), _survival_ode_oracle(gamma0, lam, ts),
                    atol=1e-8)


def test_survival_derivative_matches_finite_differences():
    h = 1e-6
    # (0.5, 1.0) is the critical case d = 0
    for model in (models.AmplitudeDampingModel(1.5, 0.8), models.AmplitudeDampingModel(0.5, 1.0)):
        for t in (0.3, 1.1, 4.0):
            fd = (model.survival(t + h) - model.survival(t - h)) / (2 * h)
            assert_allclose(model.survival_derivative(t), fd, atol=1e-7)


def test_ad_propagator_identity_at_zero():
    model = models.AmplitudeDampingModel(1.0, 1.0)
    assert_allclose(oracles.amplitude_damping_propagator(model, 0.0), np.eye(4),
                    atol=1e-14)


def test_ad_weak_coupling_rate_nonnegative():
    # gamma0 <= lam/2: G decreases monotonically, so the rate stays >= 0
    model = models.AmplitudeDampingModel(0.45, 1.0)
    ts = np.linspace(0.01, 20.0, 200)
    assert (np.asarray([model.rate(t) for t in ts]) >= -1e-12).all()
    g = model.survival(ts)
    assert (np.diff(g) < 0).all()


def test_ad_strong_coupling_zero_and_singularity():
    model = models.AmplitudeDampingModel(2.0, 1.0)
    # root-find oracle on the oscillatory branch
    t_star = brentq(model.survival, 0.5, 4.0, xtol=1e-12)
    assert_allclose(model.first_zero(), t_star, atol=1e-9)
    e_near = oracles.amplitude_damping_propagator(model, t_star)
    assert np.linalg.cond(e_near) > config.DEFAULT.cond_threshold
    assert models.AmplitudeDampingModel(0.45, 1.0).first_zero() is None


def test_ad_propagator_cptp_on_both_branches():
    for gamma0 in (0.3, 2.5):
        model = models.AmplitudeDampingModel(gamma0, 1.0)
        for t in np.linspace(0.0, 8.0, 40):
            choi = qmat.choi_of(oracles.amplitude_damping_propagator(model, t))
            assert np.linalg.eigvalsh(choi)[0] >= -1e-9
            assert _is_tp(oracles.amplitude_damping_propagator(model, t))


def test_ad_boundary_case_survival_finite():
    model = models.AmplitudeDampingModel(0.5, 1.0)  # d = 0 exactly
    ts = np.linspace(0.0, 5.0, 11)
    assert_allclose(model.survival(ts), _survival_ode_oracle(0.5, 1.0, ts), atol=1e-8)


def test_ad_survival_stays_finite_at_large_lambda_t():
    # Markovian, with d t/2 past 710 from t = 72 on: there cosh(d t/2)
    # overflows and e^{-lam t/2} underflows, so the cosh/sinh form is NaN
    gamma0, lam = 0.1, 20.0
    model = models.AmplitudeDampingModel(gamma0, lam)
    ts = np.linspace(0.0, 100.0, 501)
    d = np.sqrt(lam * lam - 2.0 * gamma0 * lam)
    slow, fast = np.exp(-0.5 * (lam - d) * ts), np.exp(-0.5 * (lam + d) * ts)
    assert_allclose(model.survival(ts), 0.5 * ((1 + lam / d) * slow + (1 - lam / d) * fast),
                    rtol=1e-12)
    assert_allclose(model.survival_derivative(ts), 0.5 * gamma0 * lam / d * (fast - slow),
                    rtol=1e-12, atol=1e-300)
    assert_allclose(model.survival(72.0), 0.02715, rtol=1e-3)
    verdict = divisibility.classify(model, 100.0, 500)
    assert verdict.pd_class == divisibility.DivisibilityClass.PD2
    assert verdict.singular_times == []
    assert np.isfinite(measures.blp_measure(model, 100.0, 500).measure)


# ---------------------------------------------------------------------------
# composite models
# ---------------------------------------------------------------------------

def test_cnot_zero_generator():
    model = models.CnotControlModel(J=0.0, gamma=0.0, a=0.3)
    gen, _, _ = oracles.joint_dynamics(model)
    assert_allclose(gen, np.zeros((16, 16)), atol=1e-14)


def test_superradiance_decoupled_at_pi():
    model = models.SuperradianceModel(gamma0=1.0, x=np.pi, a=0.5)
    assert abs(model.cross_rate) < 1e-15
    # two independent decays
    gen, _, _ = oracles.joint_dynamics(model)
    ops = (np.kron(oracles.SIGMA_MINUS, qmat.IDENTITY),
           np.kron(qmat.IDENTITY, oracles.SIGMA_MINUS))
    expected = np.zeros((16, 16), dtype=complex)
    eye4 = np.eye(4, dtype=complex)
    for op in ops:
        ldl = op.conj().T @ op
        expected += (np.kron(op.conj(), op)
                     - 0.5 * (np.kron(eye4, ldl) + np.kron(ldl.T, eye4)))
    assert_allclose(gen, expected, atol=1e-13)


def test_superradiance_rate_matrix_psd():
    for x in (0.2, 1.0, 2.5, 4.0, 9.0):
        model = models.SuperradianceModel(gamma0=1.3, x=x, a=0.1)
        evals = np.linalg.eigvalsh(model.rate_matrix())
        # eigenvalues gamma0 (1 +- sinc x) with |sinc| <= 1
        assert evals[0] >= -1e-12
        assert_allclose(sorted(evals),
                        sorted([1.3 * (1 - abs(np.sinc(x / np.pi))),
                                1.3 * (1 + abs(np.sinc(x / np.pi)))]), atol=1e-12)


def test_joint_generator_invariants(rng):
    for model in (models.CnotControlModel(1.0, 0.2, 0.4),
                  models.SuperradianceModel(1.0, 2.0, 0.6)):
        gen, _, _ = oracles.joint_dynamics(model)
        assert _annihilates_trace(gen)
        # Hermiticity preservation, tested on random Hermitian inputs
        for _ in range(5):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = g + g.conj().T
            out = (gen @ h.reshape(-1, order="F")).reshape(4, 4, order="F")
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        models.CnotControlModel(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        models.CnotControlModel(1.0, 0.1, 1.5)
    with pytest.raises(ValueError):
        models.SuperradianceModel(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        models.SuperradianceModel(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        models.AmplitudeDampingModel(0.0, 1.0)
    for a in (-0.1, 1.1):
        with pytest.raises(ValueError, match=r"a must lie in \[0, 1\]"):
            models.SuperradianceModel(1.0, 1.0, a)


@pytest.mark.parametrize("family, name", [
    ("ad", "gamma0"), ("ad", "lambda"), ("cnot", "J"), ("cnot", "gamma"), ("cnot", "a"),
    ("superradiance", "gamma0"), ("superradiance", "x"), ("superradiance", "a")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_parameter(family, name, value):
    fam = models.MODEL_FAMILIES[family]
    params = {p.name: 0.5 for p in fam.params}
    params[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        models.model_from_params(family, params)


def test_rate_rejects_non_finite_constant():
    for value in (np.nan, np.inf, "nan", "const:-inf"):
        with pytest.raises(ValueError, match="constant rate must be finite"):
            models.RateFn.of(value)
    with pytest.raises(ValueError, match="^g2: constant rate must be finite"):
        models.PauliChannelModel(1.0, "inf", "sin")
    with pytest.raises(ValueError, match="^g3: unknown rate spec 'cos'"):
        models.PauliChannelModel(1.0, 1.0, "cos")


# ---------------------------------------------------------------------------
# reduced propagator
# ---------------------------------------------------------------------------

def test_reduced_propagator_identity_at_zero():
    model = models.CnotControlModel(1.0, 0.3, 0.5)
    e = oracles.reduced_propagator(*oracles.joint_dynamics(model), 0.0, 10)
    assert_allclose(e, np.eye(4), atol=1e-14)


def test_reduced_propagator_cnot_ground_control_is_identity():
    # control in |0> applies the identity branch for all t
    model = models.CnotControlModel(J=1.3, gamma=0.0, a=0.0)
    joint = oracles.joint_dynamics(model)
    for t in (0.7, 3.1, 8.0):
        e = oracles.reduced_propagator(*joint, t, steps=max(1, int(200 * t)))
        assert np.abs(e - np.eye(4)).max() < 1e-9


def test_reduced_propagator_decoupled_superradiance_is_damping():
    # x = pi, ground-state environment: plain decay at rate gamma0
    model = models.SuperradianceModel(gamma0=1.0, x=np.pi, a=0.0)
    joint = oracles.joint_dynamics(model)
    for t in (0.5, 2.0, 4.0):
        e = oracles.reduced_propagator(*joint, t, steps=int(400 * t))
        expected = oracles.damping_superop(np.exp(-0.5 * t))
        assert np.abs(e - expected).max() < 1e-5


def test_superradiance_ground_env_is_time_dependent_damping():
    # with the partner atom in its ground state the reduced dynamics is an
    # amplitude-damping family with survival amplitude
    # e^{-g0 t/2} cosh(g12 t / 2), from the single-excitation amplitude pair
    # dA/dt = -1/2 [[g0, g12], [g12, g0]] A with A = (1, 0)
    model = models.SuperradianceModel(gamma0=1.0, x=2.0, a=0.0)
    joint = oracles.joint_dynamics(model)
    g12 = model.cross_rate
    for t in (0.7, 2.1):
        e = oracles.reduced_propagator(*joint, t, steps=int(400 * t))
        amp = np.exp(-0.5 * t) * np.cosh(0.5 * g12 * t)
        assert np.abs(e - oracles.damping_superop(amp)).max() < 1e-6
    # the amplitude decreases for every x, which is why the a=0 row is
    # Markovian: |g12| <= g0 keeps d/dt [e^{-g0 t/2} cosh(g12 t/2)] < 0
    ts = np.linspace(0.0, 10.0, 101)
    amps = np.exp(-0.5 * ts) * np.cosh(0.5 * g12 * ts)
    assert (np.diff(amps) < 0).all()


def test_cnot_pure_excited_control_is_rotation_times_depolarizing():
    # control fixed in |1>: the target rotates about x at angle J t while the
    # isotropic channel shrinks the whole Bloch ball by e^{-2 gamma t}
    model = models.CnotControlModel(J=1.3, gamma=0.2, a=1.0)
    joint = oracles.joint_dynamics(model)
    for t in (0.9, 2.4):
        e = oracles.reduced_propagator(*joint, t, steps=int(400 * t))
        m, c = oracles.bloch_affine(e)
        angle = model.J * t
        shrink = np.exp(-2.0 * model.gamma * t)
        rot_x = np.array([[1.0, 0.0, 0.0],
                          [0.0, np.cos(angle), -np.sin(angle)],
                          [0.0, np.sin(angle), np.cos(angle)]])
        assert np.abs(m - shrink * rot_x).max() < 1e-6
        assert np.abs(c).max() < 1e-8


def test_reduced_propagator_is_linear_and_tp(rng):
    model = models.SuperradianceModel(gamma0=1.0, x=2.0, a=0.5)
    e = oracles.reduced_propagator(*oracles.joint_dynamics(model), 1.3, steps=260)
    assert _is_tp(e)
    coeffs = rng.normal(size=4)
    mix = sum(c * p for c, p in zip(coeffs, qmat.PAULIS))
    direct = oracles.apply_superop(e, mix)
    summed = sum(c * oracles.apply_superop(e, p) for c, p in zip(coeffs, qmat.PAULIS))
    assert np.abs(direct - summed).max() < 1e-8


def test_reduced_propagator_validates_env_state():
    gen, _, _ = oracles.joint_dynamics(models.CnotControlModel(1.0, 0.1, 0.5))
    with pytest.raises(ValueError):
        oracles.reduced_propagator(gen, np.eye(2), 0, 1.0, 100)


def test_step_halving_check_flags_coarse_integration():
    joint = oracles.joint_dynamics(models.CnotControlModel(J=10.0, gamma=0.0, a=1.0))
    with pytest.raises(oracles.IntegrationUnstable):
        oracles.reduced_propagator(*joint, 2.0, steps=3, check=True)
    e = oracles.reduced_propagator(*joint, 2.0, steps=2000, check=True)
    assert _is_tp(e)


# ---------------------------------------------------------------------------
# RK4 propagation
# ---------------------------------------------------------------------------

def test_rk4_zero_generator_gives_identity():
    zero = np.zeros((4, 4), dtype=complex)
    e = oracles.propagate_rk4(lambda t: zero, 7.3, steps=10)
    assert_allclose(e, np.eye(4))


def test_rk4_matches_analytic_depolarizing():
    model = models.PauliChannelModel.constant(1.0, 1.0, 1.0)
    gen = oracles.pauli_generator(model, 0.0)
    e = oracles.propagate_rk4(lambda t: gen, 1.0, steps=200)
    assert np.abs(e - oracles.pauli_propagator_analytic(model, 1.0)).max() < 1e-6


def test_rk4_requires_at_least_one_step():
    with pytest.raises(ValueError):
        oracles.propagate_rk4(lambda t: np.zeros((4, 4)), 1.0, steps=0)


# ---------------------------------------------------------------------------
# propagator grids
# ---------------------------------------------------------------------------

def test_grid_matches_pointwise_constructions():
    horizon, n = 3.0, 60
    pauli = models.PauliChannelModel.hall()
    grid = models.propagator_grid(pauli, horizon, n)
    for i in (0, 17, n):
        t = grid.times[i]
        assert_allclose(oracles.embed(grid.bloch[i]), qmat.pauli_transfer_matrix(
            oracles.pauli_propagator_analytic(pauli, t)), atol=1e-12)

    ad = models.AmplitudeDampingModel(2.0, 1.0)
    grid = models.propagator_grid(ad, horizon, n)
    for i in (0, 31, n):
        t = grid.times[i]
        assert_allclose(oracles.embed(grid.bloch[i]), qmat.pauli_transfer_matrix(
            oracles.amplitude_damping_propagator(ad, t)), atol=1e-12)


def _expm_ptm(model, times):
    return qmat.pauli_transfer_matrix(oracles.reduced_expm(model, times))


def test_grid_composite_matches_reduced_propagator(rng):
    model = models.SuperradianceModel(gamma0=1.0, x=1.3, a=0.4)
    grid = models.propagator_grid(model, 2.0, 100)
    joint = oracles.joint_dynamics(model)
    for i in (10, 50, 100):
        t = grid.times[i]
        ref = oracles.reduced_propagator(*joint, t, steps=int(800 * t))
        full = oracles.embed(grid.bloch[i])
        assert np.abs(full - qmat.pauli_transfer_matrix(ref)).max() < 1e-6
    # the closed forms, as full transfer matrices, against one expm of the
    # joint generator per time, on and off grid: short grids, random draws,
    # and the two edges of the superradiance form, gamma0 * horizon >= 1000
    # (where a form with growing exponentials overflows) and x <= 1e-8
    # (where the cross rate rounds to gamma0 and delta to zero)
    cases = [(model, 2.0, n) for n in (2, 3, 9, 500)]
    cases += [(models.CnotControlModel(J=1.7, gamma=0.15, a=0.3), 2.0, n) for n in (2, 3, 9, 500)]
    cases += [(models.SuperradianceModel(5.0, 2.0, 0.7), 200.0, 400),
              (models.SuperradianceModel(5.0, 1e-9, 0.6), 200.0, 400),
              (models.SuperradianceModel(0.8, 1e-12, 1.0), 1500.0, 300),
              (models.CnotControlModel(J=4.0, gamma=2.0, a=0.5), 300.0, 400)]
    for _ in range(12):
        cases.append((models.CnotControlModel(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0),
                                              rng.uniform()),
                      rng.uniform(0.5, 60.0), int(rng.integers(2, 200))))
        cases.append((models.SuperradianceModel(rng.uniform(0.01, 5.0),
                                                10.0 ** rng.uniform(-12.0, 1.3), rng.uniform()),
                      rng.uniform(0.5, 300.0), int(rng.integers(2, 200))))
    for model, horizon, n_steps in cases:
        msg = f"{model}, horizon {horizon}, {n_steps} steps"
        grid = models.propagator_grid(model, horizon, n_steps)
        off = models.propagator_grid(model, horizon, n_steps, eps=rng.uniform(0.01, 1.0) * grid.dt)
        assert np.isfinite(grid.bloch).all() and np.isfinite(off.bloch_shift).all(), msg
        assert_allclose(oracles.full_grid(model, grid).ptm, _expm_ptm(model, grid.times),
                        rtol=0, atol=1e-12, err_msg=msg)
        assert np.array_equal(off.bloch, grid.bloch), msg
        assert_allclose(oracles.full_grid(model, off).ptm_shift,
                        _expm_ptm(model, grid.times[:-1] + off.eps),
                        rtol=0, atol=1e-12, err_msg=msg)


def test_grid_shift_off_grid_epsilon():
    model = models.PauliChannelModel.hall()
    grid = models.propagator_grid(model, 2.0, 40, eps=0.01)
    assert grid.eps == 0.01
    assert_allclose(oracles.embed(grid.bloch_shift[8]), qmat.pauli_transfer_matrix(
        oracles.pauli_propagator_analytic(model, grid.times[8] + 0.01)), atol=1e-12)
    cn = models.CnotControlModel(1.0, 0.1, 0.5)
    grid = models.propagator_grid(cn, 2.0, 40, eps=0.01)
    ref = oracles.reduced_propagator(*oracles.joint_dynamics(cn), grid.times[8] + 0.01,
                                     steps=600)
    full = oracles.full_grid(cn, grid)
    assert np.abs(full.ptm_shift[8] - qmat.pauli_transfer_matrix(ref)).max() < 1e-6


def test_grid_maps_are_tp_and_hp_for_all_families():
    cases = [
        (models.PauliChannelModel.sine_eternal(), 6.0),
        (models.AmplitudeDampingModel(1.5, 1.0), 6.0),
        (models.CnotControlModel(1.0, 0.2, 0.5), 6.0),
        (models.SuperradianceModel(1.0, 2.0, 0.7), 6.0),
    ]
    for model, horizon in cases:
        grid = models.propagator_grid(model, horizon, 120)
        full = oracles.full_grid(model, grid)
        # a trace-preserving transfer matrix has first row (1, 0, 0, 0)
        assert grid.bloch.dtype == full.ptm.dtype == float
        assert_allclose(full.ptm[:, 0], np.tile([1.0, 0.0, 0.0, 0.0], (121, 1)),
                        atol=1e-10, err_msg=type(model).__name__)
        if isinstance(model, (models.CnotControlModel, models.SuperradianceModel)):
            # the reduced maps of the joint dynamics are trace and Hermiticity
            # preserving
            for e in oracles.reduced_expm(model, grid.times[::24]):
                assert _is_tp(e), type(model).__name__
                assert oracles.is_hermiticity_preserving(e, 1e-10)


#: rounding of the reduced maps of one expm of the joint generator
_EXPM_ROUNDING = 1e-13


def test_superradiance_grids_are_diagonal_affine(rng):
    """The reduced superradiance maps are ``diag(1, d_x, d_y, d_z)`` plus
    ``c_z`` in the z row, zero elsewhere, with ``d_x = d_y``, and the grid
    rows are their ``(d, c_z)``.

    The joint dynamics is covariant under phase rotations about z, so the
    reduced maps are too; the cross-coupling is purely dissipative, with no
    exchange Hamiltonian to rotate the transverse plane."""
    for i in range(40):
        model = models.SuperradianceModel(rng.uniform(0.01, 5.0), rng.uniform(0.01, 20.0),
                                          rng.uniform())
        horizon, n_steps = rng.uniform(0.5, 40.0), int(rng.integers(2, 60))
        eps = None if i % 2 else rng.uniform(0.01, 1.0) * horizon / n_steps
        grid = models.propagator_grid(model, horizon, n_steps, eps)
        full = oracles.full_grid(model, grid, _expm_ptm)
        for f, rows in ((full.ptm, grid.bloch), (full.ptm_shift, grid.bloch_shift)):
            expm_rows = oracles.bloch_rows(f, atol=_EXPM_ROUNDING)
            assert_allclose(expm_rows[:, 0], expm_rows[:, 1], rtol=0, atol=_EXPM_ROUNDING)
            assert_allclose(rows, expm_rows, rtol=0, atol=1e-12)


def test_cnot_grids_are_x_covariant(rng):
    """The reduced C-NOT maps are ``1 + d_x + [[A, -B], [B, A]]`` on the yz
    block, zero elsewhere, with no offset ``c``, and the grid rows are
    ``(d_x, |z|, |z|, 0)`` with ``z = A + iB``.

    The control is diagonal, so the target sees a mixture of the identity
    and a rotation about x, both covariant about x, followed by isotropic
    depolarizing, which is covariant about every axis."""
    off = np.ones((4, 4), dtype=bool)
    off[0, 0] = off[1, 1] = False
    off[2:, 2:] = False
    for i in range(40):
        model = models.CnotControlModel(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0),
                                        rng.uniform())
        horizon, n_steps = rng.uniform(0.5, 60.0), int(rng.integers(2, 60))
        eps = None if i % 2 else rng.uniform(0.01, 1.0) * horizon / n_steps
        grid = models.propagator_grid(model, horizon, n_steps, eps)
        full = oracles.full_grid(model, grid, _expm_ptm)
        for f, rows in ((full.ptm, grid.bloch), (full.ptm_shift, grid.bloch_shift)):
            assert_allclose(f[:, off], 0.0, rtol=0, atol=_EXPM_ROUNDING)
            assert_allclose(f[:, 0, 0], 1.0, rtol=0, atol=_EXPM_ROUNDING)
            assert_allclose(f[:, 2, 2], f[:, 3, 3], rtol=0, atol=_EXPM_ROUNDING)
            assert_allclose(f[:, 2, 3], -f[:, 3, 2], rtol=0, atol=_EXPM_ROUNDING)
            z = np.hypot(f[:, 2, 2], f[:, 3, 2])
            assert_allclose(rows, np.column_stack([f[:, 1, 1], z, z, f[:, 1, 0]]),
                            rtol=0, atol=1e-12)


def test_only_composite_grids_are_conditioned():
    for model, conditioned in (
            (models.PauliChannelModel.hall(), False),
            (models.AmplitudeDampingModel(2.0, 1.0), False),
            (models.CnotControlModel(1.0, 0.1, 0.5), True),
            (models.SuperradianceModel(1.0, 2.0, 0.5), True)):
        assert type(model).conditioned == conditioned
        for eps in (None, 0.05):
            assert models.propagator_grid(model, 2.0, 20, eps).conditioned == conditioned


def test_superradiance_ground_env_population_decays():
    model = models.SuperradianceModel(gamma0=1.0, x=2.2, a=0.0)
    grid = models.propagator_grid(model, 8.0, 160)
    # Pauli coordinates Tr(sigma_m rho) of the excited state and its image
    out = oracles.embed(grid.bloch) @ np.array([1.0, 0.0, 0.0, -1.0])
    pops = 0.5 * (out[:, 0] - out[:, 3])
    assert (np.diff(pops) <= 1e-10).all()


def test_propagator_grid_validates_inputs():
    model = models.PauliChannelModel.hall()
    with pytest.raises(ValueError):
        models.propagator_grid(model, -1.0, 100)
    with pytest.raises(ValueError):
        models.propagator_grid(model, 5.0, 1)
    with pytest.raises(ValueError):
        models.propagator_grid(model, 5.0, 100, eps=0.2)  # eps > spacing
    for horizon in (np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            models.propagator_grid(model, horizon, 100)
    with pytest.raises(TypeError):
        models.propagator_grid(object(), 5.0, 100)


def test_model_params_round_trip():
    cases = [
        models.PauliChannelModel.hall(),
        models.PauliChannelModel.sine_eternal(),
        models.PauliChannelModel.constant(0.3, -0.25, 1.1),
        models.AmplitudeDampingModel(1.2, 0.7),
        models.CnotControlModel(1.0, 0.3, 0.25),
        models.SuperradianceModel(0.9, 2.4, 0.6),
    ]
    for model in cases:
        family, params = models.model_params(model)
        rebuilt = models.model_from_params(family, params)
        assert rebuilt == model
        assert np.array_equal(models.propagator_grid(rebuilt, 6.0, 60).bloch,
                              models.propagator_grid(model, 6.0, 60).bloch)
    with pytest.raises(TypeError, match="unsupported model type object"):
        models.model_params(object())


def test_model_from_params_names_missing_and_unknown_parameters():
    with pytest.raises(ValueError, match=r"'ad' is missing parameter\(s\) \['lambda'\]"):
        models.model_from_params("ad", {"gamma0": 1.0})
    with pytest.raises(ValueError, match=r"'ad' does not accept parameter\(s\) \['typo'\]"):
        models.model_from_params("ad", {"gamma0": 1, "lambda": 1, "typo": 3})
    # as many names as parameters, one of them wrong: both are named
    with pytest.raises(ValueError, match=r"does not accept parameter\(s\) \['alpha'\] "
                                         r"and is missing parameter\(s\) \['a'\]"):
        models.model_from_params("cnot", {"J": 1.0, "gamma": 0.1, "alpha": 0.5})
    with pytest.raises(ValueError, match="unknown model family 'nope'"):
        models.model_from_params("nope", {})
