import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import one_step_grid, one_step_maps, random_cptp_map, random_hp_tp_map
import oracles
from kdivis import config, divisibility, models, qmat
from kdivis.divisibility import DivisibilityClass
from kdivis.errors import AllStepsSingular


def _transpose_superop():
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            s[:, 2 * j + i] = qmat.vec(basis.T)
    return s


# ---------------------------------------------------------------------------
# complement steps through the scan
# ---------------------------------------------------------------------------

def _scans(e_t, e_te, epsilon=1.0):
    """Scans of the one complement step on the closed form and on the
    generic scan."""
    return [divisibility.complement_scan(one_step_grid(e_t, e_te, epsilon)),
            oracles.generic_scan(one_step_maps(e_t, e_te, epsilon))]


def _assert_scan_matches_map(scan, lam, atol):
    """The scan's witnesses of its one step are the single-map oracles'
    witnesses of the complement superoperator ``lam``."""
    assert not scan.singular[0]
    assert_allclose(scan.cp_witness[0], divisibility.is_cp(lam)[1], rtol=0, atol=atol)
    assert_allclose(scan.p_witness[0], divisibility.is_positive(lam)[1], rtol=0, atol=atol)
    assert_allclose(scan.choi_trace_norm[0], oracles.trace_norm(qmat.choi_of(lam)),
                    rtol=0, atol=atol)


@pytest.mark.parametrize("n_steps", [20.0, True, "20"])
def test_classify_rejects_a_step_count_that_is_not_an_integer(n_steps):
    # 20.0 reached numpy's linspace and raised an untyped TypeError
    with pytest.raises(ValueError, match="n_steps must be an integer, got"):
        divisibility.classify(models.PauliChannelModel.hall(), 10.0, n_steps)


def test_classify_takes_a_numpy_integer_step_count():
    model = models.PauliChannelModel.hall()
    assert (divisibility.classify(model, 10.0, np.int64(20))
            == divisibility.classify(model, 10.0, 20))


def test_complement_of_identity_is_identity():
    for scan in _scans(np.eye(4), np.eye(4), epsilon=0.1):
        _assert_scan_matches_map(scan, np.eye(4), 1e-12)
        assert scan.epsilon == 0.1
        assert_allclose([scan.cp_witness[0], scan.p_witness[0], scan.choi_trace_norm[0]],
                        [0.0, 0.0, 1.0], rtol=0, atol=1e-12)


def test_complement_of_pauli_maps_is_ratio_diagonal():
    lam_t = np.array([0.9, 0.8, 0.72])
    lam_te = np.array([0.87, 0.75, 0.65])
    for scan in _scans(oracles.pauli_diagonal_superop(lam_t),
                       oracles.pauli_diagonal_superop(lam_te), epsilon=0.05):
        _assert_scan_matches_map(scan, oracles.pauli_diagonal_superop(lam_te / lam_t), 1e-12)


def test_complement_hall_first_order_expansion():
    # at t = 1, small eps: mu ~ (1 - eps(1 - tanh 1), same, 1 - 2 eps), whose
    # lowest Choi level is -eps tanh(1) / 2
    model = models.PauliChannelModel.hall()
    t, eps = 1.0, 1e-5
    expected = oracles.pauli_diagonal_superop([1 - eps * (1 - np.tanh(1.0)),
                                               1 - eps * (1 - np.tanh(1.0)),
                                               1 - 2 * eps])
    for scan in _scans(oracles.pauli_propagator_analytic(model, t),
                       oracles.pauli_propagator_analytic(model, t + eps), epsilon=eps):
        _assert_scan_matches_map(scan, expected, 1e-9)
        assert_allclose(scan.cp_witness[0], -0.5 * eps * np.tanh(1.0), rtol=1e-4)


def test_complement_satisfies_defining_identity(rng):
    # generic scan on random CPTP and HP TP pairs: its witnesses are those
    # of L = E_te E_t^-1, inverted here, within the conditioning of E_t
    checked = 0
    for k in range(40):
        e_t = random_cptp_map(rng) if k % 2 else random_hp_tp_map(rng)
        e_te = random_cptp_map(rng) if k % 4 < 2 else random_hp_tp_map(rng)
        scan = oracles.generic_scan(one_step_maps(e_t, e_te, 0.1))
        cond = np.linalg.cond(e_t)
        if scan.singular[0]:
            assert cond > config.DEFAULT.cond_threshold
            continue
        lam = e_te @ np.linalg.inv(e_t)
        assert np.abs(lam @ e_t - e_te).max() <= 1e-8 * cond
        _assert_scan_matches_map(scan, lam, 1e-13 * cond * max(1.0, np.abs(lam).max()))
        checked += 1
    assert checked >= 30


def test_complement_propagates_singular_map():
    # the fully depolarizing map has no inverse: both scans flag the step,
    # leave its witnesses NaN, and a verdict over it alone has no vote
    for scan in _scans(oracles.depolarizing_superop(), np.eye(4), epsilon=0.1):
        assert scan.singular[0]
        assert np.isnan([scan.cp_witness[0], scan.p_witness[0],
                         scan.choi_trace_norm[0]]).all()
        with pytest.raises(AllStepsSingular):
            divisibility.verdict_from_scan(scan)


# ---------------------------------------------------------------------------
# positivity tests
# ---------------------------------------------------------------------------

def test_is_cp_identity():
    ok, witness = divisibility.is_cp(np.eye(4))
    assert ok
    assert abs(witness) < 1e-12


def test_is_cp_transpose_map():
    ok, witness = divisibility.is_cp(_transpose_superop())
    assert not ok
    assert_allclose(witness, -0.5, atol=1e-12)


def test_is_cp_depolarizing_complement_with_positive_rates():
    # constant nonnegative rates keep every complement step CP
    model = models.PauliChannelModel.constant(0.4, 0.3, 0.2)
    lam = model.bloch_eigenvalues(np.array([1.0, 1.02]))
    ok, witness = divisibility.is_cp(oracles.pauli_diagonal_superop(lam[1] / lam[0]))
    assert ok and witness > -1e-12
    for scan in _scans(oracles.pauli_diagonal_superop(lam[0]),
                       oracles.pauli_diagonal_superop(lam[1]), epsilon=0.02):
        assert_allclose(scan.cp_witness[0], witness, rtol=0, atol=1e-12)


def test_is_positive_identity_and_transpose():
    ok, witness = divisibility.is_positive(np.eye(4))
    assert ok and abs(witness) < 1e-9
    ok, witness = divisibility.is_positive(_transpose_superop())
    assert ok and abs(witness) < 1e-9  # positive but not CP


def test_is_positive_expanding_pauli_map():
    # Bloch eigenvalues (1, 1, 1.2) push pole states out of the ball;
    # the worst output eigenvalue is (1 - 1.2)/2 = -0.1
    ok, witness = divisibility.is_positive(
        oracles.pauli_diagonal_superop([1.0, 1.0, 1.2]))
    assert not ok
    assert_allclose(witness, -0.1, atol=1e-9)


def test_is_positive_matches_dense_sphere_oracle(rng):
    # brute-force oracle: dense uniform sphere sampling
    for _ in range(10):
        l = random_hp_tp_map(rng)
        u = qmat.fibonacci_sphere(4000)
        worst = np.inf
        for direction in u:
            rho = oracles.density_from_bloch(direction)
            out = oracles.apply_superop(l, rho)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0]))
        _, witness = divisibility.is_positive(l)
        assert witness <= worst + 1e-7
        assert witness >= worst - 5e-3  # oracle grid is coarse


def _ptm_stack(m, c):
    f = np.zeros((len(m), 4, 4))
    f[:, 0, 0] = 1.0
    f[:, 1:, 0] = c
    f[:, 1:, 1:] = m
    return f


def _random_rotations(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


@pytest.mark.parametrize("split", [False, True])
def test_p_witness_hard_case_closed_form(rng, split):
    # M = diag(m, m, m_z) and c = c_z z: the degenerate top pair carries no
    # part of M^T c, the superradiance shape. Over u_z the squared reach
    # m^2 + (m_z^2 - m^2) u_z^2 + 2 m_z c_z u_z + c_z^2 peaks inside
    # [-1, 1] when |m_z c_z| <= m^2 - m_z^2, else at a pole.
    n = 400
    m = rng.uniform(0.2, 1.0, n)
    mz = m * rng.uniform(-1.2, 1.2, n)
    cz = rng.uniform(-0.6, 0.6, n)
    m2 = np.nextafter(m, 2.0) if split else m  # splits m^2 by about 1e-16
    rot = _random_rotations(rng, n)
    diag = np.zeros((n, 3, 3))
    diag[:, 0, 0], diag[:, 1, 1], diag[:, 2, 2] = m, m2, mz
    c = np.zeros((n, 3))
    c[:, 2] = cz
    for r in (np.broadcast_to(np.eye(3), (n, 3, 3)), rot):
        mm = r @ diag @ np.swapaxes(r, 1, 2)
        cc = np.einsum("nij,nj->ni", r, c)
        witness = divisibility._p_witness(_ptm_stack(mm, cc))
        interior = np.abs(mz * cz) <= m * m - mz * mz
        reach2 = np.where(interior, m * m + cz * cz * m * m / (m * m - mz * mz),
                          (np.abs(mz) + np.abs(cz)) ** 2)
        assert interior.sum() > 50 and (~interior).sum() > 50
        assert_allclose(witness, 0.5 * (1.0 - np.sqrt(reach2)), rtol=0, atol=1e-12)


def test_p_witness_never_above_dense_sphere_oracle(rng):
    # every sampled direction is a feasible input, so the exact minimum can
    # sit below the sampled one but never above it
    dirs = qmat.fibonacci_sphere(20000)
    maps = [random_cptp_map(rng) if k % 2 else random_hp_tp_map(rng)
            for k in range(60)]
    ptm = qmat.pauli_transfer_matrix(np.array(maps))
    witness = divisibility._p_witness(ptm)
    for f, w in zip(ptm, witness):
        sampled = 0.5 * (f[0, 0] + dirs @ f[0, 1:]
                         - np.linalg.norm(dirs @ f[1:, 1:].T + f[1:, 0], axis=1))
        assert w <= sampled.min() + 1e-12
        assert w >= sampled.min() - 2e-3  # the sample spacing is about 0.025


def test_is_positive_rejects_non_trace_preserving_map():
    with pytest.raises(ValueError, match="trace-preserving"):
        divisibility.is_positive(2.0 * np.eye(4))
    # a single-Kraus filter loses trace
    kraus = np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="trace-preserving"):
        divisibility.is_positive(oracles.sandwich_superop(kraus, kraus.conj().T))


def _closed_form_p_witness(mu):
    """P witness of the Pauli-diagonal map with Bloch eigenvalues ``mu``,
    from the scan's closed form: the complement of the identity by it."""
    grid = one_step_grid(np.eye(4), oracles.pauli_diagonal_superop(mu))
    return divisibility.complement_scan(grid).p_witness[0]


def test_is_positive_pauli_diagonal_basic():
    # a unital map preserves positivity iff it keeps the Bloch ball, |mu_j| <= 1
    assert _closed_form_p_witness([1.0, 1.0, 1.0]) == 0.0
    assert _closed_form_p_witness([0.9, -0.9, 0.8]) > 0.0
    ok, _ = divisibility.is_positive(oracles.pauli_diagonal_superop([0.9, -0.9, 0.8]))
    assert ok
    assert_allclose(_closed_form_p_witness([1.2, 0.0, 0.0]), -0.1, atol=1e-15)


def test_hall_complement_stays_positive_for_all_t():
    # pairwise rate sums (1 - tanh t, 1 - tanh t, 2) are nonnegative, so the
    # Bloch ratios stay inside the unit ball
    grid = models.propagator_grid(models.PauliChannelModel.hall(), 12.0, 59)
    scan = divisibility.complement_scan(grid)
    assert not scan.singular.any()
    assert (scan.p_witness >= -0.5e-12).all()


# the closed form and the general search bound the same output eigenvalue,
# (1 - max|mu|)/2, so they decide under one tolerance
@settings(max_examples=60, deadline=None)
@given(st.tuples(*(st.floats(-1.5, 1.5) for _ in range(3))))
def test_pauli_fast_path_agrees_with_general_search(mu):
    fast = _closed_form_p_witness(mu)
    general, witness = divisibility.is_positive(
        oracles.pauli_diagonal_superop(mu), tol=0.5e-9)
    assert (fast >= -0.5e-9) == general, (mu, fast, witness)
    assert_allclose(fast, witness, rtol=0, atol=1e-12)


def test_pauli_fast_path_agrees_on_200_random_maps(rng):
    for _ in range(200):
        mu = rng.uniform(-1.5, 1.5, size=3)
        fast = _closed_form_p_witness(mu)
        general, witness = divisibility.is_positive(
            oracles.pauli_diagonal_superop(mu), tol=0.5e-9)
        assert (fast >= -0.5e-9) == general, (mu, fast, witness)
        # the witness itself has the closed form (1 - max|mu|)/2
        assert_allclose(fast, 0.5 * (1.0 - np.abs(mu).max()), atol=1e-12)
        assert_allclose(witness, 0.5 * (1.0 - np.abs(mu).max()), atol=1e-8)


def test_cp_implies_positive_hierarchy(rng):
    # CP within tol bounds the output spectrum within 2 tol
    tol = 1e-9
    seen_cp = seen_non_cp = 0
    for k in range(200):
        l = random_cptp_map(rng) if k % 2 else random_hp_tp_map(rng)
        cp, _ = divisibility.is_cp(l, tol)
        if cp:
            seen_cp += 1
            pos, _ = divisibility.is_positive(l, 2 * tol)
            assert pos
        else:
            seen_non_cp += 1
    # the sample must actually exercise both sides of the implication
    assert seen_cp > 40 and seen_non_cp > 40


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_constant_depolarizing_is_markovian():
    model = models.PauliChannelModel.constant(1.0, 1.0, 1.0)
    assert divisibility.classify(model, 10.0).pd_class == DivisibilityClass.PD2


def test_classify_hall_is_eternal_pd1():
    verdict = divisibility.classify(models.PauliChannelModel.hall(), 10.0)
    assert verdict.pd_class == DivisibilityClass.PD1
    assert verdict.worst_cp_violation < -1e-4
    assert verdict.worst_p_violation > -verdict.tol


def test_classify_single_sine_channel_is_pd0():
    model = models.PauliChannelModel(0.0, 0.0, "sin")
    verdict = divisibility.classify(model, 2 * np.pi)
    assert verdict.pd_class == DivisibilityClass.PD0


def test_classify_matches_analytic_regions(rng):
    hits = {DivisibilityClass.PD0: 0, DivisibilityClass.PD1: 0,
            DivisibilityClass.PD2: 0}
    n = 0
    while n < 60:
        g = rng.uniform(-1.0, 1.0, size=3)
        margin = min(np.abs(g).min(), abs(g[0] + g[1]), abs(g[1] + g[2]),
                     abs(g[2] + g[0]))
        if margin < 0.05:
            continue
        n += 1
        expected = divisibility.constant_pauli_class(*g)
        verdict = divisibility.classify(
            models.PauliChannelModel.constant(*g), 2.0, n_steps=200)
        assert verdict.pd_class == expected, g
        hits[expected] += 1
    assert all(v > 0 for v in hits.values())


def test_classify_with_off_grid_epsilon():
    # a complement step shorter than the grid spacing must give the same
    # verdicts; witnesses scale roughly linearly with epsilon
    hall = models.PauliChannelModel.hall()
    v_grid = divisibility.classify(hall, 10.0, n_steps=250)
    v_fine = divisibility.classify(hall, 10.0, n_steps=250, epsilon=0.004)
    assert v_fine.pd_class == v_grid.pd_class == DivisibilityClass.PD1
    ratio = v_fine.worst_cp_violation / v_grid.worst_cp_violation
    assert 0.05 < ratio < 0.5  # epsilon shrank 10x, witness follows

    ad = models.AmplitudeDampingModel(2.0, 1.0)
    assert (divisibility.classify(ad, 20.0, epsilon=0.005).pd_class
            == DivisibilityClass.PD0)


def test_cp_divisible_models_have_clean_scans():
    for model in (models.PauliChannelModel.constant(1.0, 0.5, 0.25),
                  models.AmplitudeDampingModel(0.3, 1.0)):
        grid = models.propagator_grid(model, 10.0, 400)
        scan = divisibility.complement_scan(grid)
        valid = ~scan.singular
        assert np.nanmin(scan.cp_witness[valid]) >= -1e-8


def _superradiance_draws(rng):
    """Random superradiance models and grids, on- and off-grid epsilon; the
    long strongly damped ones decay past the condition threshold."""
    for i in range(40):
        deep = i % 4 == 0
        gamma0 = rng.uniform(2.0, 5.0) if deep else rng.uniform(0.01, 5.0)
        model = models.SuperradianceModel(gamma0, rng.uniform(0.01, 20.0), rng.uniform())
        horizon = rng.uniform(20.0, 40.0) if deep else rng.uniform(0.5, 15.0)
        n_steps = int(rng.integers(2, 400))
        eps = None if i % 2 else rng.uniform(0.01, 1.0) * horizon / n_steps
        yield model, models.propagator_grid(model, horizon, n_steps, eps)


def _cnot_draws(rng):
    """Random C-NOT models and grids, on- and off-grid epsilon; the long
    strongly damped ones decay past the condition threshold."""
    for i in range(40):
        deep = i % 4 == 0
        gamma = rng.uniform(0.5, 2.0) if deep else rng.uniform(0.005, 2.0)
        model = models.CnotControlModel(rng.uniform(0.1, 5.0), gamma, rng.uniform())
        horizon = rng.uniform(20.0, 60.0) if deep else rng.uniform(2.0, 60.0)
        n_steps = int(rng.integers(2, 500))
        eps = None if i % 2 else rng.uniform(0.01, 1.0) * horizon / n_steps
        yield model, models.propagator_grid(model, horizon, n_steps, eps)


def test_scan_fast_paths_agree_with_generic(rng):
    # the generic scan inverts every full transfer matrix, the C-NOT maps
    # with their rotation about x
    for model, horizon in ((models.PauliChannelModel.hall(), 4.0),
                           (models.AmplitudeDampingModel(2.0, 1.0), 4.0)):
        grid = models.propagator_grid(model, horizon, 100)
        fast = divisibility.complement_scan(grid)
        generic = oracles.generic_scan(oracles.full_grid(model, grid))
        ok = ~generic.singular & (generic.noise_floor < 1e-9)
        assert ok.sum() > 50
        assert_allclose(fast.cp_witness[ok], generic.cp_witness[ok], atol=1e-8)
        assert_allclose(fast.choi_trace_norm[ok], generic.choi_trace_norm[ok],
                        atol=1e-8)
        assert_allclose(fast.p_witness[ok], generic.p_witness[ok], atol=1e-8)
    # a conditioned grid takes the generic conditioning criterion on the
    # closed form: the same singular steps and noise floors, and witnesses
    # that agree to rounding
    for draws in (_superradiance_draws, _cnot_draws):
        n_singular = 0
        for model, grid in draws(rng):
            assert grid.conditioned
            fast = divisibility.complement_scan(grid)
            generic = oracles.generic_scan(oracles.full_grid(model, grid))
            assert np.array_equal(fast.singular, generic.singular)
            n_singular += int(generic.singular.sum())
            ok = ~generic.singular
            assert_allclose(fast.noise_floor[ok], generic.noise_floor[ok], rtol=1e-12, atol=0)
            for name in ("cp_witness", "p_witness", "choi_trace_norm"):
                err = np.abs(getattr(fast, name)[ok] - getattr(generic, name)[ok])
                assert (err <= 1e-12).all(), (name, err.max())
        assert n_singular > 100


def _diagonal_complements(rng, kind, n):
    """Bloch diagonals ``mu`` and z offsets ``c`` of diagonal-affine maps."""
    if kind == "ad":
        r = rng.uniform(-1.5, 1.5, n)
        return np.stack([r, r, r * r], axis=1), 1.0 - r * r
    mu = rng.uniform(-1.5, 1.5, (n, 3))
    c = np.zeros(n) if kind == "pauli" else rng.uniform(-1.5, 1.5, n)
    return mu, c


@pytest.mark.parametrize("kind", ["pauli", "ad", "general"])
def test_diagonal_scan_matches_explicit_superoperator(rng, kind):
    # grid maps F_t with random diagonals and offsets, shifted maps L F_t:
    # the closed form must recover each L from the ratios and match the
    # single-map tests on its superoperator
    n = 300
    mu, c = _diagonal_complements(rng, kind, n)
    d_t = rng.uniform(0.2, 1.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    c_t = rng.uniform(-0.5, 0.5, n)
    grid = models.PropagatorGrid(
        times=np.arange(n + 1.0), dt=1.0, eps=1.0,
        bloch=np.vstack([np.column_stack([d_t, c_t]), [1.0, 1.0, 1.0, 0.0]]),
        bloch_shift=np.column_stack([mu * d_t, c + mu[:, 2] * c_t]))
    scan = divisibility.complement_scan(grid)
    assert not scan.singular.any()
    a = qmat._PAULI_COLS
    superops = 0.5 * (a @ oracles.embed(np.column_stack([mu, c])) @ a.conj().T)
    for i, e in enumerate(superops):
        assert_allclose(scan.cp_witness[i], divisibility.is_cp(e)[1], rtol=0, atol=1e-12)
        assert_allclose(scan.p_witness[i], divisibility.is_positive(e)[1], rtol=0, atol=1e-12)
        assert_allclose(scan.choi_trace_norm[i], oracles.trace_norm(qmat.choi_of(e)),
                        rtol=0, atol=1e-12)
    # both branches of the positivity closed form are exercised
    m = np.maximum(mu[:, 0] ** 2, mu[:, 1] ** 2)
    inside = np.abs(mu[:, 2] * c) <= m - mu[:, 2] ** 2
    assert inside.sum() > 20 and (~inside).sum() > 20


def test_singular_steps_reported_and_excluded():
    # a strongly damped C-NOT grid over a long horizon: deep decay exceeds
    # the condition threshold and those steps are skipped
    model = models.CnotControlModel(J=1.0, gamma=1.0, a=0.0)
    grid = models.propagator_grid(model, 40.0, 200)
    scan = divisibility.complement_scan(grid)
    assert scan.singular.any() and not scan.singular.all()
    verdict = divisibility.verdict_from_scan(scan)
    assert verdict.pd_class == DivisibilityClass.PD2
    assert len(verdict.singular_times) == int(scan.singular.sum())
    assert np.isnan(scan.cp_witness[scan.singular]).all()


def test_all_steps_singular_raises():
    model = models.AmplitudeDampingModel(0.9, 2.0)
    grid = models.propagator_grid(model, 10.0, 50)
    with pytest.raises(AllStepsSingular):
        scan = oracles.generic_scan(oracles.full_grid(model, grid), cond_threshold=0.5)
        divisibility.verdict_from_scan(scan)
    # the damping map with zero survival loses every coherence: its one step
    # has no complement
    lost = oracles.damping_superop(0.0)
    with pytest.raises(AllStepsSingular):
        divisibility.verdict_from_scan(divisibility.complement_scan(one_step_grid(lost, lost)))


def test_one_step_grid_rejects_maps_off_the_z_pattern(rng):
    # a grid holds Bloch rows only; a map with entries off the diagonal-affine
    # pattern about z must raise rather than lose them
    u = np.cos(0.3) * qmat.IDENTITY - 1j * np.sin(0.3) * qmat.SIGMA_X
    rot_x = oracles.sandwich_superop(u, u.conj().T)
    not_tp = oracles.superop_of_choi(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    for e in (rot_x, not_tp, random_hp_tp_map(rng), random_cptp_map(rng)):
        for pair in ((np.eye(4), e), (e, np.eye(4))):
            with pytest.raises(ValueError, match="not a diagonal-affine map about z"):
                one_step_grid(*pair)
        oracles.generic_scan(one_step_maps(np.eye(4), e))  # the full maps take any pair
    grid = one_step_grid(np.eye(4), oracles.damping_superop(0.5), epsilon=0.1)
    assert_allclose(grid.bloch_shift, [[0.5, 0.5, 0.25, 0.75]], rtol=0, atol=0)


def test_near_boundary_band():
    verdict = divisibility.DivisibilityVerdict(
        pd_class=DivisibilityClass.PD2, worst_cp_violation=-3e-9,
        worst_p_violation=0.0, singular_times=[], tol=2e-9)
    assert divisibility.near_boundary(verdict)
    deep = divisibility.DivisibilityVerdict(
        pd_class=DivisibilityClass.PD0, worst_cp_violation=-0.5,
        worst_p_violation=-0.2, singular_times=[], tol=2e-9)
    assert not divisibility.near_boundary(deep)
    clean = divisibility.DivisibilityVerdict(
        pd_class=DivisibilityClass.PD2, worst_cp_violation=-1e-15,
        worst_p_violation=1e-12, singular_times=[], tol=2e-9)
    assert not divisibility.near_boundary(clean)


def test_constant_pauli_class_regions():
    assert divisibility.constant_pauli_class(0.5, 0.2, 0.1) == DivisibilityClass.PD2
    assert divisibility.constant_pauli_class(1.0, 1.0, -0.5) == DivisibilityClass.PD1
    assert divisibility.constant_pauli_class(1.0, -0.2, -0.5) == DivisibilityClass.PD0
    assert divisibility.constant_pauli_class(-0.1, -0.1, -0.1) == DivisibilityClass.PD0


def test_class_ordering():
    assert DivisibilityClass.PD0 < DivisibilityClass.PD1 < DivisibilityClass.PD2
    assert str(DivisibilityClass.PD1) == "PD1"
