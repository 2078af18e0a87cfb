import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_cptp_map, random_hp_tp_map
from kdivis import divisibility, models, qmat
from kdivis.divisibility import DivisibilityClass
from kdivis.errors import AllStepsSingular, SingularMap


def _transpose_superop():
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            s[:, 2 * j + i] = qmat.vec(basis.T)
    return s


# ---------------------------------------------------------------------------
# complement maps
# ---------------------------------------------------------------------------

def test_complement_of_identity_is_identity():
    step = divisibility.complement_map(np.eye(4), np.eye(4), epsilon=0.1)
    assert_allclose(step.lambda_map, np.eye(4), atol=1e-12)


def test_complement_of_pauli_maps_is_ratio_diagonal():
    lam_t = np.array([0.9, 0.8, 0.72])
    lam_te = np.array([0.87, 0.75, 0.65])
    step = divisibility.complement_map(qmat.pauli_diagonal_superop(lam_t),
                                       qmat.pauli_diagonal_superop(lam_te),
                                       epsilon=0.05)
    assert_allclose(step.lambda_map,
                    qmat.pauli_diagonal_superop(lam_te / lam_t), atol=1e-12)


def test_complement_hall_first_order_expansion():
    # at t = 1, small eps: mu ~ (1 - eps(1 - tanh 1), same, 1 - 2 eps)
    model = models.PauliChannelModel.hall()
    t, eps = 1.0, 1e-5
    step = divisibility.complement_map(
        models.pauli_propagator_analytic(model, t),
        models.pauli_propagator_analytic(model, t + eps),
        t=t, epsilon=eps)
    mu = np.diag(qmat.pauli_transfer_matrix(step.lambda_map))[1:]
    expected = np.array([1 - eps * (1 - np.tanh(1.0)),
                         1 - eps * (1 - np.tanh(1.0)),
                         1 - 2 * eps])
    assert_allclose(mu, expected, atol=1e-9)


def test_complement_satisfies_defining_identity(rng):
    for _ in range(20):
        e_t = random_cptp_map(rng)
        e_te = random_cptp_map(rng)
        try:
            step = divisibility.complement_map(e_t, e_te, epsilon=0.1)
        except SingularMap:
            continue
        cond = np.linalg.cond(e_t)
        assert np.abs(qmat.compose(step.lambda_map, e_t) - e_te).max() <= 1e-8 * cond


def test_complement_propagates_singular_map():
    with pytest.raises(SingularMap):
        divisibility.complement_map(qmat.depolarizing_superop(), np.eye(4),
                                    epsilon=0.1)


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
    step = divisibility.complement_map(qmat.pauli_diagonal_superop(lam[0]),
                                       qmat.pauli_diagonal_superop(lam[1]),
                                       epsilon=0.02)
    ok, witness = divisibility.is_cp(step.lambda_map)
    assert ok and witness > -1e-12


def test_is_positive_identity_and_transpose():
    ok, witness = divisibility.is_positive(np.eye(4))
    assert ok and abs(witness) < 1e-9
    ok, witness = divisibility.is_positive(_transpose_superop())
    assert ok and abs(witness) < 1e-9  # positive but not CP


def test_is_positive_expanding_pauli_map():
    # Bloch eigenvalues (1, 1, 1.2) push pole states out of the ball;
    # the worst output eigenvalue is (1 - 1.2)/2 = -0.1
    ok, witness = divisibility.is_positive(
        qmat.pauli_diagonal_superop([1.0, 1.0, 1.2]))
    assert not ok
    assert_allclose(witness, -0.1, atol=1e-9)


def test_is_positive_matches_dense_sphere_oracle(rng):
    # brute-force oracle: dense uniform sphere sampling
    for _ in range(10):
        l = random_hp_tp_map(rng)
        u = qmat.fibonacci_sphere(4000)
        worst = np.inf
        for direction in u:
            rho = qmat.density_from_bloch(direction)
            out = qmat.apply_superop(l, rho)
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
        divisibility.is_positive(qmat.sandwich_superop(kraus, kraus.conj().T))


def test_is_positive_pauli_diagonal_basic():
    assert divisibility.is_positive_pauli_diagonal([1.0, 1.0, 1.0])
    assert divisibility.is_positive_pauli_diagonal([0.9, -0.9, 0.8])
    ok, _ = divisibility.is_positive(qmat.pauli_diagonal_superop([0.9, -0.9, 0.8]))
    assert ok
    assert not divisibility.is_positive_pauli_diagonal([1.2, 0.0, 0.0])


def test_hall_complement_stays_positive_for_all_t():
    # pairwise rate sums (1 - tanh t, 1 - tanh t, 2) are nonnegative, so the
    # Bloch ratios stay inside the unit ball
    model = models.PauliChannelModel.hall()
    ts = np.linspace(0.0, 12.0, 60)
    lam = model.bloch_eigenvalues(ts)
    for i in range(len(ts) - 1):
        mu = lam[i + 1] / lam[i]
        assert divisibility.is_positive_pauli_diagonal(mu, tol=1e-12)


# the fast path bounds |mu| - 1 while the general search bounds the output
# eigenvalue (1 - max|mu|)/2, so matched tolerances differ by a factor 2
@settings(max_examples=60, deadline=None)
@given(st.tuples(*(st.floats(-1.5, 1.5) for _ in range(3))))
def test_pauli_fast_path_agrees_with_general_search(mu):
    fast = divisibility.is_positive_pauli_diagonal(mu, tol=1e-9)
    general, witness = divisibility.is_positive(
        qmat.pauli_diagonal_superop(mu), tol=0.5e-9)
    assert fast == general, (mu, witness)


def test_pauli_fast_path_agrees_on_200_random_maps(rng):
    for _ in range(200):
        mu = rng.uniform(-1.5, 1.5, size=3)
        fast = divisibility.is_positive_pauli_diagonal(mu, tol=1e-9)
        general, witness = divisibility.is_positive(
            qmat.pauli_diagonal_superop(mu), tol=0.5e-9)
        assert fast == general, (mu, witness)
        # the witness itself has the closed form (1 - max|mu|)/2
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


def test_classify_monotone_in_tolerance():
    cases = [
        (models.PauliChannelModel.hall(), 10.0),
        (models.PauliChannelModel(0.0, 0.0, "sin"), 2 * np.pi),
        (models.AmplitudeDampingModel(2.0, 1.0), 20.0),
    ]
    for model, horizon in cases:
        previous = None
        for tol in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 10.0):
            verdict = divisibility.classify(model, horizon, tol=tol)
            if previous is not None:
                assert verdict.pd_class >= previous
            previous = verdict.pd_class


def test_cp_divisible_models_have_clean_scans():
    for model in (models.PauliChannelModel.constant(1.0, 0.5, 0.25),
                  models.AmplitudeDampingModel(0.3, 1.0)):
        grid = models.propagator_grid(model, 10.0, 400)
        scan = divisibility.complement_scan(grid)
        valid = ~scan.singular
        assert np.nanmin(scan.cp_witness[valid]) >= -1e-8


def test_scan_fast_paths_agree_with_generic():
    # strip the fast-path payloads to force the matrix-inversion route
    for model, horizon in ((models.PauliChannelModel.hall(), 4.0),
                           (models.AmplitudeDampingModel(2.0, 1.0), 4.0)):
        grid = models.propagator_grid(model, horizon, 100)
        fast = divisibility.complement_scan(grid)
        import dataclasses
        stripped = dataclasses.replace(grid, survival=None, survival_shift=None,
                                       bloch_eigs=None, bloch_eigs_shift=None)
        generic = divisibility.complement_scan(stripped)
        ok = ~generic.singular & (generic.noise_floor < 1e-9)
        assert ok.sum() > 50
        assert_allclose(fast.cp_witness[ok], generic.cp_witness[ok], atol=1e-8)
        assert_allclose(fast.choi_trace_norm[ok], generic.choi_trace_norm[ok],
                        atol=1e-8)
        assert_allclose(fast.p_witness[ok], generic.p_witness[ok], atol=1e-8)


def test_singular_steps_reported_and_excluded():
    # force the generic path on a long amplitude-damping horizon: deep decay
    # exceeds the condition threshold and those steps are skipped
    import dataclasses
    model = models.AmplitudeDampingModel(0.9, 2.0)
    grid = models.propagator_grid(model, 40.0, 200)
    stripped = dataclasses.replace(grid, survival=None, survival_shift=None)
    scan = divisibility.complement_scan(stripped)
    assert scan.singular.any() and not scan.singular.all()
    verdict = divisibility.verdict_from_scan(scan)
    assert verdict.pd_class == DivisibilityClass.PD2
    assert len(verdict.singular_times) == int(scan.singular.sum())
    assert np.isnan(scan.cp_witness[scan.singular]).all()


def test_all_steps_singular_raises():
    model = models.AmplitudeDampingModel(0.9, 2.0)
    grid = models.propagator_grid(model, 10.0, 50)
    import dataclasses
    stripped = dataclasses.replace(grid, survival=None, survival_shift=None)
    with pytest.raises(AllStepsSingular):
        scan = divisibility.complement_scan(stripped, cond_threshold=0.5)
        divisibility.verdict_from_scan(scan)


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
