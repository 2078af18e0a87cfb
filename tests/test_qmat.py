import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_cptp_map, random_density_matrix, random_hp_tp_map
import oracles
from kdivis import qmat


# ---------------------------------------------------------------------------
# trace norm / trace distance
# ---------------------------------------------------------------------------

def test_trace_norm_trivial_cases():
    assert_allclose(oracles.trace_norm(np.eye(2)), 2.0)
    assert_allclose(oracles.trace_norm(qmat.SIGMA_X), 2.0)
    assert_allclose(oracles.trace_norm(np.diag([1.0, -3.0])), 4.0)


def test_trace_norm_hermitian_equals_abs_eigenvalue_sum(rng):
    # SVD path against the eigenvalue path
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        assert_allclose(oracles.trace_norm(h),
                        np.abs(np.linalg.eigvalsh(h)).sum(), atol=1e-10)


def test_trace_distance_orthogonal_pure_states():
    assert_allclose(oracles.trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])), 1.0)


def test_trace_distance_identical_states(rng):
    rho = random_density_matrix(rng)
    assert oracles.trace_distance(rho, rho) == 0.0


def test_trace_distance_pure_x_vs_maximally_mixed():
    # (rho - I/2) = sigma_x / 2 with eigenvalues +-1/2, so the distance is 1/2
    rho = oracles.density_from_bloch([1.0, 0.0, 0.0])
    assert_allclose(oracles.trace_distance(rho, np.eye(2) / 2), 0.5, atol=1e-12)


def test_trace_distance_is_a_metric(rng):
    for _ in range(50):
        a, b, c = (random_density_matrix(rng) for _ in range(3))
        dab = oracles.trace_distance(a, b)
        assert dab == oracles.trace_distance(b, a)
        assert dab <= oracles.trace_distance(a, c) + oracles.trace_distance(c, b) + 1e-12
        assert dab >= 0.0


# ---------------------------------------------------------------------------
# Choi spectrum
# ---------------------------------------------------------------------------

def test_min_eigenvalue_transpose_choi():
    # the trace-1 Choi of the transpose map is SWAP/2 with spectrum
    # (-1/2, 1/2, 1/2, 1/2); frozen from a direct 4x4 eigensolve
    transpose = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            transpose[:, 2 * j + i] = qmat.vec(basis.T)
    choi = qmat.choi_of(transpose)
    assert_allclose(np.linalg.eigvalsh(choi), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# apply / compose
# ---------------------------------------------------------------------------

def test_apply_identity_and_depolarizing(rng):
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert_allclose(oracles.apply_superop(np.eye(4), x), x, atol=1e-14)
    rho = random_density_matrix(rng)
    assert_allclose(oracles.apply_superop(oracles.depolarizing_superop(), rho),
                    np.eye(2) / 2, atol=1e-14)


def test_apply_sigma_z_conjugation_flips_sigma_x():
    e = oracles.sandwich_superop(qmat.SIGMA_Z, qmat.SIGMA_Z)
    assert_allclose(oracles.apply_superop(e, qmat.SIGMA_X), -qmat.SIGMA_X, atol=1e-14)


def test_compose_identity_and_involution():
    # the sigma_x conjugation composed with itself is the identity map
    conj_x = oracles.sandwich_superop(qmat.SIGMA_X, qmat.SIGMA_X)
    assert_allclose(conj_x @ conj_x, np.eye(4), atol=1e-14)


def test_compose_depolarizing_absorbs_tp_maps(rng):
    dep = oracles.depolarizing_superop()
    for _ in range(10):
        e = random_cptp_map(rng)
        combined = dep @ e
        for p in qmat.PAULIS:
            assert_allclose(oracles.apply_superop(combined, p),
                            oracles.apply_superop(dep, p), atol=1e-12)


def test_invert_pauli_diagonal():
    # the inverse of a Pauli-diagonal map scales by the reciprocal factors
    e = oracles.pauli_diagonal_superop([np.exp(-1), np.exp(-1), np.exp(-2)])
    inv = oracles.pauli_diagonal_superop([np.e, np.e, np.e ** 2])
    assert_allclose(e @ inv, np.eye(4), atol=1e-12)
    assert_allclose(inv @ e, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# Choi transforms
# ---------------------------------------------------------------------------

def test_choi_of_identity_is_bell_projector():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert_allclose(qmat.choi_of(np.eye(4)),
                    np.outer(psi, psi), atol=1e-14)


def test_choi_of_depolarizing_is_maximally_mixed():
    assert_allclose(qmat.choi_of(oracles.depolarizing_superop()),
                    np.eye(4) / 4, atol=1e-14)


def test_choi_of_sigma_z_conjugation():
    psi_minus = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    assert_allclose(qmat.choi_of(oracles.sandwich_superop(qmat.SIGMA_Z, qmat.SIGMA_Z)),
                    np.outer(psi_minus, psi_minus), atol=1e-14)


def test_superop_of_choi_inverts_choi_of(rng):
    assert_allclose(oracles.superop_of_choi(np.eye(4) / 4),
                    oracles.depolarizing_superop(), atol=1e-14)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert_allclose(oracles.superop_of_choi(np.outer(psi, psi)), np.eye(4), atol=1e-14)
    for _ in range(100):
        e = random_hp_tp_map(rng)
        assert_allclose(oracles.superop_of_choi(qmat.choi_of(e)), e, atol=1e-12)


def test_tp_maps_preserve_trace_on_hermitian_basis(rng):
    for _ in range(30):
        e = random_hp_tp_map(rng)
        assert qmat.is_trace_preserving(e, 1e-10)
        for p in qmat.PAULIS:
            out = oracles.apply_superop(e, p)
            assert abs(np.trace(out) - np.trace(p)) < 1e-10


def test_choi_trace_one_for_tp_maps(rng):
    for _ in range(20):
        c = qmat.choi_of(random_cptp_map(rng))
        assert abs(np.trace(c) - 1.0) < 1e-10
        assert np.abs(c - c.conj().T).max() < 1e-12


def test_choi_of_ptm_matches_choi_of(rng):
    # Hermiticity-preserving maps, trace-preserving or not, have real PTMs
    maps = np.array([random_cptp_map(rng) if k % 3 == 0 else
                     (1.0 + k / 40) * random_hp_tp_map(rng) for k in range(60)])
    f = qmat.pauli_transfer_matrix(maps)
    assert_allclose(oracles.choi_of_ptm(f), qmat.choi_of(maps), rtol=0, atol=1e-12)
    assert_allclose(oracles.choi_of_ptm(f[7]), qmat.choi_of(maps[7]), rtol=0, atol=1e-12)
    # stacked input keeps its leading shape
    for shape in [(255,), (256,), (257,), (2000,), (2, 3)]:
        out = oracles.choi_of_ptm(rng.normal(size=(*shape, 4, 4)))
        assert out.shape == (*shape, 4, 4)


# ---------------------------------------------------------------------------
# Bloch / transfer-matrix helpers
# ---------------------------------------------------------------------------

def test_bloch_round_trip(rng):
    r = rng.normal(size=3)
    r *= 0.9 / np.linalg.norm(r)
    assert_allclose(oracles.bloch_from_density(oracles.density_from_bloch(r)), r, atol=1e-14)
    rho = random_density_matrix(rng)
    assert_allclose(oracles.density_from_bloch(oracles.bloch_from_density(rho)), rho,
                    atol=1e-12)


def test_pauli_transfer_matrix_of_pauli_diagonal_map():
    mu = (0.3, -0.4, 0.9)
    f = qmat.pauli_transfer_matrix(oracles.pauli_diagonal_superop(mu))
    assert_allclose(f, np.diag([1.0, *mu]), atol=1e-13)


def test_bloch_affine_of_damping_map():
    m, c = oracles.bloch_affine(oracles.damping_superop(0.7))
    assert_allclose(m, np.diag([0.7, 0.7, 0.49]), atol=1e-13)
    assert_allclose(c, [0.0, 0.0, 1 - 0.49], atol=1e-13)


def test_validate_density_matrix_rejects_bad_states():
    with pytest.raises(oracles.NotHermitian):
        oracles.validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(ValueError):
        oracles.validate_density_matrix(np.eye(2))
    with pytest.raises(ValueError):
        oracles.validate_density_matrix(np.diag([1.5, -0.5]))
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert_allclose(oracles.validate_density_matrix(rho), rho)


def test_fibonacci_sphere_is_deterministic_and_unit():
    a = qmat.fibonacci_sphere(128)
    b = qmat.fibonacci_sphere(128)
    assert np.array_equal(a, b)
    assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    # rough equidistribution: mean direction close to zero
    assert np.linalg.norm(a.mean(axis=0)) < 0.05


def test_reshuffle_is_an_involution(rng):
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    assert_allclose(qmat.reshuffle(qmat.reshuffle(m)), m)
