import numpy as np
import pytest

from kdivis import models, qmat


def random_hp_tp_map(rng, spread=0.6):
    """Random Hermiticity- and trace-preserving qubit map.

    Built from a random real Pauli transfer matrix with first row
    (1, 0, 0, 0); a real PTM is equivalent to Hermiticity preservation.
    """
    f = np.zeros((4, 4))
    f[0, 0] = 1.0
    f[1:, 0] = spread * rng.normal(size=3) * 0.4
    f[1:, 1:] = spread * rng.normal(size=(3, 3))
    a = qmat._PAULI_COLS
    return 0.5 * (a @ f.astype(complex) @ a.conj().T)


def random_cptp_map(rng):
    """Random CPTP qubit map from a Haar-ish random Stinespring isometry."""
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    v, _ = np.linalg.qr(g)
    kraus = [v[0:2, :], v[2:4, :]]
    return qmat.superop_from_kraus(kraus)


def one_step_grid(e_t, e_te, epsilon=1.0, axis=None):
    """Propagator grid holding one complement step, from the superoperator
    ``e_t`` to ``e_te`` a step ``epsilon`` later.

    ``axis=3`` sends :func:`~kdivis.divisibility.complement_scan` down the
    closed form about z, which reads only the diagonal and the z offset of
    the transfer matrices, so both maps must be diagonal-affine;
    ``axis=None`` sends it down the generic inversion path.
    """
    ptm = qmat.pauli_transfer_matrix(np.array([e_t, e_te]))
    return models.PropagatorGrid(times=np.array([0.0, epsilon]), dt=epsilon, eps=epsilon,
                                 ptm=ptm, ptm_shift=ptm[1:], axis=axis)


def random_density_matrix(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
