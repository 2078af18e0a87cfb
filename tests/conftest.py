import numpy as np
import pytest

import oracles
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
    return oracles.superop_from_kraus(kraus)


def one_step_maps(e_t, e_te, epsilon=1.0):
    """Full transfer matrices of one complement step, from the superoperator
    ``e_t`` to ``e_te`` a step ``epsilon`` later, for
    :func:`oracles.generic_scan`; takes any pair."""
    ptm = qmat.pauli_transfer_matrix(np.array([e_t, e_te]))
    return oracles.FullGrid(np.array([0.0, epsilon]), epsilon, epsilon, ptm, ptm[1:])


def one_step_grid(e_t, e_te, epsilon=1.0):
    """Propagator grid holding the one complement step of
    :func:`one_step_maps`, for :func:`~kdivis.divisibility.complement_scan`.

    A grid holds Bloch rows, so both maps must be trace preserving and
    diagonal-affine about z: anything else raises ``ValueError`` rather than
    losing its entries off that pattern.
    """
    full = one_step_maps(e_t, e_te, epsilon)
    rows = oracles.bloch_rows(full.ptm)
    return models.PropagatorGrid(times=full.times, dt=epsilon, eps=epsilon,
                                 bloch=rows, bloch_shift=rows[1:])


def random_density_matrix(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
