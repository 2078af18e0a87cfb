"""Dense complex-matrix and superoperator algebra for 2-level systems.

Vectorization is column-stacking throughout the package: ``vec(A)`` stacks
the columns of ``A`` (Fortran order), so that

    vec(A X B) = (B^T o A) vec(X)

with ``o`` the Kronecker product, and the superoperator of the conjugation
``X -> U X U^dag`` is ``kron(conj(U), U)``.

Choi matrices are normalized to trace one for trace-preserving maps:
``choi_of(E) = (I o E)(|Psi><Psi|)`` with ``|Psi> = (|00> + |11>)/sqrt(2)``.
"""

from __future__ import annotations

import numpy as np

from . import config

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Lowering operator |0><1| in the convention that |1> is the excited state.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

# Columns are vec(I), vec(sigma_x), vec(sigma_y), vec(sigma_z).
_PAULI_COLS = np.column_stack(
    [np.asarray(p).reshape(-1, order="F") for p in PAULIS]
)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def reshuffle(m: np.ndarray) -> np.ndarray:
    """Row/column reshuffle exchanging superoperator and (unnormalized) Choi
    forms; an involution. Supports stacked ``(..., 4, 4)`` input.
    """
    m = np.asarray(m, dtype=complex)
    lead = m.shape[:-2]
    t = m.reshape(*lead, 2, 2, 2, 2)
    n = t.ndim
    perm = list(range(n - 4)) + [n - 1, n - 3, n - 2, n - 4]
    return t.transpose(perm).reshape(*lead, 4, 4)


def choi_of(e: np.ndarray) -> np.ndarray:
    """Trace-1 Choi matrix ``(I o E)(|Psi><Psi|)`` of a superoperator.

    Supports stacked ``(..., 4, 4)`` input.
    """
    return reshuffle(e) / 2.0


def pauli_transfer_matrix(e: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix ``F_mn = Tr(sigma_m E(sigma_n)) / 2``.

    Row/column 0 corresponds to the identity; for a trace-preserving map the
    first row is ``(1, 0, 0, 0)``. Supports stacked ``(..., 4, 4)`` input.
    """
    e = np.asarray(e, dtype=complex)
    return 0.5 * (_PAULI_COLS.conj().T @ e @ _PAULI_COLS).real


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(Tr(sigma_j rho))_j`` of a qubit state."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(s @ rho).real for s in PAULIS[1:]])


def is_trace_preserving(e: np.ndarray, tol: float = config.DEFAULT.check) -> bool:
    """Whether ``vec(I)^dag E = vec(I)^dag`` within tolerance."""
    vid = vec(IDENTITY)
    return bool(np.abs(vid.conj() @ np.asarray(e, dtype=complex) - vid.conj()).max() <= tol)


def fibonacci_sphere(n: int) -> np.ndarray:
    """``n`` deterministic, roughly equidistributed unit vectors, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
