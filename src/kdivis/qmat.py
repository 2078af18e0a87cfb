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
from .errors import NotHermitian

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Lowering operator |0><1| in the convention that |1> is the excited state.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

# Columns are vec(I), vec(sigma_x), vec(sigma_y), vec(sigma_z).
_PAULI_COLS = np.column_stack(
    [np.asarray(p).reshape(-1, order="F") for p in PAULIS]
)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of X -> A X B."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def superop_from_kraus(kraus_ops) -> np.ndarray:
    """Superoperator of X -> sum_k K_k X K_k^dag."""
    out = None
    for k in kraus_ops:
        term = np.kron(np.asarray(k, dtype=complex).conj(), k)
        out = term if out is None else out + term
    return out


def depolarizing_superop() -> np.ndarray:
    """The completely depolarizing channel rho -> I/2."""
    v = vec(IDENTITY)
    return 0.5 * np.outer(v, v.conj())


def pauli_diagonal_superop(mu) -> np.ndarray:
    """Unital qubit map scaling the Bloch components by ``mu = (m1, m2, m3)``."""
    weights = (1.0, *mu)
    out = np.zeros((4, 4), dtype=complex)
    for w, p in zip(weights, PAULIS):
        v = vec(p)
        out += 0.5 * w * np.outer(v, v.conj())
    return out


def apply_superop(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a superoperator in matrix form to a square operator."""
    x = np.asarray(x, dtype=complex)
    return (np.asarray(e, dtype=complex) @ vec(x)).reshape(x.shape, order="F")


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


#: ``sigma_n^T o sigma_m / 4`` at row ``4m + n``, flattened and with the real
#: and imaginary part of each entry side by side: ``(16, 32)`` real
_CHOI_OF_PTM = (0.25 * np.stack([np.kron(sn.T, sm).reshape(16) for sm in PAULIS
                                 for sn in PAULIS])).view(float)
_CHOI_OF_PTM.flags.writeable = False

#: rows per product: a 256 x 32 block of doubles is 64 KiB, and
#: 256 * 16 * 32 stays below OpenBLAS's threading threshold
_CHOI_BLOCK = 256


def choi_of_ptm(f: np.ndarray) -> np.ndarray:
    """:func:`choi_of` from the real Pauli transfer matrix ``F`` of a map,
    ``sum_mn F_mn sigma_n^T o sigma_m / 4``; supports stacked input.

    A real product of the flattened ``F`` with the real and imaginary parts
    of the sixteen Pauli terms, read back as complex. It runs on near-equal
    blocks of at most ``_CHOI_BLOCK`` rows, so no product goes to threaded
    BLAS, and no block of a stack is a single row, which BLAS would sum in
    another order.
    """
    f = np.asarray(f, dtype=float)
    flat = f.reshape(-1, 16)
    n = len(flat)
    out = np.empty((n, 16), dtype=complex)
    parts = out.view(float)
    blocks = max(1, -(-n // _CHOI_BLOCK))
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        np.matmul(flat[rows], _CHOI_OF_PTM, out=parts[rows])
    return out.reshape(*f.shape[:-2], 4, 4)


def superop_of_choi(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`choi_of`."""
    return reshuffle(c) * 2.0


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ``Tr sqrt(A^dag A)``, the sum of singular values."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance ``0.5 * ||rho1 - rho2||_1`` between two states."""
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def pauli_transfer_matrix(e: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrix ``F_mn = Tr(sigma_m E(sigma_n)) / 2``.

    Row/column 0 corresponds to the identity; for a trace-preserving map the
    first row is ``(1, 0, 0, 0)``. Supports stacked ``(..., 4, 4)`` input.
    """
    e = np.asarray(e, dtype=complex)
    return 0.5 * (_PAULI_COLS.conj().T @ e @ _PAULI_COLS).real


def bloch_affine(e: np.ndarray):
    """Affine Bloch form ``r -> M r + c`` of a qubit map.

    Returns ``(M, c)`` with shapes ``(..., 3, 3)`` and ``(..., 3)``.
    """
    f = pauli_transfer_matrix(e)
    return f[..., 1:, 1:], f[..., 1:, 0]


def density_from_bloch(r) -> np.ndarray:
    """State ``(I + r . sigma) / 2`` from a Bloch vector with ``|r| <= 1``."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(Tr(sigma_j rho))_j`` of a qubit state."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(s @ rho).real for s in PAULIS[1:]])


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; returns the input array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > config.DEFAULT.hermiticity:
        raise NotHermitian(f"state deviates from Hermitian by {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > config.DEFAULT.hermiticity:
        raise ValueError(f"state trace {tr} is not 1")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -config.DEFAULT.check:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


def is_trace_preserving(e: np.ndarray, tol: float = config.DEFAULT.check) -> bool:
    """Whether ``vec(I)^dag E = vec(I)^dag`` within tolerance."""
    vid = vec(IDENTITY)
    return bool(np.abs(vid.conj() @ np.asarray(e, dtype=complex) - vid.conj()).max() <= tol)


def is_hermiticity_preserving(e: np.ndarray, tol: float = config.DEFAULT.check) -> bool:
    """Whether the map sends Hermitian inputs to Hermitian outputs.

    Equivalent to Hermiticity of the Choi matrix.
    """
    c = choi_of(e)
    return bool(np.abs(c - c.conj().T).max() <= tol)


def fibonacci_sphere(n: int) -> np.ndarray:
    """``n`` deterministic, roughly equidistributed unit vectors, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
