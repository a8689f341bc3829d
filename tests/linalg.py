"""Dense complex linear-algebra helpers and density-matrix invariants for the
tests, on one-, two- and three-qutrit registers.

The three-qutrit register order is (opened box, Bob's choice, Alice's prize):
basis index ``9*o + 3*b + a``, leftmost tensor factor most significant.
"""

from __future__ import annotations

import numpy as np

from qmontyhall.channels import STATE_DIM, STRUCTURAL_TOL
from qmontyhall.game import unitarity_deviation

# A density matrix eigenvalue may undershoot zero by at most this much.
EIG_FLOOR = -1e-10


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def trace(a) -> complex:
    """Sum of the diagonal of a square matrix."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace of non-square matrix {a.shape}")
    return complex(np.trace(a))


def hermiticity_deviation(a) -> float:
    """Max-abs entry of ``a - a†``."""
    a = _as_matrix(a)
    return float(np.abs(a - a.conj().T).max())


def is_unitary(a, tol: float = STRUCTURAL_TOL) -> bool:
    a = _as_matrix(a)
    return a.shape[0] == a.shape[1] and unitarity_deviation(a) <= tol


def basis_ket(o: int, b: int, a: int) -> np.ndarray:
    """Computational basis vector |o, b, a> of the 27-dim register triple."""
    for name, k in (("o", o), ("b", b), ("a", a)):
        if k not in (0, 1, 2):
            raise ValueError(f"trit {name}={k} out of range 0..2")
    v = np.zeros(STATE_DIM, dtype=complex)
    v[9 * o + 3 * b + a] = 1.0
    return v


def density_from_pure(v) -> np.ndarray:
    """Outer product |v><v| of a normalised state vector."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a state vector, got ndim={v.ndim}")
    return np.outer(v, v.conj())


def density_deviations(rho) -> tuple[float, float, float]:
    """(hermiticity deviation, |trace - 1|, min eigenvalue) of a candidate
    density matrix."""
    rho = _as_matrix(rho)
    herm = hermiticity_deviation(rho)
    trace_dev = abs(trace(rho) - 1.0)
    # symmetrise before eigvalsh so the check tolerates the tiny
    # non-Hermitian residue measured separately above
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    return herm, trace_dev, min_eig


def is_density_matrix(
    rho,
    herm_tol: float = STRUCTURAL_TOL,
    trace_tol: float = STRUCTURAL_TOL,
    eig_floor: float = EIG_FLOOR,
) -> bool:
    """True iff ``rho`` is Hermitian, unit-trace and PSD within tolerances."""
    rho = _as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        return False
    herm, trace_dev, min_eig = density_deviations(rho)
    return herm <= herm_tol and trace_dev <= trace_tol and min_eig >= eig_floor
