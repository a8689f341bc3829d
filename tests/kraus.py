"""Kraus-list oracle for the closed-form superoperators of `qmontyhall.channels`.

The noise families are written here as the paper states them, as lists of
Kraus elements, and lifted to the three registers by forming all triple
Kronecker products (`extend_three`), so the tests can compare the
production superoperators and their register-by-register application
against an independent construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qmontyhall.channels import QUTRIT_DIM, STATE_DIM, STRUCTURAL_TOL, NoiseSpec

# Qutrit shift (cyclic permutation of the basis) and clock (third-root-of-
# unity phases): the generators of the generalized Pauli family.
SHIFT = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
CLOCK = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
# The nine products SHIFT^i @ CLOCK^j, in lexicographic (i, j) order.
SHIFT_CLOCK = tuple(
    np.linalg.matrix_power(SHIFT, i) @ np.linalg.matrix_power(CLOCK, j)
    for i in range(3)
    for j in range(3)
)


@dataclass(frozen=True)
class KrausChannel:
    """A quantum channel as a finite list of same-dimension Kraus elements.

    Completeness (sum of K†K equal to the identity) is what makes the list
    trace preserving; it is checked by `validate_cptp`, not at construction,
    so deliberately broken channels can be built in tests.
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a channel needs at least one Kraus element")
        for k in self.elements:
            if k.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus element of shape {k.shape} in a dim-{self.dim} channel"
                )

    def completeness_deviation(self) -> float:
        """Max-abs entry of (sum of K†K) - I."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.elements:
            acc += k.conj().T @ k
        return float(np.abs(acc - np.eye(self.dim)).max())


def se_kraus(t: float, a1: float = 1.0, a2: float = 1.0) -> KrausChannel:
    """Single-qutrit spontaneous emission at time ``t``.

    Kraus elements: K0 = diag(1, e^(-t*a1/2), e^(-t*a2/2)),
    K1 = sqrt(1 - e^(-t*a1)) |0><1|, K2 = sqrt(1 - e^(-t*a2)) |0><2|.
    """
    k0 = np.diag([1.0, math.exp(-t * a1 / 2), math.exp(-t * a2 / 2)]).astype(complex)
    k1 = np.zeros((3, 3), dtype=complex)
    k1[0, 1] = math.sqrt(1.0 - math.exp(-t * a1))
    k2 = np.zeros((3, 3), dtype=complex)
    k2[0, 2] = math.sqrt(1.0 - math.exp(-t * a2))
    return KrausChannel(QUTRIT_DIM, (k0, k1, k2), label=f"SE(t={t:g})")


def gp_kraus(p: float) -> KrausChannel:
    """Single-qutrit generalized Pauli channel with error probability ``p``.

    Nine elements sqrt(P_ij) * SHIFT^i @ CLOCK^j in lexicographic (i, j)
    order, with P_00 = 1 - 8p/9 and P_ij = p/9 otherwise.  Zero-weight
    elements are kept so the list shape is uniform.
    """
    weights = [1.0 - 8.0 * p / 9.0] + [p / 9.0] * 8
    elements = tuple(math.sqrt(w) * m for w, m in zip(weights, SHIFT_CLOCK))
    return KrausChannel(QUTRIT_DIM, elements, label=f"GP(p={p:g})")


def single_kraus(spec: NoiseSpec) -> KrausChannel | None:
    """The Kraus list of the channel described by ``spec`` (None when noiseless)."""
    if spec.kind == "none":
        return None
    if spec.kind == "se":
        return se_kraus(spec.t, spec.a1, spec.a2)
    return gp_kraus(spec.p)


def identity_channel(dim: int = QUTRIT_DIM) -> KrausChannel:
    return KrausChannel(dim, (np.eye(dim, dtype=complex),), label="identity")


def superoperator(ch: KrausChannel) -> np.ndarray:
    """S[a, c, b, d] = sum_k K[a, b] conj(K[c, d])."""
    k = np.stack(ch.elements)
    return np.einsum("kab,kcd->acbd", k, k.conj())


def extend_three(single: KrausChannel) -> KrausChannel:
    """Lift a single-qutrit channel to the three-register space.

    Elements are all triple Kronecker products K_i1 (x) K_i2 (x) K_i3,
    enumerated lexicographically in (i1, i2, i3); for n single-qutrit
    elements the extension has n**3.
    """
    if single.dim != QUTRIT_DIM:
        raise ValueError(f"can only extend a single-qutrit channel, got dim {single.dim}")
    elements = tuple(
        np.kron(np.kron(k1, k2), k3)
        for k1 in single.elements
        for k2 in single.elements
        for k3 in single.elements
    )
    return KrausChannel(STATE_DIM, elements, label=f"{single.label} x3")


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action: sum of K @ rho @ K†."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"state of shape {rho.shape} under a dim-{ch.dim} channel")
    out = np.zeros_like(rho)
    for k in ch.elements:
        out += k @ rho @ k.conj().T
    return out


@dataclass(frozen=True)
class CptpReport:
    label: str
    max_deviation: float
    tol: float
    passed: bool


def validate_cptp(ch: KrausChannel, tol: float = STRUCTURAL_TOL) -> CptpReport:
    """Check the completeness relation sum(K†K) = I to ``tol``."""
    dev = ch.completeness_deviation()
    return CptpReport(label=ch.label, max_deviation=dev, tol=tol, passed=dev <= tol)
