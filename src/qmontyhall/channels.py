"""Qutrit noise channels in Kraus form.

Two families are provided:

* spontaneous emission ``SE(t)``: excited levels |1> and |2> decay to the
  ground level |0> at rates set by two Einstein coefficients, parametrised
  by time ``t >= 0``;
* generalized Pauli ``GP(p)``: random applications of the qutrit shift and
  clock unitaries with error probability ``p in [0, 1]``; at ``p = 1`` every
  input is mapped to the maximally mixed state.

Single-qutrit channels extend to the full three-register space either by
forming all triple Kronecker products of Kraus elements (`extend_three`) or,
equivalently and much cheaper, by applying the channel's 9x9 superoperator
to one register at a time (`apply_local_sequential`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import REGISTER_COUNT, STRUCTURAL_TOL, QUTRIT_DIM, STATE_DIM

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


def _check_params(kind: str, value: float, a1: float = 1.0, a2: float = 1.0) -> None:
    """Domain of a family's parameters; the comparisons are written so NaN
    fails them too."""
    if kind == "se":
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"time t={value} must be non-negative")
        if not (0 < a1 < math.inf and 0 < a2 < math.inf):
            raise ValueError("Einstein coefficients must be positive and finite")
    elif kind == "gp" and not 0.0 <= value <= 1.0:
        raise ValueError(f"error probability p={value} outside [0, 1]")


@dataclass(frozen=True)
class NoiseSpec:
    """Which noise family to apply, and its parameters.

    kind is one of "none", "se" (spontaneous emission, parameter ``t`` plus
    Einstein coefficients ``a1``, ``a2``) or "gp" (generalized Pauli,
    parameter ``p``).
    """

    kind: str
    t: float = 0.0
    p: float = 0.0
    a1: float = 1.0
    a2: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "se", "gp"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        _check_params(self.kind, self.t if self.kind == "se" else self.p, self.a1, self.a2)

    @classmethod
    def of(cls, kind: str, value: float | None = None,
           a1: float = 1.0, a2: float = 1.0) -> "NoiseSpec":
        """Family ``kind`` at noise ``value``: the time t for "se", the error
        probability p for "gp"; "none" ignores it, "gp" ignores a1 and a2."""
        if kind == "se":
            return cls(kind="se", t=value, a1=a1, a2=a2)
        if kind == "gp":
            return cls(kind="gp", p=value)
        return cls(kind=kind)

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(kind="none")

    @classmethod
    def spontaneous_emission(cls, t: float, a1: float = 1.0, a2: float = 1.0) -> "NoiseSpec":
        return cls(kind="se", t=t, a1=a1, a2=a2)

    @classmethod
    def generalized_pauli(cls, p: float) -> "NoiseSpec":
        return cls(kind="gp", p=p)


def se_single(t: float, a1: float = 1.0, a2: float = 1.0) -> KrausChannel:
    """Single-qutrit spontaneous emission channel at time ``t``.

    Kraus elements: K0 = diag(1, e^(-t*a1/2), e^(-t*a2/2)),
    K1 = sqrt(1 - e^(-t*a1)) |0><1|, K2 = sqrt(1 - e^(-t*a2)) |0><2|.
    """
    _check_params("se", t, a1, a2)
    k0 = np.diag([1.0, math.exp(-t * a1 / 2), math.exp(-t * a2 / 2)]).astype(complex)
    k1 = np.zeros((3, 3), dtype=complex)
    k1[0, 1] = math.sqrt(1.0 - math.exp(-t * a1))
    k2 = np.zeros((3, 3), dtype=complex)
    k2[0, 2] = math.sqrt(1.0 - math.exp(-t * a2))
    return KrausChannel(QUTRIT_DIM, (k0, k1, k2), label=f"SE(t={t:g})")


def gp_single(p: float) -> KrausChannel:
    """Single-qutrit generalized Pauli channel with error probability ``p``.

    Nine elements sqrt(P_ij) * SHIFT^i @ CLOCK^j in lexicographic (i, j)
    order, with P_00 = 1 - 8p/9 and P_ij = p/9 otherwise.  Zero-weight
    elements are kept so the list shape is uniform.
    """
    _check_params("gp", p)
    weights = [1.0 - 8.0 * p / 9.0] + [p / 9.0] * 8
    elements = tuple(math.sqrt(w) * m for w, m in zip(weights, SHIFT_CLOCK))
    return KrausChannel(QUTRIT_DIM, elements, label=f"GP(p={p:g})")


def identity_channel(dim: int = QUTRIT_DIM) -> KrausChannel:
    return KrausChannel(dim, (np.eye(dim, dtype=complex),), label="identity")


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


def apply_local_sequential(single: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a single-qutrit channel independently to each of the three
    registers.

    Equals ``apply(extend_three(single), rho)``, but contracts the channel's
    superoperator S[a, c, b, d] = sum_k K[a, b] conj(K[c, d]) into one
    register at a time instead of summing n**3 triple products.
    """
    if single.dim != QUTRIT_DIM:
        raise ValueError(f"expected a single-qutrit channel, got dim {single.dim}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (STATE_DIM, STATE_DIM):
        raise ValueError(f"expected a {STATE_DIM}x{STATE_DIM} state, got {rho.shape}")
    k = np.stack(single.elements)
    s = np.einsum("kab,kcd->acbd", k, k.conj())
    r = rho.reshape((QUTRIT_DIM,) * 6)
    for _ in range(REGISTER_COUNT):
        # S acts on the leading register (axes 0 and 3), which then moves last
        r = np.tensordot(s, r, axes=([2, 3], [0, 3])).transpose(2, 3, 0, 4, 5, 1)
    return r.reshape(STATE_DIM, STATE_DIM)


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


def single_channel(spec: NoiseSpec) -> KrausChannel | None:
    """The single-qutrit channel described by ``spec`` (None when noiseless)."""
    if spec.kind == "none":
        return None
    if spec.kind == "se":
        return se_single(spec.t, spec.a1, spec.a2)
    return gp_single(spec.p)
