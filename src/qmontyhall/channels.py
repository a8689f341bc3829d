"""Qutrit noise channels as 9x9 superoperators.

Two families are provided:

* spontaneous emission ``SE(t)``: excited levels |1> and |2> decay to the
  ground level |0> at rates set by two Einstein coefficients, parametrised
  by time ``t >= 0``;
* generalized Pauli ``GP(p)``: random applications of the qutrit shift and
  clock unitaries with error probability ``p in [0, 1]``; at ``p = 1`` every
  input is mapped to the maximally mixed state.

A single-qutrit channel is its superoperator S[a, c, b, d], the weight of
input entry rho[b, d] in output entry [a, c] (for a Kraus list,
S = sum_k K[a, b] conj(K[c, d])).  `se_single` and `gp_single` build it in
closed form, `apply_local_sequential` applies it to each of the three
registers, and `trace_preservation_deviation` and
`complete_positivity_deviation` check that it is a channel.

The three-qutrit register order is (opened box, Bob's choice, Alice's prize):
basis index ``9*o + 3*b + a``, leftmost tensor factor most significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUTRIT_DIM = 3
REGISTER_COUNT = 3
STATE_DIM = QUTRIT_DIM**REGISTER_COUNT  # 27

# Max-abs tolerance for structural checks (trace preservation, complete
# positivity).
STRUCTURAL_TOL = 1e-10

_EYE = np.eye(QUTRIT_DIM, dtype=complex)
# rho -> rho and rho -> Tr(rho) I/3 as superoperators
_IDENTITY_MAP = np.einsum("ab,cd->acbd", _EYE, _EYE)
_REPLACE_BY_MIXED = np.einsum("ac,bd->acbd", _EYE, _EYE) / QUTRIT_DIM
_IDENTITY_MAP.setflags(write=False)  # `single_channel` hands it out as is


def check_noise(kind: str, value: float, a1: float = 1.0, a2: float = 1.0) -> None:
    """Raise ValueError unless family ``kind`` at noise ``value`` (and, for
    "se", the Einstein coefficients) lies in its domain; the comparisons
    are written so NaN fails them too."""
    if kind == "se":
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"time t={value} must be finite and non-negative")
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
        check_noise(self.kind, self.value, self.a1, self.a2)

    @property
    def value(self) -> float:
        """The noise level: the time t for "se", the error probability p otherwise."""
        return self.t if self.kind == "se" else self.p

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
    def spontaneous_emission(cls, t: float, a1: float = 1.0, a2: float = 1.0) -> "NoiseSpec":
        return cls(kind="se", t=t, a1=a1, a2=a2)

    @classmethod
    def generalized_pauli(cls, p: float) -> "NoiseSpec":
        return cls(kind="gp", p=p)


def se_single(t: float, a1: float = 1.0, a2: float = 1.0) -> np.ndarray:
    """Superoperator of single-qutrit spontaneous emission at time ``t``.

    Its Kraus elements are K0 = diag(k0), k0 = (1, e^(-t*a1/2), e^(-t*a2/2)),
    K1 = sqrt(1 - e^(-t*a1)) |0><1| and K2 = sqrt(1 - e^(-t*a2)) |0><2|, so
    S[a, c, a, c] = k0[a] k0[c], S[0, 0, 1, 1] = 1 - e^(-t*a1),
    S[0, 0, 2, 2] = 1 - e^(-t*a2) and every other entry is 0.
    """
    check_noise("se", t, a1, a2)
    k0 = np.array([1.0, math.exp(-t * a1 / 2), math.exp(-t * a2 / 2)])
    s = _IDENTITY_MAP * np.outer(k0, k0)[:, :, None, None]
    s[0, 0, 1, 1] = -math.expm1(-t * a1)
    s[0, 0, 2, 2] = -math.expm1(-t * a2)
    return s


def gp_single(p: float) -> np.ndarray:
    """Superoperator of the single-qutrit generalized Pauli channel with
    error probability ``p``: rho -> (1 - p) rho + p Tr(rho) I/3.

    That is the channel with Kraus elements sqrt(P_ij) SHIFT^i CLOCK^j,
    P_00 = 1 - 8p/9 and P_ij = p/9 otherwise, because the nine equally
    weighted shift-clock products replace any rho by Tr(rho) I/3.
    """
    check_noise("gp", p)
    return (1.0 - p) * _IDENTITY_MAP + p * _REPLACE_BY_MIXED


def single_channel(kind: str, value: float, a1: float = 1.0, a2: float = 1.0) -> np.ndarray:
    """The superoperator of family ``kind`` at noise ``value``, the
    arguments of `check_noise`: the time t for "se", the error probability
    p for "gp"; "none" ignores the value and gives the identity map."""
    if kind == "none":
        return _IDENTITY_MAP
    if kind == "se":
        return se_single(value, a1, a2)
    if kind == "gp":
        return gp_single(value)
    raise ValueError(f"unknown noise kind {kind!r}")


def apply_local_sequential(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a single-qutrit channel, given by its superoperator
    S[a, c, b, d], independently to each of the three registers, contracting
    S into one register at a time."""
    if np.shape(s) != (QUTRIT_DIM,) * 4:
        raise ValueError(f"expected a single-qutrit superoperator, got shape {np.shape(s)}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (STATE_DIM, STATE_DIM):
        raise ValueError(f"expected a {STATE_DIM}x{STATE_DIM} state, got {rho.shape}")
    r = rho.reshape((QUTRIT_DIM,) * 6)
    for _ in range(REGISTER_COUNT):
        # S acts on the leading register (axes 0 and 3), which then moves last
        r = np.tensordot(s, r, axes=([2, 3], [0, 3])).transpose(2, 3, 0, 4, 5, 1)
    return r.reshape(STATE_DIM, STATE_DIM)


def trace_preservation_deviation(s: np.ndarray) -> float:
    """Max-abs entry of sum_a S[a, a, b, d] - delta_bd: zero exactly when
    the map preserves the trace of every input."""
    return float(np.abs(np.einsum("aabd->bd", s) - np.eye(QUTRIT_DIM)).max())


def complete_positivity_deviation(s: np.ndarray) -> float:
    """How far the Choi matrix J[(b, a), (d, c)] = S[a, c, b, d] is from
    positive semidefinite, max(0, -lambda_min(J)): zero exactly when the map
    is completely positive (Choi 1975)."""
    choi = s.transpose(2, 0, 3, 1).reshape(QUTRIT_DIM**2, QUTRIT_DIM**2)
    return max(0.0, -float(np.linalg.eigvalsh(choi)[0]))
