"""Quantum Monty Hall game on three qutrits.

Registers, most significant first: ``o`` the box opened by the host, ``b``
Bob's chosen box, ``a`` the box hiding Alice's prize.  One round runs

    noise -> player unitaries (I x B x A) -> open -> switch or stay -> score

where the final score is the probability that Bob's register matches the
prize register.  Open, final move and score act on basis states only, so
each branch reduces to a 27-entry win indicator w (``WIN_SWITCH``,
``WIN_STAY``) and the round to the effect M† diag(w) M with M = I x B x A.
Bob mixes his two classical final moves with a parameter
``gamma``: the switch branch carries weight cos(gamma)^2 and the stay
branch sin(gamma)^2, so gamma = 0 is pure switching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import STATE_DIM, NoiseSpec, apply_local_sequential, single_channel

# Player matrices must be unitary to within this max-abs tolerance.
STRATEGY_TOL = 1e-9

_SQRT7 = math.sqrt(7.0)
_SQRT2 = math.sqrt(2.0)

# Cyclic shufflings of Bob's three choices.
_M1 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
_M2 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)

# Alice's entanglement-breaking counter-strategy.
_H = np.array(
    [
        [1 / _SQRT2, 0.5, 0.5],
        [-0.5, (3 - 1j * _SQRT7) / (4 * _SQRT2), (1 + 1j * _SQRT7) / (4 * _SQRT2)],
        [(-1 - 1j * _SQRT7) / (4 * _SQRT2), (-3 + 1j * _SQRT7) / 8, (5 + 1j * _SQRT7) / 8],
    ]
)


def unitarity_deviation(a: np.ndarray) -> float:
    """Max-abs entry of ``a†a - I``."""
    return float(np.abs(a.conj().T @ a - np.eye(a.shape[1])).max())


@dataclass(frozen=True, eq=False)
class StrategyUnitary:
    """A player's move: a 3x3 unitary acting on that player's register."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"strategy must be 3x3, got {m.shape}")
        dev = unitarity_deviation(m)
        # "not <=" rather than ">" so non-finite entries fail as well
        if not dev <= STRATEGY_TOL:
            raise ValueError(
                f"strategy {self.name!r} is not unitary (deviation {dev:.3e})"
            )
        object.__setattr__(self, "matrix", m)


_BUILTIN_STRATEGIES = {
    "id": np.eye(3, dtype=complex),
    "identity": np.eye(3, dtype=complex),
    "m1": _M1,
    "m2": _M2,
    "h": _H,
}
STRATEGY_NAMES = frozenset(_BUILTIN_STRATEGIES)
STATE_NAMES = ("psi1", "psi2")  # the canonical initial states, see `initial_state`


def builtin_strategy(name: str) -> StrategyUnitary:
    """One of the named moves: "identity"/"id", "m1", "m2" or "h"."""
    key = name.lower()
    if key not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}, expected one of "
                         f"{sorted(STRATEGY_NAMES)}")
    return StrategyUnitary(_BUILTIN_STRATEGIES[key], name=key)


def initial_state(which: str) -> np.ndarray:
    """One of the two canonical initial states.

    "psi1": |0> (x) uniform (x) uniform  (separable; amplitude 1/3 on the
    nine kets |0, b, a>).
    "psi2": |0> (x) (|00> + |11> + |22>)/sqrt(3)  (Bob's and Alice's
    registers maximally correlated).
    """
    v = np.zeros(STATE_DIM, dtype=complex)
    if which == "psi1":
        v[:9] = 1.0 / 3.0
    elif which == "psi2":
        v[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
    else:
        raise ValueError(f"unknown initial state {which!r}")
    return v


# The round's rules on the basis states |o, b, a>.  The host opens the box
# that is neither Bob's choice nor the prize, shifted by o: (o - a - b) mod 3
# when b != a; when b == a either other box may be opened and the register
# cycles as (o + a + 1) mod 3.  Switching takes the one box that is neither
# open nor chosen, 3 - opened - b, and keeps b when opened == b.  Bob wins
# when his final box is the prize; opening moves neither b nor a, so staying
# wins exactly when b == a.  Each entry is 1.0 where the basis state, taken
# through the round, wins.
_o, _b, _a = np.indices((3, 3, 3)).reshape(3, STATE_DIM)
_opened = np.where(_b != _a, (_o - _a - _b) % 3, (_o + _a + 1) % 3)
_final = np.where(_opened != _b, 3 - _opened - _b, _b)
WIN_SWITCH = (_final == _a).astype(float)
WIN_STAY = (_b == _a).astype(float)
WIN_SWITCH.setflags(write=False)
WIN_STAY.setflags(write=False)


def check_gamma(gamma: float) -> None:
    """Raise ValueError unless the mixing angle lies in [0, pi/2] (NaN fails)."""
    if not 0.0 <= gamma <= math.pi / 2 + 1e-12:
        raise ValueError(f"gamma={gamma} outside [0, pi/2]")


def check_state(v) -> np.ndarray:
    """``v`` as a complex 27-vector; ValueError unless its norm is 1 to 1e-12 (NaN fails)."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (STATE_DIM,):
        raise ValueError(f"custom state must have dim {STATE_DIM}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"state norm {norm!r} is not 1")
    return v


@dataclass(frozen=True, eq=False)
class GameConfig:
    """Everything that determines one round: initial state ("psi1", "psi2"
    or a custom normalised 27-dim vector, held as the checked complex
    vector), both players' unitaries, the noise to apply first, and the
    switch/stay mixing angle gamma."""

    initial: np.ndarray
    alice: StrategyUnitary
    bob: StrategyUnitary
    noise: NoiseSpec
    gamma: float

    def __post_init__(self):
        check_gamma(self.gamma)
        v = initial_state(self.initial) if isinstance(self.initial, str) else self.initial
        object.__setattr__(self, "initial", check_state(v))


@dataclass(frozen=True)
class GameOutcome:
    """Expected payoff of one round plus its two pure-branch components;
    payoff == cos(gamma)^2 * p_switch + sin(gamma)^2 * p_not_switch."""

    payoff: float
    p_switch: float
    p_not_switch: float

    @property
    def mixing_coefficient(self) -> float:
        """c1 of payoff = c0 + c1*cos(2*gamma): (p_switch - p_not_switch) / 2."""
        return (self.p_switch - self.p_not_switch) / 2.0


def branch_probabilities(cfg: GameConfig) -> Callable[[float], tuple[float, float]]:
    """Compile cfg's state, moves and noise family; the result maps a noise
    value (the time t for "se", the error probability p for "gp", ignored
    for "none") to (p_switch, p_not_switch).

    The moves and the branch's win indicator w fold into one effect per
    branch, E = M† diag(w) M with M = I x B x A, so p = Tr(E N(rho)) and only
    the noise N, of cfg's family and Einstein coefficients, is built and
    applied per call.  cfg's own noise value and gamma are not used.
    """
    rho = np.outer(cfg.initial, cfg.initial.conj())
    moves = np.kron(np.kron(np.eye(3, dtype=complex), cfg.bob.matrix), cfg.alice.matrix)
    # M† diag(w) M, with the columns of M† weighted by the win indicator
    effects = [(moves.conj().T * w) @ moves for w in (WIN_SWITCH, WIN_STAY)]
    kind, a1, a2 = cfg.noise.kind, cfg.noise.a1, cfg.noise.a2

    def probabilities(noise: float) -> tuple[float, float]:
        r = apply_local_sequential(single_channel(kind, noise, a1, a2), rho)
        # Tr(E r) = vdot(E, r) because E is Hermitian
        p_switch, p_not_switch = (complex(np.vdot(e, r)) for e in effects)
        residue = max(abs(p_switch.imag), abs(p_not_switch.imag))
        if residue > 1e-12:
            raise ValueError(f"win probability has imaginary residue {residue:.3e}")
        return p_switch.real, p_not_switch.real

    return probabilities


def play(cfg: GameConfig) -> GameOutcome:
    """Evaluate one round at cfg's noise; the payoff mixes the two branch
    probabilities with weights cos(gamma)^2 (switch) and sin(gamma)^2 (stay)."""
    p_switch, p_not_switch = branch_probabilities(cfg)(cfg.noise.value)
    payoff = math.cos(cfg.gamma) ** 2 * p_switch + math.sin(cfg.gamma) ** 2 * p_not_switch
    return GameOutcome(payoff=payoff, p_switch=p_switch, p_not_switch=p_not_switch)
