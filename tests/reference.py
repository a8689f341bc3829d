"""Schrödinger-picture reference for `game.branch_probabilities` and `game.play`.

The state is evolved as the round describes it, with the noise applied
through the 27x27 Kraus lift `apply(extend_three(...))` of `kraus.py`:

    rho -> N(rho) -> G rho G†  for G = G_switch and G_stay,  p = Tr(W G rho G†)

so it shares only the permutation operators and the Kraus lists with the
compiled effect path it checks.
"""

import numpy as np

from kraus import apply, extend_three, single_kraus
from linalg import density_from_pure

from qmontyhall.game import GameConfig, open_operator, switch_operator, win_projector


def evolve(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the full pipeline and return (rho_switch, rho_not_switch)."""
    rho = density_from_pure(cfg.initial_vector())
    noise = single_kraus(cfg.noise)
    if noise is not None:
        rho = apply(extend_three(noise), rho)
    moves = np.kron(np.kron(np.eye(3, dtype=complex), cfg.bob.matrix), cfg.alice.matrix)
    g_stay = open_operator() @ moves
    g_switch = switch_operator() @ g_stay
    return g_switch @ rho @ g_switch.conj().T, g_stay @ rho @ g_stay.conj().T


def win_probability(rho: np.ndarray) -> float:
    value = complex(np.trace(win_projector() @ rho))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"win probability has imaginary residue {value.imag:.3e}")
    return value.real


def branch_probabilities(cfg: GameConfig) -> tuple[float, float]:
    """(p_switch, p_not_switch) at cfg's own noise."""
    rho_s, rho_n = evolve(cfg)
    return win_probability(rho_s), win_probability(rho_n)
