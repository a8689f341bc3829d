"""Schrödinger-picture reference for `game.branch_probabilities` and `game.play`.

The state is evolved as the round describes it, with the noise applied
through the 27x27 Kraus lift `apply(extend_three(...))` of `kraus.py` and the
host's and Bob's rules as the loop-built 27x27 permutations below:

    rho -> N(rho) -> G rho G†  for G = G_switch and G_stay,  p = Tr(W G rho G†)

so it shares only `GameConfig` with the compiled effect path it checks,
which encodes the same rules as two win indicators.
"""

from functools import lru_cache

import numpy as np

from kraus import apply, extend_three, single_kraus
from linalg import density_from_pure

from qmontyhall.channels import STATE_DIM
from qmontyhall.game import GameConfig


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def open_operator() -> np.ndarray:
    """Host's box-opening permutation on |o, b, a>.

    If b != a the host reveals the one box that is neither Bob's choice nor
    the prize: o -> (x + o) mod 3 with x the element of {0,1,2}\\{a, b}.
    If b == a either other box may be revealed; the opened register cycles
    as o -> (o + a + 1) mod 3, which keeps the map a permutation.
    """
    m = np.zeros((STATE_DIM, STATE_DIM), dtype=complex)
    for o in range(3):
        for b in range(3):
            for a in range(3):
                if b != a:
                    x = ({0, 1, 2} - {a, b}).pop()
                    o2 = (x + o) % 3
                else:
                    o2 = (o + a + 1) % 3
                m[9 * o2 + 3 * b + a, 9 * o + 3 * b + a] = 1.0
    return _frozen(m)


@lru_cache(maxsize=None)
def switch_operator() -> np.ndarray:
    """Bob's switching permutation on |o, b, a>.

    When his current choice differs from the opened box he takes the one
    remaining closed box: b -> {0,1,2}\\{o, b}.  When o == b there is no
    well-defined box to switch away from and the state is left unchanged,
    which makes the operator an involution.
    """
    m = np.zeros((STATE_DIM, STATE_DIM), dtype=complex)
    for o in range(3):
        for b in range(3):
            for a in range(3):
                b2 = ({0, 1, 2} - {o, b}).pop() if o != b else b
                m[9 * o + 3 * b2 + a, 9 * o + 3 * b + a] = 1.0
    return _frozen(m)


@lru_cache(maxsize=None)
def win_projector() -> np.ndarray:
    """Diagonal projector onto the nine winning basis states (b == a)."""
    m = np.zeros((STATE_DIM, STATE_DIM), dtype=complex)
    for o in range(3):
        for b in range(3):
            m[9 * o + 3 * b + b, 9 * o + 3 * b + b] = 1.0
    return _frozen(m)


def _moves(cfg: GameConfig) -> np.ndarray:
    return np.kron(np.kron(np.eye(3, dtype=complex), cfg.bob.matrix), cfg.alice.matrix)


def _noisy(cfg: GameConfig, rho: np.ndarray) -> np.ndarray:
    noise = single_kraus(cfg.noise)
    return rho if noise is None else apply(extend_three(noise), rho)


def _branches(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho_switch, rho_not_switch): open, then switch or stay."""
    g_stay = open_operator()
    g_switch = switch_operator() @ g_stay
    return tuple(g @ rho @ g.conj().T for g in (g_switch, g_stay))


def evolve(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the full pipeline and return (rho_switch, rho_not_switch)."""
    m = _moves(cfg)
    return _branches(m @ _noisy(cfg, density_from_pure(cfg.initial_vector())) @ m.conj().T)


def evolve_noise_after_moves(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Like `evolve`, but the noise acts after I x B x A, before the open.

    Only a noise that commutes with every local unitary, as GP does, leaves
    the branch probabilities unchanged by this reordering.
    """
    return _branches(_noisy(cfg, density_from_pure(_moves(cfg) @ cfg.initial_vector())))


def win_probability(rho: np.ndarray) -> float:
    value = complex(np.trace(win_projector() @ rho))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"win probability has imaginary residue {value.imag:.3e}")
    return value.real


def branch_probabilities(cfg: GameConfig) -> tuple[float, float]:
    """(p_switch, p_not_switch) at cfg's own noise."""
    rho_s, rho_n = evolve(cfg)
    return win_probability(rho_s), win_probability(rho_n)
