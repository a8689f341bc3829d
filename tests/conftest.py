import dataclasses
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from scipy.linalg import expm

from qmontyhall.analysis import _CASE_FORMULAS, case_config, case_spec
from qmontyhall.channels import STATE_DIM, NoiseSpec
from qmontyhall.game import (
    GameConfig,
    StrategyUnitary,
    builtin_strategy,
    check_gamma,
    play,
)

SEED = 20260810

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_command(*args: str, **env: str) -> dict:
    """Popen arguments for a fresh ``python args`` on this checkout.

    ``src`` comes first on PYTHONPATH.  OPENBLAS_NUM_THREADS and
    PYTHONUNBUFFERED are dropped, so the child starts as a user's process
    does, with the entry point's thread default and stdout block-buffered
    into a pipe; ``env`` sets variables for this call only.
    """
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    return {"args": [sys.executable, *args], "env": {**base, **env}}


# Where `gamma_coefficients` re-checks its fit, and the residual it allows.
FIT_CHECK_GAMMA = 1.0
FIT_TOL = 1e-10


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def simulate_case(case: int, noise: float, gamma: float) -> float:
    """A named case's payoff at one (noise, gamma), by one `play`."""
    return play(case_config(case, noise, gamma)).payoff


def closed_form_payoff(case: int, noise: float, gamma: float) -> float:
    """Evaluate the case's closed-form payoff."""
    NoiseSpec.of(case_spec(case).channel_kind, noise)  # domain check
    check_gamma(gamma)
    return _CASE_FORMULAS[case](noise, gamma)


def gamma_coefficients(payoff: Callable[[float], float]) -> tuple[float, float]:
    """Fit payoff(gamma) = c0 + c1 * cos(2*gamma) from two evaluations.

    c0 is the payoff at gamma = pi/4, c1 the gamma = 0 payoff minus c0.  The
    fit is re-checked at gamma = FIT_CHECK_GAMMA; a residual there above
    FIT_TOL means the payoff does not lie in the cos(2*gamma) family and is
    reported as an error.
    """
    c0 = payoff(math.pi / 4)
    c1 = payoff(0.0) - c0
    residual = abs(c0 + c1 * math.cos(2.0 * FIT_CHECK_GAMMA) - payoff(FIT_CHECK_GAMMA))
    if residual > FIT_TOL:
        raise ValueError(
            f"payoff is not of the form c0 + c1*cos(2*gamma): "
            f"residual {residual:.3e} at gamma={FIT_CHECK_GAMMA}"
        )
    return c0, c1


def classical_reference(switch: bool) -> Fraction:
    """Exact classical payoff by enumerating the 9 equally likely
    (prize, first choice) pairs; the host opens a non-prize, non-chosen box
    (either of the two when Bob starts on the prize)."""
    total = Fraction(0)
    for prize in range(3):
        for choice in range(3):
            host_options = [d for d in range(3) if d != prize and d != choice]
            wins = Fraction(0)
            for opened in host_options:
                final = choice
                if switch:
                    final = next(d for d in range(3) if d != choice and d != opened)
                wins += Fraction(int(final == prize), len(host_options))
            total += wins / 9
    return total


def random_unitary(rng, dim: int) -> np.ndarray:
    """Unitary from the exponential of a random Hermitian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return expm(1j * (g + g.conj().T) / 2)


def haar_unitary(rng, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    phases of R's diagonal divided out (Mezzadri, math-ph/0609050)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(rng, dim: int) -> np.ndarray:
    """Uniformly random unit vector (normalised complex Gaussian)."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim: int) -> np.ndarray:
    """Random full-rank density matrix (normalised Wishart)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_config(rng, gamma=None) -> GameConfig:
    """Game config with random state, strategies, noise family and mixing."""
    roll = rng.integers(0, 3)
    if roll == 0:
        initial = "psi1"
    elif roll == 1:
        initial = "psi2"
    else:
        initial = random_state(rng, STATE_DIM)
    kind = rng.integers(0, 3)
    if kind == 0:
        noise = NoiseSpec("none")
    elif kind == 1:
        noise = NoiseSpec.spontaneous_emission(float(rng.uniform(0.0, 3.0)))
    else:
        noise = NoiseSpec.generalized_pauli(float(rng.uniform(0.0, 1.0)))
    return GameConfig(
        initial=initial,
        alice=StrategyUnitary(random_unitary(rng, 3), name="random-a"),
        bob=StrategyUnitary(random_unitary(rng, 3), name="random-b"),
        noise=noise,
        gamma=float(rng.uniform(0.0, math.pi / 2)) if gamma is None else gamma,
    )


def with_gamma(cfg: GameConfig, gamma: float) -> GameConfig:
    return GameConfig(
        initial=cfg.initial, alice=cfg.alice, bob=cfg.bob, noise=cfg.noise, gamma=gamma
    )


def with_bob(cfg: GameConfig, bob: str) -> GameConfig:
    """cfg with Bob's move replaced by the named built-in one."""
    return dataclasses.replace(cfg, bob=builtin_strategy(bob))
