"""Noisy quantum Monty Hall game on three qutrits.

Simulates the three-register (opened box, Bob's choice, prize) game under
spontaneous-emission and generalized-Pauli noise, and verifies the
simulated payoffs against closed-form references.
"""

from .analysis import (
    CASES,
    CaseSpec,
    NoSignChangeError,
    SweepTable,
    VerifyReport,
    case_config,
    gamma_coefficients,
    optimal_gamma,
    sweep,
    threshold,
    verify_case,
)
from .channels import NoiseSpec, apply_local_sequential, gp_single, se_single
from .game import (
    GameConfig,
    GameOutcome,
    StrategyUnitary,
    branch_probabilities,
    builtin_strategy,
    initial_state,
    play,
)

__version__ = "0.1.0"

__all__ = [
    "CASES",
    "CaseSpec",
    "GameConfig",
    "GameOutcome",
    "NoSignChangeError",
    "NoiseSpec",
    "StrategyUnitary",
    "SweepTable",
    "VerifyReport",
    "apply_local_sequential",
    "branch_probabilities",
    "builtin_strategy",
    "case_config",
    "gamma_coefficients",
    "gp_single",
    "initial_state",
    "optimal_gamma",
    "play",
    "se_single",
    "sweep",
    "threshold",
    "verify_case",
]
