"""Noisy quantum Monty Hall game on three qutrits.

Simulates the three-register (opened box, Bob's choice, prize) game under
spontaneous-emission and generalized-Pauli noise, and verifies the
simulated payoffs against closed-form references.  Each name is imported
from its module: ``qmontyhall.game``, ``.channels``, ``.analysis`` or ``.cli``.
"""
