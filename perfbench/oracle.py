"""Reference values the benchmark checks the program's outputs against.

Nothing here imports qmontyhall. The seven closed forms and the two
crossovers are typed from the paper; the classical baseline enumerates the
nine (prize, first choice) pairs; custom configurations are simulated by an
independent density-matrix calculation written from the game's rules:

* registers |o, b, a>: opened box, Bob's choice, prize (index 9o + 3b + a);
* noise acts on each register before the moves: spontaneous emission in
  Kraus form, generalized Pauli as rho -> (1 - p) rho + p Tr_r(rho) I/3;
* moves I (x) B (x) A; the host opens o -> (x + o) mod 3 with x the box that
  is neither b nor a, or o -> (o + a + 1) mod 3 when b == a; switching maps
  b to the box that is neither o nor b and leaves o == b unchanged;
* Bob wins when b == a.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FORMULA_TOL = 1e-9
LN2 = math.log(2.0)
GP_CROSSOVER = (3.0 - math.sqrt(3.0)) / 2.0
CROSSOVERS = {1: LN2, 6: GP_CROSSOVER}
SE_CASES = (1, 2, 3, 4)
GP_CASES = (5, 6, 7)
PSI1_CASES = (1, 2, 5)  # classical strategies on the separable state


def closed_form(case: int, x: float, gamma: float) -> float:
    """Payoff of a named case at noise x (t for cases 1-4, p for 5-7)."""
    c = math.cos(2.0 * gamma)
    if case in SE_CASES:
        u = math.exp(-x)
        c1 = {
            1: -4.0 * u * u + 8.0 * u - 3.0,
            2: 2.0 * u * u - 4.0 * u + 3.0,
            3: -8.0 * u * u + 8.0 * u - 3.0,
            4: 2.0 * (u - u * u),
        }[case]
        return (3.0 + c1 * c) / 6.0
    p = x
    if case == 5:
        return ((1.0 - p) * c + 3.0 - p) / 6.0
    if case == 6:
        return (2 * p**3 - 4 * p**2 + (2 * p**3 - 8 * p**2 + 9 * p - 3) * c + p + 3) / 6.0
    if case == 7:
        return (p**3 + (p**2 - 4 * p + 3) * p * c - 2 * p**2 - p + 6) / 12.0
    raise ValueError(f"no closed form for case {case}")


def classical_payoffs() -> tuple[Fraction, Fraction]:
    """(switch, stay) win probabilities of the classical game."""
    wins = {True: Fraction(0), False: Fraction(0)}
    for prize in range(3):
        for choice in range(3):
            opened = [d for d in range(3) if d not in (prize, choice)]
            for switch in (True, False):
                for door in opened:
                    final = choice
                    if switch:
                        final = next(d for d in range(3) if d not in (choice, door))
                    wins[switch] += Fraction(int(final == prize), 9 * len(opened))
    return wins[True], wins[False]


def classical_payoff(gamma: float) -> float:
    switch, stay = classical_payoffs()
    return math.cos(gamma) ** 2 * float(switch) + math.sin(gamma) ** 2 * float(stay)


def check_named(case: int, x: float, gamma: float, value: float) -> bool:
    """Closed form to 1e-9, and the classical baseline at zero noise."""
    ok = abs(value - closed_form(case, x, gamma)) <= FORMULA_TOL
    if x == 0.0 and case in PSI1_CASES:
        ok = ok and abs(value - classical_payoff(gamma)) <= FORMULA_TOL
    return ok


def _permutation(rule) -> np.ndarray:
    m = np.zeros((27, 27))
    for o in range(3):
        for b in range(3):
            for a in range(3):
                o2, b2 = rule(o, b, a)
                m[9 * o2 + 3 * b2 + a, 9 * o + 3 * b + a] = 1.0
    return m


def _open_rule(o, b, a):
    if b != a:
        return (3 - a - b + o) % 3, b
    return (o + a + 1) % 3, b


def _switch_rule(o, b, a):
    return o, (3 - o - b if o != b else b)


PSI1 = np.zeros(27, dtype=complex)
PSI1[:9] = 1.0 / 3.0
PSI2 = np.zeros(27, dtype=complex)
PSI2[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
STATES = {"psi1": PSI1, "psi2": PSI2}
M1 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
STRATEGIES = {"id": np.eye(3, dtype=complex), "m1": M1, "m2": M1.T.copy()}

_OPEN = _permutation(_open_rule)
_SWITCH = _permutation(_switch_rule)
_WIN = np.array([9 * o + 4 * b for o in range(3) for b in range(3)])


class Reference:
    """Independent simulation of one custom configuration.

    ``state`` is a normalised 27-vector, ``alice``/``bob`` 3x3 unitaries,
    ``channel`` "se" (with a1, a2) or "gp".
    """

    def __init__(self, state, alice, bob, channel, a1=1.0, a2=1.0):
        self.rho0 = np.outer(state, np.conj(state)).reshape((3,) * 6)
        moves = np.kron(np.kron(np.eye(3), bob), alice)
        self.stay = _OPEN @ moves
        self.switch = _SWITCH @ self.stay
        self.channel, self.a1, self.a2 = channel, a1, a2
        self._cache: dict[float, tuple[float, float]] = {}

    def _noisy(self, x: float) -> np.ndarray:
        t = self.rho0
        for r in range(3):
            if self.channel == "gp":
                reduced = np.trace(t, axis1=r, axis2=3 + r)
                mixed = np.expand_dims(np.expand_dims(reduced, r), 3 + r)
                eye = np.eye(3).reshape([3 if k in (r, 3 + r) else 1 for k in range(6)])
                t = (1.0 - x) * t + x * mixed * eye / 3.0
            else:
                k0 = np.diag([1.0, math.exp(-x * self.a1 / 2), math.exp(-x * self.a2 / 2)])
                k1 = np.zeros((3, 3))
                k1[0, 1] = math.sqrt(1.0 - math.exp(-x * self.a1))
                k2 = np.zeros((3, 3))
                k2[0, 2] = math.sqrt(1.0 - math.exp(-x * self.a2))
                out = 0
                for k in (k0, k1, k2):
                    s = np.moveaxis(np.tensordot(k, t, axes=(1, r)), 0, r)
                    out = out + np.moveaxis(np.tensordot(s, k.conj(), axes=(3 + r, 1)), -1, 3 + r)
                t = out
        return t.reshape(27, 27)

    def branches(self, x: float) -> tuple[float, float]:
        """(p_switch, p_not_switch) at noise x."""
        if x not in self._cache:
            rho = self._noisy(x)
            probs = []
            for g in (self.switch, self.stay):
                out = g @ rho @ g.conj().T
                probs.append(float(np.real(out[_WIN, _WIN].sum())))
            self._cache[x] = (probs[0], probs[1])
        return self._cache[x]

    def payoff(self, x: float, gamma: float) -> float:
        p_switch, p_stay = self.branches(x)
        return math.cos(gamma) ** 2 * p_switch + math.sin(gamma) ** 2 * p_stay
