"""Payoff analysis: named cases, sweeps, optima and thresholds.

Seven named configurations (cases 1..4 under spontaneous emission, 5..7
under generalized Pauli noise) each come with a closed-form payoff in the
noise parameter and the mixing angle gamma.  The closed forms act as
oracles for the matrix-pipeline simulation and vice versa; `verify_case`
binds the two together on a grid.

Every case's payoff is of the form c0 + c1 * cos(2*gamma) at fixed noise,
so the optimal classical move is read off the sign of c1: positive means
switch (gamma = 0), negative means stay (gamma = pi/2).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

import numpy as np

from .channels import NoiseSpec, check_noise
from .game import GameConfig, branch_probabilities, builtin_strategy, check_gamma

# Tolerance for simulated-payoff vs closed-form comparisons.
FORMULA_TOL = 1e-9

# |c1| up to which `optimal_gamma` calls the two final moves equally good.
INDIFFERENCE_TOL = 1e-12


class NoSignChangeError(ValueError):
    """The bisection bracket does not straddle a strategy crossover."""


class PayoffRangeError(ValueError):
    """A grid payoff is not a number in [0, 1]."""


def _se_case(c1_of_t: Callable[[float], float]) -> Callable[[float, float], float]:
    # all spontaneous-emission payoffs share the shape (3 + c1(t) cos 2g)/6;
    # c1 is written in powers of e^-t so large t cannot overflow
    def payoff(t: float, gamma: float) -> float:
        return (3.0 + c1_of_t(math.exp(-t)) * math.cos(2.0 * gamma)) / 6.0

    return payoff


_CASE_FORMULAS: dict[int, Callable[[float, float], float]] = {
    1: _se_case(lambda u: -4.0 * u * u + 8.0 * u - 3.0),
    2: _se_case(lambda u: 2.0 * u * u - 4.0 * u + 3.0),
    3: _se_case(lambda u: -8.0 * u * u + 8.0 * u - 3.0),
    4: _se_case(lambda u: 2.0 * (u - u * u)),
    5: lambda p, g: ((1.0 - p) * math.cos(2.0 * g) + 3.0 - p) / 6.0,
    6: lambda p, g: (
        2.0 * p**3
        - 4.0 * p**2
        + (2.0 * p**3 - 8.0 * p**2 + 9.0 * p - 3.0) * math.cos(2.0 * g)
        + p
        + 3.0
    )
    / 6.0,
    7: lambda p, g: (
        p**3
        + (p**2 - 4.0 * p + 3.0) * p * math.cos(2.0 * g)
        - 2.0 * p**2
        - p
        + 6.0
    )
    / 12.0,
}


@dataclass(frozen=True)
class CaseSpec:
    """One named configuration: the tokens of the CLI flags --state,
    --alice, --bob and --channel ("se" or "gp") that the case stands for.
    Its closed-form payoff(noise, gamma) is ``_CASE_FORMULAS[case]``."""

    initial: str
    alice: str
    bob: str
    channel_kind: str


CASES: dict[int, CaseSpec] = {
    1: CaseSpec("psi1", "id", "id", "se"),
    2: CaseSpec("psi1", "id", "m1", "se"),
    3: CaseSpec("psi2", "id", "id", "se"),
    4: CaseSpec("psi2", "h", "id", "se"),
    # case 5 applies equally with bob = id, m1 or m2; id is canonical
    5: CaseSpec("psi1", "id", "id", "gp"),
    6: CaseSpec("psi2", "id", "id", "gp"),
    7: CaseSpec("psi2", "h", "id", "gp"),
}


def case_spec(case: int) -> CaseSpec:
    """The named case; ValueError outside 1..7."""
    if case not in CASES:
        raise ValueError(f"case {case} out of range 1..7")
    return CASES[case]


def case_config(case: int, noise: float, gamma: float) -> GameConfig:
    """The GameConfig a case denotes."""
    spec = case_spec(case)
    return GameConfig(
        initial=spec.initial,
        alice=builtin_strategy(spec.alice),
        bob=builtin_strategy(spec.bob),
        noise=NoiseSpec.of(spec.channel_kind, noise),
        gamma=gamma,
    )


def optimal_gamma(c1: float) -> tuple[float, str]:
    """Best pure classical move given the cos(2*gamma) coefficient.

    Positive c1 favours gamma = 0 (switch), negative favours gamma = pi/2
    (stay); |c1| <= INDIFFERENCE_TOL means the payoff does not depend on gamma.
    """
    if c1 > INDIFFERENCE_TOL:
        return 0.0, "switch"
    if c1 < -INDIFFERENCE_TOL:
        return math.pi / 2, "not_switch"
    return 0.0, "indifferent"


def threshold(case: int, lo: float, hi: float) -> float:
    """Noise value in [lo, hi] where the optimal classical move flips, by scipy.optimize.bisect's
    steps to 1e-10 on c1 = (p_switch - p_not_switch)/2, the case compiled once.  Each end's
    move is `optimal_gamma`'s label of its c1, as `payoff` prints: an end where both moves pay
    the same is a ValueError, and ends of one label are a NoSignChangeError."""
    if not lo < hi:
        raise ValueError(f"bracket [{lo}, {hi}] is empty or runs backwards")
    probabilities = branch_probabilities(case_config(case, 0.0, 0.0))

    def f(x: float) -> float:
        p_switch, p_not_switch = probabilities(x)
        return (p_switch - p_not_switch) / 2.0
    f_lo, f_hi = f(lo), f(hi)
    for end, x, c1 in (("lo", lo, f_lo), ("hi", hi, f_hi)):
        if optimal_gamma(c1)[1] == "indifferent":
            raise ValueError(f"case {case}: both moves pay the same at bracket end {end}={x} "
                             f"(c1={c1:.3e}); a crossover must lie between ends where one "
                             "move is strictly better")
    if optimal_gamma(f_lo) == optimal_gamma(f_hi):
        raise NoSignChangeError(f"case {case}: no sign change of the mixing coefficient on "
                                f"[{lo}, {hi}] (c1({lo})={f_lo:.3e}, c1({hi})={f_hi:.3e})")
    # as scipy.optimize.bisect; 1100 halvings take any finite bracket below 1e-10
    x, step = lo, hi - lo
    for _ in range(1100):
        step /= 2
        mid = x + step
        f_mid = f(mid)
        if f_mid * f_lo >= 0:
            x = mid
        if f_mid == 0 or abs(step) < 1e-10 + 4 * np.finfo(float).eps * abs(mid):
            break
    return mid


@dataclass(frozen=True, slots=True, eq=False)
class SweepTable:
    """Payoffs on a (noise, gamma) grid: one float64 per point, noise-major.

    Iterating the table yields its (noise, gamma, payoff) triples, made as
    they are read.  Tables compare by identity; the repr shows every payoff
    to the last bit."""

    noise_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    payoffs: array

    def __post_init__(self):
        if len(self.payoffs) != len(self.noise_values) * len(self.gamma_values):
            raise ValueError("row count does not match the grid")
        values = np.frombuffer(self.payoffs)
        # the extremes are NaN when any payoff is; `initial` lets an empty grid pass
        for extreme in (values.min(initial=0.5), values.max(initial=0.5)):
            if not -1e-12 <= extreme <= 1.0 + 1e-12:
                raise PayoffRangeError(f"payoff {extreme} outside [0, 1]")

    @property
    def rows(self) -> SweepTable:
        """The (noise, gamma, payoff) triples, as Python floats: the table itself."""
        return self

    def __len__(self) -> int:
        return len(self.payoffs)

    def __iter__(self):
        payoffs = iter(self.payoffs)
        return ((x, g, next(payoffs)) for x in self.noise_values for g in self.gamma_values)


def _check_grid(values, name: str) -> tuple[float, ...]:
    # a tuple of floats is kept as it is, so a table shares its caller's grid
    if not (type(values) is tuple and all(type(v) is float for v in values)):
        values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"empty {name} grid")
    if any(b <= a for a, b in pairwise(values)):
        raise ValueError(f"{name} grid must be strictly ascending")
    return values


def _squares(f: Callable[[float], float], gamma_values) -> np.ndarray:
    # math's cos and sin, as in `play`: numpy's may differ in the last bit
    return np.fromiter((f(g) ** 2 for g in gamma_values), float, len(gamma_values))


def sweep(
    target: int | GameConfig | Callable[[float, float], float],
    noise_values,
    gamma_values,
) -> SweepTable:
    """Evaluate an arbitrary payoff(noise, gamma) callable, a configuration
    (its noise family and Einstein coefficients span the noise axis; its own
    noise value and gamma are not used) or else a case id, any integer
    `case_spec` accepts, over the grid.

    A case or configuration has every axis value checked before anything is
    evaluated, is compiled once and simulated once per noise value; gamma
    enters as the weights cos^2 and sin^2, by the arithmetic of `play`.  Only
    arrays are kept per axis value, so a long axis costs no Python objects.
    A callable is called once per point.
    """
    noise_values = _check_grid(noise_values, "noise")
    gamma_values = _check_grid(gamma_values, "gamma")
    if callable(target):
        payoffs = array("d", (target(x, g) for x in noise_values for g in gamma_values))
        return SweepTable(noise_values, gamma_values, payoffs)
    if not isinstance(target, GameConfig):
        target = case_config(target, 0.0, 0.0)
    noise = target.noise
    if noise.kind == "none":
        raise ValueError("a noise axis needs noise of kind 'se' or 'gp'")
    for x in noise_values:
        check_noise(noise.kind, x, noise.a1, noise.a2)
    for g in gamma_values:
        check_gamma(g)
    probabilities = branch_probabilities(target)
    p_switch, p_not_switch = np.empty(len(noise_values)), np.empty(len(noise_values))
    for i, x in enumerate(noise_values):
        p_switch[i], p_not_switch[i] = probabilities(x)
    grid = np.outer(p_switch, _squares(math.cos, gamma_values))
    del p_switch  # so a long noise axis holds at most two axis arrays at once
    grid += np.outer(p_not_switch, _squares(math.sin, gamma_values))
    payoffs = array("d")
    payoffs.frombytes(grid.view(np.uint8))  # from the grid's buffer, with no bytes copy between
    return SweepTable(noise_values, gamma_values, payoffs)


@dataclass(frozen=True)
class VerifyReport:
    case: int
    max_abs_error: float
    passed: bool
    points: int


# Points on each axis of verify_case's default grid.
DEFAULT_GRID_POINTS = 21


def default_noise_grid(case: int) -> np.ndarray:
    """Evenly spaced noise values over the case's domain."""
    upper = 3.0 if case_spec(case).channel_kind == "se" else 1.0
    return np.linspace(0.0, upper, DEFAULT_GRID_POINTS)


def default_gamma_grid() -> np.ndarray:
    return np.linspace(0.0, math.pi / 2, DEFAULT_GRID_POINTS)


def verify_case(case: int, noise_values=None, gamma_values=None) -> VerifyReport:
    """Max |simulated - closed form| over the grid, pass/fail at FORMULA_TOL.

    The simulation is ``sweep(case, ...)``'s table, so its axes are checked
    as there.  A simulated payoff that the table refuses (not a number in
    [0, 1]) and a closed form that is not a number count as infinite errors.
    """
    if noise_values is None:
        noise_values = default_noise_grid(case)
    if gamma_values is None:
        gamma_values = default_gamma_grid()
    try:
        table = sweep(case, noise_values, gamma_values)
    except PayoffRangeError:
        return VerifyReport(case=case, max_abs_error=math.inf, passed=False,
                            points=len(noise_values) * len(gamma_values))
    formula = _CASE_FORMULAS[case]
    worst = 0.0
    for x, g, payoff in table:
        error = abs(payoff - formula(x, g))
        if not error <= worst:
            worst = math.inf if math.isnan(error) else error
    return VerifyReport(case=case, max_abs_error=worst, passed=worst <= FORMULA_TOL,
                        points=len(table))
