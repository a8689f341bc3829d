"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess

import numpy as np
from conftest import (
    child_command,
    classical_reference,
    closed_form_payoff,
    random_config,
    random_density,
    simulate_case,
    with_bob,
    with_gamma,
)
from kraus import apply, extend_three, gp_kraus, se_kraus, validate_cptp
from linalg import basis_ket, density_from_pure, is_density_matrix
from reference import open_operator, switch_operator

from qmontyhall.analysis import (
    CASES,
    NoSignChangeError,
    case_config,
    threshold,
)
from qmontyhall.channels import (
    STATE_DIM,
    STRUCTURAL_TOL,
    apply_local_sequential,
    complete_positivity_deviation,
    gp_single,
    se_single,
    trace_preservation_deviation,
)
from qmontyhall.game import initial_state, play

LN2 = math.log(2.0)
GAMMAS_21 = np.linspace(0.0, math.pi / 2, 21)


def _report(num: int, name: str, failures: list) -> None:
    print(f"acceptance {num} ({name}): {'fail' if failures else 'pass'}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(map(str, failures))


def _case_grid(case: int):
    upper = 3.0 if CASES[case].channel_kind == "se" else 1.0
    return np.linspace(0.0, upper, 21)


def test_criterion_1_oracle_equivalence():
    failures = []
    for case in sorted(CASES):
        worst = max(
            abs(simulate_case(case, x, g) - closed_form_payoff(case, x, g))
            for x in _case_grid(case)
            for g in GAMMAS_21
        )
        if worst > 1e-9:
            failures.append(f"case {case}: max err {worst:.3e}")
    _report(1, "oracle equivalence on 21x21 grids", failures)


def test_criterion_2_classical_baseline():
    failures = []
    outcome = play(case_config(1, 0.0, 0.0))
    if abs(outcome.p_switch - 2.0 / 3.0) > 1e-12:
        failures.append(f"p_switch {outcome.p_switch!r}")
    if abs(outcome.p_not_switch - 1.0 / 3.0) > 1e-12:
        failures.append(f"p_not_switch {outcome.p_not_switch!r}")
    from fractions import Fraction

    if classical_reference(True) != Fraction(2, 3):
        failures.append("classical switch payoff not exactly 2/3")
    if classical_reference(False) != Fraction(1, 3):
        failures.append("classical stay payoff not exactly 1/3")
    if abs(outcome.p_switch - float(classical_reference(True))) > 1e-12:
        failures.append("simulation disagrees with enumeration")
    _report(2, "classical 2/3 vs 1/3 baseline", failures)


def test_criterion_3_named_extremal_values():
    failures = []

    def expect(label, got, want, tol=1e-9):
        if abs(got - want) > tol:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    expect("case 4 peak", simulate_case(4, LN2, 0.0), 7.0 / 12.0)
    expect("case 4 floor", simulate_case(4, LN2, math.pi / 2), 5.0 / 12.0)
    case4_surface = [
        simulate_case(4, x, g) for x in _case_grid(4) for g in GAMMAS_21
    ]
    if max(case4_surface) > 7.0 / 12.0 + 1e-9:
        failures.append("case 4 grid exceeds its stated maximum")
    if min(case4_surface) < 5.0 / 12.0 - 1e-9:
        failures.append("case 4 grid undercuts its stated minimum")

    p_star = 1.0 - math.sqrt(2.0 / 3.0)
    expect("case 7 peak", simulate_case(7, p_star, 0.0),
           (9.0 + 2.0 * math.sqrt(6.0)) / 27.0)
    case7_surface = [
        simulate_case(7, x, g) for x in _case_grid(7) for g in GAMMAS_21
    ]
    if max(case7_surface) > (9.0 + 2.0 * math.sqrt(6.0)) / 27.0 + 1e-9:
        failures.append("case 7 grid exceeds its stated maximum")

    expect("case 5 peak", simulate_case(5, 0.0, 0.0), 2.0 / 3.0)

    for case in (5, 6, 7):
        for g in np.linspace(0.0, math.pi / 2, 5):
            expect(f"case {case} at p=1, gamma={g:.3f}",
                   simulate_case(case, 1.0, g), 1.0 / 3.0)
    _report(3, "named extremal payoffs", failures)


def test_criterion_4_thresholds():
    failures = []
    t_star = threshold(1, 0.01, 3.0)
    if abs(t_star - LN2) > 1e-8:
        failures.append(f"case 1 crossover {t_star!r} != ln 2")
    p_star = threshold(6, 0.01, 0.99)
    if abs(p_star - (3.0 - math.sqrt(3.0)) / 2.0) > 1e-8:
        failures.append(f"case 6 crossover {p_star!r} != (3 - sqrt 3)/2")
    for case in (5, 7):
        try:
            threshold(case, 0.01, 0.99)
            failures.append(f"case {case} unexpectedly reported a crossover")
        except NoSignChangeError:
            pass
    _report(4, "strategy crossover thresholds", failures)


def test_criterion_5_asymptotics():
    failures = []
    for g in np.linspace(0.0, math.pi / 2, 11):
        want = math.sin(g) ** 2
        for case in (1, 3):
            got = simulate_case(case, 40.0, g)
            if abs(got - want) > 1e-9:
                failures.append(f"case {case} at gamma={g:.3f}: {got!r}")

    ground = density_from_pure(basis_ket(0, 0, 0))
    late_emission = extend_three(se_kraus(40.0))
    full_noise = extend_three(gp_kraus(1.0))
    for which in ("psi1", "psi2"):
        rho = density_from_pure(initial_state(which))
        for label, late, mixed in (
            ("Kraus lift", apply(late_emission, rho), apply(full_noise, rho)),
            ("superoperator", apply_local_sequential(se_single(40.0), rho),
             apply_local_sequential(gp_single(1.0), rho)),
        ):
            dev_ground = float(np.abs(late - ground).max())
            if dev_ground > 1e-9:
                failures.append(f"{which} not in the ground state at t=40 by the {label} "
                                f"({dev_ground:.3e})")
            dev_mixed = float(np.abs(mixed - np.eye(STATE_DIM) / 27).max())
            if dev_mixed > 1e-10:
                failures.append(f"{which} not maximally mixed at p=1 by the {label} "
                                f"({dev_mixed:.3e})")
    _report(5, "large-noise asymptotics", failures)


def test_criterion_6_structural_properties():
    failures = []
    rng = np.random.default_rng(20260810)

    for name, op in (("open", open_operator()), ("switch", switch_operator())):
        real = op.real
        if not (np.array_equal(op, real) and np.isin(real, (0.0, 1.0)).all()
                and (real.sum(axis=0) == 1.0).all() and (real.sum(axis=1) == 1.0).all()):
            failures.append(f"{name} operator is not an exact permutation")
    if not np.array_equal(switch_operator() @ switch_operator(), np.eye(STATE_DIM)):
        failures.append("switch operator squared is not exactly the identity")

    channels = [(f"SE(t={t:g})", se_single(float(t)), se_kraus(float(t)))
                for t in np.linspace(0.0, 5.0, 11)]
    channels += [(f"GP(p={p:g})", gp_single(float(p)), gp_kraus(float(p)))
                 for p in np.linspace(0.0, 1.0, 11)]
    for label, s, kraus in channels:
        if not validate_cptp(kraus).passed:
            failures.append(f"{label}: Kraus list fails completeness")
        if not trace_preservation_deviation(s) <= STRUCTURAL_TOL:
            failures.append(f"{label}: superoperator is not trace preserving")
        if not complete_positivity_deviation(s) <= STRUCTURAL_TOL:
            failures.append(f"{label}: superoperator is not completely positive")

    for single, kraus in ((se_single(0.7), se_kraus(0.7)), (gp_single(0.35), gp_kraus(0.35))):
        extended = extend_three(kraus)
        for _ in range(10):
            rho = random_density(rng, STATE_DIM)
            fast = apply_local_sequential(single, rho)
            slow = apply(extended, rho)
            dev = float(np.abs(fast - slow).max())
            if dev > 1e-10:
                failures.append(f"{kraus.label}: local vs extended dev {dev:.3e}")
            if not is_density_matrix(fast):
                failures.append(f"{kraus.label}: output violates density invariants")

    for _ in range(50):
        cfg = random_config(rng)
        mixed = (
            math.cos(cfg.gamma) ** 2 * play(with_gamma(cfg, 0.0)).payoff
            + math.sin(cfg.gamma) ** 2 * play(with_gamma(cfg, math.pi / 2)).payoff
        )
        dev = abs(play(cfg).payoff - mixed)
        if dev > 1e-12:
            failures.append(f"mixing identity off by {dev:.3e}")
    _report(6, "structural property suite", failures)


def test_criterion_7_strategy_degeneracies():
    failures = []
    worst2 = max(
        abs(play(with_bob(case_config(2, x, g), "m1")).payoff
            - play(with_bob(case_config(2, x, g), "m2")).payoff)
        for x in _case_grid(2)
        for g in GAMMAS_21
    )
    if worst2 > 1e-12:
        failures.append(f"case 2: m1 vs m2 differ by {worst2:.3e}")

    worst5 = 0.0
    for x in _case_grid(5):
        for g in GAMMAS_21:
            values = [play(with_bob(case_config(5, x, g), bob)).payoff
                      for bob in ("id", "m1", "m2")]
            worst5 = max(worst5, max(values) - min(values))
    if worst5 > 1e-12:
        failures.append(f"case 5: id/m1/m2 spread {worst5:.3e}")
    _report(7, "interchangeable shuffling strategies", failures)


def test_criterion_8_cli_determinism():
    failures = []
    sweep = child_command("-m", "qmontyhall", "sweep", "--case", "1",
                          "--noise-range", "0:3:0.25", "--gamma-range", "0:1.5:0.25")
    first = subprocess.run(capture_output=True, **sweep)
    second = subprocess.run(capture_output=True, **sweep)
    if first.returncode != 0 or second.returncode != 0:
        failures.append("sweep did not exit 0")
    if first.stdout != second.stdout:
        failures.append("repeated sweep output is not byte-identical")

    verify = subprocess.run(capture_output=True, text=True,
                            **child_command("-m", "qmontyhall", "verify", "--case", "all"))
    if verify.returncode != 0:
        failures.append(f"verify --case all exited {verify.returncode}")
    if sum(line.endswith(" pass") for line in verify.stdout.splitlines()) != 7:
        failures.append("verify did not report 7 passing cases")
    _report(8, "CLI determinism and verification", failures)
