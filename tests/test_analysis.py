import dataclasses
import itertools
import math
from array import array
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    classical_reference,
    closed_form_payoff,
    gamma_coefficients,
    haar_unitary,
    random_state,
    simulate_case,
    with_bob,
)
from scipy.optimize import bisect

from qmontyhall import analysis, cli
from qmontyhall.analysis import (
    CASES,
    CaseSpec,
    NoSignChangeError,
    SweepTable,
    case_config,
    default_gamma_grid,
    default_noise_grid,
    optimal_gamma,
    sweep,
    threshold,
    verify_case,
)
from qmontyhall.channels import STATE_DIM, NoiseSpec
from qmontyhall.game import GameConfig, StrategyUnitary, branch_probabilities, play

LN2 = math.log(2.0)


def per_play_c1(case, noise):
    """c1 of the case from one full round, independent of `threshold`'s
    compiled path."""
    return play(case_config(case, noise, 0.0)).mixing_coefficient


class TestClosedForm:
    @pytest.mark.parametrize(
        "case,noise,gamma,expected",
        [
            (1, 0.0, 0.0, 2.0 / 3.0),
            (4, LN2, 0.0, 7.0 / 12.0),
            (5, 1.0, 0.3, 1.0 / 3.0),
            (5, 1.0, 1.4, 1.0 / 3.0),
            (7, 1.0 - math.sqrt(2.0 / 3.0), 0.0, (9.0 + 2.0 * math.sqrt(6.0)) / 27.0),
        ],
    )
    def test_reference_points(self, case, noise, gamma, expected):
        assert closed_form_payoff(case, noise, gamma) == pytest.approx(
            expected, abs=1e-12
        )

    def test_case_domain(self):
        with pytest.raises(ValueError, match="out of range"):
            closed_form_payoff(0, 0.0, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            closed_form_payoff(8, 0.0, 0.0)

    def test_noise_domain(self):
        with pytest.raises(ValueError, match="time"):
            closed_form_payoff(1, -0.5, 0.0)
        with pytest.raises(ValueError, match="probability"):
            closed_form_payoff(6, 1.5, 0.0)

    def test_gamma_domain(self):
        with pytest.raises(ValueError, match="gamma"):
            closed_form_payoff(1, 0.0, 2.0)


class TestSimulateCase:
    def test_correlated_stay(self):
        assert simulate_case(3, 0.0, math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_shuffled_choice_baseline(self):
        assert simulate_case(2, 0.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_closed_form_on_coarse_grid(self, case):
        noise_values = default_noise_grid(case)[::5]
        for x in noise_values:
            for g in np.linspace(0.0, math.pi / 2, 5):
                assert simulate_case(case, x, g) == pytest.approx(
                    closed_form_payoff(case, x, g), abs=1e-9
                )


class TestClassicalReference:
    def test_exact_values(self):
        assert classical_reference(True) == Fraction(2, 3)
        assert classical_reference(False) == Fraction(1, 3)
        assert classical_reference(True) + classical_reference(False) == 1

    def test_matches_noiseless_simulation(self):
        assert simulate_case(1, 0.0, 0.0) == pytest.approx(
            float(classical_reference(True)), abs=1e-12
        )
        assert simulate_case(1, 0.0, math.pi / 2) == pytest.approx(
            float(classical_reference(False)), abs=1e-12
        )

    def test_every_pair_of_permutation_moves(self):
        # a classical move only relabels boxes, which leaves the uniform
        # psi1 and so the classical payoffs unchanged
        moves = [StrategyUnitary(np.eye(3)[list(p)], name="perm")
                 for p in itertools.permutations(range(3))]
        expected = (float(classical_reference(True)), float(classical_reference(False)))
        for alice, bob in itertools.product(moves, moves):
            cfg = GameConfig("psi1", alice, bob, NoiseSpec("none"), 0.0)
            np.testing.assert_allclose(branch_probabilities(cfg)(0.0), expected,
                                       rtol=0, atol=1e-12)


class TestGammaCoefficients:
    def test_uncorrelated_noiseless(self):
        c0, c1 = gamma_coefficients(lambda g: simulate_case(5, 0.0, g))
        assert c0 == pytest.approx(0.5, abs=1e-12)
        assert c1 == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_counter_strategy_asymptote(self):
        c0, c1 = gamma_coefficients(lambda g: simulate_case(4, 40.0, g))
        assert c0 == pytest.approx(0.5, abs=1e-9)
        assert c1 == pytest.approx(0.0, abs=1e-9)

    def test_fully_depolarized(self):
        c0, c1 = gamma_coefficients(lambda g: simulate_case(6, 1.0, g))
        assert c0 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_rejects_other_families(self):
        with pytest.raises(ValueError, match="not of the form"):
            gamma_coefficients(math.sin)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_payoff_lies_in_cosine_family(self, case, rng):
        noise = float(rng.uniform(0.0, 3.0 if CASES[case].channel_kind == "se" else 1.0))
        c0, c1 = gamma_coefficients(lambda g: simulate_case(case, noise, g))
        for g in rng.uniform(0.0, math.pi / 2, size=10):
            predicted = c0 + c1 * math.cos(2.0 * g)
            assert simulate_case(case, noise, float(g)) == pytest.approx(
                predicted, abs=1e-10
            )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_single_play_coefficient_matches_fit(self, case, rng):
        # c1 = (p_switch - p_not_switch) / 2 from one round equals the
        # coefficient fitted from three rounds at different gamma
        for noise in rng.uniform(0.0, 3.0 if CASES[case].channel_kind == "se" else 1.0, 3):
            fitted = gamma_coefficients(lambda g: simulate_case(case, float(noise), g))[1]
            assert per_play_c1(case, float(noise)) == pytest.approx(fitted, abs=1e-12)


class TestOptimalGamma:
    def test_low_noise_favours_switching(self):
        c1 = per_play_c1(1, 0.2)
        assert optimal_gamma(c1) == (0.0, "switch")

    def test_high_noise_flips_to_staying(self):
        c1 = per_play_c1(1, 1.0)
        gamma_star, label = optimal_gamma(c1)
        assert (gamma_star, label) == (math.pi / 2, "not_switch")

    def test_noisy_correlated_state_switches(self):
        assert optimal_gamma(per_play_c1(6, 0.9))[1] == "switch"

    def test_indifferent(self):
        assert optimal_gamma(0.0) == (0.0, "indifferent")
        assert optimal_gamma(5e-13) == (0.0, "indifferent")


class TestThreshold:
    def test_emission_crossover(self):
        assert threshold(1, 0.1, 2.0) == pytest.approx(LN2, abs=1e-8)

    def test_depolarizing_crossover(self):
        assert threshold(6, 0.1, 0.99) == pytest.approx(
            (3.0 - math.sqrt(3.0)) / 2.0, abs=1e-8
        )

    def test_no_crossover(self):
        with pytest.raises(NoSignChangeError, match="no sign change"):
            threshold(5, 0.1, 0.9)

    # brackets with one end where both moves pay the same: GP p = 1 (every
    # strategy pays 1/3) and no noise in cases 4 and 7 (Alice's h)
    DEGENERATE_ENDS = [(5, 0.01, 1.0, 1.0), (6, 0.01, 1.0, 1.0), (7, 0.01, 1.0, 1.0),
                       (4, 0.0, 3.0, 0.0), (7, 0.0, 0.5, 0.0)]

    @pytest.mark.parametrize("nudge", [6e-17, 0.0, -6e-17])
    @pytest.mark.parametrize("case,lo,hi,end", DEGENERATE_ENDS)
    def test_indifferent_end_is_refused(self, monkeypatch, case, lo, hi, end, nudge):
        # the outcome may not hang on the last bit of c1 at the degenerate
        # end, so c1 there is moved by about one rounding error either way
        assert optimal_gamma(per_play_c1(case, end))[1] == "indifferent"
        original = analysis.branch_probabilities
        c1_at_end = []

        def nudged(cfg):
            probabilities = original(cfg)

            def shifted(x):
                p_switch, p_not_switch = probabilities(x)
                if x == end:
                    c1_at_end.append((p_switch - p_not_switch) / 2)
                    p_switch += 2 * nudge
                    c1_at_end.append((p_switch - p_not_switch) / 2)
                return p_switch, p_not_switch
            return shifted

        monkeypatch.setattr(analysis, "branch_probabilities", nudged)
        with pytest.raises(ValueError, match="both moves pay the same at bracket end "
                                             f"(lo|hi)={end}") as info:
            threshold(case, lo, hi)
        assert not isinstance(info.value, NoSignChangeError)
        # the nudge moved c1 its own way, by no more than a rounding error
        before, after = c1_at_end
        assert np.sign(after - before) == np.sign(nudge)
        assert abs(after - before) < 1e-16

    @pytest.mark.parametrize("lo,hi", [(3.0, 0.01), (0.5, 0.5), (math.nan, 1.0)])
    def test_empty_or_reversed_bracket(self, lo, hi):
        with pytest.raises(ValueError, match="empty or runs backwards") as info:
            threshold(1, lo, hi)
        assert not isinstance(info.value, NoSignChangeError)

    @pytest.mark.parametrize("case,lo,hi", [
        (1, 0.01, 3.0), (1, 0.1, 2.0), (1, 0.5, 0.9), (1, 0.01, 1e40),
        (6, 0.01, 0.99), (6, 0.1, 0.99), (6, 0.6, 0.7),
    ])
    def test_same_float_as_scipy_bisect(self, case, lo, hi):
        f = lambda x: per_play_c1(case, x)
        expected = bisect(f, lo, hi, xtol=1e-10, maxiter=1100)
        assert threshold(case, lo, hi) == expected

    def test_compiles_once(self, monkeypatch):
        # counted through both bindings, so a per-step `play` would show too
        import qmontyhall.game as game

        compiles = []
        original = game.branch_probabilities

        def counted(cfg):
            compiles.append(cfg)
            return original(cfg)

        monkeypatch.setattr(game, "branch_probabilities", counted)
        monkeypatch.setattr(analysis, "branch_probabilities", counted)
        per_call = []
        for case, lo, hi in [(1, 0.01, 3.0), (6, 0.01, 0.99)]:
            compiles.clear()
            threshold(case, lo, hi)
            per_call.append(len(compiles))
        assert per_call == [1, 1]


@pytest.mark.parametrize("run", [lambda: threshold(6, 0.01, 0.99), lambda: verify_case(1)])
def test_one_noise_spec_per_call(monkeypatch, run):
    # the compiled configuration takes plain noise values, so only its own NoiseSpec is built
    built = []
    original = NoiseSpec.__post_init__

    def counted(spec):
        built.append(spec)
        original(spec)

    monkeypatch.setattr(NoiseSpec, "__post_init__", counted)
    run()
    assert len(built) == 1


class TestSweep:
    def test_small_grid(self):
        table = sweep(1, [0.0, LN2, 2.0], [0.0, math.pi / 4, math.pi / 2])
        assert len(table.rows) == 9
        noise, gamma, payoff = list(table.rows)[0]
        assert (noise, gamma) == (0.0, 0.0)
        assert payoff == pytest.approx(2.0 / 3.0, abs=1e-12)
        # noise-major order
        assert [r[0] for r in table.rows] == [0.0] * 3 + [LN2] * 3 + [2.0] * 3

    def test_depolarizing_extremes(self):
        table = sweep(6, np.linspace(0.0, 1.0, 11), np.linspace(0.0, math.pi / 2, 11))
        payoffs = np.array([r[2] for r in table.rows])
        assert payoffs.max() == pytest.approx(1.0, abs=1e-9)
        best = list(table.rows)[int(payoffs.argmax())]
        assert (best[0], best[1]) == (0.0, math.pi / 2)
        final = [r[2] for r in table.rows if r[0] == 1.0]
        np.testing.assert_allclose(final, 1.0 / 3.0, atol=1e-9)

    def test_counter_strategy_floor(self):
        table = sweep(7, [1.0], np.linspace(0.0, math.pi / 2, 7))
        np.testing.assert_allclose([r[2] for r in table.rows], 1.0 / 3.0, atol=1e-9)

    def test_single_point(self):
        table = sweep(3, [0.5], [0.25])
        assert len(table.rows) == 1

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep(1, [1.0, 0.5], [0.0])
        with pytest.raises(ValueError, match="empty"):
            sweep(1, [], [0.0])

    def test_callable_target(self):
        table = sweep(lambda x, g: 0.5, [0.0, 1.0], [0.0])
        assert all(r[2] == 0.5 for r in table.rows)

    def test_compiles_once(self, monkeypatch, capsys):
        # counted through both bindings, so a per-point `play` would show too
        import qmontyhall.game as game

        compiles = []
        original = game.branch_probabilities

        def counted(cfg):
            compiles.append(cfg)
            return original(cfg)

        monkeypatch.setattr(game, "branch_probabilities", counted)
        monkeypatch.setattr(analysis, "branch_probabilities", counted)
        grid = ["--noise-range", "0:1:0.25", "--gamma-range", "0:1.5:0.5"]
        runs = [lambda: sweep(6, np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.5, 4)),
                lambda: cli.main(["sweep", "--case", "6", *grid]),
                lambda: cli.main(["sweep", "--state", "psi2", "--channel", "gp", *grid])]
        per_run = []
        for run in runs:
            compiles.clear()
            run()
            per_run.append(len(compiles))
        assert per_run == [1, 1, 1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_bit_identical_to_play(self, case):
        noise = default_noise_grid(case)[::4]
        gamma = np.linspace(0.0, math.pi / 2, 7)
        expected = tuple((float(x), float(g), simulate_case(case, x, g))
                         for x in noise for g in gamma)
        rows = tuple(sweep(case, noise, gamma).rows)
        assert rows == expected
        assert repr(rows) == repr(expected)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["se", "gp"])
    def test_haar_rows_bit_identical_to_play(self, seed, kind):
        rng = np.random.default_rng(seed)
        cfg = GameConfig(random_state(rng, STATE_DIM),
                         StrategyUnitary(haar_unitary(rng, 3), name="a"),
                         StrategyUnitary(haar_unitary(rng, 3), name="b"),
                         NoiseSpec.of(kind, 0.0, 0.7, 1.9), 0.0)
        noise = np.linspace(0.0, 3.0 if kind == "se" else 1.0, 5)
        gamma = np.linspace(0.0, math.pi / 2, 6)
        expected = tuple(
            (float(x), float(g), play(dataclasses.replace(
                cfg, noise=NoiseSpec.of(kind, x, 0.7, 1.9), gamma=g)).payoff)
            for x in noise for g in gamma)
        assert repr(tuple(sweep(cfg, noise, gamma).rows)) == repr(expected)

    def test_rows_contract(self):
        noise, gamma = (0.0, 0.5, 1.0), (0.0, 0.25)
        table = sweep(5, noise, gamma)
        rows = table.rows
        assert len(rows) == len(tuple(rows)) == 6
        assert [r[:2] for r in rows] == [(x, g) for x in noise for g in gamma]
        assert all(type(value) is float for row in rows for value in row)
        # a caller's tuple of floats is kept, not copied
        assert table.noise_values is noise and table.gamma_values is gamma

    def test_table_is_its_rows(self):
        table = sweep(5, (0.0, 0.5, 1.0), (0.0, 0.25))
        assert table.rows is table
        assert not hasattr(table, "__dict__")
        # equal contents do not make equal tables: a table is a record, not a value
        assert table != sweep(5, (0.0, 0.5, 1.0), (0.0, 0.25))
        for field in dataclasses.fields(table):
            with pytest.raises(AttributeError):
                setattr(table, field.name, getattr(table, field.name))

    def test_repr_shows_every_payoff_bit(self):
        # a traced benchmark run compares results by repr, so one ulp must show
        table = sweep(6, (0.0, 0.5), (0.0, 0.25))
        payoffs = array("d", table.payoffs)
        payoffs[-1] = math.nextafter(payoffs[-1], 0.0)
        nudged = SweepTable(table.noise_values, table.gamma_values, payoffs)
        assert repr(nudged) != repr(table)
        assert repr(SweepTable(table.noise_values, table.gamma_values,
                               array("d", table.payoffs))) == repr(table)

    def test_table_memory_per_point(self):
        import tracemalloc

        noise = np.linspace(0.0, 1.0, 101)
        gamma = np.linspace(0.0, math.pi / 2, 101)
        sweep(6, noise, gamma)  # warm-up, so only the table is counted
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = sweep(6, noise, gamma)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(table.rows) == 101 * 101
        assert held <= 16 * 101 * 101

    @pytest.mark.parametrize("long_axis", ["noise", "gamma"])
    def test_long_axis_peak_per_value(self, long_axis):
        # a long axis costs arrays only: no NoiseSpec, tuple or float per value
        import tracemalloc

        def peak(n):
            axis = tuple(i / n for i in range(n))
            grid = (axis, (0.0,)) if long_axis == "noise" else ((0.5,), axis)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                sweep(6, *grid)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        sweep(6, (0.0, 0.5), (0.0, 0.5))  # warm-up
        assert (peak(3000) - peak(1000)) / 2000 <= 32

    @pytest.mark.parametrize("noise,gamma,match", [
        ([0.0, 0.5, 1.5], [0.0, 0.5], "error probability"),
        ([0.0, 0.5], [0.0, 2.0], "gamma"),
        ([0.0, math.nan], [0.0], "error probability"),
    ])
    def test_domain_checked_before_evaluation(self, monkeypatch, noise, gamma, match):
        import qmontyhall.game as game

        def unexpected(cfg):
            raise AssertionError("evaluated before the grid was checked")

        monkeypatch.setattr(game, "branch_probabilities", unexpected)
        monkeypatch.setattr(analysis, "branch_probabilities", unexpected)
        with pytest.raises(ValueError, match=match):
            sweep(6, noise, gamma)

    def test_configuration_needs_a_noise_family(self):
        cfg = dataclasses.replace(case_config(1, 0.0, 0.0), noise=NoiseSpec("none"))
        with pytest.raises(ValueError, match="noise axis"):
            sweep(cfg, [0.0], [0.0])

    def test_payoff_outside_unit_interval(self):
        for bad in (1.5, math.nan):
            with pytest.raises(ValueError, match="outside"):
                sweep(lambda x, g: bad, [0.0], [0.0])


class TestVerifyCase:
    @pytest.mark.parametrize("case", [1, 6])
    def test_passes_on_default_grid(self, case):
        report = verify_case(case)
        assert report.passed
        assert report.max_abs_error <= 1e-9
        assert report.points == 441

    def test_one_noise_build_per_noise_value(self, monkeypatch):
        import qmontyhall.channels as channels

        builds = []
        original = channels.se_single

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(channels, "se_single", counted)
        report = verify_case(1)
        assert report.passed and report.points == 441
        assert len(builds) == 21

    @pytest.mark.parametrize("noise,gamma,match", [
        ([0.0, 1.5], [0.0], "error probability"),
        ([0.0], [0.0, 2.0], "gamma"),
    ])
    def test_domain_checked(self, noise, gamma, match):
        with pytest.raises(ValueError, match=match):
            verify_case(5, noise, gamma)

    @pytest.mark.parametrize("noise,gamma,match", [
        ([], [], "empty noise grid"),
        ([0.5], [], "empty gamma grid"),
        ([1.0, 0.5], [0.0], "noise grid must be strictly ascending"),
    ])
    def test_refuses_empty_or_descending_axis(self, noise, gamma, match):
        with pytest.raises(ValueError, match=match):
            verify_case(1, noise, gamma)

    def test_nan_simulation_fails(self, monkeypatch, capsys):
        # the table's range check refuses it, where a running max would skip it;
        # no parameter is out of its domain, so verify fails rather than exit 4
        monkeypatch.setattr(analysis, "branch_probabilities",
                            lambda cfg: lambda noise: (math.nan, math.nan))
        with pytest.raises(analysis.PayoffRangeError, match=r"payoff nan outside \[0, 1\]"):
            sweep(6, [0.5], [0.0])
        report = verify_case(6)
        assert not report.passed
        assert report.max_abs_error == math.inf
        assert report.points == 441
        assert cli.main(["verify", "--case", "6"]) == cli.EXIT_FAIL
        assert capsys.readouterr().out == "case 6: max_err=inf fail\n"

    def test_nan_closed_form_fails(self, monkeypatch, capsys):
        formula = analysis._CASE_FORMULAS[6]
        monkeypatch.setitem(analysis._CASE_FORMULAS, 6,
                            lambda p, g: math.nan if p == 0.5 else formula(p, g))
        report = verify_case(6)
        assert not report.passed
        assert report.max_abs_error == math.inf
        assert cli.main(["verify", "--case", "6"]) == cli.EXIT_FAIL
        assert capsys.readouterr().out == "case 6: max_err=inf fail\n"

    def test_grid_peak_per_point(self):
        # the comparison reads sweep's table and keeps no Python float per point
        import tracemalloc

        def peak(n):
            axis = tuple(i / n for i in range(n))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                verify_case(6, axis, axis)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        verify_case(6, (0.0, 0.5), (0.0, 0.5))  # warm-up
        assert (peak(300) - peak(100)) / (300**2 - 100**2) <= 24

    def test_negative_control(self, monkeypatch):
        # Case 3 with the wrong Bob move must not reproduce its closed form
        monkeypatch.setitem(analysis.CASES, 3, CaseSpec("psi2", "id", "m1", "se"))
        report = verify_case(3)
        assert not report.passed
        assert report.max_abs_error > 0.01


class TestDegeneracies:
    def test_shuffles_are_equivalent_under_emission(self):
        for x in np.linspace(0.0, 3.0, 7):
            for g in np.linspace(0.0, math.pi / 2, 5):
                values = [play(with_bob(case_config(2, x, g), bob)).payoff
                          for bob in ("m1", "m2")]
                assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_choice_shuffles_are_invisible_to_depolarizing(self):
        for x in np.linspace(0.0, 1.0, 5):
            for g in np.linspace(0.0, math.pi / 2, 5):
                values = [play(with_bob(case_config(5, x, g), bob)).payoff
                          for bob in ("id", "m1", "m2")]
                assert max(values) - min(values) <= 1e-12


class TestAsymptotics:
    def test_emission_cases_converge_to_same_limit(self):
        for g in np.linspace(0.0, math.pi / 2, 11):
            expected = math.sin(g) ** 2
            assert simulate_case(1, 40.0, g) == pytest.approx(expected, abs=1e-9)
            assert simulate_case(3, 40.0, g) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("case", [5, 6, 7])
    def test_full_depolarizing_flattens_payoff(self, case):
        for g in np.linspace(0.0, math.pi / 2, 5):
            assert simulate_case(case, 1.0, g) == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestDefaultGrids:
    def test_noise_grids(self):
        assert default_noise_grid(1)[-1] == 3.0
        assert default_noise_grid(7)[-1] == 1.0
        assert len(default_noise_grid(1)) == 21

    def test_gamma_grid(self):
        grid = default_gamma_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi / 2)
