import dataclasses
import math

import numpy as np
import pytest
import reference
from conftest import haar_unitary, random_config, random_state, with_gamma
from hypothesis import given, settings
from hypothesis import strategies as st
from kraus import SHIFT
from linalg import basis_ket, trace
from reference import evolve, open_operator, switch_operator, win_projector

from qmontyhall.analysis import case_config
from qmontyhall.channels import STATE_DIM, NoiseSpec
from qmontyhall.game import (
    WIN_STAY,
    WIN_SWITCH,
    GameConfig,
    StrategyUnitary,
    branch_probabilities,
    builtin_strategy,
    initial_state,
    play,
)


def _identity_config(initial, gamma=0.0, noise=None):
    return GameConfig(
        initial=initial,
        alice=builtin_strategy("id"),
        bob=builtin_strategy("id"),
        noise=noise or NoiseSpec("none"),
        gamma=gamma,
    )


def _haar_config(rng) -> GameConfig:
    """Random 27-dim state and Haar moves, no noise, random gamma."""
    return GameConfig(
        initial=random_state(rng, STATE_DIM),
        alice=StrategyUnitary(haar_unitary(rng, 3), name="haar-a"),
        bob=StrategyUnitary(haar_unitary(rng, 3), name="haar-b"),
        noise=NoiseSpec("none"),
        gamma=float(rng.uniform(0.0, math.pi / 2)),
    )


def _value(noise: NoiseSpec) -> float:
    """The noise value a compiled configuration takes: t for "se", p otherwise."""
    return noise.t if noise.kind == "se" else noise.p


def _is_permutation(m: np.ndarray) -> bool:
    real = m.real
    if not (np.array_equal(m, real) and np.isin(real, (0.0, 1.0)).all()):
        return False
    return (real.sum(axis=0) == 1.0).all() and (real.sum(axis=1) == 1.0).all()


class TestOpenOperator:
    @pytest.mark.parametrize(
        "start,expected",
        [
            ((0, 1, 2), (0, 1, 2)),  # box 0 is neither chosen nor prized
            ((0, 0, 1), (2, 0, 1)),  # host avoids Bob's 0 and the prize 1
            ((0, 2, 2), (0, 2, 2)),  # b == a: opened register cycles to 0
        ],
    )
    def test_basis_action(self, start, expected):
        out = open_operator() @ basis_ket(*start)
        np.testing.assert_array_equal(out, basis_ket(*expected))

    def test_is_permutation(self):
        assert _is_permutation(open_operator())

    def test_opened_box_avoids_prize(self):
        # games start with the opened register at 0; from there the revealed
        # box never equals the prize, nor Bob's choice when that differs
        o_op = open_operator()
        for b in range(3):
            for a in range(3):
                column = o_op @ basis_ket(0, b, a)
                index = int(np.argmax(np.abs(column)))
                o2, b2, a2 = index // 9, (index // 3) % 3, index % 3
                assert (b2, a2) == (b, a)
                assert o2 != a
                if b != a:
                    assert o2 != b


class TestSwitchOperator:
    @pytest.mark.parametrize(
        "start,expected",
        [
            ((0, 1, 2), (0, 2, 2)),  # switch from 1 to the closed box 2
            ((1, 1, 0), (1, 1, 0)),  # o == b: nothing to switch away from
        ],
    )
    def test_basis_action(self, start, expected):
        out = switch_operator() @ basis_ket(*start)
        np.testing.assert_array_equal(out, basis_ket(*expected))

    def test_is_permutation_and_involution(self):
        s = switch_operator()
        assert _is_permutation(s)
        np.testing.assert_array_equal(s @ s, np.eye(STATE_DIM))

    def test_new_choice_avoids_open_box(self):
        s = switch_operator()
        for o in range(3):
            for b in range(3):
                for a in range(3):
                    column = s @ basis_ket(o, b, a)
                    index = int(np.argmax(np.abs(column)))
                    o2, b2, a2 = index // 9, (index // 3) % 3, index % 3
                    assert (o2, a2) == (o, a)
                    if o == b:
                        assert b2 == b
                    else:
                        assert b2 not in (o, b)


class TestInitialStates:
    def test_separable(self):
        v = initial_state("psi1")
        np.testing.assert_allclose(v[:9], np.full(9, 1.0 / 3.0), atol=1e-15)
        np.testing.assert_array_equal(v[9:], np.zeros(18))

    def test_correlated(self):
        v = initial_state("psi2")
        expected = np.zeros(STATE_DIM, dtype=complex)
        expected[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_normalised(self):
        for which in ("psi1", "psi2"):
            assert np.linalg.norm(initial_state(which)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown initial state"):
            initial_state("psi3")
        with pytest.raises(ValueError, match="unknown initial state"):
            _identity_config("psi3")

    @pytest.mark.parametrize("name", ["psi1", "psi2"])
    def test_config_holds_the_named_vector(self, name):
        cfg = _identity_config(name)
        assert cfg.initial.dtype == complex and cfg.initial.shape == (STATE_DIM,)
        np.testing.assert_array_equal(cfg.initial, initial_state(name))
        assert dataclasses.replace(cfg, gamma=0.5).initial is cfg.initial


class TestStrategies:
    def test_m1_shuffles_choices(self):
        m1 = builtin_strategy("m1").matrix
        np.testing.assert_array_equal(m1 @ np.array([1, 0, 0]), np.array([0, 0, 1]))

    def test_counter_strategy_first_row(self):
        h = builtin_strategy("h").matrix
        np.testing.assert_allclose(h[0], [1 / math.sqrt(2), 0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("name", ["id", "identity", "m1", "m2", "h"])
    def test_all_unitary(self, name):
        # construction itself enforces unitarity at 1e-9
        builtin_strategy(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            builtin_strategy("m3")

    def test_non_unitary_rejected(self):
        bad = np.eye(3, dtype=complex)
        bad[0] *= 2.0
        with pytest.raises(ValueError, match="not unitary"):
            StrategyUnitary(bad, name="scaled")


class TestWinProjector:
    def test_diagonal_pattern(self):
        p = win_projector()
        for o in range(3):
            for b in range(3):
                for a in range(3):
                    index = 9 * o + 3 * b + a
                    assert p[index, index] == (1.0 if b == a else 0.0)

    def test_trace_and_idempotence(self):
        p = win_projector()
        assert trace(p) == 9
        np.testing.assert_array_equal(p @ p, p)


class TestWinIndicators:
    """The production rules are the diagonals of the oracle's G† W G."""

    @pytest.mark.parametrize("indicator,final_move", [
        (WIN_SWITCH, switch_operator),
        (WIN_STAY, lambda: np.eye(STATE_DIM)),
    ])
    def test_equal_the_oracle_effect_diagonal(self, indicator, final_move):
        g = final_move() @ open_operator()
        effect = g.conj().T @ win_projector() @ g
        np.testing.assert_array_equal(np.diag(effect), indicator)
        np.testing.assert_array_equal(effect - np.diag(np.diag(effect)), 0.0)

    def test_read_only(self):
        for indicator in (WIN_SWITCH, WIN_STAY):
            with pytest.raises(ValueError):
                indicator[0] = 0.0


class TestEvolve:
    def test_uncorrelated_baseline(self):
        rho_s, rho_n = evolve(_identity_config("psi1"))
        p = win_projector()
        assert trace(p @ rho_n).real == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert trace(p @ rho_s).real == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_correlated_state_wins_by_staying(self):
        _, rho_n = evolve(_identity_config("psi2"))
        assert trace(win_projector() @ rho_n).real == pytest.approx(1.0, abs=1e-12)

    def test_purity_preserved_without_noise(self):
        for which in ("psi1", "psi2"):
            rho_s, rho_n = evolve(_identity_config(which))
            assert trace(rho_s @ rho_s).real == pytest.approx(1.0, abs=1e-10)
            assert trace(rho_n @ rho_n).real == pytest.approx(1.0, abs=1e-10)


class TestBranchProbabilities:
    NOISES = (
        NoiseSpec("none"),
        NoiseSpec.spontaneous_emission(0.7, a1=0.4, a2=2.5),
        NoiseSpec.generalized_pauli(0.35),
    )

    def _check_against_reference(self, cfg):
        for noise in self.NOISES:
            noisy = dataclasses.replace(cfg, noise=noise)
            expected = reference.branch_probabilities(noisy)
            np.testing.assert_allclose(branch_probabilities(noisy)(_value(noise)), expected,
                                       rtol=0, atol=1e-12)
            outcome = play(noisy)
            np.testing.assert_allclose((outcome.p_switch, outcome.p_not_switch),
                                       expected, rtol=0, atol=1e-12)
            mixed = (math.cos(cfg.gamma) ** 2 * expected[0]
                     + math.sin(cfg.gamma) ** 2 * expected[1])
            assert outcome.payoff == pytest.approx(mixed, abs=1e-12)

    def test_matches_schrodinger_reference(self):
        rng = np.random.default_rng(20261019)
        for _ in range(8):
            self._check_against_reference(_haar_config(rng))

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_schrodinger_reference_on_drawn_seeds(self, seed):
        self._check_against_reference(_haar_config(np.random.default_rng(seed)))

    def test_binds_the_config_family_but_not_its_value_or_gamma(self):
        cfg = _haar_config(np.random.default_rng(20261020))
        for noise in self.NOISES[1:]:
            expected = reference.branch_probabilities(dataclasses.replace(cfg, noise=noise))
            # compiled at another value of the same family and coefficients, and another gamma
            other = dataclasses.replace(cfg, gamma=1.2, noise=NoiseSpec.of(
                noise.kind, 0.9, noise.a1, noise.a2))
            np.testing.assert_allclose(branch_probabilities(other)(_value(noise)), expected,
                                       rtol=0, atol=1e-12)
        # the Einstein coefficients are bound: SE(0.7) with a1 = a2 = 1 is another channel
        unit = dataclasses.replace(cfg, noise=NoiseSpec.spontaneous_emission(3.0))
        moved = np.subtract(branch_probabilities(unit)(0.7), reference.branch_probabilities(
            dataclasses.replace(cfg, noise=self.NOISES[1])))
        assert np.abs(moved).max() > 1e-3
        # the family is bound: a noiseless configuration ignores the value
        noiseless = _identity_config("psi2", noise=NoiseSpec("none"))
        assert branch_probabilities(noiseless)(1.0) == pytest.approx((0.0, 1.0), abs=1e-12)


class TestNoiseSymmetries:
    """Oracles from the symmetries of the noise, on seeded Haar configurations.

    Relabelling the boxes by the qutrit shift X maps (psi, A, B) to
    (P psi, X A X†, X B X†) with P = I (x) X (x) X.  The open, switch and win
    rules commute with relabelling every register, so the branch
    probabilities are unchanged whenever the noise commutes with X, as GP
    does; SE singles out |0> and does not.
    """

    @staticmethod
    def _configs(noise):
        rng = np.random.default_rng(20261019)
        for _ in range(8):
            yield GameConfig(
                initial=random_state(rng, STATE_DIM),
                alice=StrategyUnitary(haar_unitary(rng, 3), name="haar-a"),
                bob=StrategyUnitary(haar_unitary(rng, 3), name="haar-b"),
                noise=noise,
                gamma=0.0,
            )

    @staticmethod
    def _relabelled(cfg):
        p = np.kron(np.kron(np.eye(3), SHIFT), SHIFT)
        return dataclasses.replace(
            cfg,
            initial=p @ cfg.initial,
            alice=StrategyUnitary(SHIFT @ cfg.alice.matrix @ SHIFT.conj().T, name="x-a"),
            bob=StrategyUnitary(SHIFT @ cfg.bob.matrix @ SHIFT.conj().T, name="x-b"),
        )

    def test_full_pauli_noise_gives_one_third(self):
        for cfg in self._configs(NoiseSpec.generalized_pauli(1.0)):
            probabilities = branch_probabilities(cfg)(1.0)
            np.testing.assert_allclose(probabilities, (1 / 3, 1 / 3), rtol=0, atol=1e-12)

    def test_box_relabelling_under_pauli_noise(self):
        for cfg in self._configs(NoiseSpec.generalized_pauli(0.0)):
            original = branch_probabilities(cfg)
            relabelled = branch_probabilities(self._relabelled(cfg))
            for p in (0.0, 0.35, 1.0):
                np.testing.assert_allclose(relabelled(p), original(p), rtol=0, atol=1e-12)

    def test_box_relabelling_breaks_under_emission(self):
        # negative control: the symmetry needs noise that commutes with X
        for cfg in self._configs(NoiseSpec.spontaneous_emission(0.7)):
            original = branch_probabilities(cfg)(0.7)
            relabelled = branch_probabilities(self._relabelled(cfg))(0.7)
            assert np.abs(np.subtract(relabelled, original)).max() > 1e-3

    @staticmethod
    def _noise_after_moves(cfg, noise):
        noisy = dataclasses.replace(cfg, noise=noise)
        return [reference.win_probability(r) for r in reference.evolve_noise_after_moves(noisy)]

    def test_pauli_noise_commutes_with_the_moves(self):
        for cfg in self._configs(NoiseSpec.generalized_pauli(0.0)):
            probabilities = branch_probabilities(cfg)
            for p in (0.0, 0.35, 1.0):
                noise = NoiseSpec.generalized_pauli(p)
                np.testing.assert_allclose(probabilities(p),
                                           self._noise_after_moves(cfg, noise), rtol=0, atol=1e-12)

    def test_emission_does_not_commute_with_the_moves(self):
        # negative control: SE singles out |0>, which the moves rotate away
        noise = NoiseSpec.spontaneous_emission(0.7)
        for cfg in self._configs(noise):
            moved = np.subtract(branch_probabilities(cfg)(0.7),
                                self._noise_after_moves(cfg, noise))
            assert np.abs(moved).max() > 0.05


class TestPlay:
    def test_classical_switch_payoff(self):
        outcome = play(_identity_config("psi1", gamma=0.0))
        assert outcome.payoff == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_correlated_stay_payoff(self):
        outcome = play(_identity_config("psi2", gamma=math.pi / 2))
        assert outcome.payoff == pytest.approx(1.0, abs=1e-12)

    def test_counter_strategy_at_half_life(self):
        cfg = GameConfig(
            initial="psi2",
            alice=builtin_strategy("h"),
            bob=builtin_strategy("id"),
            noise=NoiseSpec.spontaneous_emission(math.log(2.0)),
            gamma=0.0,
        )
        assert play(cfg).payoff == pytest.approx(7.0 / 12.0, abs=1e-9)

    def test_outcome_mixing_identity(self, rng):
        for _ in range(50):
            cfg = random_config(rng)
            outcome = play(cfg)
            mixed = (
                math.cos(cfg.gamma) ** 2 * play(with_gamma(cfg, 0.0)).payoff
                + math.sin(cfg.gamma) ** 2 * play(with_gamma(cfg, math.pi / 2)).payoff
            )
            assert outcome.payoff == pytest.approx(mixed, abs=1e-12)
            blended = (
                math.cos(cfg.gamma) ** 2 * outcome.p_switch
                + math.sin(cfg.gamma) ** 2 * outcome.p_not_switch
            )
            assert outcome.payoff == pytest.approx(blended, abs=1e-12)

    def test_payoff_bounded(self, rng):
        for _ in range(20):
            outcome = play(random_config(rng))
            for value in (outcome.payoff, outcome.p_switch, outcome.p_not_switch):
                assert -1e-12 <= value <= 1.0 + 1e-12


class TestGameConfig:
    def test_gamma_domain(self):
        with pytest.raises(ValueError, match="gamma"):
            _identity_config("psi1", gamma=2.0)
        with pytest.raises(ValueError, match="gamma"):
            _identity_config("psi1", gamma=-0.1)

    def test_custom_state_checked(self, rng):
        with pytest.raises(ValueError, match="dim"):
            _identity_config(np.ones(9) / 3.0)
        with pytest.raises(ValueError, match="norm"):
            _identity_config(np.ones(STATE_DIM, dtype=complex))

    def test_custom_state_accepted(self):
        cfg = _identity_config(initial_state("psi2").copy())
        assert play(cfg).p_not_switch == pytest.approx(1.0, abs=1e-12)

    def test_equality_is_identity(self):
        # the ndarray fields have no one truth value, so values compare by identity
        cfg = case_config(1, 0.5, 0.0)
        assert (cfg == case_config(1, 0.5, 0.0)) is False
        assert (cfg == cfg) is True
        assert hash(cfg) == hash(cfg)
        move = StrategyUnitary(np.eye(3), name="id")
        assert (move == StrategyUnitary(np.eye(3), name="id")) is False
        assert (move == move) is True
        assert hash(move) == hash(move)
