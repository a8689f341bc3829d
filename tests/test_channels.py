import math

import numpy as np
import pytest
from conftest import random_density

from qmontyhall.channels import (
    CLOCK,
    SHIFT,
    KrausChannel,
    NoiseSpec,
    apply,
    apply_local_sequential,
    extend_three,
    gp_single,
    identity_channel,
    se_single,
    single_channel,
    validate_cptp,
)
from qmontyhall.game import initial_state
from qmontyhall.linalg import basis_ket, density_from_pure, is_density_matrix


class TestSpontaneousEmission:
    def test_zero_time_is_identity(self):
        ch = se_single(0.0, 1.0, 1.0)
        np.testing.assert_array_equal(ch.elements[0], np.eye(3))
        np.testing.assert_array_equal(ch.elements[1], np.zeros((3, 3)))
        np.testing.assert_array_equal(ch.elements[2], np.zeros((3, 3)))

    def test_half_life(self):
        ch = se_single(math.log(2.0))
        np.testing.assert_allclose(
            ch.elements[0], np.diag([1.0, 2**-0.5, 2**-0.5]), atol=1e-15
        )
        assert ch.elements[1][0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert ch.elements[2][0, 2] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_long_time_decays_to_ground(self):
        excited = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = apply(se_single(40.0), excited)
        ground = np.diag([1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, ground, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            se_single(-0.1)
        with pytest.raises(ValueError, match="positive"):
            se_single(1.0, a1=0.0)
        with pytest.raises(ValueError, match="positive"):
            se_single(1.0, a2=-1.0)


def _element_weight(k: np.ndarray) -> float:
    # elements are sqrt(w) * unitary, so tr(k†k) = 3w
    return float(np.trace(k.conj().T @ k).real) / 3.0


class TestGeneralizedPauli:
    def test_zero_probability(self):
        ch = gp_single(0.0)
        assert len(ch.elements) == 9
        np.testing.assert_array_equal(ch.elements[0], np.eye(3))
        for k in ch.elements[1:]:
            np.testing.assert_array_equal(k, np.zeros((3, 3)))

    def test_full_noise_weights(self):
        ch = gp_single(1.0)
        for k in ch.elements:
            assert _element_weight(k) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_full_noise_depolarizes(self, rng):
        rho = random_density(rng, 3)
        out = apply(gp_single(1.0), rho)
        np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-10)

    def test_unital(self, rng):
        for p in (0.0, 0.3, 0.7, 1.0):
            out = apply(gp_single(p), np.eye(3, dtype=complex) / 3.0)
            np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_elements_are_weighted_shift_clock_products(self, p):
        elements = gp_single(p).elements
        for i in range(3):
            for j in range(3):
                weight = 1.0 - 8.0 * p / 9.0 if (i, j) == (0, 0) else p / 9.0
                product = (np.linalg.matrix_power(SHIFT, i)
                           @ np.linalg.matrix_power(CLOCK, j))
                np.testing.assert_array_equal(elements[3 * i + j],
                                              math.sqrt(weight) * product)

    def test_domain_errors(self):
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError, match="outside"):
                gp_single(p)


class TestExtendThree:
    def test_identity(self):
        ext = extend_three(identity_channel())
        assert len(ext.elements) == 1
        np.testing.assert_array_equal(ext.elements[0], np.eye(27))

    def test_element_counts(self):
        assert len(extend_three(se_single(0.7)).elements) == 27
        assert len(extend_three(gp_single(0.4)).elements) == 729

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="single-qutrit"):
            extend_three(identity_channel(dim=27))


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 27)
        np.testing.assert_array_equal(apply(identity_channel(dim=27), rho), rho)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dim"):
            apply(se_single(1.0), random_density(rng, 27))

    def test_full_depolarizing_extension(self, rng):
        rho = random_density(rng, 27)
        out = apply(extend_three(gp_single(1.0)), rho)
        np.testing.assert_allclose(out, np.eye(27) / 27.0, atol=1e-10)

    def test_long_time_reaches_ground_state(self):
        rho = density_from_pure(initial_state("psi2"))
        out = apply(extend_three(se_single(40.0)), rho)
        np.testing.assert_allclose(
            out, density_from_pure(basis_ket(0, 0, 0)), atol=1e-9
        )


class TestLocalSequential:
    def test_identity(self, rng):
        rho = random_density(rng, 27)
        np.testing.assert_allclose(
            apply_local_sequential(identity_channel(), rho), rho, atol=1e-15
        )

    def test_full_depolarizing(self):
        rho = density_from_pure(initial_state("psi1"))
        out = apply_local_sequential(gp_single(1.0), rho)
        np.testing.assert_allclose(out, np.eye(27) / 27.0, atol=1e-10)

    @pytest.mark.parametrize(
        "channel", [se_single(0.7), gp_single(0.35), se_single(0.7, 0.4, 2.5)],
        ids=["se", "gp", "se-unequal-coefficients"],
    )
    def test_matches_extended_application(self, rng, channel):
        extended = extend_three(channel)
        for _ in range(20):
            rho = random_density(rng, 27)
            np.testing.assert_allclose(
                apply_local_sequential(channel, rho),
                apply(extended, rho),
                atol=1e-10,
            )

    def test_wrong_dimensions(self, rng):
        with pytest.raises(ValueError, match="single-qutrit"):
            apply_local_sequential(identity_channel(dim=27), random_density(rng, 27))
        with pytest.raises(ValueError, match="27x27"):
            apply_local_sequential(se_single(1.0), random_density(rng, 3))


class TestValidateCptp:
    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0])
    def test_emission_passes(self, t):
        assert validate_cptp(se_single(t)).passed

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_pauli_passes(self, p):
        assert validate_cptp(gp_single(p)).passed

    def test_broken_channel_fails(self):
        broken = KrausChannel(3, (np.eye(3, dtype=complex) / 2,), label="half")
        report = validate_cptp(broken)
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.75, abs=1e-15)


class TestChannelProperties:
    @pytest.mark.parametrize(
        "channel",
        [se_single(0.0), se_single(1.3), gp_single(0.0), gp_single(0.6)],
        ids=["se0", "se1.3", "gp0", "gp0.6"],
    )
    def test_outputs_are_density_matrices(self, rng, channel):
        for _ in range(5):
            rho = random_density(rng, 27)
            assert is_density_matrix(apply_local_sequential(channel, rho))

    @pytest.mark.parametrize(
        "channel", [se_single(0.0), gp_single(0.0)], ids=["se", "gp"]
    )
    def test_zero_noise_is_identity_map(self, rng, channel):
        rho = random_density(rng, 3)
        np.testing.assert_allclose(apply(channel, rho), rho, atol=1e-12)

    def test_element_order_is_immaterial(self, rng):
        rho = random_density(rng, 3)
        ch = gp_single(0.42)
        reordered = KrausChannel(3, ch.elements[::-1], label="reordered")
        np.testing.assert_allclose(apply(ch, rho), apply(reordered, rho), atol=1e-12)


class TestNoiseSpec:
    def test_factories(self):
        assert NoiseSpec.none().kind == "none"
        se = NoiseSpec.spontaneous_emission(1.5, a1=2.0)
        assert (se.kind, se.t, se.a1, se.a2) == ("se", 1.5, 2.0, 1.0)
        assert NoiseSpec.generalized_pauli(0.3).p == 0.3

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseSpec(kind="amplitude")
        with pytest.raises(ValueError, match="non-negative"):
            NoiseSpec.spontaneous_emission(-1.0)
        with pytest.raises(ValueError, match="outside"):
            NoiseSpec.generalized_pauli(1.2)

    def test_single_channel(self):
        assert single_channel(NoiseSpec.none()) is None
        assert len(single_channel(NoiseSpec.spontaneous_emission(1.0)).elements) == 3
        assert len(single_channel(NoiseSpec.generalized_pauli(0.5)).elements) == 9
