import math

import numpy as np
import pytest
from conftest import haar_unitary, random_density
from hypothesis import given, settings
from hypothesis import strategies as st
from kraus import (
    CLOCK,
    SHIFT,
    KrausChannel,
    apply,
    extend_three,
    gp_kraus,
    identity_channel,
    se_kraus,
    superoperator,
    validate_cptp,
)
from linalg import basis_ket, density_from_pure, is_density_matrix
from scipy.linalg import expm

from qmontyhall.channels import (
    STRUCTURAL_TOL,
    NoiseSpec,
    apply_local_sequential,
    complete_positivity_deviation,
    gp_single,
    se_single,
    single_channel,
    trace_preservation_deviation,
)
from qmontyhall.game import initial_state

IDENTITY_MAP = superoperator(identity_channel())


def _act(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """A single-qutrit superoperator applied to a 3x3 state."""
    return np.einsum("acbd,bd->ac", s, rho)


class TestSpontaneousEmission:
    def test_zero_time_is_identity(self):
        np.testing.assert_array_equal(se_single(0.0, 1.0, 1.0), IDENTITY_MAP)
        ch = se_kraus(0.0, 1.0, 1.0)
        np.testing.assert_array_equal(ch.elements[0], np.eye(3))
        np.testing.assert_array_equal(ch.elements[1], np.zeros((3, 3)))
        np.testing.assert_array_equal(ch.elements[2], np.zeros((3, 3)))

    def test_half_life(self):
        s = se_single(math.log(2.0))
        assert s[0, 0, 1, 1] == pytest.approx(0.5, abs=1e-15)
        assert s[1, 1, 1, 1] == pytest.approx(0.5, abs=1e-15)
        assert s[0, 1, 0, 1] == pytest.approx(2**-0.5, abs=1e-15)
        ch = se_kraus(math.log(2.0))
        np.testing.assert_allclose(
            ch.elements[0], np.diag([1.0, 2**-0.5, 2**-0.5]), atol=1e-15
        )
        assert ch.elements[1][0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert ch.elements[2][0, 2] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_long_time_decays_to_ground(self):
        excited = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = apply(se_kraus(40.0), excited)
        ground = np.diag([1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, ground, atol=1e-10)
        np.testing.assert_allclose(_act(se_single(40.0), excited), ground, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            se_single(-0.1)
        with pytest.raises(ValueError, match="finite"):
            se_single(math.inf)
        with pytest.raises(ValueError, match="positive"):
            se_single(1.0, a1=0.0)
        with pytest.raises(ValueError, match="positive"):
            se_single(1.0, a2=-1.0)


def _element_weight(k: np.ndarray) -> float:
    # elements are sqrt(w) * unitary, so tr(k†k) = 3w
    return float(np.trace(k.conj().T @ k).real) / 3.0


class TestGeneralizedPauli:
    def test_zero_probability(self):
        np.testing.assert_array_equal(gp_single(0.0), IDENTITY_MAP)
        ch = gp_kraus(0.0)
        assert len(ch.elements) == 9
        np.testing.assert_array_equal(ch.elements[0], np.eye(3))
        for k in ch.elements[1:]:
            np.testing.assert_array_equal(k, np.zeros((3, 3)))

    def test_full_noise_weights(self):
        ch = gp_kraus(1.0)
        for k in ch.elements:
            assert _element_weight(k) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_full_noise_depolarizes(self, rng):
        rho = random_density(rng, 3)
        out = apply(gp_kraus(1.0), rho)
        np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-10)
        np.testing.assert_allclose(_act(gp_single(1.0), rho), np.eye(3) / 3.0, atol=1e-10)

    def test_unital(self, rng):
        for p in (0.0, 0.3, 0.7, 1.0):
            out = apply(gp_kraus(p), np.eye(3, dtype=complex) / 3.0)
            np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-12)
            out = _act(gp_single(p), np.eye(3, dtype=complex) / 3.0)
            np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_elements_are_weighted_shift_clock_products(self, p):
        elements = gp_kraus(p).elements
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
        assert len(extend_three(se_kraus(0.7)).elements) == 27
        assert len(extend_three(gp_kraus(0.4)).elements) == 729

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="single-qutrit"):
            extend_three(identity_channel(dim=27))


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 27)
        np.testing.assert_array_equal(apply(identity_channel(dim=27), rho), rho)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dim"):
            apply(se_kraus(1.0), random_density(rng, 27))

    def test_full_depolarizing_extension(self, rng):
        rho = random_density(rng, 27)
        out = apply(extend_three(gp_kraus(1.0)), rho)
        np.testing.assert_allclose(out, np.eye(27) / 27.0, atol=1e-10)

    def test_long_time_reaches_ground_state(self):
        rho = density_from_pure(initial_state("psi2"))
        out = apply(extend_three(se_kraus(40.0)), rho)
        np.testing.assert_allclose(
            out, density_from_pure(basis_ket(0, 0, 0)), atol=1e-9
        )


class TestLocalSequential:
    def test_identity(self, rng):
        rho = random_density(rng, 27)
        np.testing.assert_allclose(
            apply_local_sequential(IDENTITY_MAP, rho), rho, atol=1e-15
        )

    def test_full_depolarizing(self):
        rho = density_from_pure(initial_state("psi1"))
        out = apply_local_sequential(gp_single(1.0), rho)
        np.testing.assert_allclose(out, np.eye(27) / 27.0, atol=1e-10)

    @pytest.mark.parametrize(
        "s,channel",
        [(se_single(0.7), se_kraus(0.7)), (gp_single(0.35), gp_kraus(0.35)),
         (se_single(0.7, 0.4, 2.5), se_kraus(0.7, 0.4, 2.5))],
        ids=["se", "gp", "se-unequal-coefficients"],
    )
    def test_matches_extended_application(self, rng, s, channel):
        extended = extend_three(channel)
        for _ in range(20):
            rho = random_density(rng, 27)
            np.testing.assert_allclose(
                apply_local_sequential(s, rho),
                apply(extended, rho),
                rtol=0,
                atol=1e-12,
            )

    def test_wrong_dimensions(self, rng):
        with pytest.raises(ValueError, match="single-qutrit"):
            apply_local_sequential(np.eye(27, dtype=complex), random_density(rng, 27))
        with pytest.raises(ValueError, match="27x27"):
            apply_local_sequential(se_single(1.0), random_density(rng, 3))


class TestValidateCptp:
    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0])
    def test_emission_passes(self, t):
        assert validate_cptp(se_kraus(t)).passed

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_pauli_passes(self, p):
        assert validate_cptp(gp_kraus(p)).passed

    def test_broken_channel_fails(self):
        broken = KrausChannel(3, (np.eye(3, dtype=complex) / 2,), label="half")
        report = validate_cptp(broken)
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.75, abs=1e-15)


class TestClosedForms:
    """The closed-form superoperators equal sum K (x) conj(K) of the Kraus lists."""

    @pytest.mark.parametrize("a1,a2", [(1.0, 1.0), (0.4, 2.5), (2.0, 0.5)])
    def test_emission_matches_kraus(self, a1, a2):
        for t in [*np.linspace(0.0, 5.0, 51), math.log(2.0), 40.0]:
            np.testing.assert_allclose(se_single(t, a1, a2), superoperator(se_kraus(t, a1, a2)),
                                       rtol=0, atol=1e-15)

    def test_pauli_matches_kraus(self):
        for p in np.linspace(0.0, 1.0, 101):
            np.testing.assert_allclose(gp_single(p), superoperator(gp_kraus(p)),
                                       rtol=0, atol=1e-15)


def _matrix(s: np.ndarray) -> np.ndarray:
    """S[a, c, b, d] as the 9x9 matrix that acts on row-major vec(rho)."""
    return s.reshape(9, 9)


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho -> a rho b on row-major vec(rho): a (x) b^T."""
    return np.kron(a, b.T)


def _decay_generator(a1: float, a2: float) -> np.ndarray:
    """Lindbladian of V-type decay, jump operators sqrt(a1)|0><1| and
    sqrt(a2)|0><2| and no Hamiltonian: L(rho) = sum J rho J† - {J†J, rho}/2
    (Lindblad 1976; Gorini, Kossakowski & Sudarshan 1976)."""
    eye = np.eye(3)
    generator = np.zeros((9, 9), dtype=complex)
    for rate, level in ((a1, 1), (a2, 2)):
        jump = np.zeros((3, 3))
        jump[0, level] = math.sqrt(rate)
        decay = jump.conj().T @ jump
        generator += _sandwich(jump, jump.conj().T)
        generator -= (_sandwich(decay, eye) + _sandwich(eye, decay)) / 2
    return generator


class TestGenerators:
    """The closed forms against the dynamics they stand for, not the Kraus lists."""

    @pytest.mark.parametrize("a1,a2", [(1.0, 1.0), (0.4, 2.5), (3.0, 0.2)])
    def test_emission_is_the_decay_semigroup(self, a1, a2):
        generator = _decay_generator(a1, a2)
        for t in np.linspace(0.0, 9.0, 37):
            np.testing.assert_allclose(_matrix(se_single(t, a1, a2)), expm(t * generator),
                                       rtol=0, atol=1e-14)

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(t=st.floats(0.0, 20.0), s=st.floats(0.0, 20.0),
           a1=st.floats(0.05, 5.0), a2=st.floats(0.05, 5.0))
    def test_emission_times_add(self, t, s, a1, a2):
        np.testing.assert_allclose(_matrix(se_single(t, a1, a2)) @ _matrix(se_single(s, a1, a2)),
                                   _matrix(se_single(t + s, a1, a2)), rtol=0, atol=1e-14)

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
    def test_pauli_survivals_multiply(self, p, q):
        # the unchanged share 1 - p is what composes: (1 - p)(1 - q) = 1 - (p + q - pq)
        np.testing.assert_allclose(_matrix(gp_single(p)) @ _matrix(gp_single(q)),
                                   _matrix(gp_single(p + q - p * q)), rtol=0, atol=1e-14)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_pauli_commutes_with_every_unitary(self, p, seed):
        u = haar_unitary(np.random.default_rng(seed), 3)
        conjugation = _sandwich(u, u.conj().T)
        noise = _matrix(gp_single(p))
        np.testing.assert_allclose(noise @ conjugation, conjugation @ noise, rtol=0, atol=1e-14)


class TestChannelChecks:
    @pytest.mark.parametrize("s", [se_single(0.0), se_single(0.5), se_single(3.0, 0.4, 2.5),
                                   gp_single(0.0), gp_single(0.3), gp_single(1.0)],
                             ids=["se0", "se0.5", "se3-unequal", "gp0", "gp0.3", "gp1"])
    def test_families_pass(self, s):
        assert trace_preservation_deviation(s) <= STRUCTURAL_TOL
        assert complete_positivity_deviation(s) <= STRUCTURAL_TOL

    def test_transpose_is_not_completely_positive(self):
        # rho -> rho^T preserves the trace, but its Choi matrix is the swap,
        # with eigenvalue -1
        eye = np.eye(3)
        transpose = np.einsum("ad,cb->acbd", eye, eye).astype(complex)
        assert trace_preservation_deviation(transpose) <= STRUCTURAL_TOL
        assert complete_positivity_deviation(transpose) == pytest.approx(1.0, abs=1e-12)

    def test_halved_channel_is_not_trace_preserving(self):
        half = se_single(0.7) / 2
        assert trace_preservation_deviation(half) == pytest.approx(0.5, abs=1e-15)
        assert complete_positivity_deviation(half) <= STRUCTURAL_TOL

    def test_trace_check_equals_kraus_completeness(self):
        broken = KrausChannel(3, (np.eye(3, dtype=complex) / 2,), label="half")
        for ch in (broken, se_kraus(1.3), gp_kraus(0.6)):
            assert trace_preservation_deviation(superoperator(ch)) == pytest.approx(
                ch.completeness_deviation(), abs=1e-15)


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
        "s,channel", [(se_single(0.0), se_kraus(0.0)), (gp_single(0.0), gp_kraus(0.0))],
        ids=["se", "gp"],
    )
    def test_zero_noise_is_identity_map(self, rng, s, channel):
        rho = random_density(rng, 3)
        np.testing.assert_allclose(apply(channel, rho), rho, atol=1e-12)
        np.testing.assert_allclose(_act(s, rho), rho, atol=1e-12)

    def test_element_order_is_immaterial(self, rng):
        rho = random_density(rng, 3)
        ch = gp_kraus(0.42)
        reordered = KrausChannel(3, ch.elements[::-1], label="reordered")
        np.testing.assert_allclose(apply(ch, rho), apply(reordered, rho), atol=1e-12)


class TestNoiseSpec:
    def test_factories(self):
        assert NoiseSpec("none").kind == "none"
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
        noiseless = single_channel("none", 0.0)
        np.testing.assert_array_equal(noiseless, gp_single(0.0))
        assert not noiseless.flags.writeable  # a shared constant
        np.testing.assert_array_equal(single_channel("se", 1.0, 0.4, 2.5),
                                      se_single(1.0, 0.4, 2.5))
        np.testing.assert_array_equal(single_channel("gp", 0.5), gp_single(0.5))
        with pytest.raises(ValueError, match="unknown noise kind"):
            single_channel("amplitude", 0.5)
