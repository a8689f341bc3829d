import numpy as np
import pytest
import kraus
import reference
from conftest import random_density
from linalg import basis_ket, dagger, density_from_pure, is_density_matrix, is_unitary, trace

from qmontyhall import game
from qmontyhall.channels import STATE_DIM


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(np.eye(3)), np.eye(3))

    def test_clock(self):
        expected = np.diag([1.0, np.exp(-2j * np.pi / 3), np.exp(-4j * np.pi / 3)])
        np.testing.assert_allclose(dagger(kraus.CLOCK), expected, atol=1e-15)

    def test_involution(self, rng):
        a = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        np.testing.assert_array_equal(dagger(dagger(a)), a)


class TestMatMul:
    def test_identity(self):
        o = reference.open_operator()
        np.testing.assert_array_equal(np.eye(STATE_DIM) @ o, o)

    def test_switch_is_involution(self):
        s = reference.switch_operator()
        np.testing.assert_array_equal(s @ s, np.eye(STATE_DIM))

    def test_shift_cubes_to_identity(self):
        x = kraus.SHIFT
        np.testing.assert_array_equal(x @ x @ x, np.eye(3))


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(STATE_DIM)) == 27

    def test_density_has_unit_trace(self, rng):
        rho = random_density(rng, STATE_DIM)
        assert trace(rho) == pytest.approx(1.0, abs=1e-12)

    def test_multiplicative_under_kron(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert trace(np.kron(a, b)) == pytest.approx(trace(a) * trace(b), abs=1e-12)

    def test_cyclic(self, rng):
        radius = rng.uniform(0, 1, size=(2, STATE_DIM, STATE_DIM))
        angle = rng.uniform(0, 2 * np.pi, size=(2, STATE_DIM, STATE_DIM))
        a, b = radius * np.exp(1j * angle)
        assert trace(a @ b) == pytest.approx(trace(b @ a), abs=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            trace(np.ones((2, 3)))


class TestIsUnitary:
    def test_permutation_strategy(self):
        assert is_unitary(game.builtin_strategy("m1").matrix, 1e-10)

    def test_counter_strategy(self):
        assert is_unitary(game.builtin_strategy("h").matrix, 1e-9)

    def test_single_kraus_element_is_not(self):
        k1 = kraus.se_kraus(1.0).elements[1]
        assert not is_unitary(k1, 1e-10)


class TestBasisKet:
    @pytest.mark.parametrize("o,b,a,index", [(0, 0, 0, 0), (0, 1, 2, 5), (2, 2, 2, 26)])
    def test_index(self, o, b, a, index):
        v = basis_ket(o, b, a)
        assert v[index] == 1.0
        assert np.count_nonzero(v) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_ket(0, 3, 0)


class TestDensityFromPure:
    def test_basis_state(self):
        rho = density_from_pure(basis_ket(0, 0, 0))
        expected = np.zeros((STATE_DIM, STATE_DIM))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho, expected)

    def test_uniform_state_pattern(self):
        # |0> (x) uniform (x) uniform: 1/9 on the 81 entries with both
        # indices in 0..8, zero elsewhere
        rho = density_from_pure(game.initial_state("psi1"))
        expected = np.zeros((STATE_DIM, STATE_DIM))
        expected[:9, :9] = 1.0 / 9.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_purity(self, rng):
        v = rng.normal(size=STATE_DIM) + 1j * rng.normal(size=STATE_DIM)
        v /= np.linalg.norm(v)
        rho = density_from_pure(v)
        assert trace(rho @ rho) == pytest.approx(1.0, abs=1e-12)

    def test_invariants(self, rng):
        for v in (game.initial_state("psi1"), game.initial_state("psi2")):
            assert is_density_matrix(density_from_pure(v))
