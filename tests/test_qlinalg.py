import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import pi, sqrt

from belllab.qlinalg import (
    BadNorm,
    BadSubset,
    DensityMatrix,
    NotHermitian,
    PureState,
    hermitian_eigen,
    spin_operator,
    tensor_product,
)
from belllab.states import Direction, measurement_basis, sign_bit
from oracles import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, partial_trace, projector


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_joint_eigenstate(self):
        up_up = np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(tensor_product(SIGMA_Z, SIGMA_Z) @ up_up, up_up)

    def test_sigma_x_sigma_y_hand_expanded(self):
        # element-wise expansion by the definition of the Kronecker product
        expected = np.array(
            [
                [0, 0, 0, -1j],
                [0, 0, 1j, 0],
                [0, -1j, 0, 0],
                [1j, 0, 0, 0],
            ]
        )
        assert np.array_equal(tensor_product(SIGMA_X, SIGMA_Y), expected)

    def test_operator_bit_ordering(self):
        # the left factor acts on particle 1, the most significant bit: |down up> = index 0b10
        down_up = np.array([0, 0, 1, 0], dtype=complex)
        assert np.array_equal(tensor_product(SIGMA_Z, IDENTITY_2) @ down_up, -down_up)
        assert np.array_equal(tensor_product(IDENTITY_2, SIGMA_Z) @ down_up, down_up)

    def test_rejects_vectors(self):
        up = np.array([1, 0], dtype=complex)
        for a, b in ((SIGMA_X, up), (up, SIGMA_X), (up, up)):
            with pytest.raises(ValueError):
                tensor_product(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        # grouping changes the order of the scalar multiplies, so allow one ulp
        assert np.max(np.abs(left - right)) <= 1e-14


class TestSpinOperator:
    def test_axes(self):
        assert np.allclose(spin_operator(0.0, 0.0), SIGMA_Z)
        assert np.allclose(spin_operator(pi / 2, 0.0), SIGMA_X)
        assert np.allclose(spin_operator(pi / 2, pi / 2), SIGMA_Y)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_squares_to_identity(self, theta, phi):
        s = spin_operator(theta, phi)
        assert np.max(np.abs(s @ s - np.eye(2))) <= 1e-12

    def test_plus_eigenvector_inverts_rotated_basis(self):
        # column sign_bit(z) of the unitary measurement basis is the z eigenket
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta, phi = rng.uniform(-pi, pi), rng.uniform(0, 2 * pi)
            basis = measurement_basis(Direction(theta, phi))
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) <= 1e-12
            for z in (+1, -1):
                ket = basis[:, sign_bit(z)]
                resid = spin_operator(theta, phi) @ ket - z * ket
                assert np.max(np.abs(resid)) <= 1e-12


class TestHermitianEigen:
    def test_sigma_z(self):
        evals = hermitian_eigen(SIGMA_Z)
        assert np.allclose(evals, [1.0, -1.0])

    def test_sigma_x(self):
        assert np.allclose(hermitian_eigen(SIGMA_X), [1.0, -1.0])

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="square"):
            hermitian_eigen(np.zeros((2, 3), dtype=complex))

    def test_chsh_planar_right_angles(self):
        # four x-y plane directions with both included angles pi/2
        from belllab.bell import chsh_operator

        s = (
            (Direction(pi / 2, 0.0), Direction(pi / 2, pi / 2)),
            (Direction(pi / 2, pi / 4), Direction(pi / 2, 3 * pi / 4)),
        )
        evals = hermitian_eigen(chsh_operator(s))
        assert abs(evals[0] - 2 * sqrt(2)) <= 1e-9

    def test_degenerate_spectrum(self):
        # the right-angle planar CHSH operator has spectrum (2*sqrt(2), 0, 0, -2*sqrt(2))
        from belllab.bell import chsh_operator

        s = (
            (Direction(pi / 2, 0.0), Direction(pi / 2, pi / 2)),
            (Direction(pi / 2, pi / 4), Direction(pi / 2, 3 * pi / 4)),
        )
        evals = hermitian_eigen(chsh_operator(s))
        assert np.max(np.abs(evals - 2 * sqrt(2) * np.array([1, 0, 0, -1]))) <= 1e-9
        assert np.all(np.diff(evals) <= 1e-12)  # descending

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64, 128])
    def test_random_reconstruction(self, dim):
        # H = U diag(lam) U^dagger has a known spectrum in a random basis; the
        # solver must return lam in descending order
        rng = np.random.default_rng(dim)
        lam = np.sort(rng.normal(size=dim))[::-1]
        u = random_unitary(rng, dim)
        h = (u * lam) @ u.conj().T
        assert np.max(np.abs(hermitian_eigen(h) - lam)) <= 1e-9


class TestPartialTrace:
    def test_product_state(self):
        up_up = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
        reduced = partial_trace(projector(up_up), {1})
        assert np.allclose(reduced.matrix, [[1, 0], [0, 0]])

    def test_ghz_pair(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / sqrt(2)
        reduced = partial_trace(projector(PureState(3, amps)), {1, 2})
        assert np.allclose(reduced.matrix, np.diag([0.5, 0, 0, 0.5]))

    def test_trace_preserved_and_order(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi = PureState(4, amps / np.linalg.norm(amps))
        reduced = partial_trace(projector(psi), {2, 4})
        assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12
        # tracing in two steps must match the one-step result
        step1 = partial_trace(projector(psi), {2, 3, 4})
        step2 = partial_trace(step1, {1, 3})  # particles 2, 4 of the original
        assert np.max(np.abs(step2.matrix - reduced.matrix)) <= 1e-12

    @pytest.mark.parametrize("keep", [set(), {1, 2, 3}, {0}, {4}])
    def test_bad_subset(self, keep):
        rho = DensityMatrix(3, np.eye(8) / 8.0)
        with pytest.raises(BadSubset):
            partial_trace(rho, keep)


class TestPureStateInvariants:
    def test_rejects_nan_amplitude(self):
        # a NaN norm must fail the guard, not slip past a ">" comparison
        with pytest.raises(BadNorm):
            PureState(1, np.array([np.nan, 0.0], dtype=complex))

    def test_rejects_bad_norm(self):
        with pytest.raises(BadNorm):
            PureState(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="amplitudes"):  # 2^1 amplitudes expected, not 4
            PureState(1, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(NotHermitian):
            DensityMatrix(1, m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="shape"):  # unit trace, but 4 x 4 for one particle
            DensityMatrix(1, np.eye(4, dtype=complex) / 4.0)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan_entry(self):
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = np.nan
        with pytest.raises(NotHermitian):
            DensityMatrix(1, m)

    # a diagonal matrix goes through the eigensolver like any other:
    # its checks catch a negative entry below -PSD_TOL and a non-real or NaN entry
    def test_diagonal_negative_entry_rejected_below_psd_tol(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(2, np.diag([1 + 2e-10, 0, 0, -2e-10]).astype(complex))
        DensityMatrix(2, np.diag([1 + 5e-11, 0, 0, -5e-11]).astype(complex))

    @pytest.mark.parametrize("entry", [0.5 + 1e-6j, np.nan], ids=["imaginary", "nan"])
    def test_diagonal_non_real_entry_rejected(self, entry):
        with pytest.raises(NotHermitian):
            DensityMatrix(1, np.diag([entry, 0.5]).astype(complex))
