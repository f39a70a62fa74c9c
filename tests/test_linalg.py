import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qent import linalg, states
from qent.errors import DimensionMismatchError, NotHermitianError, NotPSDError


def rand_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return G + G.conj().T


class TestEigHermitian:
    def test_diagonal_input(self):
        spec = linalg.eig_hermitian(np.diag([2.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0])
        assert np.allclose(np.abs(spec.eigenvectors), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        spec = linalg.eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        for k, sign in enumerate([-1, 1]):
            v = spec.eigenvectors[:, k]
            expected = np.array([1, sign]) / np.sqrt(2)
            # phase convention makes the first component real positive
            assert np.allclose(v, expected, atol=1e-12)

    def test_reconstruction_random(self):
        M = rand_hermitian(4, seed=42)
        spec = linalg.eig_hermitian(M)
        assert np.linalg.norm(spec.reconstruct() - M) < 1e-10
        V = spec.eigenvectors
        assert np.linalg.norm(V.conj().T @ V - np.eye(4)) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_deterministic(self):
        M = rand_hermitian(5, seed=3)
        a = linalg.eig_hermitian(M)
        b = linalg.eig_hermitian(M)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "entry",
        [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
        + [complex(0.0, x) for x in (np.nan, np.inf, -np.inf)],
    )
    @pytest.mark.parametrize(
        "build", [linalg.as_complex_matrix, linalg.eig_hermitian, states.DensityOperator]
    )
    def test_rejected(self, build, entry):
        M = np.eye(2, dtype=complex) / 2
        M[0, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            build(M)


class TestMatrixPowerQ:
    def test_scalar_powers(self):
        out = linalg.matrix_power_q(np.diag([0.25, 0.75]), 0.5)
        assert np.allclose(np.diag(out), [0.5, np.sqrt(0.75)], atol=1e-12)

    def test_q_zero_gives_identity(self):
        M = rand_hermitian(4, seed=0)
        M = M @ M.conj().T  # PSD
        assert np.allclose(linalg.matrix_power_q(M, 0.0), np.eye(4))

    def test_zero_eigenvalue_convention(self):
        out = linalg.matrix_power_q(np.diag([0.0, 1.0]), 0.5)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("q", [0.05, 0.5])
    def test_rounding_level_eigenvalues_are_zeros(self, q):
        # a random pure state has three eigenvalues at rounding level, which
        # must not be raised to the power q
        rng = np.random.default_rng(3)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        P = np.outer(v, v.conj()) / np.vdot(v, v).real
        assert np.max(np.abs(linalg.matrix_power_q(P, q) - P)) < 1e-12

    def test_q_one_identity_map(self):
        M = np.diag([0.1, 0.9]).astype(complex)
        assert np.max(np.abs(linalg.matrix_power_q(M, 1.0) - M)) < 1e-12

    def test_commutes_with_input(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = G @ G.conj().T
        Mq = linalg.matrix_power_q(M, 0.7)
        assert np.linalg.norm(M @ Mq - Mq @ M) < 1e-10

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(NotPSDError):
            linalg.matrix_power_q(np.diag([1.0, -0.5]), 0.5)


class TestMatrixLog:
    def test_identity(self):
        out = linalg.matrix_log(np.eye(2))
        assert np.allclose(out.value, 0.0)
        assert np.allclose(out.support, np.eye(2))

    def test_scalar_log(self):
        out = linalg.matrix_log(np.diag([np.e, 1.0]))
        assert np.allclose(np.diag(out.value), [1.0, 0.0], atol=1e-12)

    def test_rank_deficient_support(self):
        out = linalg.matrix_log(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert out.rank == 2
        assert np.allclose(
            np.diag(out.value), [np.log(0.5), np.log(0.5), 0.0, 0.0], atol=1e-12
        )


class TestTraceNorm:
    def test_diag(self):
        assert linalg.trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0)

    def test_zero(self):
        assert linalg.trace_norm(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_vs_maximally_mixed(self):
        # eigenvalues of the difference are (3/4, -1/4, -1/4, -1/4)
        psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        M = np.outer(psi, psi.conj()) - np.eye(4) / 4
        assert linalg.trace_norm(M) == pytest.approx(1.5, abs=1e-12)


class TestKronPartialTrace:
    def test_kron_identities(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))
        out = linalg.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_kron_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(linalg.kron(A, B))
        assert lhs == pytest.approx(np.trace(A) * np.trace(B), abs=1e-10)

    def test_partial_trace_product(self):
        rng = np.random.default_rng(1)
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tau = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = linalg.partial_trace(linalg.kron(rho, tau), 2, 3, keep="A")
        assert np.allclose(out, rho * np.trace(tau), atol=1e-12)

    def test_bell_reduction(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        M = np.outer(phi, phi.conj())
        assert np.allclose(linalg.partial_trace(M, 2, 2, "A"), np.eye(2) / 2)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_partial_trace_preserves_trace(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out = linalg.partial_trace(M, 2, 3, keep="B")
        assert np.trace(out) == pytest.approx(np.trace(M), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(5), 2, 2, "A")


def _fix_phases_loop(V):
    """The column-by-column phase fix that ``linalg._fix_phases`` replaces."""
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            V[:, k] = col * (np.conj(pivot) / np.abs(pivot))
    return V


class TestFixPhases:
    def test_bit_identical_to_loop(self):
        for seed in range(1600):
            dim = 1 + seed % 16
            M = rand_hermitian(dim, seed)
            if seed % 3 == 0:  # eigenvectors with leading zero components
                M = np.diag(np.diag(M).real)
            _, V = np.linalg.eigh(M)
            assert np.array_equal(linalg._fix_phases(V), _fix_phases_loop(V)), seed

    def test_zero_column_unchanged_without_warning(self):
        V = np.zeros((3, 2), dtype=complex)
        V[1, 1] = -1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = linalg._fix_phases(V)
        assert np.array_equal(fixed, [[0, 0], [0, 1], [0, 0]])
