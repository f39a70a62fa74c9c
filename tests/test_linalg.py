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


def _mixed_stack(member):
    """Four maximally mixed qubits with ``member`` in third place."""
    stack = np.stack([np.eye(2, dtype=complex) / 2] * 4)
    stack[2] = member
    return stack


class TestStackedInput:
    def test_one_non_hermitian_member(self):
        stack = _mixed_stack([[0.5, 1e-3], [0.0, 0.5]])
        for decompose in (linalg.eig_hermitian, linalg.psd_spectrum):
            with pytest.raises(NotHermitianError):
                decompose(stack)

    def test_one_non_psd_member(self):
        stack = _mixed_stack(np.diag([1.5, -0.5]))
        with pytest.raises(NotPSDError):
            linalg.psd_spectrum(stack)
        assert linalg.eig_hermitian(stack).eigenvalues[2, 0] == -0.5

    @pytest.mark.parametrize(
        "call",
        [
            states.DensityOperator,
            linalg.as_complex_matrix,
            linalg.trace_norm,
            linalg.matrix_log,
            lambda M: linalg.matrix_power_q(M, 0.5),
        ],
    )
    def test_single_matrix_calls_reject_a_stack(self, call):
        with pytest.raises(DimensionMismatchError):
            call(_mixed_stack(np.eye(2) / 2))

    def test_four_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            linalg.eig_hermitian(np.zeros((2, 2, 2, 2)))


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "entry",
        [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
        + [complex(0.0, x) for x in (np.nan, np.inf, -np.inf)],
    )
    @pytest.mark.parametrize(
        "build",
        [
            linalg.as_complex_matrix,
            linalg.eig_hermitian,
            states.DensityOperator,
            lambda M: linalg.eig_hermitian(_mixed_stack(M)),
            lambda M: linalg.psd_spectrum(_mixed_stack(M)),
        ],
        ids=[
            "as_complex_matrix",
            "eig_hermitian",
            "DensityOperator",
            "eig_hermitian_stack",
            "psd_spectrum_stack",
        ],
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

    def test_kron_bit_identical_to_numpy(self):
        for dA in range(1, 17):
            for dB in range(1, 17):
                A = rand_hermitian(dA, 100 * dA + dB)
                B = rand_hermitian(dB, 100 * dB + dA + 5000)
                assert np.array_equal(linalg.kron(A, B), np.kron(A, B)), (dA, dB)

    @pytest.mark.parametrize("dA, dB", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
    def test_stack_slices_equal_single_calls(self, dA, dB):
        Ms = np.stack([rand_hermitian(dA * dB, seed) for seed in range(9)])
        As, Bs = Ms[:, :dA, :dA], Ms[:, -dB:, -dB:]
        for keep in "AB":
            stacked = linalg.partial_trace(Ms, dA, dB, keep)
            for M, out in zip(Ms, stacked, strict=True):
                assert np.array_equal(out, linalg.partial_trace(M, dA, dB, keep))
        for A, B, out in zip(As, Bs, linalg.kron(As, Bs), strict=True):
            assert np.array_equal(out, np.kron(A, B))


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


def _phase_test_matrix(dim, seed):
    """Hermitian and full rank; every third one diagonal, and every third
    rank-deficient PSD (eigenvectors with leading zero components)."""
    M = rand_hermitian(dim, seed)
    if seed % 3 == 0:
        return np.diag(np.diag(M).real)
    if seed % 3 == 1:
        G = M[:, : dim // 2]
        return G @ G.conj().T
    return M


def _phase_test_stacks():
    """(dim, seeds, stack) at d = 1-16, 100 seeded matrices each."""
    for dim in range(1, 17):
        seeds = range(dim - 1, 1600, 16)
        yield dim, seeds, np.stack([_phase_test_matrix(dim, s) for s in seeds])


class TestFixPhases:
    def test_bit_identical_to_loop(self):
        # the phase fix alone, a single eig_hermitian call and each slice of
        # one stacked call all equal the loop on eigh's output
        for dim, seeds, Ms in _phase_test_stacks():
            stacked = linalg.eig_hermitian(Ms)
            assert stacked.dim == dim
            assert np.max(np.abs(stacked.reconstruct() - Ms)) < 1e-10
            for k, (seed, M) in enumerate(zip(seeds, Ms, strict=True)):
                w, V = np.linalg.eigh((M + M.conj().T) / 2)
                expected = _fix_phases_loop(V)
                assert np.array_equal(linalg._fix_phases(V), expected), seed
                single = linalg.eig_hermitian(M)
                assert np.array_equal(single.eigenvalues, w), seed
                assert np.array_equal(single.eigenvectors, expected), seed
                assert np.array_equal(stacked.eigenvalues[k], w), seed
                assert np.array_equal(stacked.eigenvectors[k], expected), seed

    def test_psd_stack_slices_equal_single_calls(self):
        for dim, seeds, Ms in _phase_test_stacks():
            Ps = Ms @ Ms.conj().swapaxes(1, 2)
            stacked = linalg.psd_spectrum(Ps)
            for k, (seed, P) in enumerate(zip(seeds, Ps, strict=True)):
                one = linalg.psd_spectrum(P)
                assert np.array_equal(stacked.eigenvalues[k], one.eigenvalues), seed
                assert np.array_equal(stacked.eigenvectors[k], one.eigenvectors), seed

    def test_zero_column_unchanged_without_warning(self):
        V = np.zeros((3, 2), dtype=complex)
        V[1, 1] = -1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = linalg._fix_phases(V)
        assert np.array_equal(fixed, [[0, 0], [0, 1], [0, 0]])
