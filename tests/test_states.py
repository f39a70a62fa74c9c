import copy
import json
import pickle

import numpy as np
import pytest

from qent import linalg, states
from qent.entropy import von_neumann_entropy
from qent.errors import (
    NotHermitianError,
    NotPSDError,
    OutOfRangeError,
    ZeroVectorError,
)


class TestDensityFromPure:
    def test_basis_vector(self):
        rho = states.density_from_pure([1, 0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_plus_state(self):
        rho = states.density_from_pure(np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))

    def test_purity(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        rho = states.density_from_pure(v).matrix
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            states.density_from_pure([0, 0])


class TestBellStates:
    def test_orthogonality(self):
        assert abs(np.vdot(states.bell_vector("psi+"), states.bell_vector("psi-"))) < 1e-15

    def test_reductions_maximally_mixed(self):
        for kind in ("psi+", "psi-", "phi+", "phi-"):
            b = states.bell_state(kind)
            assert np.allclose(b.reduction("A").matrix, np.eye(2) / 2, atol=1e-12)
            assert np.allclose(b.reduction("B").matrix, np.eye(2) / 2, atol=1e-12)

    def test_reduction_entropy(self):
        s = von_neumann_entropy(states.bell_state("phi+").reduction("A"))
        assert s == pytest.approx(np.log(2), abs=1e-12)


class TestWernerState:
    def test_f_one_is_singlet(self):
        w = states.werner_state(1.0)
        singlet = states.density_from_pure(states.bell_vector("psi-"))
        assert np.allclose(w.matrix, singlet.matrix, atol=1e-14)

    def test_f_quarter_is_maximally_mixed(self):
        assert np.allclose(states.werner_state(0.25).matrix, np.eye(4) / 4, atol=1e-14)

    def test_eigenvalues(self):
        F = 0.7
        w = np.sort(np.linalg.eigvalsh(states.werner_state(F).matrix))
        assert np.allclose(w, sorted([F] + [(1 - F) / 3] * 3), atol=1e-12)

    @pytest.mark.parametrize("F", [0.0, 0.5, 0.9])
    def test_reductions(self, F):
        w = states.werner_state(F)
        assert np.allclose(w.reduction("A").matrix, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(w.reduction("B").matrix, np.eye(2) / 2, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            states.werner_state(1.5)

    def test_spectrum_and_product_computed_on_first_use(self):
        w = states.werner_state(0.9)
        assert "spectrum" not in w.state.__dict__ and "product" not in w.__dict__
        w.state.spectrum
        assert "spectrum" in w.state.__dict__ and "product" not in w.__dict__


class TestRandomStates:
    def test_contract(self):
        for seed in range(100):
            rho = states.random_density(3, seed).matrix
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_determinism_and_variation(self):
        a = states.random_density(4, 0).matrix
        b = states.random_density(4, 0).matrix
        c = states.random_density(4, 1).matrix
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - c) > 1e-3

    def test_unitary_contract(self):
        for seed in range(100):
            U = states.random_unitary(3, seed)
            assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-10
        assert abs(abs(np.linalg.det(states.random_unitary(4, 7))) - 1.0) < 1e-8

    def test_unitary_preserves_spectrum(self):
        rho = states.random_density(4, 2).matrix
        U = states.random_unitary(4, 3)
        w1 = np.linalg.eigvalsh(rho)
        w2 = np.linalg.eigvalsh(U @ rho @ U.conj().T)
        assert np.allclose(w1, w2, atol=1e-10)


class TestFromStack:
    """Operators built from one validated stack, without a per-member copy."""

    @staticmethod
    def stack():
        members = [states.random_density(3, seed).matrix for seed in range(4)]
        return np.stack(members + [np.diag([0.0, 1.0, 0.0])])  # one pure member

    def test_members_are_the_slices(self):
        stack = self.stack()
        members = states.DensityOperator._from_stack(stack)
        assert len(members) == len(stack)
        for M, rho in zip(stack, members):
            assert type(rho) is states.DensityOperator and rho.dim == 3
            assert np.array_equal(rho.matrix, M)
            single = linalg.psd_spectrum(M)
            assert np.array_equal(rho.spectrum.eigenvalues, single.eigenvalues)
            assert np.array_equal(rho.spectrum.eigenvectors, single.eigenvectors)
        stack[:] = 0.0  # the members hold a copy
        assert np.array_equal(members[0].matrix, states.random_density(3, 0).matrix)

    def test_read_only_as_returned_and_restored(self):
        for rho in states.DensityOperator._from_stack(self.stack())[::2]:
            for op in (rho, pickle.loads(pickle.dumps(rho)), copy.deepcopy(rho)):
                assert np.array_equal(op.matrix, rho.matrix)
                spec = op.spectrum
                for array in (op.matrix, spec.eigenvalues, spec.eigenvectors):
                    with pytest.raises(ValueError, match="read-only"):
                        array[(0,) * array.ndim] = 0.0

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.diag([np.nan, 0.5, 0.5]), ValueError),
            (np.array([[0.5, 0.5, 0], [0, 0.5, 0], [0, 0, 0]]), NotHermitianError),
            (np.diag([1.5, -0.5, 0.0]), NotPSDError),
        ],
        ids=["nan", "non-hermitian", "non-psd"],
    )
    def test_invalid_member_raises(self, bad, error):
        stack = self.stack()
        stack[2] = bad
        with pytest.raises(error):
            states.DensityOperator._from_stack(stack)


def count_eig_calls(monkeypatch) -> list:
    """Records the input shape of every ``linalg.eig_hermitian`` call."""
    shapes, eig = [], linalg.eig_hermitian

    def counted(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return eig(M, *args, **kwargs)

    monkeypatch.setattr(linalg, "eig_hermitian", counted)
    return shapes


class TestSpectraWith:
    """Two operators decomposed by one stacked call when neither has a
    spectrum yet, with the spectra of two separate calls."""

    @staticmethod
    def pair(dim=3):
        return states.random_density(dim, 30), states.random_density(dim, 31)

    @pytest.mark.parametrize("dim", [1, 2, 4, 9, 16])
    def test_fresh_pair_is_one_call_with_the_separate_spectra(self, dim, monkeypatch):
        rho, sigma = self.pair(dim)
        shapes = count_eig_calls(monkeypatch)
        spectra = rho._spectra_with(sigma)
        assert shapes == [(2, dim, dim)]
        assert spectra == (rho.spectrum, sigma.spectrum)  # now cached
        for op, spec in zip((rho, sigma), spectra):
            single = linalg.psd_spectrum(op.matrix)
            assert np.array_equal(spec.eigenvalues, single.eigenvalues)
            assert np.array_equal(spec.eigenvectors, single.eigenvectors)
            for array in (spec.eigenvalues, spec.eigenvectors):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0.0

    def test_a_cached_spectrum_leaves_the_other_alone(self, monkeypatch):
        for first in (0, 1):
            pair = self.pair()
            pair[first].spectrum
            shapes = count_eig_calls(monkeypatch)
            pair[0]._spectra_with(pair[1])
            assert shapes == [(3, 3)]
            monkeypatch.undo()

    def test_same_operator(self, monkeypatch):
        rho = self.pair()[0]
        shapes = count_eig_calls(monkeypatch)
        assert rho._spectra_with(rho) == (rho.spectrum, rho.spectrum)
        assert shapes == [(3, 3)]

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[0.5, 0.5, 0], [0, 0.5, 0], [0, 0, 0]]), NotHermitianError),
            (np.diag([1.5, -0.5, 0.0]), NotPSDError),
        ],
        ids=["non-hermitian", "non-psd"],
    )
    def test_invalid_operator_raises_its_own_error(self, bad, error):
        rho, sigma = self.pair()[0], states.DensityOperator(bad)
        with pytest.raises(error) as alone:
            states.DensityOperator(bad).spectrum
        for pair in ((rho, sigma), (sigma, rho)):
            for _ in range(2):
                with pytest.raises(error) as joint:
                    pair[0]._spectra_with(pair[1])
                assert str(joint.value) == str(alone.value)
                assert "spectrum" not in sigma.__dict__
        assert "spectrum" in rho.__dict__  # decomposed alone before sigma
        single = linalg.psd_spectrum(rho.matrix)
        assert np.array_equal(rho.spectrum.eigenvalues, single.eigenvalues)
        assert np.array_equal(rho.spectrum.eigenvectors, single.eigenvectors)
        with pytest.raises(ValueError, match="read-only"):
            rho.spectrum.eigenvectors[0, 0] = 0.0

    def test_two_invalid_operators_raise_in_order(self):
        # one stacked call would report the non-Hermitian member either way
        not_psd = states.DensityOperator(np.diag([1.5, -0.5, 0.0]))
        not_hermitian = states.DensityOperator(np.triu(np.full((3, 3), 0.5)))
        with pytest.raises(NotPSDError):
            not_psd._spectra_with(not_hermitian)
        with pytest.raises(NotHermitianError):
            not_hermitian._spectra_with(not_psd)


class TestReducedProduct:
    def test_product_fixed_point(self):
        rho = states.random_density(2, 1).matrix
        tau = states.random_density(2, 2).matrix
        sigma = states.BipartiteState(
            states.DensityOperator(linalg.kron(rho, tau)), 2, 2
        )
        assert np.allclose(
            states.reduced_product(sigma).matrix, linalg.kron(rho, tau), atol=1e-12
        )

    @pytest.mark.parametrize("F", [0.1, 0.6, 1.0])
    def test_werner_reduced_product(self, F):
        out = states.reduced_product(states.werner_state(F))
        assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_bell_reduced_product(self):
        out = states.reduced_product(states.bell_state("psi-"))
        assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


class TestValidateDensity:
    def test_pass(self):
        assert states.validate_density(np.eye(2) / 2, 1e-9).passed

    def test_trace_failure(self):
        rep = states.validate_density(np.diag([1.0, 1.0]), 1e-9)
        assert not rep.passed
        assert rep.trace_defect == pytest.approx(1.0)

    def test_negative_eigenvalue_failure(self):
        rep = states.validate_density(np.diag([1.2, -0.2]), 1e-9)
        assert not rep.passed
        assert rep.min_eigenvalue == pytest.approx(-0.2)

    def test_constructors_pass(self):
        for M in (
            states.werner_state(0.33).matrix,
            states.bell_state("phi-").matrix,
            states.random_density(4, 11).matrix,
        ):
            assert states.validate_density(M, 1e-9).passed


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "w.json"
        M = states.werner_state(0.9).matrix
        states.save_state(path, M, [2, 2])
        loaded, dims = states.load_state(path)
        assert dims == [2, 2]
        assert np.array_equal(loaded, M)

    def test_schema(self, tmp_path):
        path = tmp_path / "s.json"
        states.save_state(path, states.random_density(2, 5).matrix, [2])
        obj = json.loads(path.read_text())
        assert set(obj) == {"dims", "re", "im"}
        assert obj["dims"] == [2]
        assert len(obj["re"]) == 2 and len(obj["re"][0]) == 2

    def test_dims_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [3], "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}')
        with pytest.raises(ValueError):
            states.load_state(path)
