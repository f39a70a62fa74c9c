import copy
import gc
import math
import pickle
import weakref

import numpy as np
import pytest

from qent import entropy, linalg, states
from qent.errors import (
    DimensionMismatchError,
    DomainError,
    NotHermitianError,
    NotPSDError,
)


def diag_state(*vals):
    return states.DensityOperator(np.diag(vals).astype(complex))


class TestQLog:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
    def test_log_of_one(self, q):
        assert entropy.q_log(1.0, q) == pytest.approx(0.0, abs=1e-15)

    def test_limit_branch(self):
        assert entropy.q_log(math.e, 1.0) == pytest.approx(1.0)

    def test_deformed_value(self):
        # (sqrt(2) - 1) / 0.5
        assert entropy.q_log(2.0, 0.5) == pytest.approx(2 * (math.sqrt(2) - 1))

    def test_negative_argument(self):
        with pytest.raises(DomainError):
            entropy.q_log(-1.0, 0.5)


class TestTsallisEntropy:
    @pytest.mark.parametrize("q", [0.3, 1.0, 1.8])
    def test_pure_state_zero(self, q):
        rho = states.density_from_pure([1, 1j])
        assert entropy.tsallis_entropy(rho, q) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_q2(self):
        # S_q(I/d) = ln_q d, and ln_2(2) = 0.5
        assert entropy.tsallis_entropy(diag_state(0.5, 0.5), 2.0) == pytest.approx(0.5)

    def test_maximally_mixed_q1(self):
        assert entropy.tsallis_entropy(diag_state(0.5, 0.5), 1.0) == pytest.approx(
            math.log(2)
        )


class TestVonNeumannEntropy:
    def test_pure(self):
        assert entropy.von_neumann_entropy(diag_state(1.0, 0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_maximally_mixed(self):
        rho = states.DensityOperator(np.eye(4) / 4)
        assert entropy.von_neumann_entropy(rho) == pytest.approx(math.log(4))

    def test_werner_spectrum(self):
        # eigenvalues {0.9, 1/30 x3}
        expected = -0.9 * math.log(0.9) - 3 * (1 / 30) * math.log(1 / 30)
        s = entropy.von_neumann_entropy(states.werner_state(0.9).state)
        assert s == pytest.approx(expected, abs=1e-12)


class TestUmegaki:
    def test_self_is_zero(self):
        rho = states.random_density(3, 4)
        ev = entropy.umegaki_relative_entropy(rho, rho)
        assert ev.value == pytest.approx(0.0, abs=1e-12)
        assert not ev.support_violation

    def test_commuting_value(self):
        ev = entropy.umegaki_relative_entropy(
            diag_state(0.5, 0.5), diag_state(0.25, 0.75)
        )
        assert ev.value == pytest.approx(0.5 * math.log(4 / 3))

    def test_disjoint_supports(self):
        ev = entropy.umegaki_relative_entropy(diag_state(1, 0), diag_state(0, 1))
        assert ev.value == math.inf
        assert ev.support_violation

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            entropy.umegaki_relative_entropy(
                diag_state(1.0, 0.0), states.DensityOperator(np.eye(3) / 3)
            )


class TestTsallisRelativeEntropy:
    @pytest.mark.parametrize("q", [0.3, 0.7, 1.5])
    def test_self_is_zero(self, q):
        rho = states.random_density(3, 8)
        ev = entropy.tsallis_relative_entropy(rho, rho, q)
        assert ev.value == pytest.approx(0.0, abs=1e-12)

    def test_commuting_value(self):
        # 2 (1 - sqrt(0.125) - sqrt(0.375))
        ev = entropy.tsallis_relative_entropy(
            diag_state(0.5, 0.5), diag_state(0.25, 0.75), 0.5
        )
        expected = 2 * (1 - math.sqrt(0.125) - math.sqrt(0.375))
        assert ev.value == pytest.approx(expected, abs=1e-14)

    def test_q_zero_always_zero(self):
        rho = states.random_density(4, 1)
        sigma = states.random_density(4, 2)
        assert entropy.tsallis_relative_entropy(rho, sigma, 0.0).value == 0.0

    def test_q_one_matches_umegaki(self):
        rho = states.random_density(3, 5)
        sigma = states.random_density(3, 6)
        a = entropy.tsallis_relative_entropy(rho, sigma, 1.0).value
        b = entropy.umegaki_relative_entropy(rho, sigma).value
        assert a == b

    def test_support_violation_above_one(self):
        ev = entropy.tsallis_relative_entropy(diag_state(1, 0), diag_state(0, 1), 1.5)
        assert ev.value == math.inf
        assert ev.support_violation

    def test_finite_below_one_despite_supports(self):
        ev = entropy.tsallis_relative_entropy(diag_state(1, 0), diag_state(0, 1), 0.5)
        assert ev.value == pytest.approx(2.0)
        assert not ev.support_violation

    def test_q_out_of_range(self):
        rho = states.random_density(2, 0)
        with pytest.raises(DomainError):
            entropy.tsallis_relative_entropy(rho, rho, 2.5)

    def test_matches_diagonal_oracle(self):
        rng = np.random.default_rng(12)
        p = rng.dirichlet(np.ones(4))
        r = rng.dirichlet(np.ones(4))
        rho = states.DensityOperator(np.diag(p).astype(complex))
        sigma = states.DensityOperator(np.diag(r).astype(complex))
        for q in (0.2, 0.8, 1.0, 1.4, 2.0):
            matrix = entropy.tsallis_relative_entropy(rho, sigma, q).value
            scalar = entropy.tsallis_relative_entropy_diagonal(p, r, q)
            assert matrix == pytest.approx(scalar, abs=1e-12)

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.5])
    def test_pure_state_against_maximally_mixed(self, q):
        # D_q(psi | I/4) = (1 - 4**(q-1)) / (1-q): the three zero eigenvalues
        # of psi, at rounding level numerically, must contribute nothing
        sigma = states.DensityOperator(np.eye(4) / 4)
        expected = (1 - 4 ** (q - 1)) / (1 - q)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = states.density_from_pure(v)
            value = entropy.tsallis_relative_entropy(psi, sigma, q).value
            assert abs(value - expected) <= 1e-12, seed

    @pytest.mark.parametrize("step", [1e-12, -1e-12, 1e-14, -1e-14])
    def test_approach_to_q_one(self, step):
        for dim in (2, 3, 4):
            rho = states.random_density(dim, 100 + dim)
            sigma = states.random_density(dim, 200 + dim)
            u = entropy.umegaki_relative_entropy(rho, sigma).value
            d = entropy.tsallis_relative_entropy(rho, sigma, 1.0 + step).value
            assert abs(d - u) <= 1e-9, dim


class TestCachedSpectrum:
    def test_input_array_is_copied(self):
        original = states.random_density(3, 1)
        sigma = states.random_density(3, 2)
        M = original.matrix.copy()
        rho = states.DensityOperator(M)
        M[:] = np.eye(3) / 3  # before the spectrum is computed
        first = entropy.tsallis_relative_entropy(rho, sigma, 0.4).value
        M[:] = np.diag([1.0, 0.0, 0.0])  # and after
        assert entropy.tsallis_relative_entropy(rho, sigma, 0.4).value == first
        assert first == entropy.tsallis_relative_entropy(original, sigma, 0.4).value

    def test_matrix_and_spectrum_are_read_only(self):
        rho = states.random_density(2, 3)
        for array in (rho.matrix, rho.spectrum.eigenvalues, rho.spectrum.eigenvectors):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize(
        "M, error",
        [
            (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitianError),
            (np.diag([1.5, -0.5]), NotPSDError),
        ],
    )
    def test_invalid_input_raises_on_every_call(self, M, error):
        bad = states.DensityOperator(M)
        good = diag_state(0.5, 0.5)
        for _ in range(2):
            with pytest.raises(error):
                entropy.tsallis_relative_entropy(bad, good, 0.5)
            with pytest.raises(error):
                entropy.umegaki_relative_entropy(good, bad)


def memo_hit(rho, sigma) -> bool:
    """Whether rho holds a memo for sigma; the probe's build raises, so it
    stores nothing."""

    def build(*_):
        raise LookupError

    try:
        rho._paired(sigma, build)
    except LookupError:
        return False
    return True


class TestPairMemo:
    """entropy keeps one pair's q-independent terms on rho; it must not show."""

    @staticmethod
    def fresh(rho, sigma, q):
        return entropy.tsallis_relative_entropy(
            states.DensityOperator(rho.matrix), states.DensityOperator(sigma.matrix), q
        ).value

    @pytest.mark.parametrize(
        "rho, sigma, violation",
        [
            (states.density_from_pure([1, 2j, -1]), states.random_density(3, 5), False),
            (states.random_density(2, 6), diag_state(1.0, 0.0), True),
        ],
    )
    def test_hit_equals_fresh_value(self, rho, sigma, violation):
        entropy.tsallis_relative_entropy(rho, sigma, 0.5)
        for q in (0.0, 0.3, 1.0, 1.7):
            assert memo_hit(rho, sigma)
            value = entropy.tsallis_relative_entropy(rho, sigma, q).value
            assert value == self.fresh(rho, sigma, q)
            assert math.isinf(value) == (violation and q >= 1.0)

    def test_alternating_sigmas(self):
        rho = states.random_density(3, 7)
        sigma1, sigma2 = states.random_density(3, 8), states.random_density(3, 9)
        for sigma in (sigma1, sigma2, sigma1):
            for q in (0.3, 1.7):
                value = entropy.tsallis_relative_entropy(rho, sigma, q).value
                assert value == self.fresh(rho, sigma, q)

    def test_sigma_not_kept_alive(self):
        rho, sigma = states.random_density(2, 10), states.random_density(2, 11)
        entropy.tsallis_relative_entropy(rho, sigma, 0.5)
        ref = weakref.ref(sigma)
        del sigma
        gc.collect()
        assert ref() is None

    def test_failed_call_stores_nothing(self):
        rho, good = states.random_density(2, 12), diag_state(0.5, 0.5)
        bad = states.DensityOperator(np.diag([1.5, -0.5]))
        for _ in range(2):
            with pytest.raises(NotPSDError):
                entropy.tsallis_relative_entropy(rho, bad, 0.5)
            assert not memo_hit(rho, bad)
        entropy.tsallis_relative_entropy(rho, good, 0.5)
        with pytest.raises(NotPSDError):
            entropy.umegaki_relative_entropy(rho, bad)
        assert memo_hit(rho, good) and not memo_hit(rho, bad)

    def test_pickle_and_deepcopy_after_a_call(self):
        rho, sigma = states.random_density(3, 13), states.random_density(3, 14)
        unused = states.random_density(3, 15)  # spectrum never computed
        value = entropy.tsallis_relative_entropy(rho, sigma, 0.4).value
        triple = (rho, sigma, unused)
        for restored in (pickle.loads(pickle.dumps(triple)), copy.deepcopy(triple)):
            for state in restored:
                spec = state.spectrum
                for array in (state.matrix, spec.eigenvalues, spec.eigenvectors):
                    with pytest.raises(ValueError):
                        array[0] = 0.9
            assert entropy.tsallis_relative_entropy(*restored[:2], 0.4).value == value


class TestJointDecomposition:
    """A fresh pair is decomposed by one stacked call, with the values of
    spectra computed one operator at a time."""

    #: the property suites' grid: q in (0, 1) and (1, 2]
    QS = [round(0.1 * k, 1) for k in range(1, 21) if k != 10]

    @staticmethod
    def fresh(rho, sigma):
        return states.DensityOperator(rho.matrix), states.DensityOperator(sigma.matrix)

    @pytest.mark.parametrize("dim", [2, 3, 4, 9, 16])
    def test_values_equal_separate_spectra(self, dim, monkeypatch):
        for rho, sigma, _ in _mixed_pairs(dim):
            joint, separate = self.fresh(rho, sigma), self.fresh(rho, sigma)
            for op in separate:
                op.spectrum
            calls, eig = [], linalg.eig_hermitian

            def counted(M):
                calls.append(M)
                return eig(M)

            monkeypatch.setattr(linalg, "eig_hermitian", counted)
            values = [entropy.tsallis_relative_entropy(*joint, q).value for q in self.QS]
            values.append(entropy.umegaki_relative_entropy(*joint).value)
            monkeypatch.undo()
            assert len(calls) == 1 and calls[0].shape == (2, dim, dim)
            ref = [entropy.tsallis_relative_entropy(*separate, q).value for q in self.QS]
            ref.append(entropy.umegaki_relative_entropy(*separate).value)
            assert values == ref
            for a, b in zip(joint, separate):
                assert np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)
                assert np.array_equal(a.spectrum.eigenvectors, b.spectrum.eigenvectors)

    def test_same_operator(self):
        rho = states.random_density(3, 40)
        assert entropy.tsallis_relative_entropy(rho, rho, 0.5).value == pytest.approx(
            0.0, abs=1e-14
        )
        assert entropy.umegaki_relative_entropy(rho, rho).value == pytest.approx(
            0.0, abs=1e-14
        )

    @pytest.mark.parametrize(
        "M, error",
        [
            (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitianError),
            (np.diag([1.5, -0.5]), NotPSDError),
        ],
    )
    def test_invalid_sigma_raises_its_own_error(self, M, error):
        rho, sigma = states.random_density(2, 41), states.DensityOperator(M)
        with pytest.raises(error) as alone:
            states.DensityOperator(M).spectrum
        for _ in range(2):
            for call in (
                lambda: entropy.tsallis_relative_entropy(rho, sigma, 0.5),
                lambda: entropy.umegaki_relative_entropy(rho, sigma),
            ):
                with pytest.raises(error) as joint:
                    call()
                assert str(joint.value) == str(alone.value)
        spec, single = rho.spectrum, linalg.psd_spectrum(rho.matrix)
        assert np.array_equal(spec.eigenvalues, single.eigenvalues)
        assert np.array_equal(spec.eigenvectors, single.eigenvectors)
        for array in (spec.eigenvalues, spec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def _low_rank(dim, rank, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    M = G @ G.conj().T
    return states.DensityOperator(M / np.trace(M).real)


class TestSingleQAndGrid:
    """One q is a 1-D dot; a grid reduces each q with the same dot, so its
    entries equal the one-q values bit for bit."""

    QS = [round(0.05 * k, 2) for k in range(41)]

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_agreement(self, dim):
        full = states.random_density(dim, 300 + dim)
        pairs = [
            (full, states.random_density(dim, 400 + dim)),
            (_low_rank(dim, 1, 500 + dim), full),  # rank-deficient rho
            (full, _low_rank(dim, max(1, dim // 2), 600 + dim)),  # violation
        ]
        for rho, sigma in pairs:
            single = [entropy.tsallis_relative_entropy(rho, sigma, q).value for q in self.QS]
            assert single == [entropy._relative_entropies(rho, sigma, [q])[0] for q in self.QS]
            grid = entropy._relative_entropies(rho, sigma, self.QS[1:-1])
            assert grid == single[1:-1]
        assert math.isinf(single[-1])  # the violating pair at q = 2

    @pytest.mark.parametrize("dim", [2, 4, 9, 16])
    def test_value_does_not_depend_on_the_other_q(self, dim):
        qs = [round(0.05 * k, 2) for k in range(19)]
        for rho, sigma, _ in _mixed_pairs(dim):
            grid = entropy._relative_entropies(rho, sigma, qs)
            for extra in ([1.0], [1.0, 1.5]):
                longer = entropy._relative_entropies(rho, sigma, qs + extra)
                assert longer[: len(qs)] == grid


def _sliced_pair_terms(rho, sigma):
    """The pair terms as built before supports became masks: each support
    is a suffix of its sorted spectrum and is sliced out.  Kept here as the
    reference for the masked kernel."""
    p, U = rho.spectrum.eigenvalues, rho.spectrum.eigenvectors
    r, V = sigma.spectrum.eigenvalues, sigma.spectrum.eigenvectors
    i, j = (w.searchsorted(linalg.SUPPORT_TOL, "right") for w in (p, r))
    weight = np.abs(U[:, i:].conj().T @ V) ** 2 * p[i:, None]
    off_support = float(weight[:, :j].sum())
    weight = weight[:, j:].ravel()
    delta = np.subtract.outer(np.log(p[i:]), np.log(r[j:])).ravel()
    return weight, delta, off_support, float(weight @ delta)


def _mixed_pairs(dim):
    """(rho, sigma, both full rank) for one dimension: a full-rank pair, a
    rank-deficient rho, a pure rho and a sigma whose support misses rho's."""
    full = states.random_density(dim, 700 + dim)
    return [
        (full, states.random_density(dim, 800 + dim), True),
        (_low_rank(dim, max(1, dim - 1), 900 + dim), full, False),
        (_low_rank(dim, 1, 1000 + dim), states.random_density(dim, 1100 + dim), False),
        (full, _low_rank(dim, max(1, dim // 2), 1200 + dim), False),
    ]


def _close(a, b):
    return all(
        x == y or abs(x - y) <= 1e-14 * max(1.0, abs(y)) for x, y in zip(a, b, strict=True)
    )


class TestStackedKernel:
    """One pair or a stack of pairs of any ranks through one masked kernel."""

    QS = [round(0.05 * k, 2) for k in range(21)] + [1 - 1e-12, 1 + 1e-12, 1.5, 2.0]

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_table_rows_equal_per_pair_values(self, dim):
        pairs = _mixed_pairs(dim)
        table = entropy._relative_entropy_table(
            [rho for rho, _, _ in pairs], [sigma for _, sigma, _ in pairs], self.QS
        )
        assert table.shape == (len(pairs), len(self.QS))
        for row, (rho, sigma, full_rank) in zip(table.tolist(), pairs):
            ref = entropy._relative_entropies(rho, sigma, self.QS)
            assert [math.isinf(v) for v in row] == [math.isinf(v) for v in ref]
            assert _close(row, ref)
            if full_rank:
                assert row == ref
        assert math.isinf(table[3, -1]) and math.isfinite(table[3, 0])

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_masks_agree_with_sliced_supports(self, dim):
        for rho, sigma, full_rank in _mixed_pairs(dim):
            *terms, umegaki, violation = entropy._pair_terms(rho.spectrum, sigma.spectrum)
            weight, delta, off_support, ref_umegaki = _sliced_pair_terms(rho, sigma)
            assert violation == (off_support > entropy.SUPPORT_VIOLATION_TOL)
            assert _close([terms[2], umegaki], [off_support, ref_umegaki])
            for q in self.QS[1:]:
                if q >= 1.0 and violation:
                    continue
                if q == 1.0:
                    got, want = umegaki, ref_umegaki
                else:
                    got = float(np.expm1((q - 1) * terms[1]).dot(terms[0]))
                    got = (got - terms[2]) / (q - 1)
                    want = float(np.expm1((q - 1) * delta).dot(weight))
                    want = (want - off_support) / (q - 1)
                assert got == want if full_rank else _close([got], [want])

    def test_one_pair_stack_equals_the_single_call(self):
        for dim in (2, 5, 16):
            for rho, sigma, _ in _mixed_pairs(dim):
                single = entropy._pair_terms(rho.spectrum, sigma.spectrum)
                stack = entropy._pair_terms(
                    *(
                        linalg.Spectrum(s.eigenvalues[None], s.eigenvectors[None])
                        for s in (rho.spectrum, sigma.spectrum)
                    )
                )
                assert np.array_equal(stack[0], single[0][None])
                assert np.array_equal(stack[1], single[1][None])
                assert [x.tolist() for x in stack[2:]] == [[[x]] for x in single[2:]]
