import copy
import math
import pickle

import numpy as np
import pytest

from qent import werner
from qent.entanglement import mutual_entropy_measure, tsallis_measure
from qent.errors import OutOfRangeError
from qent.linalg import psd_spectrum
from qent.states import bell_vector, werner_state, werner_states


class TestErClosed:
    def test_boundary(self):
        assert werner.werner_er_closed(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_singlet(self):
        assert werner.werner_er_closed(1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_below_threshold(self):
        assert werner.werner_er_closed(0.3) == 0.0

    def test_continuity_at_half(self):
        above = 0.5 * math.log(0.5) + 0.5 * math.log(0.5) + math.log(2)
        assert abs(above) < 1e-12
        assert werner.werner_er_closed(0.5 + 1e-9) < 1e-8

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            werner.werner_er_closed(-0.1)


class TestTsallisClosed:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_maximally_mixed_point(self, q):
        assert werner.werner_tsallis_closed(0.25, q) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("F", [0.0, 0.4, 1.0])
    def test_q_zero(self, F):
        assert werner.werner_tsallis_closed(F, 0.0) == 0.0

    def test_agrees_with_matrix_oracle_at_09(self):
        closed = werner.werner_tsallis_closed(0.9, 0.35)
        matrix = tsallis_measure(werner_state(0.9), 0.35).value
        assert closed == pytest.approx(matrix, abs=1e-10)
        assert closed == pytest.approx(0.3663, abs=5e-4)

    def test_grid_agreement(self):
        for F in np.linspace(0.0, 1.0, 11):
            for q in (0.15, 0.55, 0.95):
                closed = werner.werner_tsallis_closed(float(F), q)
                matrix = tsallis_measure(werner_state(float(F)), q).value
                assert abs(closed - matrix) < 1e-10

    def test_q_one_rejected(self):
        with pytest.raises(OutOfRangeError):
            werner.werner_tsallis_closed(0.5, 1.0)


class TestMutualClosed:
    @pytest.mark.parametrize("F", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_matches_matrix_path(self, F):
        matrix = mutual_entropy_measure(werner_state(F)).value
        assert abs(werner.werner_mutual(F) - matrix) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            werner.werner_mutual(1.5)


def _projector_sum(F):
    def projector(kind):
        v = bell_vector(kind)
        return np.outer(v, v.conj()) / np.vdot(v, v).real

    M = F * projector("psi-")
    for kind in ("psi+", "phi-", "phi+"):
        M = M + (1.0 - F) / 3.0 * projector(kind)
    return M


@pytest.mark.parametrize("F", [0.0, 0.3, 0.9, 1.0])
def test_werner_state_is_the_projector_sum(F):
    assert np.array_equal(werner_state(F).matrix, _projector_sum(F))


class TestWernerStates:
    @pytest.mark.parametrize(
        "Fs",
        [np.linspace(0.0, 1.0, 21), np.random.default_rng(11).uniform(0.0, 1.0, 40)],
        ids=["grid", "random"],
    )
    def test_stacks_equal_per_state_calls(self, Fs):
        for F, W in zip(Fs, werner_states(Fs), strict=True):
            M = _projector_sum(float(F))
            T = M.reshape(2, 2, 2, 2)
            A, B = np.trace(T, axis1=1, axis2=3), np.trace(T, axis1=0, axis2=2)
            product = np.kron(A, B)
            assert np.array_equal(W.matrix, M)
            assert np.array_equal(W.product.matrix, product)
            for op, matrix in ((W.state, M), (W.product, product)):
                single = psd_spectrum(matrix)
                assert np.array_equal(op.spectrum.eigenvalues, single.eigenvalues)
                assert np.array_equal(op.spectrum.eigenvectors, single.eigenvectors)

    @pytest.mark.parametrize("F", [-0.1, 1.5, math.nan])
    def test_out_of_range(self, F):
        with pytest.raises(OutOfRangeError, match="F must lie in"):
            werner_states([0.5, F, 0.7])
        with pytest.raises(OutOfRangeError, match="F must lie in"):
            werner_state(F)

    def test_arrays_read_only_after_pickle_and_deepcopy(self):
        W = werner_states([0.2, 0.9])[1]
        for restored in (W, pickle.loads(pickle.dumps(W)), copy.deepcopy(W)):
            assert np.array_equal(restored.matrix, W.matrix)
            for op in (restored.state, restored.product):
                spec = op.spectrum
                for array in (op.matrix, spec.eigenvalues, spec.eigenvectors):
                    with pytest.raises(ValueError, match="read-only"):
                        array[(0,) * array.ndim] = 0.0


class TestSweep:
    def test_figure_crossings(self):
        rows, report = werner.werner_sweep(0.5, 1.0, 0.005, 0.35)
        assert len(report.crossings) == 2
        first, second = report.crossings
        assert 0.85 < first < 0.95
        assert 0.96 < second < 1.0

    def test_q_zero_no_crossings(self):
        _, report = werner.werner_sweep(0.5, 1.0, 0.01, 0.0)
        assert report.crossings == ()

    def test_e_rel_zero_below_half(self):
        rows, _ = werner.werner_sweep(0.0, 0.5, 0.1, 0.35)
        assert all(r.e_rel == 0.0 for r in rows)

    def test_mutual_at_f_one(self):
        rows, _ = werner.werner_sweep(0.9, 1.0, 0.05, 0.35)
        assert rows[-1].F == pytest.approx(1.0)
        assert rows[-1].e_mutual == pytest.approx(2 * math.log(2), abs=1e-10)

    def test_bad_range(self):
        with pytest.raises(OutOfRangeError):
            werner.werner_sweep(0.8, 0.2, 0.1, 0.35)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan])
    def test_bad_step(self, step):
        with pytest.raises(OutOfRangeError):
            werner.werner_sweep(0.5, 1.0, step, 0.35)
