import math

import numpy as np
import pytest

from qent import werner
from qent.entanglement import mutual_entropy_measure, tsallis_measure
from qent.errors import OutOfRangeError
from qent.states import bell_vector, werner_state


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


@pytest.mark.parametrize("F", [0.0, 0.3, 0.9, 1.0])
def test_werner_state_is_the_projector_sum(F):
    def projector(kind):
        v = bell_vector(kind)
        return np.outer(v, v.conj()) / np.vdot(v, v).real

    M = F * projector("psi-")
    for kind in ("psi+", "phi-", "phi+"):
        M = M + (1.0 - F) / 3.0 * projector(kind)
    assert np.array_equal(werner_state(F).matrix, M)


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
