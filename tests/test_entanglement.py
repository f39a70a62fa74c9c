import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qent import entanglement, linalg, states
from qent.entanglement import OptimizerOptions
from qent.errors import DomainError, NoRootError, NotPureError
from qent.werner import werner_er_closed, werner_tsallis_closed


def product_state(seed):
    rho = states.random_density(2, seed)
    tau = states.random_density(2, seed + 1)
    return states.BipartiteState(
        states.DensityOperator(linalg.kron(rho.matrix, tau.matrix)), 2, 2
    )


class TestPureEntanglement:
    def test_bell_state(self):
        assert entanglement.pure_entanglement(states.bell_state("phi+")) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_product_pure(self):
        v = np.kron([1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        sigma = states.BipartiteState(states.density_from_pure(v), 2, 2)
        assert entanglement.pure_entanglement(sigma) == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled(self):
        theta = math.pi / 8
        v = np.array([math.cos(theta), 0, 0, math.sin(theta)])
        sigma = states.BipartiteState(states.density_from_pure(v), 2, 2)
        c, s = math.cos(theta) ** 2, math.sin(theta) ** 2
        expected = -c * math.log(c) - s * math.log(s)
        assert entanglement.pure_entanglement(sigma) == pytest.approx(expected, abs=1e-12)

    def test_rejects_mixed(self):
        with pytest.raises(NotPureError):
            entanglement.pure_entanglement(states.werner_state(0.7))


class TestMutualEntropyMeasure:
    def test_product_is_zero(self):
        assert entanglement.mutual_entropy_measure(product_state(3)).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_bell_state(self):
        out = entanglement.mutual_entropy_measure(states.bell_state("phi+"))
        assert out.value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_werner_09(self):
        expected = (
            2 * math.log(2)
            + 0.9 * math.log(0.9)
            + 0.1 * math.log(0.1)
            - 0.1 * math.log(3)
        )
        out = entanglement.mutual_entropy_measure(states.werner_state(0.9))
        assert out.value == pytest.approx(expected, abs=1e-12)


class TestTsallisMeasure:
    def test_q_zero_is_zero(self):
        sigma = states.random_bipartite(2, 2, 17)
        assert entanglement.tsallis_measure(sigma, 0.0).value == 0.0

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_product_is_zero(self, q):
        assert entanglement.tsallis_measure(product_state(5), q).value == pytest.approx(
            0.0, abs=1e-11
        )

    def test_werner_09_q035(self):
        out = entanglement.tsallis_measure(states.werner_state(0.9), 0.35)
        assert out.value == pytest.approx(0.3663, abs=5e-4)
        # the deformed value sits close to the relative entropy of
        # entanglement for this parameter choice
        assert abs(out.value - werner_er_closed(0.9)) < 0.01

    def test_q_one_dispatches_to_mutual(self):
        sigma = states.random_bipartite(2, 2, 21)
        a = entanglement.tsallis_measure(sigma, 1.0).value
        b = entanglement.mutual_entropy_measure(sigma).value
        assert a == b


@pytest.mark.slow
class TestSeparableOptimizer:
    light = OptimizerOptions(seed=3, restarts=2, explore_runs=1, polish_runs=30)

    def test_separable_input_near_zero(self):
        rng = np.random.default_rng(0)
        weights = rng.dirichlet(np.ones(4))
        M = np.zeros((4, 4), dtype=complex)
        for i, w in enumerate(weights):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            M += w * np.outer(v, v.conj())
        sigma = states.BipartiteState(states.DensityOperator(M), 2, 2)
        out = entanglement.relative_entropy_of_entanglement(sigma, self.light)
        assert out.value < 1e-3
        assert out.optimizer_state is not None

    def test_upper_bound_below_mutual(self):
        sigma = states.random_bipartite(2, 2, 41)
        er = entanglement.relative_entropy_of_entanglement(sigma, self.light).value
        em = entanglement.mutual_entropy_measure(sigma).value
        assert er <= em + 1e-9

    def test_decomposition_is_valid(self):
        sigma = states.werner_state(0.7)
        out = entanglement.relative_entropy_of_entanglement(sigma, self.light)
        decomp = out.optimizer_state
        assert decomp.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.linalg.norm(decomp.factorsA, axis=1), 1.0, atol=1e-12)
        assert states.validate_density(decomp.assemble(), 1e-9).passed


class TestMatchQ:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_or_tol(self, value):
        W = states.werner_state(0.9)
        with pytest.raises(DomainError):
            entanglement.match_q(W, value)
        with pytest.raises(DomainError):
            entanglement.match_q(W, 0.3, tol=value)

    def test_target_zero(self):
        report = entanglement.match_q(states.werner_state(0.9), 0.0)
        assert report.q_star == 0.0

    def test_werner_09_closed_form_target(self):
        report = entanglement.match_q(
            states.werner_state(0.9), werner_er_closed(0.9), tol=1e-8
        )
        assert 0.30 <= report.q_star <= 0.40
        assert report.residual < 1e-8
        assert report.brackets

    def test_target_at_mutual_boundary(self):
        sigma = states.werner_state(0.9)
        em = entanglement.mutual_entropy_measure(sigma).value
        report = entanglement.match_q(sigma, em)
        assert report.boundary
        assert report.q_star > 0.99

    @pytest.mark.parametrize("F", [0.6, 0.75, 0.9, 1.0])
    def test_matches_closed_form_root(self, F):
        # at F = 1 the only sign change is the jump of D_q at q = 0+ for the
        # pure singlet (D_0 = 0, D_0+ = 3/4 > ln 2): the closed form
        # (1 - 4**(q-1))/(1-q) stays above ln 2 on all of (0, 1), so no root
        target = werner_er_closed(F)
        if F == 1.0:
            qs = np.linspace(1e-9, 1.0 - 1e-9, 1001)
            assert min(werner_tsallis_closed(F, q) for q in qs) > target
            with pytest.raises(NoRootError, match="discontinuity"):
                entanglement.match_q(states.werner_state(F), target)
            return
        report = entanglement.match_q(states.werner_state(F), target)
        lo, hi = report.brackets[0]
        root = brentq(lambda q: werner_tsallis_closed(F, q) - target, lo, hi, xtol=1e-15)
        assert abs(report.q_star - root) <= 1e-10
        assert not report.boundary

    def test_target_above_mutual(self):
        with pytest.raises(NoRootError):
            entanglement.match_q(states.werner_state(0.9), 10.0)


class TestTensorBipartite:
    def test_regrouped_reductions(self):
        s1 = states.random_bipartite(2, 2, 50)
        s2 = states.random_bipartite(2, 2, 51)
        joint = entanglement.tensor_bipartite(s1, s2)
        assert joint.dA == 4 and joint.dB == 4
        expected_a = linalg.kron(s1.reduction("A").matrix, s2.reduction("A").matrix)
        assert np.allclose(joint.reduction("A").matrix, expected_a, atol=1e-12)

    @pytest.mark.parametrize("q", [0.25, 0.6])
    def test_pseudoadditivity_identity(self, q):
        s1 = states.random_bipartite(2, 2, 60)
        s2 = states.random_bipartite(2, 2, 61)
        a = entanglement.tsallis_measure(s1, q).value
        b = entanglement.tsallis_measure(s2, q).value
        joint = entanglement.tsallis_measure(entanglement.tensor_bipartite(s1, s2), q).value
        assert joint == pytest.approx(a + b + (q - 1) * a * b, abs=1e-9)
        assert joint <= a + b + 1e-9  # subadditivity


class TestProductDetection:
    def test_product(self):
        assert entanglement.is_product_state(product_state(70))

    def test_correlated(self):
        # classically correlated separable state is not its own reduced product
        M = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        sigma = states.BipartiteState(states.DensityOperator(M), 2, 2)
        assert not entanglement.is_product_state(sigma)
        assert entanglement.tsallis_measure(sigma, 0.5).value > 1e-6
