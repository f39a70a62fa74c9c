"""Randomized property suites.

Each suite replays a fixed number of seeded trials against one of the
library's stated invariants and reports the worst observed slack.  The
per-trial seed is ``base_seed + trial_index``, so trials can run in any
order (or in parallel) without changing the outcome; sub-objects inside a
trial use small deterministic offsets of that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, entanglement, entropy, linalg, states, werner

Q_BELOW_ONE = tuple(round(0.1 * k, 1) for k in range(1, 10))
Q_ABOVE_ONE = tuple(round(1.0 + 0.1 * k, 1) for k in range(1, 11))

DIMS = (2, 3, 4)


@dataclass(frozen=True)
class PropertyFailure:
    suite: str
    trial: int
    seed: int
    detail: str
    slack: float


@dataclass
class SuiteResult:
    name: str
    trials: int
    checks: int = 0
    worst_slack: float = math.inf  # most negative margin seen (inf = untouched)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, trial: int, seed: int, margin: float, detail: str) -> None:
        """margin >= 0 means the property held with that much room."""
        self.checks += 1
        if margin < self.worst_slack:
            self.worst_slack = margin
        if margin < 0:
            self.failures.append(
                PropertyFailure(self.name, trial, seed, detail, margin)
            )


def _trial_seed(base_seed: int, trial: int) -> int:
    return base_seed + trial


def _dim_for(trial: int) -> int:
    return DIMS[trial % len(DIMS)]


def _pair(seed: int, dim: int):
    return states.random_density(dim, seed * 1000), states.random_density(
        dim, seed * 1000 + 1
    )


def _dq(rho, sigma, q) -> float:
    return entropy.tsallis_relative_entropy(rho, sigma, q).value


# --- entropy suites ----------------------------------------------------------


def suite_nonnegativity(trials, base_seed, q_grid=None, tol=1e-10):
    res = SuiteResult("nonnegativity", trials)
    grid = q_grid or Q_BELOW_ONE + Q_ABOVE_ONE
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        rho, sigma = _pair(s, _dim_for(t))
        for q in grid:
            d = _dq(rho, sigma, q)
            res.record(t, s, d + tol, f"D_{q}={d:.3e}")
    return res


def suite_unitary_invariance(trials, base_seed, q_grid=None, tol=1e-9):
    res = SuiteResult("unitary-invariance", trials)
    grid = q_grid or Q_BELOW_ONE + (1.0,) + Q_ABOVE_ONE
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        rho, sigma = _pair(s, dim)
        U = states.random_unitary(dim, s * 1000 + 2)
        rho_u = states.DensityOperator(U @ rho.matrix @ U.conj().T)
        sigma_u = states.DensityOperator(U @ sigma.matrix @ U.conj().T)
        for q in grid:
            gap = abs(_dq(rho_u, sigma_u, q) - _dq(rho, sigma, q))
            res.record(t, s, tol - gap, f"q={q} |delta|={gap:.3e}")
    return res


def suite_lemma_bounds(trials, base_seed, q_grid=None, tol=1e-9):
    """Lower bounds: trace-norm bound for q in (0,1); Umegaki and Pinsker
    chain for q in (1,2]."""
    res = SuiteResult("lemma-bounds", trials)
    lo_grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    hi_grid = [q for q in (q_grid or Q_ABOVE_ONE) if 1 < q <= 2]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        rho, sigma = _pair(s, _dim_for(t))
        tnorm = linalg.trace_norm(rho.matrix - sigma.matrix)
        u = entropy.umegaki_relative_entropy(rho, sigma).value
        for q in lo_grid:
            d = _dq(rho, sigma, q)
            res.record(t, s, d - tnorm + tol, f"q={q} D={d:.3e} T={tnorm:.3e}")
        for q in hi_grid:
            d = _dq(rho, sigma, q)
            res.record(t, s, d - u + tol, f"q={q} D={d:.3e} U={u:.3e}")
        res.record(t, s, u - 0.5 * tnorm**2 + tol, f"U={u:.3e} T={tnorm:.3e}")
    return res


def suite_equality_condition(trials, base_seed, q_grid=None, tol=0.0):
    """If the states are trace-norm separated by > 0.01 then D_q > 0.009."""
    res = SuiteResult("equality-condition", trials)
    grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        rho, sigma = _pair(s, _dim_for(t))
        if linalg.trace_norm(rho.matrix - sigma.matrix) <= 0.01:
            continue
        for q in grid:
            d = _dq(rho, sigma, q)
            res.record(t, s, d - 0.009, f"q={q} D={d:.3e}")
    return res


def suite_pseudoadditivity(trials, base_seed, q_grid=None, tol=1e-9):
    """Exact tensor-product identity for the deformed relative entropy.

    The absolute tolerance applies on q in (0, 1), where the values are
    bounded by 1/(1-q).  For q in (1, 2] the values blow up like the
    inverse smallest eigenvalue, so the identity is checked there at the
    same tolerance relative to the magnitudes involved.
    """
    res = SuiteResult("pseudoadditivity", trials)
    grid = q_grid or Q_BELOW_ONE + Q_ABOVE_ONE
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        d1 = _dim_for(t)
        d2 = _dim_for(t + 1)
        rho1, sigma1 = _pair(s, d1)
        rho2 = states.random_density(d2, s * 1000 + 2)
        sigma2 = states.random_density(d2, s * 1000 + 3)
        rho12 = states.DensityOperator(linalg.kron(rho1.matrix, rho2.matrix))
        sigma12 = states.DensityOperator(linalg.kron(sigma1.matrix, sigma2.matrix))
        for q in grid:
            a = _dq(rho1, sigma1, q)
            b = _dq(rho2, sigma2, q)
            joint = _dq(rho12, sigma12, q)
            residual = abs(joint - (a + b + (q - 1.0) * a * b))
            scale = 1.0 if q < 1.0 else 1.0 + abs(a) + abs(b) + abs(joint)
            res.record(
                t, s, tol * scale - residual, f"q={q} residual={residual:.3e}"
            )
    return res


def suite_q1_continuity(trials, base_seed, q_grid=None, tol=1e-3):
    """D_q approaches the Umegaki value as q -> 1.

    The deviation at q = 1 +/- 1e-4 is the step times the local
    q-derivative, which grows with log^2 of the smallest eigenvalue, so the
    trial pairs are kept safely full rank by mixing in a sliver of the
    maximally mixed state.
    """
    res = SuiteResult("q1-continuity", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        raw = _pair(s, dim)
        eye = np.eye(dim) / dim
        rho, sigma = (
            states.DensityOperator(0.95 * st.matrix + 0.05 * eye) for st in raw
        )
        u = entropy.umegaki_relative_entropy(rho, sigma).value
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            gap = abs(_dq(rho, sigma, q) - u)
            res.record(t, s, tol - gap, f"q={q} |delta|={gap:.3e}")
    return res


def suite_commuting_oracle(trials, base_seed, q_grid=None, tol=1e-12):
    """Matrix-path D_q on simultaneously diagonal pairs against the scalar
    eigenvalue-sum formula."""
    res = SuiteResult("commuting-oracle", trials)
    grid = q_grid or Q_BELOW_ONE + (1.0,) + Q_ABOVE_ONE
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        rng = np.random.default_rng(s * 1000)
        p = rng.dirichlet(np.ones(dim))
        r = rng.dirichlet(np.ones(dim))
        rho = states.DensityOperator(np.diag(p).astype(complex))
        sigma = states.DensityOperator(np.diag(r).astype(complex))
        for q in grid:
            scalar = entropy.tsallis_relative_entropy_diagonal(p, r, q)
            gap = abs(_dq(rho, sigma, q) - scalar)
            res.record(t, s, tol - gap, f"q={q} |delta|={gap:.3e}")
    return res


# --- channel suites ----------------------------------------------------------


def suite_monotonicity(trials, base_seed, q_grid=None, tol=1e-9):
    """D_q never increases under CPTP maps: random channels for q < 1,
    depolarizing and pinching also for q in (1,2]."""
    res = SuiteResult("monotonicity", trials)
    lo_grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    hi_grid = [q for q in (q_grid or Q_ABOVE_ONE) if 1 < q <= 2]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        rho, sigma = _pair(s, dim)
        rng = np.random.default_rng(s * 1000 + 4)
        named = {
            "random": channels.random_channel(dim, 2 + t % 3, s * 1000 + 2),
            "depolarizing": channels.depolarizing_channel(dim, float(rng.uniform())),
            "pinching": channels.basis_pinching_channel(dim),
        }
        for name, phi in named.items():
            out_r = channels.apply_channel(phi, rho)
            out_s = channels.apply_channel(phi, sigma)
            grid = lo_grid if name == "random" else lo_grid + hi_grid
            for q in grid:
                before = _dq(rho, sigma, q)
                after = _dq(out_r, out_s, q)
                res.record(
                    t, s, before - after + tol, f"{name} q={q} delta={after - before:.3e}"
                )
    return res


def suite_unitary_channel(trials, base_seed, q_grid=None, tol=1e-9):
    res = SuiteResult("unitary-channel", trials)
    grid = q_grid or Q_BELOW_ONE + Q_ABOVE_ONE
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        rho, sigma = _pair(s, dim)
        phi = channels.make_channel([states.random_unitary(dim, s * 1000 + 2)])
        out_r = channels.apply_channel(phi, rho)
        out_s = channels.apply_channel(phi, sigma)
        for q in grid:
            gap = abs(_dq(out_r, out_s, q) - _dq(rho, sigma, q))
            res.record(t, s, tol - gap, f"q={q} |delta|={gap:.3e}")
    return res


def suite_cptp_validity(trials, base_seed, q_grid=None, tol=1e-10):
    res = SuiteResult("cptp-validity", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        phi = channels.random_channel(dim, 1 + t % 4, s)
        rep = channels.validate_cptp(phi, tol)
        res.record(t, s, tol - rep.defect, f"defect={rep.defect:.3e}")
    return res


# --- state suites ------------------------------------------------------------


def suite_araki_lieb(trials, base_seed, q_grid=None, tol=1e-9):
    res = SuiteResult("araki-lieb", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        sigma = states.random_bipartite(2, 2, s * 1000)
        s12 = entropy.von_neumann_entropy(sigma.state)
        s1 = entropy.von_neumann_entropy(sigma.reduction("A"))
        s2 = entropy.von_neumann_entropy(sigma.reduction("B"))
        res.record(t, s, s12 - abs(s1 - s2) + tol, f"lower: S={s12:.4f}")
        res.record(t, s, s1 + s2 - s12 + tol, f"upper: S={s12:.4f}")
    return res


def suite_state_constructors(trials, base_seed, q_grid=None, tol=1e-9):
    """Every constructor output passes density validation; pure bipartite
    states have equal reduction entropies."""
    res = SuiteResult("state-constructors", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        rng = np.random.default_rng(s * 1000)
        built = [
            states.random_density(_dim_for(t), s * 1000).matrix,
            states.werner_state(float(rng.uniform())).matrix,
            states.bell_state(["psi+", "psi-", "phi+", "phi-"][t % 4]).matrix,
        ]
        for M in built:
            rep = states.validate_density(M, tol)
            margin = min(
                tol - rep.hermiticity_defect,
                tol - rep.trace_defect,
                rep.min_eigenvalue + tol,
            )
            res.record(t, s, margin, "constructor validation")
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pure = states.BipartiteState(states.density_from_pure(v), 2, 2)
        gap = abs(
            entropy.von_neumann_entropy(pure.reduction("A"))
            - entropy.von_neumann_entropy(pure.reduction("B"))
        )
        res.record(t, s, tol - gap, f"pure reduction entropies, gap={gap:.3e}")
    return res


# --- linalg suite ------------------------------------------------------------


def suite_linalg(trials, base_seed, q_grid=None, tol=1e-10):
    res = SuiteResult("linalg", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        dim = _dim_for(t)
        rng = np.random.default_rng(s * 1000)
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = G + G.conj().T
        spec = linalg.eig_hermitian(H)
        res.record(
            t, s, tol - linalg.frobenius_norm(spec.reconstruct() - H), "reconstruction"
        )
        V = spec.eigenvectors
        res.record(
            t,
            s,
            tol - linalg.frobenius_norm(V.conj().T @ V - np.eye(dim)),
            "orthonormality",
        )
        M = states.random_density(dim, s * 1000 + 1).matrix
        res.record(
            t, s, 1e-12 - np.max(np.abs(linalg.matrix_power_q(M, 1.0) - M)), "power q=1"
        )
        for q in (0.3, 0.5, 1.7):
            Mq = linalg.matrix_power_q(M, q)
            comm = linalg.frobenius_norm(M @ Mq - Mq @ M)
            res.record(t, s, tol - comm, f"[M, M^{q}]")
        A = states.random_density(dim, s * 1000 + 2).matrix - M
        B = states.random_density(dim, s * 1000 + 3).matrix - M
        res.record(t, s, linalg.trace_norm(A), "trace norm nonnegative")
        res.record(
            t,
            s,
            linalg.trace_norm(A) + linalg.trace_norm(B) - linalg.trace_norm(A + B)
            + 1e-12,
            "triangle inequality",
        )
        W = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tr_gap = abs(np.trace(linalg.partial_trace(W, 2, 2, "A")) - np.trace(W))
        res.record(t, s, 1e-12 - tr_gap, "partial trace preserves trace")
    return res


# --- entanglement suites ------------------------------------------------------


def _random_bipartite(s: int) -> states.BipartiteState:
    return states.random_bipartite(2, 2, s * 1000)


def suite_product_zero(trials, base_seed, q_grid=None, tol=1e-10):
    """Deformed measure is zero exactly on states equal to their reduced
    product: zero on products, strictly positive on correlated states."""
    res = SuiteResult("product-zero", trials)
    grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        rho = states.random_density(2, s * 1000)
        tau = states.random_density(2, s * 1000 + 1)
        product = states.BipartiteState(
            states.DensityOperator(linalg.kron(rho.matrix, tau.matrix)), 2, 2
        )
        corr = _random_bipartite(s + 7)
        gap = linalg.trace_norm(
            corr.matrix - states.reduced_product(corr).matrix
        )
        for q in grid:
            ev = entanglement.tsallis_measure(product, q).value
            res.record(t, s, tol - abs(ev), f"product q={q} E={ev:.3e}")
            if gap > 1e-3:
                ec = entanglement.tsallis_measure(corr, q).value
                res.record(t, s, ec - 1e-10, f"correlated q={q} E={ec:.3e}")
    return res


def suite_local_unitary_invariance(trials, base_seed, q_grid=None, tol=1e-9):
    res = SuiteResult("local-unitary-invariance", trials)
    grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        sigma = _random_bipartite(s)
        U = linalg.kron(
            states.random_unitary(2, s * 1000 + 2),
            states.random_unitary(2, s * 1000 + 3),
        )
        rotated = states.BipartiteState(
            states.DensityOperator(U @ sigma.matrix @ U.conj().T), 2, 2
        )
        for q in grid:
            gap = abs(
                entanglement.tsallis_measure(rotated, q).value
                - entanglement.tsallis_measure(sigma, q).value
            )
            res.record(t, s, tol - gap, f"q={q} |delta|={gap:.3e}")
    return res


def suite_local_channel_monotonicity(trials, base_seed, q_grid=None, tol=1e-9):
    res = SuiteResult("local-channel-monotonicity", trials)
    grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        sigma = _random_bipartite(s)
        phi = channels.local_channel(
            channels.random_channel(2, 2, s * 1000 + 2),
            channels.random_channel(2, 2, s * 1000 + 3),
        )
        out = states.BipartiteState(channels.apply_channel(phi, sigma.state), 2, 2)
        for q in grid:
            before = entanglement.tsallis_measure(sigma, q).value
            after = entanglement.tsallis_measure(out, q).value
            res.record(t, s, before - after + tol, f"q={q} delta={after - before:.3e}")
    return res


def suite_pure_mutual(trials, base_seed, q_grid=None, tol=1e-9):
    """On pure bipartite states the mutual-entropy measure doubles the
    reduction entropy."""
    res = SuiteResult("pure-mutual", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        rng = np.random.default_rng(s * 1000)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sigma = states.BipartiteState(states.density_from_pure(v), 2, 2)
        gap = abs(
            entanglement.mutual_entropy_measure(sigma).value
            - 2.0 * entanglement.pure_entanglement(sigma)
        )
        res.record(t, s, tol - gap, f"|E^M - 2E| = {gap:.3e}")
    return res


def suite_measure_subadditivity(trials, base_seed, q_grid=None, tol=1e-9):
    """Subadditivity and the exact pseudoadditivity identity of the deformed
    measure under tensoring with regrouped subsystems."""
    res = SuiteResult("measure-subadditivity", trials)
    grid = [q for q in (q_grid or Q_BELOW_ONE) if 0 < q < 1]
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        s1 = _random_bipartite(s)
        s2 = _random_bipartite(s + 11)
        joint = entanglement.tensor_bipartite(s1, s2)
        for q in grid:
            a = entanglement.tsallis_measure(s1, q).value
            b = entanglement.tsallis_measure(s2, q).value
            ab = entanglement.tsallis_measure(joint, q).value
            res.record(t, s, a + b - ab + tol, f"q={q} sum={a + b:.4f} joint={ab:.4f}")
            residual = abs(ab - (a + b + (q - 1.0) * a * b))
            res.record(t, s, tol - residual, f"q={q} identity residual={residual:.3e}")
    return res


def suite_measure_q1_limit(trials, base_seed, q_grid=None, tol=1e-3):
    res = SuiteResult("measure-q1-limit", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        sigma = _random_bipartite(s)
        gap = abs(
            entanglement.tsallis_measure(sigma, 1.0 - 1e-4).value
            - entanglement.mutual_entropy_measure(sigma).value
        )
        res.record(t, s, tol - gap, f"|delta|={gap:.3e}")
    return res


def suite_ordering(trials, base_seed, q_grid=None, tol=1e-9):
    """Optimizer upper bound on the relative entropy of entanglement never
    exceeds the mutual-entropy measure.  Expensive: runs the optimizer."""
    res = SuiteResult("ordering", trials)
    for t in range(trials):
        s = _trial_seed(base_seed, t)
        sigma = _random_bipartite(s)
        em = entanglement.mutual_entropy_measure(sigma).value
        # a lightly-converged upper bound is enough for an ordering check
        light = entanglement.OptimizerOptions(
            seed=s, restarts=2, explore_runs=1, polish_runs=20
        )
        er = entanglement.relative_entropy_of_entanglement(sigma, light).value
        res.record(t, s, em - er + tol, f"E^R={er:.4f} E^M={em:.4f}")
    return res


def suite_werner(trials, base_seed, q_grid=None, tol=1e-10):
    """Closed forms against the matrix path on a (F, q) grid, plus the q -> 1
    limit and the q*-match at F = 0.9.  Deterministic; trials are ignored."""
    res = SuiteResult("werner", 1)
    qs = np.arange(0.05, 1.0, 0.05)
    for F in np.linspace(0.0, 1.0, 21):
        W = states.werner_state(float(F))
        # E_q^T(W) = D_q(W | W_A (x) W_B) on the whole q grid in one kernel call
        values = entropy._relative_entropies(W.state, W.product, qs)
        for q, value in zip(qs, values):
            gap = abs(werner.werner_tsallis_closed(float(F), float(q)) - value)
            res.record(0, base_seed, tol - gap, f"F={F:.2f} q={q:.2f} gap={gap:.2e}")
        em = entanglement.mutual_entropy_measure(W).value
        gap = abs(werner.werner_tsallis_closed(float(F), 1.0 - 1e-5) - em)
        res.record(0, base_seed, 1e-3 - gap, f"q->1 at F={F:.2f}, gap={gap:.2e}")
    report = entanglement.match_q(
        states.werner_state(0.9), werner.werner_er_closed(0.9), tol=1e-8
    )
    res.record(0, base_seed, 0.40 - report.q_star, f"q*={report.q_star:.4f}")
    res.record(0, base_seed, report.q_star - 0.30, f"q*={report.q_star:.4f}")
    gap = abs(
        werner.werner_tsallis_closed(0.9, report.q_star) - werner.werner_er_closed(0.9)
    )
    res.record(0, base_seed, 1e-6 - gap, f"closed-form residual {gap:.2e}")
    return res


SUITES = {
    "linalg": suite_linalg,
    "state-constructors": suite_state_constructors,
    "araki-lieb": suite_araki_lieb,
    "nonnegativity": suite_nonnegativity,
    "unitary-invariance": suite_unitary_invariance,
    "lemma-bounds": suite_lemma_bounds,
    "equality-condition": suite_equality_condition,
    "pseudoadditivity": suite_pseudoadditivity,
    "q1-continuity": suite_q1_continuity,
    "commuting-oracle": suite_commuting_oracle,
    "monotonicity": suite_monotonicity,
    "unitary-channel": suite_unitary_channel,
    "cptp-validity": suite_cptp_validity,
    "product-zero": suite_product_zero,
    "local-unitary-invariance": suite_local_unitary_invariance,
    "local-channel-monotonicity": suite_local_channel_monotonicity,
    "pure-mutual": suite_pure_mutual,
    "measure-subadditivity": suite_measure_subadditivity,
    "measure-q1-limit": suite_measure_q1_limit,
    "ordering": suite_ordering,
    "werner": suite_werner,
}

#: suites that run the separable-state optimizer; trial counts are capped
#: when running "all" so the full sweep stays interactive
EXPENSIVE_SUITES = {"ordering"}


def run_suites(names, trials: int, base_seed: int, q_grid=None, tol_overrides=None):
    tol_overrides = tol_overrides or {}
    results = []
    for name in names:
        fn = SUITES[name]
        n = min(trials, 2) if name in EXPENSIVE_SUITES else trials
        kwargs = {"q_grid": q_grid}
        if name in tol_overrides:
            kwargs["tol"] = tol_overrides[name]
        results.append(fn(n, base_seed, **kwargs))
    return results
