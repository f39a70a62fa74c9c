"""Randomized property suites.

A suite is a trial function ``suite_<name>(check, t, s, grid=<default q
grid>, tol=<default tolerance>)`` plus its entry in ``SUITES``: it checks one
of the library's stated invariants on trial ``t`` with seed ``s`` and
reports each check as ``check(margin, detail, *args)``.  ``run_suites`` owns
the trial loop, the overrides, the ``MAX_TRIALS`` caps and the worst slack.
Trial ``t`` gets seed ``base_seed + t``, so trials can run in any order; the
objects inside a trial use small deterministic offsets of that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import channels, entanglement, entropy, linalg, states, werner

Q_BELOW_ONE = tuple(round(0.1 * k, 1) for k in range(1, 10))
Q_ABOVE_ONE = tuple(round(1.0 + 0.1 * k, 1) for k in range(1, 11))
Q_BOTH = Q_BELOW_ONE + Q_ABOVE_ONE
Q_WITH_ONE = Q_BELOW_ONE + (1.0,) + Q_ABOVE_ONE

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

    def record(self, trial: int, seed: int, margin: float, detail: str, *args) -> None:
        """margin >= 0 means the property held with that much room.

        A failure's text is ``detail.format(*args)``, formatted only when
        the check fails.
        """
        self.checks += 1
        if margin < self.worst_slack:
            self.worst_slack = margin
        if margin < 0:
            self.failures.append(
                PropertyFailure(self.name, trial, seed, detail.format(*args), margin)
            )


def _dim_for(trial: int) -> int:
    return DIMS[trial % len(DIMS)]


def _below_one(grid):
    return [q for q in grid if 0 < q < 1]


def _above_one(grid):
    return [q for q in grid if 1 < q <= 2]


def _pair(seed: int, dim: int):
    return states.random_density(dim, seed * 1000), states.random_density(
        dim, seed * 1000 + 1
    )


def _dq(rho, sigma, q) -> float:
    return entropy.tsallis_relative_entropy(rho, sigma, q).value


# --- entropy suites ----------------------------------------------------------


def suite_nonnegativity(check, t, s, grid=Q_BOTH, tol=1e-10):
    rho, sigma = _pair(s, _dim_for(t))
    for q in grid:
        d = _dq(rho, sigma, q)
        check(d + tol, "D_{}={:.3e}", q, d)


def suite_unitary_invariance(check, t, s, grid=Q_WITH_ONE, tol=1e-9):
    dim = _dim_for(t)
    rho, sigma = _pair(s, dim)
    U = states.random_unitary(dim, s * 1000 + 2)
    rho_u = states.DensityOperator(U @ rho.matrix @ U.conj().T)
    sigma_u = states.DensityOperator(U @ sigma.matrix @ U.conj().T)
    for q in grid:
        gap = abs(_dq(rho_u, sigma_u, q) - _dq(rho, sigma, q))
        check(tol - gap, "q={} |delta|={:.3e}", q, gap)


def suite_lemma_bounds(check, t, s, grid=Q_BOTH, tol=1e-9):
    """Lower bounds: trace-norm bound for q in (0,1); Umegaki and Pinsker
    chain for q in (1,2]."""
    rho, sigma = _pair(s, _dim_for(t))
    tnorm = linalg.trace_norm(rho.matrix - sigma.matrix)
    u = entropy.umegaki_relative_entropy(rho, sigma).value
    for q in _below_one(grid):
        d = _dq(rho, sigma, q)
        check(d - tnorm + tol, "q={} D={:.3e} T={:.3e}", q, d, tnorm)
    for q in _above_one(grid):
        d = _dq(rho, sigma, q)
        check(d - u + tol, "q={} D={:.3e} U={:.3e}", q, d, u)
    check(u - 0.5 * tnorm**2 + tol, "U={:.3e} T={:.3e}", u, tnorm)


def suite_equality_condition(check, t, s, grid=Q_BELOW_ONE, tol=0.0):
    """If the states are trace-norm separated by > 0.01 then D_q > 0.009."""
    rho, sigma = _pair(s, _dim_for(t))
    if linalg.trace_norm(rho.matrix - sigma.matrix) <= 0.01:
        return
    for q in _below_one(grid):
        d = _dq(rho, sigma, q)
        check(d - 0.009 + tol, "q={} D={:.3e}", q, d)


def suite_pseudoadditivity(check, t, s, grid=Q_BOTH, tol=1e-9):
    """Exact tensor-product identity for the deformed relative entropy.

    The absolute tolerance applies on q in (0, 1), where the values are
    bounded by 1/(1-q).  For q in (1, 2] the values blow up like the
    inverse smallest eigenvalue, so the identity is checked there at the
    same tolerance relative to the magnitudes involved.
    """
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
        check(tol * scale - residual, "q={} residual={:.3e}", q, residual)


def suite_q1_continuity(check, t, s, grid=None, tol=1e-3):
    """D_q approaches the Umegaki value as q -> 1.

    The deviation at q = 1 +/- 1e-4 is the step times the local
    q-derivative, which grows with log^2 of the smallest eigenvalue, so the
    trial pairs are kept safely full rank by mixing in a sliver of the
    maximally mixed state.
    """
    dim = _dim_for(t)
    raw = _pair(s, dim)
    eye = np.eye(dim) / dim
    rho, sigma = (states.DensityOperator(0.95 * st.matrix + 0.05 * eye) for st in raw)
    u = entropy.umegaki_relative_entropy(rho, sigma).value
    for q in (1.0 - 1e-4, 1.0 + 1e-4):
        gap = abs(_dq(rho, sigma, q) - u)
        check(tol - gap, "q={} |delta|={:.3e}", q, gap)


def suite_commuting_oracle(check, t, s, grid=Q_WITH_ONE, tol=1e-12):
    """Matrix-path D_q on simultaneously diagonal pairs against the scalar
    eigenvalue-sum formula."""
    dim = _dim_for(t)
    rng = np.random.default_rng(s * 1000)
    p = rng.dirichlet(np.ones(dim))
    r = rng.dirichlet(np.ones(dim))
    rho = states.DensityOperator(np.diag(p).astype(complex))
    sigma = states.DensityOperator(np.diag(r).astype(complex))
    for q in grid:
        scalar = entropy.tsallis_relative_entropy_diagonal(p, r, q)
        gap = abs(_dq(rho, sigma, q) - scalar)
        check(tol - gap, "q={} |delta|={:.3e}", q, gap)


# --- channel suites ----------------------------------------------------------


def suite_monotonicity(check, t, s, grid=Q_BOTH, tol=1e-9):
    """D_q never increases under CPTP maps: random channels for q < 1,
    depolarizing and pinching also for q in (1,2]."""
    lo_grid, hi_grid = _below_one(grid), _above_one(grid)
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
        for q in lo_grid if name == "random" else lo_grid + hi_grid:
            before = _dq(rho, sigma, q)
            after = _dq(out_r, out_s, q)
            check(before - after + tol, "{} q={} delta={:.3e}", name, q, after - before)


def suite_unitary_channel(check, t, s, grid=Q_BOTH, tol=1e-9):
    dim = _dim_for(t)
    rho, sigma = _pair(s, dim)
    phi = channels.make_channel([states.random_unitary(dim, s * 1000 + 2)])
    out_r = channels.apply_channel(phi, rho)
    out_s = channels.apply_channel(phi, sigma)
    for q in grid:
        gap = abs(_dq(out_r, out_s, q) - _dq(rho, sigma, q))
        check(tol - gap, "q={} |delta|={:.3e}", q, gap)


def suite_cptp_validity(check, t, s, grid=None, tol=1e-10):
    phi = channels.random_channel(_dim_for(t), 1 + t % 4, s)
    rep = channels.validate_cptp(phi, tol)
    check(tol - rep.defect, "defect={:.3e}", rep.defect)


# --- state suites ------------------------------------------------------------


def suite_araki_lieb(check, t, s, grid=None, tol=1e-9):
    sigma = states.random_bipartite(2, 2, s * 1000)
    s12 = entropy.von_neumann_entropy(sigma.state)
    s1 = entropy.von_neumann_entropy(sigma.reduction("A"))
    s2 = entropy.von_neumann_entropy(sigma.reduction("B"))
    check(s12 - abs(s1 - s2) + tol, "lower: S={:.4f}", s12)
    check(s1 + s2 - s12 + tol, "upper: S={:.4f}", s12)


def suite_state_constructors(check, t, s, grid=None, tol=1e-9):
    """Every constructor output passes density validation; pure bipartite
    states have equal reduction entropies."""
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
        check(margin, "constructor validation")
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pure = states.BipartiteState(states.density_from_pure(v), 2, 2)
    gap = abs(
        entropy.von_neumann_entropy(pure.reduction("A"))
        - entropy.von_neumann_entropy(pure.reduction("B"))
    )
    check(tol - gap, "pure reduction entropies, gap={:.3e}", gap)


# --- linalg suite ------------------------------------------------------------


def suite_linalg(check, t, s, grid=None, tol=1e-10):
    dim = _dim_for(t)
    rng = np.random.default_rng(s * 1000)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = G + G.conj().T
    spec = linalg.eig_hermitian(H)
    check(tol - linalg.frobenius_norm(spec.reconstruct() - H), "reconstruction")
    V = spec.eigenvectors
    check(tol - linalg.frobenius_norm(V.conj().T @ V - np.eye(dim)), "orthonormality")
    M = states.random_density(dim, s * 1000 + 1).matrix
    check(1e-12 - np.max(np.abs(linalg.matrix_power_q(M, 1.0) - M)), "power q=1")
    for q in (0.3, 0.5, 1.7):
        Mq = linalg.matrix_power_q(M, q)
        comm = linalg.frobenius_norm(M @ Mq - Mq @ M)
        check(tol - comm, "[M, M^{}]", q)
    A = states.random_density(dim, s * 1000 + 2).matrix - M
    B = states.random_density(dim, s * 1000 + 3).matrix - M
    check(linalg.trace_norm(A), "trace norm nonnegative")
    check(
        linalg.trace_norm(A) + linalg.trace_norm(B) - linalg.trace_norm(A + B) + 1e-12,
        "triangle inequality",
    )
    W = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    tr_gap = abs(np.trace(linalg.partial_trace(W, 2, 2, "A")) - np.trace(W))
    check(1e-12 - tr_gap, "partial trace preserves trace")


# --- entanglement suites ------------------------------------------------------


def _random_bipartite(s: int) -> states.BipartiteState:
    return states.random_bipartite(2, 2, s * 1000)


def suite_product_zero(check, t, s, grid=Q_BELOW_ONE, tol=1e-10):
    """Deformed measure is zero exactly on states equal to their reduced
    product: zero on products, strictly positive on correlated states."""
    rho = states.random_density(2, s * 1000)
    tau = states.random_density(2, s * 1000 + 1)
    product = states.BipartiteState(
        states.DensityOperator(linalg.kron(rho.matrix, tau.matrix)), 2, 2
    )
    corr = _random_bipartite(s + 7)
    gap = linalg.trace_norm(corr.matrix - states.reduced_product(corr).matrix)
    for q in _below_one(grid):
        ev = entanglement.tsallis_measure(product, q).value
        check(tol - abs(ev), "product q={} E={:.3e}", q, ev)
        if gap > 1e-3:
            ec = entanglement.tsallis_measure(corr, q).value
            check(ec - 1e-10, "correlated q={} E={:.3e}", q, ec)


def suite_local_unitary_invariance(check, t, s, grid=Q_BELOW_ONE, tol=1e-9):
    sigma = _random_bipartite(s)
    U = linalg.kron(
        states.random_unitary(2, s * 1000 + 2),
        states.random_unitary(2, s * 1000 + 3),
    )
    rotated = states.BipartiteState(
        states.DensityOperator(U @ sigma.matrix @ U.conj().T), 2, 2
    )
    for q in _below_one(grid):
        gap = abs(
            entanglement.tsallis_measure(rotated, q).value
            - entanglement.tsallis_measure(sigma, q).value
        )
        check(tol - gap, "q={} |delta|={:.3e}", q, gap)


def suite_local_channel_monotonicity(check, t, s, grid=Q_BELOW_ONE, tol=1e-9):
    sigma = _random_bipartite(s)
    phi = channels.local_channel(
        channels.random_channel(2, 2, s * 1000 + 2),
        channels.random_channel(2, 2, s * 1000 + 3),
    )
    out = states.BipartiteState(channels.apply_channel(phi, sigma.state), 2, 2)
    for q in _below_one(grid):
        before = entanglement.tsallis_measure(sigma, q).value
        after = entanglement.tsallis_measure(out, q).value
        check(before - after + tol, "q={} delta={:.3e}", q, after - before)


def suite_pure_mutual(check, t, s, grid=None, tol=1e-9):
    """On pure bipartite states the mutual-entropy measure doubles the
    reduction entropy."""
    rng = np.random.default_rng(s * 1000)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sigma = states.BipartiteState(states.density_from_pure(v), 2, 2)
    gap = abs(
        entanglement.mutual_entropy_measure(sigma).value
        - 2.0 * entanglement.pure_entanglement(sigma)
    )
    check(tol - gap, "|E^M - 2E| = {:.3e}", gap)


def suite_measure_subadditivity(check, t, s, grid=Q_BELOW_ONE, tol=1e-9):
    """Subadditivity and the exact pseudoadditivity identity of the deformed
    measure under tensoring with regrouped subsystems."""
    s1 = _random_bipartite(s)
    s2 = _random_bipartite(s + 11)
    joint = entanglement.tensor_bipartite(s1, s2)
    for q in _below_one(grid):
        a = entanglement.tsallis_measure(s1, q).value
        b = entanglement.tsallis_measure(s2, q).value
        ab = entanglement.tsallis_measure(joint, q).value
        check(a + b - ab + tol, "q={} sum={:.4f} joint={:.4f}", q, a + b, ab)
        residual = abs(ab - (a + b + (q - 1.0) * a * b))
        check(tol - residual, "q={} identity residual={:.3e}", q, residual)


def suite_measure_q1_limit(check, t, s, grid=None, tol=1e-3):
    sigma = _random_bipartite(s)
    gap = abs(
        entanglement.tsallis_measure(sigma, 1.0 - 1e-4).value
        - entanglement.mutual_entropy_measure(sigma).value
    )
    check(tol - gap, "|delta|={:.3e}", gap)


def suite_ordering(check, t, s, grid=None, tol=1e-9):
    """Optimizer upper bound on the relative entropy of entanglement never
    exceeds the mutual-entropy measure.  Expensive: runs the optimizer."""
    sigma = _random_bipartite(s)
    em = entanglement.mutual_entropy_measure(sigma).value
    # a lightly-converged upper bound is enough for an ordering check
    light = entanglement.OptimizerOptions(
        seed=s, restarts=2, explore_runs=1, polish_runs=20
    )
    er = entanglement.relative_entropy_of_entanglement(sigma, light).value
    check(em - er + tol, "E^R={:.4f} E^M={:.4f}", er, em)


def suite_werner(check, t, s, grid=None, tol=1e-10):
    """Closed forms against the matrix path on a (F, q) grid, plus the q -> 1
    limit and the q*-match at F = 0.9.  Deterministic: one trial."""
    qs = np.arange(0.05, 1.0, 0.05)
    Fs = np.linspace(0.0, 1.0, 21)
    for F, W in zip(Fs, states.werner_states(Fs)):
        # E_q^T(W) = D_q(W | W_A (x) W_B) on the whole q grid in one kernel call
        values = entropy._relative_entropies(W.state, W.product, qs)
        for q, value in zip(qs, values):
            gap = abs(werner.werner_tsallis_closed(float(F), float(q)) - value)
            check(tol - gap, "F={:.2f} q={:.2f} gap={:.2e}", F, q, gap)
        em = entanglement.mutual_entropy_measure(W).value
        gap = abs(werner.werner_tsallis_closed(float(F), 1.0 - 1e-5) - em)
        check(1e-3 - gap, "q->1 at F={:.2f}, gap={:.2e}", F, gap)
    report = entanglement.match_q(
        states.werner_state(0.9), werner.werner_er_closed(0.9), tol=1e-8
    )
    check(0.40 - report.q_star, "q*={:.4f}", report.q_star)
    check(report.q_star - 0.30, "q*={:.4f}", report.q_star)
    gap = abs(
        werner.werner_tsallis_closed(0.9, report.q_star) - werner.werner_er_closed(0.9)
    )
    check(1e-6 - gap, "closed-form residual {:.2e}", gap)


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

#: trial caps: ``ordering`` runs the E^R optimizer; ``werner`` is deterministic
MAX_TRIALS = {"ordering": 2, "werner": 1}


def run_suites(names, trials: int, base_seed: int, q_grid=None, tol_overrides=None):
    """A non-empty ``q_grid`` replaces every suite's default grid."""
    results = []
    for name in names:
        kwargs = {"grid": q_grid} if q_grid else {}
        if tol_overrides and name in tol_overrides:
            kwargs["tol"] = tol_overrides[name]
        res = SuiteResult(name, min(trials, MAX_TRIALS.get(name, trials)))
        for t in range(res.trials):
            s = base_seed + t
            SUITES[name](partial(res.record, t, s), t, s, **kwargs)
        results.append(res)
    return results
