"""Entanglement measures on bipartite states.

Three measures are provided: the mutual-entropy degree (relative entropy
from the state to the product of its own reductions), its one-parameter
deformation built on the deformed relative entropy, and a numerical upper
bound on the relative entropy of entanglement obtained by derivative-free
minimization over explicit separable decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from . import linalg
from .entropy import (
    _relative_entropies,
    tsallis_relative_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from .errors import (
    DomainError,
    NoRootError,
    NotPureError,
    OptimizerFailureError,
)
from .states import BipartiteState, DensityOperator, reduced_product


@dataclass(frozen=True)
class SeparableDecomposition:
    """Convex mixture of product pure states: sum_i w_i |a_i><a_i| (x) |b_i><b_i|."""

    weights: np.ndarray
    factorsA: np.ndarray  # (N, dA) unit rows
    factorsB: np.ndarray  # (N, dB) unit rows

    def assemble(self) -> np.ndarray:
        vecs = np.einsum("na,nb->nab", self.factorsA, self.factorsB).reshape(
            len(self.weights), -1
        )
        return (vecs.T * self.weights) @ vecs.conj()

    def to_state(self) -> BipartiteState:
        dA = self.factorsA.shape[1]
        dB = self.factorsB.shape[1]
        return BipartiteState(DensityOperator(self.assemble()), dA, dB)


@dataclass(frozen=True)
class MeasureResult:
    value: float
    iterations: int = 0
    optimizer_state: SeparableDecomposition | None = None


@dataclass(frozen=True)
class QStarReport:
    q_star: float
    residual: float
    brackets: tuple
    boundary: bool = False


def pure_entanglement(sigma: BipartiteState, purity_tol: float = 1e-8) -> float:
    """Reduction entropy of a pure bipartite state."""
    purity = np.trace(sigma.matrix @ sigma.matrix).real
    if purity < 1.0 - purity_tol:
        raise NotPureError(f"Tr[rho^2] = {purity:.6f}, state is not pure")
    return von_neumann_entropy(sigma.reduction("A"))


def mutual_entropy_measure(sigma: BipartiteState) -> MeasureResult:
    """Relative entropy from sigma to the product of its reductions."""
    ev = umegaki_relative_entropy(sigma.state, reduced_product(sigma))
    return MeasureResult(value=ev.value)


def tsallis_measure(sigma: BipartiteState, q: float) -> MeasureResult:
    """Deformed relative entropy from sigma to its reduced product.

    q = 1 dispatches to the mutual-entropy measure (its limit); q = 0 is
    identically zero.
    """
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    ev = tsallis_relative_entropy(sigma.state, reduced_product(sigma), q)
    return MeasureResult(value=ev.value)


# --- relative entropy of entanglement ---------------------------------------


MAX_ITER = 20000  # cap per Nelder-Mead simplex run
STALL_TOL = 1e-8  # a run that improves the incumbent by less ends a phase


@dataclass(frozen=True)
class OptimizerOptions:
    restarts: int = 8
    explore_runs: int = 2  # simplex runs granted to every restart
    polish_runs: int = 40  # additional runs granted to the incumbent best
    seed: int = 0


def _unpack(x: np.ndarray, n: int, dA: int, dB: int):
    w2 = x[:n] ** 2
    total = w2.sum()
    weights = w2 / total if total > 0 else np.full(n, 1.0 / n)
    off = n
    A = (x[off : off + n * dA] + 1j * x[off + n * dA : off + 2 * n * dA]).reshape(
        n, dA
    )
    off += 2 * n * dA
    B = (x[off : off + n * dB] + 1j * x[off + n * dB : off + 2 * n * dB]).reshape(
        n, dB
    )
    normA = np.linalg.norm(A, axis=1)
    normB = np.linalg.norm(B, axis=1)
    normA[normA == 0] = 1.0
    normB[normB == 0] = 1.0
    return weights, A / normA[:, None], B / normB[:, None]


def _decomposition_from_params(x, n, dA, dB) -> SeparableDecomposition:
    w, A, B = _unpack(x, n, dA, dB)
    return SeparableDecomposition(weights=w, factorsA=A, factorsB=B)


def _pack(weights, A, B) -> np.ndarray:
    return np.concatenate(
        [
            np.sqrt(np.asarray(weights, dtype=float)),
            A.real.ravel(),
            A.imag.ravel(),
            B.real.ravel(),
            B.imag.ravel(),
        ]
    )


def _initial_points(sigma: BipartiteState, n: int, opts: OptimizerOptions):
    """One start expanding the reduced product in its eigenbasis, rest random."""
    dA, dB = sigma.dA, sigma.dB
    specA = linalg.eig_hermitian(sigma.reduction("A").matrix)
    specB = linalg.eig_hermitian(sigma.reduction("B").matrix)
    points = []
    for r in range(opts.restarts):
        rng = np.random.default_rng((opts.seed, r))
        A = rng.standard_normal((n, dA)) + 1j * rng.standard_normal((n, dA))
        B = rng.standard_normal((n, dB)) + 1j * rng.standard_normal((n, dB))
        A /= np.linalg.norm(A, axis=1)[:, None]
        B /= np.linalg.norm(B, axis=1)[:, None]
        if r == 0:
            w = np.full(n, 1e-4)
            k = 0
            for i in range(dA):
                for j in range(dB):
                    wa = max(specA.eigenvalues[i], 0.0)
                    wb = max(specB.eigenvalues[j], 0.0)
                    w[k] = wa * wb
                    A[k] = specA.eigenvectors[:, i]
                    B[k] = specB.eigenvectors[:, j]
                    k += 1
            w /= w.sum()
        else:
            w = rng.uniform(0.2, 1.0, size=n)
            w /= w.sum()
        points.append(_pack(w, A, B))
    return points


def _simplex_run(fun, x0):
    res = minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": MAX_ITER,
            "adaptive": True,
            "fatol": STALL_TOL,
            "xatol": 1e-9,
        },
    )
    return res.x, float(res.fun), int(res.nit)


def _restarted_nelder_mead(fun, x0, runs: int):
    """Nelder-Mead re-initialized from the incumbent best after each run.

    A fresh simplex around the previous optimum escapes the collapsed
    simplices NM produces in high dimension.  Stops after ``runs`` runs or
    when a full run improves the incumbent by less than ``STALL_TOL``.
    """
    x = np.asarray(x0, dtype=float)
    fbest = fun(x)
    used = 0
    converged = False
    for _ in range(runs):
        xr, fr, nit = _simplex_run(fun, x)
        used += nit
        gain = fbest - fr
        if fr < fbest:
            fbest, x = fr, xr
        if gain < STALL_TOL:
            converged = True
            break
    return x, fbest, used, converged


def relative_entropy_of_entanglement(
    sigma: BipartiteState, opts: OptimizerOptions | None = None
) -> MeasureResult:
    """Upper bound on the relative entropy of entanglement.

    Minimizes U(sigma | kappa) over explicit separable decompositions kappa
    with (dA*dB)**2 product terms, using seeded Nelder-Mead restarts.  The
    result is an upper bound by construction; it is not certified globally
    optimal.
    """
    opts = opts or OptimizerOptions()
    dA, dB, D = sigma.dA, sigma.dB, sigma.dA * sigma.dB
    n = D * D

    S = sigma.matrix
    log_sigma = linalg.matrix_log(S)
    s0 = float(np.trace(S @ log_sigma.value).real)  # Tr[sigma ln sigma]

    def objective(x):
        w, A, B = _unpack(x, n, dA, dB)
        vecs = np.einsum("na,nb->nab", A, B).reshape(n, D)
        kappa = (vecs.T * w) @ vecs.conj()
        lam, U = np.linalg.eigh((kappa + kappa.conj().T) / 2)
        lam = np.clip(lam, 1e-18, None)  # rank deficiency self-penalizes
        proj = np.einsum("ij,jk,ki->i", U.conj().T, S, U).real
        return s0 - float(np.dot(proj, np.log(lam)))

    # exploration: every seeded restart gets a fixed simplex-run budget,
    # then the incumbent best is polished until the stall rule fires
    best = None
    total_iters = 0
    for x0 in _initial_points(sigma, n, opts):
        x, f, used, _ = _restarted_nelder_mead(objective, x0, opts.explore_runs)
        total_iters += used
        if best is None or f < best[1]:
            best = (x, f)
    x, f, used, converged = _restarted_nelder_mead(objective, best[0], opts.polish_runs)
    total_iters += used
    if f > best[1]:
        x, f = best
    if not converged:
        raise OptimizerFailureError(
            f"optimizer did not stall within the run budget (best value {f:.6g})"
        )

    decomp = _decomposition_from_params(x, n, dA, dB)
    # report the exact relative entropy of the assembled decomposition
    value = umegaki_relative_entropy(sigma.state, decomp.to_state().state).value
    return MeasureResult(
        value=max(float(value), 0.0),
        iterations=total_iters,
        optimizer_state=decomp,
    )


# --- q*-matching -------------------------------------------------------------


def match_q(
    sigma: BipartiteState,
    target_er: float,
    tol: float = 1e-8,
    grid_step: float = 0.01,
) -> QStarReport:
    """Smallest q in [0, 1) with deformed measure equal to ``target_er``.

    Scans a uniform q-grid for sign changes of g(q) = E_q(sigma) - target
    and refines the brackets in order with Brent's method to machine
    precision, returning the first root whose residual is within ``tol``.
    All brackets found are reported.  Raises NoRootError when no bracket
    holds such a root (every sign change is a jump of E_q), DomainError
    when ``target_er`` or ``tol`` is not finite.
    """
    if not np.isfinite([target_er, tol]).all():
        raise DomainError(f"target_er and tol must be finite, got {target_er}, {tol}")
    em = mutual_entropy_measure(sigma).value
    if target_er < -1e-12 or target_er > em + 1e-9:
        raise NoRootError(
            f"target {target_er} outside the existence window [0, {em:.6g}]"
        )

    rho, product = sigma.state, reduced_product(sigma)

    def g(q):
        return tsallis_relative_entropy(rho, product, q).value - target_er

    grid = np.arange(0.0, 1.0, grid_step)
    vals = np.asarray(_relative_entropies(rho, product, grid)) - target_er
    if abs(vals[0]) <= tol:
        return QStarReport(q_star=0.0, residual=abs(vals[0]), brackets=((0.0, 0.0),))

    brackets = []
    for lo, hi, glo, ghi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if glo == 0.0 or glo * ghi < 0:
            brackets.append((float(lo), float(hi)))
    if not brackets:
        # root sits at the open q -> 1 endpoint (target at or near E^M)
        q_star = 1.0 - 1e-9
        return QStarReport(
            q_star=q_star, residual=abs(em - target_er), brackets=(), boundary=True
        )

    # a sign change can also be a jump of E_q (at q = 0+ for a rank-deficient
    # sigma), where Brent converges to the jump with a large residual
    for lo, hi in brackets:
        q_star = brentq(g, lo, hi, xtol=1e-15)
        residual = abs(g(q_star))
        if residual <= tol:
            return QStarReport(
                q_star=q_star, residual=residual, brackets=tuple(brackets)
            )
    raise NoRootError(
        f"no root of E_q = {target_er:.6g} in [0, 1): every sign change is a "
        f"discontinuity of E_q (Brent residual > tol {tol:g} in {brackets})"
    )


# --- tensor regrouping -------------------------------------------------------


def tensor_bipartite(s1: BipartiteState, s2: BipartiteState) -> BipartiteState:
    """Tensor two bipartite states and regroup (A,B,A',B') as (A,A'),(B,B').

    The plain Kronecker product orders factors A,B,A',B'; a permutation
    regroups them so the result is bipartite across (A,A') vs (B,B').
    """
    a1, b1, a2, b2 = s1.dA, s1.dB, s2.dA, s2.dB
    M = linalg.kron(s1.matrix, s2.matrix)
    dim = a1 * b1 * a2 * b2
    old = np.arange(dim).reshape(a1, b1, a2, b2)
    perm = old.transpose(0, 2, 1, 3).ravel()  # (A, A', B, B')
    M = M[np.ix_(perm, perm)]
    return BipartiteState(DensityOperator(M), a1 * a2, b1 * b2)


def is_product_state(sigma: BipartiteState, tol: float = 1e-8) -> bool:
    """True when sigma equals the product of its own reductions in trace norm."""
    diff = sigma.matrix - reduced_product(sigma).matrix
    return linalg.trace_norm(diff) <= tol
