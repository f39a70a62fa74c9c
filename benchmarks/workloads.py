"""The benchmark's workloads: inputs from a seed, one op, and its checker.

Each op's inputs come from ``numpy.random.default_rng((seed, index))``, so a
seed fixes the whole op sequence and an op can be rebuilt from its index.
Checkers compare qent's outputs with references computed here, never with
qent's own closed forms, and return a list of problems (empty = correct).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from qent import channels, entanglement, entropy, linalg, states, verify, werner

LN2 = math.log(2.0)
EPS = float(np.finfo(float).eps)


# --- references ---------------------------------------------------------------
#
# Werner state W_F: eigenvalues F and (1-F)/3 (three times); both reductions
# are I/2, so its reduced product is I/4.


def _xlogy(x: float, y: float) -> float:
    return x * math.log(y) if x > 0 else 0.0


def ref_er(F: float) -> float:
    """E^R(W_F) (Vedral & Plenio 1998): 0 for F <= 1/2, else ln2 - h(F)."""
    return 0.0 if F <= 0.5 else LN2 + _xlogy(F, F) + _xlogy(1 - F, 1 - F)


def ref_mutual(F: float) -> float:
    """E^M(W_F) = 2 ln 2 + F ln F + (1-F) ln((1-F)/3)."""
    return 2 * LN2 + _xlogy(F, F) + _xlogy(1 - F, (1 - F) / 3)


def ref_tsallis(F: float, q: float) -> float:
    """D_q(W_F | I/4) = [1 - sum_i p_i^q (1/4)^(1-q)] / (1-q), 0 < q < 1."""
    s = F**q + 3 * ((1 - F) / 3) ** q if F < 1 else 1.0
    return (1 - s * 0.25 ** (1 - q)) / (1 - q)


def ref_crossings(F_start: float, F_end: float, step: float, q: float):
    """Roots of ref_tsallis - ref_er on each strict sign change of the grid."""

    def diff(F):
        return ref_tsallis(F, q) - ref_er(F)

    n = int(round((F_end - F_start) / step))
    grid = [F_start + k * step for k in range(n + 1)]
    roots = []
    for a, b in zip(grid[:-1], grid[1:]):
        if diff(a) * diff(b) < 0:
            roots.append(brentq(diff, a, b, xtol=1e-13))
    return roots


def _random_density(dim: int, seed: int) -> np.ndarray:
    """Hilbert-Schmidt random state, the documented generator behind
    ``states.random_density``."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    M = G @ G.conj().T
    return M / np.trace(M).real


def _trace_norm(M: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(M))))


# --- figure -------------------------------------------------------------------

SWEEP = (0.5, 1.0, 0.005)  # the paper's figure: F in [1/2, 1] at step 0.005
MATCH_PER_OP = 3


@dataclass(frozen=True)
class FigureInput:
    q: float
    Fs: tuple


def figure_input(rng) -> FigureInput:
    return FigureInput(
        q=float(rng.uniform(0.2, 0.5)),
        Fs=tuple(float(F) for F in rng.uniform(0.6, 1.0, MATCH_PER_OP)),
    )


def figure_run(inp: FigureInput):
    rows, crossings = werner.werner_sweep(*SWEEP, inp.q)
    reports = [
        entanglement.match_q(states.werner_state(F), werner.werner_er_closed(F))
        for F in inp.Fs
    ]
    # the figure's own check in ``qent verify``; deterministic, trials ignored
    suite = verify.run_suites(("werner",), 1, 0)
    return rows, crossings.crossings, reports, suite


def figure_check(inp: FigureInput, out) -> list:
    rows, crossings, reports, suite = out
    problems = []
    if [(r.name, r.checks) for r in suite] != [("werner", WERNER_CHECKS)]:
        problems.append(f"werner suite ran {[(r.name, r.checks) for r in suite]}")
    problems += [f"werner suite: {f.detail}" for r in suite for f in r.failures]
    n = int(round((SWEEP[1] - SWEEP[0]) / SWEEP[2])) + 1
    if len(rows) != n:
        problems.append(f"sweep has {len(rows)} rows, expected {n}")
    for row in rows:
        gap = abs(row.e_mutual - ref_mutual(row.F))
        if not gap <= 1e-10:
            problems.append(f"e_mutual at F={row.F:.4f} off by {gap:.2e}")
    ref = ref_crossings(*SWEEP, inp.q)
    if len(ref) != len(crossings):
        problems.append(f"{len(crossings)} crossings, reference has {len(ref)}")
    else:
        for got, want in zip(crossings, ref):
            if not abs(got - want) <= 1e-5:
                problems.append(f"crossing {got:.7f} vs reference {want:.7f}")
    for F, rep in zip(inp.Fs, reports):
        res = abs(ref_tsallis(F, rep.q_star) - ref_er(F)) if 0 < rep.q_star < 1 else math.inf
        if not res < 1e-6:
            problems.append(f"q*={rep.q_star} at F={F:.4f}: residual {res:.2e}")
    return problems


# --- pairs --------------------------------------------------------------------
#
# Reference D_q from the two spectra: with rho = sum_i a_i |u_i><u_i| and
# sigma = sum_j b_j |v_j><v_j|, Tr[rho^q sigma^(1-q)] = sum_ij a_i^q
# b_j^(1-q) |<u_i|v_j>|^2.  The tolerance is a first-order rounding bound: an
# eigensolver perturbs each matrix by about n*eps, and x^q, x^(1-q) and ln x
# amplify that by their largest derivative on the spectrum.  On 186,000
# random evaluations (dims 2-16, q in the grid below) the largest error was
# 1.3 % of this bound.

#: 19-point grid, q in (0, 1) and (1, 2], as in the property suites
Q_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10)) + tuple(
    round(1.0 + 0.1 * k, 1) for k in range(1, 11)
)
PAIR_DIMS = (2, 3, 4)


def _spectrum(M: np.ndarray):
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    return np.clip(w, 0.0, None), V


def ref_dq(rho: np.ndarray, sigma: np.ndarray, qs) -> list:
    """[(D_q(rho | sigma), tolerance) for q in qs]; q = 1 is the Umegaki
    relative entropy."""
    (a, U), (b, V) = _spectrum(rho), _spectrum(sigma)
    overlap = np.abs(U.conj().T @ V) ** 2
    scale = 100 * len(a) * EPS
    out = []
    for q in qs:
        if q == 1.0:
            a_log_a = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)
            value = float(np.sum(a_log_a) - a @ overlap @ np.log(b))
            amp = 2 + abs(math.log(a[0])) + abs(math.log(b[0])) + 1 / b[0] + abs(value)
        else:
            value = float((1 - (a**q) @ overlap @ (b ** (1 - q))) / (1 - q))
            d_rho = q * max(a[0] ** (q - 1), a[-1] ** (q - 1))
            size_sigma = max(b[0] ** (1 - q), b[-1] ** (1 - q))
            amp = (1 + d_rho * size_sigma + abs(1 - q) * b[0] ** -q + abs(value)) / abs(1 - q)
        out.append((value, scale * amp))
    return out


def _partial_traces(M: np.ndarray, dA: int, dB: int):
    T = M.reshape(dA, dB, dA, dB)
    return np.einsum("ijkj->ik", T), np.einsum("ijil->jl", T)


@dataclass(frozen=True)
class PairsInput:
    pairs: tuple  # per dim in PAIR_DIMS: (rho seed, sigma seed, channel seed, Kraus count)
    tensor: tuple  # indices of the two pairs whose tensor product is also measured
    bipartite: tuple  # (dA, dB, seed)


def pairs_input(rng) -> PairsInput:
    def seed():
        return int(rng.integers(0, 2**31))

    return PairsInput(
        pairs=tuple((seed(), seed(), seed(), int(rng.integers(1, 4))) for _ in PAIR_DIMS),
        tensor=tuple(int(i) for i in rng.integers(0, len(PAIR_DIMS), 2)),
        bipartite=((2, 2), (2, 3), (3, 2))[int(rng.integers(0, 3))] + (seed(),),
    )


def _dq_row(rho, sigma) -> list:
    row = [entropy.tsallis_relative_entropy(rho, sigma, q).value for q in Q_GRID]
    return row + [entropy.umegaki_relative_entropy(rho, sigma).value]


def pairs_run(inp: PairsInput):
    """Returns (made, rows, (bip, measures)): the random states and
    channels, then (rho, sigma, D_q row) for each measured pair, then the
    bipartite state with its Tsallis measures on the q < 1 grid and its
    mutual entropy."""
    made, rows = [], []
    for dim, (s_rho, s_sigma, s_phi, k) in zip(PAIR_DIMS, inp.pairs):
        rho, sigma = states.random_density(dim, s_rho), states.random_density(dim, s_sigma)
        phi = channels.random_channel(dim, k, s_phi)
        made.append((rho, sigma, phi))
        rows.append((rho, sigma, _dq_row(rho, sigma)))
        out = (channels.apply_channel(phi, rho), channels.apply_channel(phi, sigma))
        rows.append((*out, _dq_row(*out)))
    (r1, s1, _), (r2, s2, _) = (made[i] for i in inp.tensor)
    pair = tuple(
        states.DensityOperator(linalg.kron(x.matrix, y.matrix)) for x, y in ((r1, r2), (s1, s2))
    )
    rows.append((*pair, _dq_row(*pair)))
    bip = states.random_bipartite(*inp.bipartite)
    measures = [entanglement.tsallis_measure(bip, q).value for q in Q_GRID if q < 1]
    measures.append(entanglement.mutual_entropy_measure(bip).value)
    return made, rows, (bip, measures)


def pairs_check(inp: PairsInput, out) -> list:
    made, rows, (bip, measures) = out
    problems = []

    def close(what, got, want, tol):
        if not abs(got - want) <= tol:
            problems.append(f"{what}: {got!r} vs reference {want!r} (tol {tol:.1e})")

    # inputs: the documented generators, and channels that preserve trace
    for dim, (s_rho, s_sigma, _, k), (rho, sigma, phi) in zip(PAIR_DIMS, inp.pairs, made):
        for name, got, s in (("rho", rho, s_rho), ("sigma", sigma, s_sigma)):
            gap = float(np.max(np.abs(got.matrix - _random_density(dim, s))))
            close(f"random_density({dim}, {s}) {name}", gap, 0.0, 1e-15)
        if len(phi.kraus) != k:
            problems.append(f"channel at dim {dim} has {len(phi.kraus)} Kraus operators, not {k}")
        defect = float(np.max(np.abs(sum(K.conj().T @ K for K in phi.kraus) - np.eye(dim))))
        close(f"channel at dim {dim}: sum K+K - I", defect, 0.0, 1e-12)
    # channel outputs and the tensor pair, rebuilt here from the inputs
    want_states = []
    for rho, sigma, phi in made:
        want_states.append((rho.matrix, sigma.matrix))
        want_states.append(
            tuple(sum(K @ M @ K.conj().T for K in phi.kraus) for M in (rho.matrix, sigma.matrix))
        )
    (r1, s1, _), (r2, s2, _) = (made[i] for i in inp.tensor)
    want_states.append((np.kron(r1.matrix, r2.matrix), np.kron(s1.matrix, s2.matrix)))
    if len(rows) != len(want_states):
        return problems + [f"{len(rows)} measured pairs, expected {len(want_states)}"]
    for n, ((rho, sigma, row), (want_rho, want_sigma)) in enumerate(zip(rows, want_states)):
        gap = max(float(np.max(np.abs(got.matrix - want)))
                  for got, want in ((rho, want_rho), (sigma, want_sigma)))
        close(f"pair {n} states", gap, 0.0, 1e-14)
        qs = Q_GRID + (1.0,)
        for q, got, ref in zip(qs, row, ref_dq(want_rho, want_sigma, qs)):
            close(f"pair {n} (dim {len(want_rho)}) D_{q}", got, *ref)
    # bipartite measures: D_q from the state to the product of its reductions
    dA, dB, s = inp.bipartite
    state = _random_density(dA * dB, s)
    close("random_bipartite", float(np.max(np.abs(bip.matrix - state))), 0.0, 1e-15)
    product = np.kron(*_partial_traces(state, dA, dB))
    qs = [q for q in Q_GRID if q < 1] + [1.0]
    if len(measures) != len(qs):
        return problems + [f"{len(measures)} measures, expected {len(qs)}"]
    for q, got, ref in zip(qs, measures, ref_dq(state, product, qs)):
        close(f"measure {dA}x{dB} q={q}", got, *ref)
    return problems


# --- suites -------------------------------------------------------------------

#: every suite that does not run the E^R optimizer, named explicitly so that
#: a suite added to ``verify.SUITES`` later does not change the workload
SUITES = (
    "linalg",
    "state-constructors",
    "araki-lieb",
    "nonnegativity",
    "unitary-invariance",
    "lemma-bounds",
    "equality-condition",
    "pseudoadditivity",
    "q1-continuity",
    "commuting-oracle",
    "monotonicity",
    "unitary-channel",
    "cptp-validity",
    "product-zero",
    "local-unitary-invariance",
    "local-channel-monotonicity",
    "pure-mutual",
    "measure-subadditivity",
    "measure-q1-limit",
    "werner",
)
#: one trial per suite dimension (2, 3, 4), so every op costs about the same
SUITE_TRIALS = 3

#: checks per trial for suites whose count depends only on the trial count
CHECKS_PER_TRIAL = {
    "linalg": 9,
    "state-constructors": 4,
    "araki-lieb": 2,
    "nonnegativity": 19,
    "unitary-invariance": 20,
    "lemma-bounds": 20,
    "pseudoadditivity": 19,
    "q1-continuity": 2,
    "commuting-oracle": 20,
    "monotonicity": 47,
    "unitary-channel": 19,
    "cptp-validity": 1,
    "local-unitary-invariance": 9,
    "local-channel-monotonicity": 9,
    "pure-mutual": 1,
    "measure-subadditivity": 18,
    "measure-q1-limit": 1,
}
WERNER_CHECKS = 21 * 19 + 21 + 3  # (F, q) grid, q -> 1 limits, q* bounds


def expected_checks(name: str, trials: int, base_seed: int) -> int:
    if name in CHECKS_PER_TRIAL:
        return CHECKS_PER_TRIAL[name] * trials
    if name == "werner":
        return WERNER_CHECKS
    total = 0
    for t in range(trials):
        s = base_seed + t
        if name == "equality-condition":  # skipped when the pair is too close
            dim = (2, 3, 4)[t % 3]
            rho, sigma = _random_density(dim, s * 1000), _random_density(dim, s * 1000 + 1)
            total += 9 if _trace_norm(rho - sigma) > 0.01 else 0
        elif name == "product-zero":  # correlated half only when correlated
            corr = _random_density(4, (s + 7) * 1000)
            T = corr.reshape(2, 2, 2, 2)
            prod = np.kron(np.trace(T, axis1=1, axis2=3), np.trace(T, axis1=0, axis2=2))
            total += 9 + (9 if _trace_norm(corr - prod) > 1e-3 else 0)
        else:
            raise KeyError(name)
    return total


# The paper's trace-norm lower bound for q in (0, 1) is false, so the
# lemma-bounds records for q < 1 and the equality condition built on it fail
# by design.  They are the only violations a correct suites op may report.
_FALSE_BOUND = re.compile(r"q=0\.\d+ D=\S+ T=")


def expected_red(failure) -> bool:
    return failure.suite == "equality-condition" or (
        failure.suite == "lemma-bounds" and bool(_FALSE_BOUND.match(failure.detail))
    )


def suites_input(rng) -> int:
    return int(rng.integers(0, 1_000_000))


def suites_run(base_seed: int):
    return verify.run_suites(SUITES, SUITE_TRIALS, base_seed)


def suites_check(base_seed: int, results) -> list:
    problems = []
    if tuple(r.name for r in results) != SUITES:
        return [f"suites ran {[r.name for r in results]}"]
    for r in results:
        want = expected_checks(r.name, SUITE_TRIALS, base_seed)
        if r.checks != want:
            problems.append(f"{r.name}: {r.checks} checks, expected {want}")
        for f in r.failures:
            if not expected_red(f):
                problems.append(f"{r.name} trial {f.trial}: {f.detail}")
    return problems


def suites_red(base_seed: int, results) -> int:
    return sum(expected_red(f) for r in results for f in r.failures)


# --- er-werner ----------------------------------------------------------------


@dataclass(frozen=True)
class ERInput:
    F: float
    seed: int


def er_input(rng) -> ERInput:
    return ERInput(F=float(1.0 - 0.5 * rng.random()), seed=int(rng.integers(0, 2**31)))


def er_run(inp: ERInput) -> float:
    sigma = states.werner_state(inp.F)
    opts = entanglement.OptimizerOptions(seed=inp.seed)
    return entanglement.relative_entropy_of_entanglement(sigma, opts).value


def er_check(inp: ERInput, value: float) -> list:
    want = ref_er(inp.F)
    problems = []
    if not abs(value - want) < 2e-3:
        problems.append(f"E^R(W_{inp.F:.4f}) = {value:.6g}, closed form {want:.6g}")
    if not value >= want - 1e-9:
        problems.append(f"E^R(W_{inp.F:.4f}) = {value:.6g} below closed form {want:.6g}")
    return problems


def er_warmup(inp: ERInput) -> None:
    # one op takes about a minute, so warm up the code around the optimizer
    entanglement.mutual_entropy_measure(states.werner_state(inp.F))


# --- registry -----------------------------------------------------------------
# Why each workload exists is in README.md and BENCHMARK.json.


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable  # rng -> input
    run: Callable  # input -> output
    check: Callable  # (input, output) -> list of problems
    trace_ops: int  # ops in a traced run (fixed, so counts repeat)
    warmup: Callable | None = None  # input -> None; default: run one op
    red: Callable | None = None  # (input, output) -> expected red records

    def input(self, seed: int, index: int):
        return self.make_input(np.random.default_rng((seed, index)))

    def warm(self, seed: int) -> None:
        # the warm-up input uses a key that no timed op index takes
        inp = self.make_input(np.random.default_rng((seed, 2**32)))
        (self.warmup or self.run)(inp)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figure",
            figure_input,
            figure_run,
            figure_check,
            trace_ops=8,
        ),
        Workload(
            "pairs",
            pairs_input,
            pairs_run,
            pairs_check,
            trace_ops=40,
        ),
        Workload(
            "suites",
            suites_input,
            suites_run,
            suites_check,
            trace_ops=6,
            red=suites_red,
        ),
        Workload(
            "er-werner",
            er_input,
            er_run,
            er_check,
            trace_ops=1,
            warmup=er_warmup,
        ),
    )
}
