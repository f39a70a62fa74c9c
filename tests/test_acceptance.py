"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (run pytest with ``-s`` to see them all),
then asserts, so a red test pinpoints exactly which guarantee broke.
"""

import math
import time

import numpy as np
import pytest

from qent import entanglement, verify, werner
from qent.entanglement import OptimizerOptions
from qent.states import werner_state


def report(n: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status}" + (f" ({detail})" if detail else ""))


def test_acceptance_1_er_endpoints():
    e0 = abs(werner.werner_er_closed(0.5))
    e1 = abs(werner.werner_er_closed(1.0) - math.log(2))
    ok = e0 < 1e-12 and e1 < 1e-12
    report(1, ok, f"endpoint errors {e0:.1e}, {e1:.1e}")
    assert ok


def test_acceptance_2_figure_crossings():
    t0 = time.perf_counter()
    _, rep = werner.werner_sweep(0.5, 1.0, 0.005, 0.35)
    elapsed = time.perf_counter() - t0
    ok = (
        len(rep.crossings) == 2
        and 0.85 < rep.crossings[0] < 0.95
        and 0.96 < rep.crossings[1] < 1.0
        and elapsed < 1.0
    )
    report(2, ok, f"crossings {tuple(round(c, 4) for c in rep.crossings)}, {elapsed:.2f}s")
    assert ok


def test_acceptance_3_closed_form_vs_matrix():
    t0 = time.perf_counter()
    worst = 0.0
    for F in np.linspace(0.0, 1.0, 21):
        for q in np.linspace(0.05, 0.95, 19):
            gap = abs(
                werner.werner_tsallis_closed(float(F), float(q))
                - entanglement.tsallis_measure(werner_state(float(F)), float(q)).value
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(3, ok, f"worst gap {worst:.1e}, {elapsed:.2f}s")
    assert ok


@pytest.mark.slow
def test_acceptance_4_optimizer_fidelity():
    worst = 0.0
    worst_time = 0.0
    for F in np.arange(0.5, 1.01, 0.1):
        F = float(round(F, 1))
        t0 = time.perf_counter()
        out = entanglement.relative_entropy_of_entanglement(
            werner_state(F), OptimizerOptions(seed=0)
        )
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        worst = max(worst, abs(out.value - werner.werner_er_closed(F)))
    ok = worst < 2e-3 and worst_time < 180.0
    report(4, ok, f"worst error {worst:.1e}, slowest point {worst_time:.0f}s")
    assert ok


def test_acceptance_5_q_star_matching():
    t0 = time.perf_counter()
    rep = entanglement.match_q(
        werner_state(0.9), werner.werner_er_closed(0.9), tol=1e-8
    )
    elapsed = time.perf_counter() - t0
    residual = abs(
        werner.werner_tsallis_closed(0.9, rep.q_star) - werner.werner_er_closed(0.9)
    )
    ok = 0.30 <= rep.q_star <= 0.40 and residual < 1e-6 and elapsed < 1.0
    report(5, ok, f"q*={rep.q_star:.4f}, residual {residual:.1e}, {elapsed:.2f}s")
    assert ok


# criterion 6, split per property so a single broken invariant is visible
SUITE_PLAN = [
    ("nonnegativity", None),
    ("unitary-invariance", None),
    ("monotonicity", None),
    ("lemma-bounds (q in (0,1))", ("lemma-bounds", verify.Q_BELOW_ONE)),
    ("lemma-bounds (q in (1,2])", ("lemma-bounds", verify.Q_ABOVE_ONE)),
    ("pseudoadditivity", None),
    ("measure-subadditivity", None),
    ("local-unitary-invariance", None),
    ("local-channel-monotonicity", None),
    ("araki-lieb", None),
    ("pure-mutual", None),
    ("q1-continuity", None),
]


@pytest.mark.parametrize("label,override", SUITE_PLAN, ids=[p[0] for p in SUITE_PLAN])
def test_acceptance_6_property_suites(label, override):
    name, q_grid = override if override else (label, None)
    t0 = time.perf_counter()
    (res,) = verify.run_suites([name], trials=200, base_seed=0, q_grid=q_grid)
    elapsed = time.perf_counter() - t0
    ok = res.passed
    report(
        6,
        ok,
        f"{label}: {len(res.failures)} failures / {res.checks} checks,"
        f" worst slack {res.worst_slack:.2e}, {elapsed:.1f}s",
    )
    assert ok, f"{label}: {len(res.failures)} failures"


def test_acceptance_6_runtime_budget():
    names = [
        "nonnegativity", "unitary-invariance", "monotonicity", "lemma-bounds",
        "pseudoadditivity", "measure-subadditivity", "local-unitary-invariance",
        "local-channel-monotonicity", "araki-lieb", "pure-mutual", "q1-continuity",
    ]
    t0 = time.perf_counter()
    verify.run_suites(names, trials=200, base_seed=0)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report(6, ok, f"full 200-trial run {elapsed:.1f}s (budget 120s)")
    assert ok


def test_acceptance_7_commuting_oracle():
    (res,) = verify.run_suites(["commuting-oracle"], trials=100, base_seed=0)
    ok = res.passed
    report(7, ok, f"worst slack {res.worst_slack:.2e} over {res.checks} checks")
    assert ok
