import math

import pytest

from qent import verify


PASSING_SUITES = [
    "linalg",
    "state-constructors",
    "araki-lieb",
    "nonnegativity",
    "unitary-invariance",
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
]


@pytest.mark.parametrize("name", PASSING_SUITES)
def test_suite_passes(name):
    (res,) = verify.run_suites([name], trials=20, base_seed=0)
    assert res.passed, res.failures[:3]
    assert res.checks > 0
    assert res.worst_slack >= 0


@pytest.fixture(scope="module")
def ordering_run():
    # the optimizer-bound suite, asked for 50 trials; both tests below read
    # this one run
    (res,) = verify.run_suites(["ordering"], trials=50, base_seed=0)
    return res


@pytest.mark.slow
def test_ordering_suite_passes(ordering_run):
    assert ordering_run.passed


def test_werner_suite_passes():
    (res,) = verify.run_suites(["werner"], trials=1, base_seed=0)
    assert res.passed


def test_determinism():
    a = verify.run_suites(["nonnegativity", "araki-lieb"], trials=15, base_seed=9)
    b = verify.run_suites(["nonnegativity", "araki-lieb"], trials=15, base_seed=9)
    for ra, rb in zip(a, b):
        assert ra.worst_slack == rb.worst_slack
        assert ra.checks == rb.checks


def test_failure_records():
    (res,) = verify.run_suites(["lemma-bounds"], trials=20, base_seed=0)
    for f in res.failures:
        assert f.suite == "lemma-bounds"
        assert f.slack < 0
        assert isinstance(f.detail, str)
        assert f.seed == f.trial  # base_seed 0


def test_q_grid_override():
    (res,) = verify.run_suites(
        ["nonnegativity"], trials=5, base_seed=1, q_grid=(0.5, 1.5)
    )
    assert res.checks == 10


def test_tol_override_trips_failures():
    (res,) = verify.run_suites(
        ["unitary-invariance"], trials=5, base_seed=1,
        tol_overrides={"unitary-invariance": 1e-18},
    )
    assert not res.passed


@pytest.mark.slow
def test_expensive_suite_capped(ordering_run):
    assert ordering_run.trials <= 2


class TestStatedLowerBounds:
    """The trace-norm lower bound claimed for the deformed relative entropy
    with q in (0, 1), and the separation corollary derived from it.  Direct
    evaluation finds counterexamples (the quantity only dominates the
    *difference of traces*, which is zero, not the trace norm), so these
    are expected to fail; they are kept to document the discrepancy rather
    than silently dropping the claimed property.
    """

    def test_trace_norm_lower_bound_below_one(self):
        (res,) = verify.run_suites(
            ["lemma-bounds"], trials=200, base_seed=0, q_grid=verify.Q_BELOW_ONE
        )
        assert res.passed, (
            f"{len(res.failures)} violations, worst slack {res.worst_slack:.3e}"
        )

    def test_separation_corollary(self):
        (res,) = verify.run_suites(["equality-condition"], trials=200, base_seed=0)
        assert res.passed, (
            f"{len(res.failures)} violations, worst slack {res.worst_slack:.3e}"
        )


def test_lemma_bounds_above_one_passes():
    # the Umegaki-dominance half of the bound chain holds and stays green
    (res,) = verify.run_suites(
        ["lemma-bounds"], trials=200, base_seed=0, q_grid=verify.Q_ABOVE_ONE
    )
    assert res.passed
