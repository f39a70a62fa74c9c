import math
import re

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
    # 21 F values x 19 q values, 21 q -> 1 limits, 3 q* checks
    assert res.checks == 21 * 19 + 21 + 3


def test_determinism():
    a = verify.run_suites(["nonnegativity", "araki-lieb"], trials=15, base_seed=9)
    b = verify.run_suites(["nonnegativity", "araki-lieb"], trials=15, base_seed=9)
    for ra, rb in zip(a, b):
        assert ra.worst_slack == rb.worst_slack
        assert ra.checks == rb.checks


def test_failure_records():
    (res,) = verify.run_suites(["lemma-bounds"], trials=20, base_seed=0)
    # only the false q in (0, 1) bound fails here; benchmarks/ parses this text
    detail = re.compile(r"q=0\.\d D=\d\.\d{3}e[-+]\d\d T=\d\.\d{3}e[-+]\d\d")
    assert res.failures
    for f in res.failures:
        assert f.suite == "lemma-bounds"
        assert f.slack < 0
        assert detail.fullmatch(f.detail), f.detail
        assert f.seed == f.trial  # base_seed 0


def test_record_formats_only_failures():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("a passing check formatted its detail")

    res = verify.SuiteResult("demo", 1)
    res.record(0, 3, 0.0, "q={} D={:.3e}", Unformattable(), Unformattable())
    res.record(0, 3, -0.5, "q={} D={:.3e} T={:.3e}", 0.1, 0.0123, 1.5)
    res.record(0, 3, -0.25, "reconstruction")
    assert [f.detail for f in res.failures] == [
        "q=0.1 D=1.230e-02 T=1.500e+00",
        "reconstruction",
    ]
    assert (res.checks, res.worst_slack) == (3, -0.5)


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


# --- the runner, on stub trials ------------------------------------------------


@pytest.fixture
def stub(monkeypatch):
    """Replace the named suites by a trial that records its calls and
    reports one failing check tagged with its trial index."""
    calls = []

    def trial(check, t, s, **kwargs):
        calls.append((t, s, kwargs))
        check(-1.0, "t={}", t)

    def install(*names):
        for name in names:
            monkeypatch.setitem(verify.SUITES, name, trial)
        return calls

    return install


def test_runner_seeds_trials_in_order(stub):
    calls = stub("nonnegativity")
    (res,) = verify.run_suites(["nonnegativity"], trials=4, base_seed=10)
    assert [(t, s) for t, s, _ in calls] == [(0, 10), (1, 11), (2, 12), (3, 13)]
    assert (res.trials, res.checks) == (4, 4)
    assert [(f.trial, f.seed, f.detail) for f in res.failures] == [
        (t, 10 + t, f"t={t}") for t in range(4)
    ]


@pytest.mark.parametrize("name,cap", [("ordering", 2), ("werner", 1)])
def test_runner_caps_trials(stub, name, cap):
    calls = stub(name, "araki-lieb")
    res = verify.run_suites([name, "araki-lieb"], trials=5, base_seed=0)
    assert [r.trials for r in res] == [cap, 5]
    assert len(calls) == cap + 5
    (res,) = verify.run_suites([name], trials=0, base_seed=0)
    assert (res.trials, res.checks) == (0, 0)


@pytest.mark.parametrize(
    "q_grid,tols,want",
    [
        (None, None, [{}, {}]),
        ((), {"araki-lieb": 1e-3}, [{}, {"tol": 1e-3}]),
        ((0.5,), {}, [{"grid": (0.5,)}, {"grid": (0.5,)}]),
        ([0.5], {"linalg": 2.0}, [{"grid": [0.5], "tol": 2.0}, {"grid": [0.5]}]),
    ],
)
def test_runner_passes_grid_and_tol_only_when_given(stub, q_grid, tols, want):
    calls = stub("linalg", "araki-lieb")
    verify.run_suites(["linalg", "araki-lieb"], 1, 0, q_grid=q_grid, tol_overrides=tols)
    assert [kwargs for *_, kwargs in calls] == want


#: checks per trial for the suites whose count depends only on the trial count
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


@pytest.mark.parametrize("name,per_trial", CHECKS_PER_TRIAL.items())
def test_checks_per_trial(name, per_trial):
    (res,) = verify.run_suites([name], trials=3, base_seed=0)
    assert (res.trials, res.checks) == (3, 3 * per_trial)


def test_equality_condition_reads_its_tol():
    (base,) = verify.run_suites(["equality-condition"], trials=5, base_seed=0)
    (lifted,) = verify.run_suites(
        ["equality-condition"], trials=5, base_seed=0,
        tol_overrides={"equality-condition": 1.0},
    )
    assert lifted.checks == base.checks > 0
    assert lifted.worst_slack == pytest.approx(base.worst_slack + 1.0, abs=1e-12)


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
