"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest benchmarks``.  The
er-werner test runs the real optimizer op twice, about three minutes.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # caps BLAS threads and puts src/ on sys.path before qent loads
from tracer import Tracer
from workloads import WORKLOADS, expected_red, ref_dq, ref_er

import qent
from qent import entanglement, entropy, verify


def one_op(name, seed=0):
    wl = WORKLOADS[name]
    inp = wl.input(seed, 0)
    return wl, inp, wl.run(inp)


@pytest.mark.parametrize("name", ["figure", "pairs"])
def test_one_op_passes_its_checker(name):
    wl, inp, out = one_op(name)
    assert wl.check(inp, out) == []


def test_suites_op_keeps_the_documented_red_output():
    wl, inp, results = one_op("suites")
    red = [f for r in results for f in r.failures]
    assert red, "the false q in (0,1) bound should still report violations"
    assert {f.suite for f in red} <= {"lemma-bounds", "equality-condition"}


def test_known_suites_failure_still_reproduces():
    # ungated because of this: verify's absolute tolerances at q > 1
    wl = WORKLOADS["suites"]
    inp = wl.input(23, 8)
    assert wl.check(inp, wl.run(inp))


def test_corrupted_figure_outputs_fail():
    wl, inp, (rows, crossings, reports, suite) = one_op("figure")
    bad_q = dataclasses.replace(reports[0], q_star=reports[0].q_star + 1e-2)
    assert wl.check(inp, (rows, crossings, [bad_q, *reports[1:]], suite))
    bad_row = dataclasses.replace(rows[7], e_mutual=rows[7].e_mutual + 1e-8)
    assert wl.check(inp, ([*rows[:7], bad_row, *rows[8:]], crossings, reports, suite))
    assert wl.check(inp, (rows, crossings + (0.9,), reports, suite))
    suite[0].record(0, 0, -1.0, "injected violation")
    assert any("injected violation" in p for p in wl.check(inp, (rows, crossings, reports, suite)))


def test_corrupted_pairs_outputs_fail():
    wl, inp, (made, rows, (bip, measures)) = one_op("pairs")
    # q = 0.4 and 1.7 on well-conditioned pairs, Umegaki on the tensor pair,
    # whose sigma has a smallest eigenvalue near 1e-5
    for n, k, rel in ((0, 3, 1e-9), (5, 15, 1e-9), (len(rows) - 1, 19, 1e-7)):
        rho, sigma, row = rows[n]
        bad = [*row[:k], row[k] * (1 + rel), *row[k + 1:]]
        bad_rows = [*rows[:n], (rho, sigma, bad), *rows[n + 1:]]
        assert wl.check(inp, (made, bad_rows, (bip, measures))), (n, k)
    assert wl.check(inp, (made, rows, (bip, [measures[0] + 1e-9, *measures[1:]])))
    rho, sigma, row = rows[1]  # a channel output
    shifted = qent.DensityOperator(rho.matrix + 1e-12 * np.eye(rho.dim))
    assert wl.check(inp, (made, [rows[0], (shifted, sigma, row), *rows[2:]], (bip, measures)))


def test_pair_reference_matches_closed_forms():
    rng = np.random.default_rng(0)
    p, r = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    for q in (0.3, 1.0, 1.8):
        (value, tol), = ref_dq(np.diag(p), np.diag(r), (q,))
        want = entropy.tsallis_relative_entropy_diagonal(p, r, q)
        assert abs(value - want) <= tol < 1e-11


def test_corrupted_suites_outputs_fail():
    wl, inp, results = one_op("suites")
    nonneg = next(r for r in results if r.name == "nonnegativity")
    nonneg.record(0, inp, -1.0, "injected violation")
    problems = wl.check(inp, results)
    assert any("injected violation" in p for p in problems)  # a real failure
    assert any("checks, expected" in p for p in problems)  # and a count change


def test_only_the_false_bound_is_expected_red():
    def failure(suite, detail):
        return verify.PropertyFailure(suite, 1, 7, detail, -1.0)

    assert expected_red(failure("lemma-bounds", "q=0.3 D=1.0e-01 T=9.0e-01"))
    assert expected_red(failure("equality-condition", "q=0.1 D=1.0e-03"))
    assert not expected_red(failure("lemma-bounds", "q=1.3 D=1.0e-01 U=9.0e-01"))
    assert not expected_red(failure("lemma-bounds", "U=1.0e-01 T=9.0e-01"))
    assert not expected_red(failure("unitary-invariance", "q=2.0 |delta|=4.470e-06"))


def test_corrupted_er_value_fails():
    wl = WORKLOADS["er-werner"]
    inp = wl.input(0, 0)
    exact = ref_er(inp.F)
    assert wl.check(inp, exact) == []
    assert wl.check(inp, exact + 1e-2)
    assert wl.check(inp, exact - 1e-8)  # below the closed form: not an upper bound


def test_failed_and_raising_ops_are_counted_not_dropped():
    good = WORKLOADS["figure"]

    def corrupt(inp):
        rows, crossings, reports, suite = good.run(inp)
        return rows, crossings + (0.75,), reports, suite

    def boom(inp):
        raise RuntimeError("op failed")

    for runner in (corrupt, boom):
        wl = dataclasses.replace(good, run=runner)
        latencies, failed, _ = run.timed_loop(wl, 0, 0.0)
        assert len(latencies) == 1
        assert [i for i, _ in failed] == [0]


COUNTS = (
    "linalg.eig_hermitian.calls",
    "linalg.eig_hermitian.distinct",
    "linalg.eigh.calls",
    "states.calls",
    "entropy.tsallis_relative_entropy.calls",
    "entanglement.match_q.g_evals_per_call",
    "verify.checks",
)


@pytest.mark.parametrize("name", ["figure", "pairs"])
def test_traced_counts_repeat_for_a_seed(name):
    first = run.run_traced(WORKLOADS[name], 5)
    second = run.run_traced(WORKLOADS[name], 5)
    assert first[1] == second[1]  # the same ops pass and fail
    a, b = first[2], second[2]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["linalg.eig_hermitian.calls"] > a["linalg.eig_hermitian.distinct"] > 0
    assert (a["verify.checks"] > 0) == (name == "figure")
    assert (a["channels.apply_channel.calls"] > 0) == (name == "pairs")


@pytest.mark.parametrize("name", ["figure", "pairs"])
def test_self_times_never_exceed_span_durations(name):
    tracer = run.run_traced(WORKLOADS[name], 2)[4]
    assert tracer.spans
    for _op, span, _parent, t0, t1, self_s in tracer.spans:
        assert -1e-12 <= self_s <= t1 - t0, span
    for row in tracer.by_name().values():
        assert row["self_s"] <= row["s"] + 1e-12


def test_tracer_restores_every_binding():
    before = {
        "eig": qent.linalg.eig_hermitian,
        "tsallis": entanglement.tsallis_relative_entropy,
        "suite": verify.SUITES["linalg"],
        "init": qent.DensityOperator.__init__,
        "minimize": entanglement.minimize,
    }
    with Tracer():
        assert qent.linalg.eig_hermitian is not before["eig"]
        assert entanglement.tsallis_relative_entropy is not before["tsallis"]
        assert verify.SUITES["linalg"] is not before["suite"]
    after = {
        "eig": qent.linalg.eig_hermitian,
        "tsallis": entanglement.tsallis_relative_entropy,
        "suite": verify.SUITES["linalg"],
        "init": qent.DensityOperator.__init__,
        "minimize": entanglement.minimize,
    }
    assert after == before


def test_er_werner_op_passes_and_its_counts_repeat():
    wl = WORKLOADS["er-werner"]
    inp = wl.input(0, 0)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            value = wl.run(inp)
        assert wl.check(inp, value) == []
        m = tracer.summary()
        counts.append(
            {k: m[k] for k in ("entanglement.nm.runs", "entanglement.nm.nfev",
                               "entanglement.er.eigh_calls", "linalg.eig_hermitian.calls")}
        )
        assert m["entanglement.nm.capped_frac"] > 0
    assert counts[0] == counts[1]
    assert counts[0]["entanglement.er.eigh_calls"] >= counts[0]["entanglement.nm.nfev"]


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(base, [80.0, 81.0, 79.0, 80.5], "lower", 0.1) == "better"
    assert run.verdict(base, [130.0, 131.0, 129.0], "lower", 0.1) == "worse beyond bound"
    assert run.verdict(base, [103.0, 104.0, 102.0], "lower", 0.1) == "within bound"
    assert run.verdict(base, [60.0, 140.0, 100.0, 90.0, 120.0], "lower", 0.1) == "unresolved"
    assert run.verdict(base, [80.0, 81.0, 79.0], "higher", 0.1) == "worse beyond bound"


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_result_line(trace):
    proc = _run_cli(run.ROOT, "--workload", "figure", "--seed", "3",
                    "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "figure", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
