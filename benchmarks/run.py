#!/usr/bin/env python3
"""qent benchmark: closed-loop, single-process, single-thread runs of qent.

One run (see README.md in this directory):

    python3 benchmarks/run.py --workload figure --seed 1 --seconds 40 --trace 0

prints a JSON line with provenance and details, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
``--out FILE`` also appends the full run record to FILE (JSON lines).

Every workload, one table:   run.py --workload all [--runs N] [--out FILE]
Two result sets compared:    run.py --compare BEFORE.jsonl AFTER.jsonl
"""

import os

# One BLAS thread: the 4x4 LAPACK calls should measure qent, not the scheduler.
# Set before numpy is imported; child processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import qent
except ImportError as exc:
    raise SystemExit(f"cannot import qent from {SRC}: {exc}") from None
if Path(qent.__file__).resolve().parent != SRC / "qent":
    raise SystemExit(f"qent was imported from {qent.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
#: fresh processes timed per run; setup_s is their median
SETUP_PROBES = 5
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "run.setup_probe(sys.argv[2], int(sys.argv[3]))"
)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def unit_of(metric: str) -> str:
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("per_call"):
        return "count/call"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


# --- provenance ---------------------------------------------------------------


def _git(*args):
    if not (ROOT / ".git").exists():  # a plain checkout: never search upward
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "src_qent_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "qent").glob("*.py"))
        ),
    }


# --- measuring ----------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """What a fresh process does before its first timed op."""
    wl = WORKLOADS[name]
    wl.input(seed, 0)
    wl.warm(seed)


def measure_setup(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", PROBE, str(BENCH), name, str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def _attempt(wl, inp):
    """(output, error text or None, seconds)."""
    t0 = time.perf_counter()
    try:
        out, err = wl.run(inp), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def check_op(wl, inp, out, err) -> list:
    """Problems with one op's output; empty when the op is correct."""
    if err is not None:
        return [err]
    try:
        return wl.check(inp, out)
    except Exception as exc:  # a malformed output fails its op
        return [f"checker raised {type(exc).__name__}: {exc}"]


def red_records(wl, inp, out, err) -> int:
    """Documented red records the checker accepted in one op's output."""
    return wl.red(inp, out) if wl.red and err is None else 0


def timed_loop(wl, seed: int, seconds: float):
    """Closed loop, one client: ops back to back until ``seconds`` of op time
    have passed.  Each output is checked and dropped between ops, off the
    clock, so memory does not grow with the number of ops.

    Returns (latencies, [(op index, problems)] for failed ops, red records).
    """
    lat, failed, red, busy = [], [], 0, 0.0
    while not lat or busy < seconds:
        inp = wl.input(seed, len(lat))
        out, err, dt = _attempt(wl, inp)
        problems = check_op(wl, inp, out, err)
        if problems:
            failed.append((len(lat), problems))
        red += red_records(wl, inp, out, err)
        lat.append(dt)
        busy += dt
    return lat, failed, red


def tail(latencies) -> dict | None:
    """Highest order statistic with at least 10 samples above it, if that
    is above the median."""
    n = len(latencies)
    if n <= 20:
        return None
    k = n - 11
    return {
        "ms": sorted(latencies)[k] * 1e3,
        "percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


def run_plain(wl, seed: int, seconds: float):
    setup_runs = measure_setup(wl.name, seed)
    wl.warm(seed)
    lat, failed, red = timed_loop(wl, seed, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "samples": len(lat),
        "op_time_s": sum(lat),
        "latency_tail_ms": tail(lat),
        "failed_frac": len(failed) / len(lat),
        "expected_red": red,
        "setup_runs_s": setup_runs,
    }
    return len(lat), failed, metrics, detail


def run_traced(wl, seed: int):
    """Each of a fixed list of ops runs once untraced and once traced, in
    alternating order, so drift and cache warmth cancel in the overhead and
    the counts repeat exactly for a seed."""
    inputs = [wl.input(seed, i) for i in range(wl.trace_ops)]
    wl.warm(seed)
    tracer = Tracer()
    runs, wall = [], {False: 0.0, True: 0.0}
    for i, inp in enumerate(inputs):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.op = i
                with tracer:
                    run = (inp, *_attempt(wl, inp))
            else:
                run = (inp, *_attempt(wl, inp))
            wall[traced] += run[3]
            runs.append(run)
    metrics = tracer.summary()
    metrics["trace_overhead_frac"] = wall[True] / wall[False] - 1.0
    failed = [(i, p) for i, run in enumerate(runs) if (p := check_op(wl, *run[:3]))]
    detail = {
        "ops": len(inputs),
        "untraced_s": wall[False],
        "traced_s": wall[True],
        "expected_red": sum(red_records(wl, *run[:3]) for run in runs),
    }
    return len(runs), failed, metrics, detail, tracer


def run_one(name: str, seed: int, seconds: float, trace: bool, out: str | None) -> None:
    wl = WORKLOADS[name]
    spec = load_spec()
    if trace:
        attempted, failed, metrics, detail, _ = run_traced(wl, seed)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        attempted, failed, metrics, detail = run_plain(wl, seed, seconds)
        wanted = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail["all_metrics"] = {
        k: {"value": v, "unit": units.get(k, unit_of(k))} for k, v in metrics.items()
    }
    detail["failures"] = failed[:10]
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: detail["all_metrics"][k] for k in wanted if k in metrics},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "claim": None,
        "provenance": provenance(seed),
        "result": result,
        "detail": detail,
    }
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "provenance", "detail")}))
    print(json.dumps(result))


# --- every workload, one table --------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool, runs: int, out: str | None) -> int:
    status = 0
    print(f"{'workload':<10} {'seed':>5} {'metric':<44} {'value':>14}  unit")
    for name in WORKLOADS:
        for s in range(seed, seed + runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(s), "--seconds", str(seconds), "--trace", str(int(trace))]
            if out:
                cmd += ["--out", out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                print(f"{name:<10} {s:>5} run failed: {proc.stderr.strip()[-300:]}")
                status = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            rows = dict(result["metrics"])
            if not trace:
                t = info["detail"]["latency_tail_ms"]
                rows["failed_frac"] = {"value": info["detail"]["failed_frac"], "unit": "ratio"}
                if t:
                    rows[f"latency_tail_ms (p{t['percentile']:.1f} of {t['samples']})"] = {
                        "value": t["ms"], "unit": "ms"}
            for metric, v in rows.items():
                print(f"{name:<10} {s:>5} {metric:<44} {v['value']:>14.6g}  {v['unit']}")
            if not result["correct"]:
                status = 1
    return status


# --- compare ------------------------------------------------------------------


def _stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def verdict(a, b, better: str, bound: float) -> str:
    """better / worse beyond bound / within bound / unresolved, for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    ma, qa1, qa3 = _stats(a)
    mb, qb1, qb3 = _stats(b)
    worse = sign * (mb - ma) / ma  # > 0: B is worse
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    beats_all = all(sign * (x - y) < 0 for x in b for y in a)
    if beats_all or (spread <= bound and -worse > (qa3 - qa1) / abs(ma)):
        return "better"
    if spread > bound:
        return "unresolved"
    return "worse beyond bound" if worse > bound else "within bound"


def load_set(path: str) -> dict:
    """workload -> list of untraced run records."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    rows.setdefault(rec["workload"], []).append(rec)
    return rows


def compare(path_a: str, path_b: str) -> None:
    spec = load_spec()
    a, b = load_set(path_a), load_set(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<10} {'metric':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B/A':>7}  verdict (bound)")
    for name in [w for w in WORKLOADS if w in a and w in b]:
        for m in spec["end_to_end"]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a[name]]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b[name]]
            sa, sb = _stats(va), _stats(vb)
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{name:<10} {m['name']:<16} {fmt.format(*sa):>30} {fmt.format(*sb):>30} "
                  f"{sb[0] / sa[0]:>7.3f}  {verdict(va, vb, m['better'], m['bound'])} "
                  f"({m['bound']:g}; base {sa[0]:.4g} {m['unit']})")
        fa = sum(r["result"]["failed"] for r in a[name])
        fb = sum(r["result"]["failed"] for r in b[name])
        print(f"{name:<10} {'failed ops':<16} {fa:>30} {fb:>30}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append full run records (JSON lines) here")
    ap.add_argument("--runs", type=int, default=1, help="with --workload all: seeds per workload")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload or --compare is required")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace), args.runs, args.out)
    run_one(args.workload, args.seed, seconds, bool(args.trace), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
