"""Seeded outputs of two qent source trees, dumped to JSON and compared.

    python3 tools/fingerprint.py OLD_TREE NEW_TREE [--keep DIR]

Each tree's ``src/qent`` is imported in its own subprocess (one BLAS thread),
which evaluates the same seeded inputs and writes every output to JSON:

- ``dq-single`` / ``dq-grid``: D_q one q per call and over a q grid (the grid
  through ``entropy._relative_entropies``), plus the Umegaki value, on pairs
  at d = 2..16 of five kinds: both full rank, rank-deficient rho, pure rho,
  a sigma whose support misses rho's, both pure;
- ``measure``: ``tsallis_measure`` and ``mutual_entropy_measure`` of random
  bipartite states and of Werner states;
- ``match-q``: ``match_q`` reports (or the error raised) for Werner states
  and random bipartite states;
- ``psd-spectrum``: eigenvalues and eigenvectors at d = 1..16;
- ``suites``: ``verify.run_suites`` on the optimizer-free suites (50 trials,
  seed 0): checks, worst slack and every failure record;
- ``cli``: exit code, stdout, stderr and any ``--out`` file, as text, of the
  ``qent`` commands in ``CLI_COMMANDS`` (the README commands with short sweeps
  and trials, and each error path), run through ``qent.cli.main`` in a
  scratch directory that holds the state files they name.

The report gives, per output group, how many values are bit-identical and the
largest difference relative to max(1, |old|), and, per tree, how many grid
values equal the one-q value bit for bit.  The exit status is 1 when a
value differs by more than 1e-14 of that, when the inf/NaN pattern or any
text differs, or when the two dumps hold different keys; else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

TOL = 1e-14
QS = [round(0.05 * k, 2) for k in range(41)] + [1 - 1e-12, 1 + 1e-12, 1 - 1e-6]
PAIR_KINDS = ("full", "rank-deficient-rho", "pure-rho", "violation", "both-pure")
FAST_SUITES = (
    "linalg,state-constructors,araki-lieb,nonnegativity,unitary-invariance,"
    "lemma-bounds,equality-condition,pseudoadditivity,q1-continuity,commuting-oracle,"
    "monotonicity,unitary-channel,cptp-validity,product-zero,local-unitary-invariance,"
    "local-channel-monotonicity,pure-mutual,measure-subadditivity,measure-q1-limit,werner"
)  # every suite but the optimizer-bound ordering
SWEEP = ["werner", "--sweep", "0.5:1.0:0.05", "--q", "0.35"]
CLI_COMMANDS = {  # name: argv; w09.json is W_0.9, bad.json is not JSON
    "measure": ["measure", "w09.json", "--q", "0.35", "--no-timestamp"],
    "measure-csv": ["measure", "w09.json", "--format", "csv", "--no-timestamp"],
    "werner-csv-out": SWEEP + ["--format", "csv", "--out", "sweep.out"],
    "werner-plot-data": SWEEP + ["--plot-data"],
    "werner-json": SWEEP + ["--no-timestamp"],
    "werner-json-out": SWEEP + ["--no-timestamp", "--out", "sweep.out"],
    "match-q-closed-form": ["match-q", "--werner", "0.9", "--target-er", "closed-form",
                            "--no-timestamp"],
    "match-q-file-csv": ["match-q", "w09.json", "--target-er", "0.368", "--format",
                         "csv", "--no-timestamp"],
    "verify-fast": ["verify", "--suite", FAST_SUITES, "--trials", "10", "--seed", "0",
                    "--no-timestamp"],
    "verify-two": ["verify", "--suite", "pseudoadditivity,monotonicity", "--trials",
                   "5", "--no-timestamp", "--format", "csv"],
    "verify-grid-tol": ["verify", "--suite", "nonnegativity", "--trials", "5",
                        "--q-grid", "0.25,0.75,1.5", "--tol", "nonnegativity=1e-8",
                        "--no-timestamp"],
    "error-measure-q": ["measure", "w09.json", "--q", "1.5"],
    "error-measure-missing": ["measure", "missing.json"],
    "error-measure-bad-json": ["measure", "bad.json"],
    "error-match-q-werner": ["match-q", "--werner", "1.5"],
    "error-match-q-no-root": ["match-q", "--werner", "0.9", "--target-er", "10"],
    "error-match-q-no-state": ["match-q"],
    "error-match-q-closed-form": ["match-q", "w09.json"],
    "error-werner-range": ["werner", "--sweep", "0.9:0.1:0.1", "--q", "0.35"],
    "error-werner-spec": ["werner", "--sweep", "0.5:1.0", "--q", "0.35"],
    "error-verify-suite": ["verify", "--suite", "nope"],
    "error-verify-trials": ["verify", "--suite", "nonnegativity", "--trials", "0"],
    "error-verify-grid": ["verify", "--suite", "nonnegativity", "--q-grid", "5"],
    "error-verify-tol": ["verify", "--suite", "nonnegativity", "--tol",
                         "nonnegativity=nan"],
    "error-verify-tol-name": ["verify", "--suite", "nonnegativity", "--tol",
                              "nonnegativty=1e-30"],
    "error-usage": ["measure"],
}


def _num(x) -> str:
    return float(x).hex()


def _nums(values) -> list:
    return [_num(v) for v in values]


def _complex(array) -> list:
    import numpy as np

    a = np.asarray(array).ravel()
    return _nums(a.real) + _nums(a.imag)


def dump(path: str) -> None:
    import numpy as np

    from qent import entanglement, entropy, linalg, states, verify, werner

    def density(dim, rank, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        M = G @ G.conj().T
        return states.DensityOperator(M / np.trace(M).real)

    out = {}
    for dim in range(2, 17):
        half = max(1, dim // 2)
        ranks = {
            "full": (dim, dim), "rank-deficient-rho": (max(1, dim - 1), dim),
            "pure-rho": (1, dim), "violation": (dim, half), "both-pure": (1, 1),
        }
        for n, kind in enumerate(PAIR_KINDS):
            for rep in range(4):
                seed = 10_000 * dim + 100 * n + rep
                r_rank, s_rank = ranks[kind]
                rho, sigma = density(dim, r_rank, seed), density(dim, s_rank, seed + 50)
                key = f"{kind}/d{dim}/{rep}"
                out[f"dq-single/{key}"] = _nums(
                    [entropy.tsallis_relative_entropy(rho, sigma, q).value for q in QS]
                    + [entropy.umegaki_relative_entropy(rho, sigma).value]
                )
                out[f"dq-grid/{key}"] = _nums(entropy._relative_entropies(rho, sigma, QS))

    def bipartite(dA, dB, seed):
        return states.BipartiteState(density(dA * dB, dA * dB, seed), dA, dB)

    measured = [(f"random/{a}x{b}/{s}", bipartite(a, b, 500 + s))
                for a, b in ((2, 2), (2, 3), (3, 2), (3, 3)) for s in range(10)]
    measured += [(f"werner/{F:.3f}", states.werner_state(F))
                 for F in np.linspace(0.0, 1.0, 41).tolist()]
    for key, sigma in measured:
        out[f"measure/{key}"] = _nums(
            [entanglement.tsallis_measure(sigma, q).value for q in QS if q <= 1]
            + [entanglement.mutual_entropy_measure(sigma).value]
        )

    targets = [(f"werner/{F}", states.werner_state(F), werner.werner_er_closed(F))
               for F in (0.55, 0.6, 0.75, 0.9, 0.97, 1.0)]
    for key, sigma in measured[:40:4]:
        em = entanglement.mutual_entropy_measure(sigma).value
        targets += [(f"{key}/{frac}", sigma, frac * em) for frac in (0.0, 0.3, 0.8)]
    for key, sigma, target in targets:
        try:
            rep = entanglement.match_q(sigma, target)
            out[f"match-q/{key}"] = (
                _nums([rep.q_star, rep.residual]) + [str(rep.boundary)]
                + [_num(x) for b in rep.brackets for x in b]
            )
        except Exception as exc:  # the error is part of the output
            out[f"match-q/{key}"] = [type(exc).__name__, str(exc)]

    rng = np.random.default_rng(7)
    for dim in range(1, 17):
        for rep in range(5):
            G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            M = G @ G.conj().T
            if rep % 2 and dim > 1:  # rank-deficient
                M = M @ np.diag([float(k % 2) for k in range(dim)]) @ M.conj().T
            spec = linalg.psd_spectrum(M / np.trace(M).real)
            out[f"psd-spectrum/d{dim}/{rep}"] = (
                _nums(spec.eigenvalues) + _complex(spec.eigenvectors)
            )

    names = [n for n in verify.SUITES if n != "ordering"]
    for res in verify.run_suites(names, 50, 0):
        out[f"suites/{res.name}"] = [f"checks={res.checks}", _num(res.worst_slack)] + [
            f"{f.trial} {f.seed} {_num(f.slack)} {f.detail}" for f in res.failures
        ]

    out.update(cli_runs())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def cli_runs() -> dict:
    """``CLI_COMMANDS`` through ``qent.cli.main``, in a scratch directory."""
    import numpy as np

    from qent import cli

    F = 0.9  # W_F = F |psi-><psi-| + (1-F)/3 (I - |psi-><psi-|), built here
    singlet = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2
    W = F * singlet + (1 - F) / 3 * (np.eye(4) - singlet)
    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("w09.json", "w", encoding="utf-8") as fh:
                json.dump({"dims": [2, 2], "re": W.tolist(), "im": [[0.0] * 4] * 4}, fh)
            with open("bad.json", "w", encoding="utf-8") as fh:
                fh.write("{not json")
            for name, argv in CLI_COMMANDS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    try:
                        code = cli.main(list(argv))
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                written = ""
                if os.path.exists("sweep.out"):
                    with open("sweep.out", encoding="utf-8") as fh:
                        written = fh.read()
                    os.remove("sweep.out")
                out[f"cli/{name}"] = [f"exit={code}", stdout.getvalue(),
                                      stderr.getvalue(), written]
        finally:
            os.chdir(here)
    return out


def run_dump(tree: str, path: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                   env=env, check=True, cwd=tree)


def _float(text: str):
    try:
        return float.fromhex(text)
    except ValueError:
        return None


def compare(old: dict, new: dict) -> int:
    """Print the per-group report; return the number of problems."""
    problems = 0
    for key in sorted(old.keys() ^ new.keys()):
        print(f"only in {'old' if key in old else 'new'}: {key}")
        problems += 1
    # group: everything before the last path component ("dq-grid/full/d4")
    # without the dimension, so each kind of input is one row
    rows = defaultdict(lambda: [0, 0, 0.0, 0])  # values, identical, max rel, bad
    for key in sorted(old.keys() & new.keys()):
        parts = key.split("/")
        group = "/".join(p for p in parts[:-1] if not p[1:].isdigit()) or parts[0]
        row = rows[group]
        a, b = old[key], new[key]
        if len(a) != len(b):
            print(f"{key}: {len(a)} values vs {len(b)}")
            row[3] += 1
            continue
        for x, y in zip(a, b):
            row[0] += 1
            if x == y:
                row[1] += 1
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)):
                print(f"{key}: {x!r} vs {y!r}")
                row[3] += 1
                continue
            rel = abs(fx - fy) / max(1.0, abs(fx))
            row[2] = max(row[2], rel)
            if rel > TOL:
                print(f"{key}: {fx!r} vs {fy!r} (relative {rel:.2e})")
                row[3] += 1
    print(f"{'group':<36} {'values':>8} {'identical':>10} {'max rel diff':>13} {'beyond':>7}")
    for group, (n, same, rel, bad) in sorted(rows.items()):
        print(f"{group:<36} {n:>8} {same:>10} {rel:>13.2e} {bad:>7}")
        problems += bad
    total = sum(r[0] for r in rows.values())
    same = sum(r[1] for r in rows.values())
    print(f"{'all':<36} {total:>8} {same:>10}")
    for side, values in (("old", old), ("new", new)):
        grids = [(v, values["dq-single" + k[7:]]) for k, v in values.items()
                 if k.startswith("dq-grid/")]
        equal = sum(x == y for grid, single in grids for x, y in zip(grid, single))
        print(f"{side}: {equal} of {sum(len(g) for g, _ in grids)} dq-grid values"
              " equal their dq-single value")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", metavar="TREE", help="OLD_TREE NEW_TREE")
    ap.add_argument("--keep", metavar="DIR", help="write the two dumps here")
    ap.add_argument("--dump", metavar="FILE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if len(args.trees) != 2:
        ap.error("give two source trees: OLD_TREE NEW_TREE")
    with tempfile.TemporaryDirectory() as tmp:
        folder = args.keep or tmp
        os.makedirs(folder, exist_ok=True)
        paths = [os.path.join(folder, f"{side}.json") for side in ("old", "new")]
        for tree, path in zip(args.trees, paths):
            run_dump(tree, path)
        dumps = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    return 1 if compare(*dumps) else 0


if __name__ == "__main__":
    sys.exit(main())
