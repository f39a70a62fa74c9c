"""Command-line front end.

Subcommands: ``measure`` (entropies and measures of a state file),
``werner`` (the F-sweep comparing the closed forms), ``match-q`` (solve for
the deformation parameter matching a target value), and ``verify`` (the
randomized property suites).

Exit codes: 0 success, 1 property violation, 2 input error, 3 optimizer
failure, 4 no root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import verify as verify_mod
from . import werner as werner_mod
from .entanglement import (
    OptimizerOptions,
    match_q,
    mutual_entropy_measure,
    relative_entropy_of_entanglement,
    tsallis_measure,
)
from .entropy import von_neumann_entropy
from .errors import NoRootError, OptimizerFailureError, QentError
from .states import (
    BipartiteState,
    DensityOperator,
    load_state,
    validate_density,
    werner_state,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_OPTIMIZER = 3
EXIT_NO_ROOT = 4

#: exit code per error type, first match wins; any other error is EXIT_INPUT
_EXIT_CODES = ((NoRootError, EXIT_NO_ROOT), (OptimizerFailureError, EXIT_OPTIMIZER))


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list = field(default_factory=list)  # (label, value) pairs
    failures: list = field(default_factory=list)

    def add(self, label: str, value) -> None:
        self.results.append((label, value))

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": [{"label": k, "value": v} for k, v in self.results],
            "failures": self.failures,
        }

    def to_csv(self) -> str:
        lines = [f"{k},{_fmt(v)}" for k, v in self.results]
        return "\n".join(lines + [f"# failure {f}" for f in self.failures])


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _default_seed() -> int:
    return int(os.environ.get("QENT_SEED", "0"))


def _load_bipartite(path) -> BipartiteState:
    M, dims = load_state(path)
    if len(dims) != 2:
        raise ValueError(f"expected a bipartite dims array of length 2, got {dims}")
    rep = validate_density(M, 1e-8)
    if not rep.passed:
        raise ValueError(
            f"not a density operator: hermiticity defect {rep.hermiticity_defect:.2e},"
            f" trace defect {rep.trace_defect:.2e}, min eigenvalue {rep.min_eigenvalue:.2e}"
        )
    return BipartiteState(DensityOperator(M), dims[0], dims[1])


# --- subcommands -------------------------------------------------------------
#
# Each returns a RunReport, a JSON object (dict) or finished text, and raises
# on error; ``main`` stamps, renders and writes the result.


def cmd_measure(args) -> RunReport:
    sigma = _load_bipartite(args.state_file)
    report = RunReport(
        "measure",
        {"state_file": args.state_file, "q": args.q, "with_er": args.with_er,
         "seed": args.seed},
    )
    report.add("S", von_neumann_entropy(sigma.state))
    report.add("E_M", mutual_entropy_measure(sigma).value)
    if args.q is not None:
        report.add(f"E_T(q={args.q:g})", tsallis_measure(sigma, args.q).value)
    if args.with_er:
        er = relative_entropy_of_entanglement(sigma, OptimizerOptions(seed=args.seed))
        report.add("E_R_upper_bound", er.value)
        report.add("E_R_iterations", er.iterations)
    return report


def _parse_sweep(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be F0:F1:STEP, got {spec!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def cmd_werner(args) -> str | dict:
    rows, crossings = werner_mod.werner_sweep(*_parse_sweep(args.sweep), args.q)
    if args.plot_data:
        lines = []
        for curve in ("e_tsallis", "e_rel", "e_mutual"):
            lines.append(f"# curve {curve}")
            for r in rows:
                lines.append(f"{_fmt(r.F)} {_fmt(getattr(r, curve))}")
            lines.append("")
        return "\n".join(lines)
    if args.format == "json":
        return {
            "q": args.q,
            "rows": [
                {"F": r.F, "e_tsallis": r.e_tsallis, "e_rel": r.e_rel,
                 "e_mutual": r.e_mutual}
                for r in rows
            ],
            "crossings": list(crossings.crossings),
        }
    lines = ["F,e_tsallis,e_rel,e_mutual"]
    for r in rows:
        lines.append(
            f"{_fmt(r.F)},{_fmt(r.e_tsallis)},{_fmt(r.e_rel)},{_fmt(r.e_mutual)}"
        )
    for c in crossings.crossings:
        lines.append(f"# crossing F={_fmt(c)}")
    return "\n".join(lines)


def cmd_match_q(args) -> RunReport:
    if args.werner is not None:
        sigma = werner_state(args.werner)
    elif args.state_file:
        sigma = _load_bipartite(args.state_file)
    else:
        raise ValueError("provide a state file or --werner F")
    if args.target_er == "closed-form":
        if args.werner is None:
            raise ValueError("--target-er closed-form requires --werner")
        target = werner_mod.werner_er_closed(args.werner)
    else:
        target = float(args.target_er)
    result = match_q(sigma, target, tol=args.tol)
    report = RunReport(
        "match-q",
        {"state_file": args.state_file, "werner": args.werner,
         "target_er": target, "tol": args.tol},
    )
    report.add("q_star", result.q_star)
    report.add("residual", result.residual)
    report.add("boundary", result.boundary)
    for lo, hi in result.brackets:
        report.add("bracket", f"[{_fmt(lo)}, {_fmt(hi)}]")
    return report


def _parse_q_grid(spec):
    if spec is None:
        return None
    grid = tuple(float(x) for x in spec.split(",") if x.strip())
    bad = [q for q in grid if not 0 <= q <= 2]  # also rejects nan
    if bad:
        raise ValueError(f"q-grid values must lie in [0, 2], got {bad}")
    return grid


def _parse_tol_overrides(pairs):
    out = {}
    for item in pairs or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"tolerance override must be SUITE=VALUE, got {item!r}")
        tol = float(value)
        if not math.isfinite(tol):
            raise ValueError(f"tolerance override must be finite, got {item!r}")
        out[name] = tol
    return out


def cmd_verify(args) -> RunReport:
    if args.suite == "all":
        names = list(verify_mod.SUITES)
    else:
        names = [s.strip() for s in args.suite.split(",")]
    overrides = _parse_tol_overrides(args.tol)
    unknown = [n for n in [*names, *overrides] if n not in verify_mod.SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s) {unknown}; available: "
            + ", ".join(sorted(verify_mod.SUITES))
        )
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    q_grid = _parse_q_grid(args.q_grid)

    results = verify_mod.run_suites(
        names, args.trials, args.seed, q_grid=q_grid, tol_overrides=overrides
    )
    report = RunReport(
        "verify",
        {"suite": args.suite, "trials": args.trials, "seed": args.seed,
         "q_grid": args.q_grid},
    )
    for res in results:
        worst = res.worst_slack if math.isfinite(res.worst_slack) else 0.0
        status = "pass" if res.passed else f"FAIL ({len(res.failures)} violations)"
        report.add(res.name, f"{status}, checks={res.checks}, worst_slack={worst:.3e}")
        for f in res.failures:
            report.failures.append(
                {"property": f.suite, "trial": f.trial, "seed": f.seed,
                 "slack": f.slack, "detail": f.detail}
            )
    return report


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qent",
        description="Density-operator entropies, deformed entanglement "
        "measures, and their property-verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field (for diffable output)")

    p = sub.add_parser("measure", help="entropies and measures of a state file")
    p.add_argument("state_file")
    p.add_argument("--q", type=float, default=None,
                   help="also report the deformed measure at this q")
    p.add_argument("--with-er", action="store_true",
                   help="also run the separable-state optimizer")
    p.add_argument("--seed", type=int, default=_default_seed())
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("werner", help="sweep the Werner family closed forms")
    p.add_argument("--sweep", required=True, metavar="F0:F1:STEP")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--plot-data", action="store_true",
                   help="emit two-column (F, value) series per curve")
    common(p)
    p.set_defaults(fn=cmd_werner)

    p = sub.add_parser("match-q", help="solve for the q matching a target value")
    p.add_argument("state_file", nargs="?", default=None)
    p.add_argument("--werner", type=float, default=None, metavar="F")
    p.add_argument("--target-er", default="closed-form",
                   help='target value, or "closed-form" with --werner')
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=cmd_match_q)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", default="all",
                   help="comma-separated suite names, or 'all'")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--q-grid", default=None,
                   help="comma-separated q values overriding the default grid")
    p.add_argument("--tol", action="append", metavar="SUITE=VALUE",
                   help="per-suite tolerance override (repeatable)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  The only place that turns an error into an
    ``error:`` line and its exit code, stamps JSON and writes the output."""
    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        failed = isinstance(result, RunReport) and bool(result.failures)
        if isinstance(result, RunReport):
            result = result.to_csv() if args.format == "csv" else result.to_dict()
        if isinstance(result, dict):  # a JSON object; the timestamp goes last
            if not args.no_timestamp:
                result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            result = json.dumps(result, indent=2, default=str)
        path = getattr(args, "out", None)
        sink = open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)
        with sink as fh:
            fh.write(result + "\n")
    except (OSError, ValueError, KeyError, QentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), EXIT_INPUT)
    return EXIT_VIOLATION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
