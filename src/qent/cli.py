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


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list = field(default_factory=list)  # (label, value) pairs
    failures: list = field(default_factory=list)
    timestamp: str | None = None

    def add(self, label: str, value) -> None:
        self.results.append((label, value))

    def to_json(self) -> str:
        obj = {
            "command": self.command,
            "inputs": self.inputs,
            "results": [{"label": k, "value": v} for k, v in self.results],
            "failures": self.failures,
        }
        if self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        return json.dumps(obj, indent=2, default=str)

    def to_csv(self) -> str:
        lines = [f"{k},{_fmt(v)}" for k, v in self.results]
        for f in self.failures:
            lines.append(f"# failure {f}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _emit(report: RunReport, fmt: str) -> None:
    print(report.to_json() if fmt == "json" else report.to_csv())


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


def _stamp(report: RunReport, args) -> None:
    if not args.no_timestamp:
        report.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")


# --- subcommands -------------------------------------------------------------


def cmd_measure(args) -> int:
    try:
        sigma = _load_bipartite(args.state_file)
    except (OSError, ValueError, KeyError, QentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = RunReport(
        "measure",
        {"state_file": args.state_file, "q": args.q, "with_er": args.with_er,
         "seed": args.seed},
    )
    _stamp(report, args)
    report.add("S", von_neumann_entropy(sigma.state))
    report.add("E_M", mutual_entropy_measure(sigma).value)
    if args.q is not None:
        if not 0.0 <= args.q <= 1.0:
            print(f"error: q must lie in [0, 1], got {args.q}", file=sys.stderr)
            return EXIT_INPUT
        report.add(f"E_T(q={args.q:g})", tsallis_measure(sigma, args.q).value)
    if args.with_er:
        try:
            er = relative_entropy_of_entanglement(
                sigma, OptimizerOptions(seed=args.seed)
            )
        except OptimizerFailureError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_OPTIMIZER
        report.add("E_R_upper_bound", er.value)
        report.add("E_R_iterations", er.iterations)
        report.add("E_R_converged", er.converged)
    _emit(report, args.format)
    return EXIT_OK


def _parse_sweep(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be F0:F1:STEP, got {spec!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def cmd_werner(args) -> int:
    try:
        f0, f1, step = _parse_sweep(args.sweep)
        rows, crossings = werner_mod.werner_sweep(f0, f1, step, args.q)
    except (ValueError, QentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.plot_data:
        lines = []
        for curve in ("e_tsallis", "e_rel", "e_mutual"):
            lines.append(f"# curve {curve}")
            for r in rows:
                lines.append(f"{_fmt(r.F)} {_fmt(getattr(r, curve))}")
            lines.append("")
        out = "\n".join(lines)
    elif args.format == "json":
        obj = {
            "q": args.q,
            "rows": [
                {"F": r.F, "e_tsallis": r.e_tsallis, "e_rel": r.e_rel,
                 "e_mutual": r.e_mutual}
                for r in rows
            ],
            "crossings": list(crossings.crossings),
        }
        if not args.no_timestamp:
            obj["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        out = json.dumps(obj, indent=2)
    else:
        lines = ["F,e_tsallis,e_rel,e_mutual"]
        for r in rows:
            lines.append(
                f"{_fmt(r.F)},{_fmt(r.e_tsallis)},{_fmt(r.e_rel)},{_fmt(r.e_mutual)}"
            )
        for c in crossings.crossings:
            lines.append(f"# crossing F={_fmt(c)}")
        out = "\n".join(lines)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK


def cmd_match_q(args) -> int:
    try:
        if args.werner is not None:
            if not 0.0 <= args.werner <= 1.0:
                raise ValueError(f"Werner F must lie in [0, 1], got {args.werner}")
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
    except (OSError, ValueError, KeyError, QentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        result = match_q(sigma, target, tol=args.tol)
    except NoRootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT

    report = RunReport(
        "match-q",
        {"state_file": args.state_file, "werner": args.werner,
         "target_er": target, "tol": args.tol},
    )
    _stamp(report, args)
    report.add("q_star", result.q_star)
    report.add("residual", result.residual)
    report.add("boundary", result.boundary)
    for lo, hi in result.brackets:
        report.add("bracket", f"[{_fmt(lo)}, {_fmt(hi)}]")
    _emit(report, args.format)
    return EXIT_OK


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


def cmd_verify(args) -> int:
    try:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    results = verify_mod.run_suites(
        names, args.trials, args.seed, q_grid=q_grid, tol_overrides=overrides
    )
    report = RunReport(
        "verify",
        {"suite": args.suite, "trials": args.trials, "seed": args.seed,
         "q_grid": args.q_grid},
    )
    _stamp(report, args)
    violations = 0
    for res in results:
        worst = res.worst_slack if math.isfinite(res.worst_slack) else 0.0
        status = "pass" if res.passed else f"FAIL ({len(res.failures)} violations)"
        report.add(
            res.name,
            f"{status}, checks={res.checks}, worst_slack={worst:.3e}",
        )
        for f in res.failures:
            violations += 1
            report.failures.append(
                {"property": f.suite, "trial": f.trial, "seed": f.seed,
                 "slack": f.slack, "detail": f.detail}
            )
    _emit(report, args.format)
    return EXIT_VIOLATION if violations else EXIT_OK


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
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
