"""Command-line front end.

Subcommands:
  solve    run the solver on a problem file or generated instance, writing a
           trace CSV, a full-vector trace JSON, and a summary JSON per
           (sigma, schedule) pair
  rates    post-process a trace against an oracle solution into a rate
           report (CSV + JSON)
  verify   run the invariant suites over the standard corpus

Exit codes: 0 success/Converged, 1 input error, 2 MaxOuterIterations,
3 InnerFailure, 4 oracle mismatch, 5 rate bound violations. Grids report
the worst code across runs. The worker pool for grids is capped by the
ALMLAB_THREADS variable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import driver
from .driver import InnerOptions, PenaltySchedule, RunHistory
from .errors import (
    AlmlabError,
    InsufficientIterationsError,
    OracleMismatchError,
    ProblemFormatError,
)
from .io import load_problem
from .oracle import SolutionSetOracle, estimate_kappa, solve_qp_exact
from .problems import GeneratorSpec, generate
from .rates import check_oracle_match, rate_report, superlinearity_probe
from .verify import CHECKS, run_verification

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_OUTER = 2
EXIT_INNER_FAILURE = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_RATE_VIOLATIONS = 5

_STATUS_CODES = {
    driver.CONVERGED: EXIT_OK,
    driver.MAX_OUTER: EXIT_MAX_OUTER,
    driver.INNER_FAILURE: EXIT_INNER_FAILURE,
}


@dataclass
class ExperimentConfig:
    """A solve grid: one run per (sigma, schedule) pair on one problem."""

    problem_path: str | None
    generator: str | None
    seed: int
    sigmas: list
    schedules: list
    tol: float
    max_outer: int
    out_dir: Path
    inner: InnerOptions
    with_oracle: bool = False

    def __post_init__(self):
        if not self.sigmas or not self.schedules:
            raise ValueError("at least one sigma and one schedule are required")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol:g}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OracleMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (AlmlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _build_parser():
    parser = argparse.ArgumentParser(prog="almlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the solver and write trace files")
    _add_problem_args(ps)
    ps.add_argument("--sigma", type=float, action="append",
                    help="relative error tolerance in [0, 1); repeatable")
    ps.add_argument("--schedule", action="append", choices=["fixed", "geometric", "adaptive"],
                    help="penalty schedule; repeatable")
    ps.add_argument("--c0", type=float, default=10.0, help="initial penalty (default 10)")
    ps.add_argument("--growth", type=float, default=2.0, help="penalty growth factor (default 2)")
    ps.add_argument("--cmax", type=float, default=1e8, help="penalty cap (default 1e8)")
    ps.add_argument("--adapt-ratio", type=float, default=0.5,
                    help="required feasibility decay for the adaptive schedule")
    ps.add_argument("--tol", type=float, default=1e-8, help="stopping tolerance")
    ps.add_argument("--max-outer", type=int, default=200)
    ps.add_argument("--max-inner", type=int, default=10000)
    ps.add_argument("--armijo-factor", type=float, default=0.5,
                    help="line-search backtracking factor")
    ps.add_argument("--armijo-decrease", type=float, default=1e-4,
                    help="line-search sufficient-decrease constant")
    ps.add_argument("--exact", action="store_true", help="solve subproblems exactly (QP only)")
    ps.add_argument("--out", default=".", help="output directory")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("rates", help="rate report from a trace and an oracle solution")
    pr.add_argument("--trace", required=True, help="trace JSON written by solve")
    pr.add_argument("--oracle", help="oracle solution JSON")
    pr.add_argument("--with-oracle", action="store_true",
                    help="compute the oracle from the problem instead of loading it")
    _add_problem_args(pr, required=False)
    pr.add_argument("--tail", type=float, default=0.25, help="tail fraction for the kappa estimate")
    pr.add_argument("--probe", action="store_true", help="also run the superlinear-trend probe")
    pr.add_argument("--out", default=".", help="output directory")
    pr.set_defaults(func=cmd_rates)

    pv = sub.add_parser("verify", help="run invariant suites over the standard corpus")
    pv.add_argument("--only", action="append", metavar="CHECK",
                    help=f"restrict to named checks; known: {', '.join(sorted(CHECKS))}")
    pv.set_defaults(func=cmd_verify)
    return parser


def _add_problem_args(p, required=True):
    p.add_argument("--problem", help="problem file (JSON)")
    p.add_argument("--generator", help="generator family name")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--n", type=int, help="generator dimension override")
    p.add_argument("--m1", type=int, help="generator equality count override")
    p.add_argument("--m2", type=int, help="generator inequality count override")
    p.required_problem = required


def _resolve_problem(args, required=True):
    if args.problem and args.generator:
        raise ProblemFormatError("problem", "give either --problem or --generator, not both")
    if args.problem:
        return load_problem(args.problem)
    if args.generator:
        return generate(GeneratorSpec(args.generator, n=args.n, m1=args.m1,
                                      m2=args.m2, seed=args.seed))
    if required:
        raise ProblemFormatError("problem", "one of --problem or --generator is required")
    return None


def _run_key(prog_name: str, sigma: float, schedule: PenaltySchedule) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in prog_name) or "problem"
    return f"{safe}__sigma{sigma:g}__{schedule.kind}"


def cmd_solve(args) -> int:
    prog = _resolve_problem(args)
    sigmas = args.sigma if args.sigma else [0.5]
    for s in sigmas:
        if not 0.0 <= s < 1.0:
            print(f"error: sigma must lie in [0, 1), got {s:g}", file=sys.stderr)
            return EXIT_INPUT
    for flag in ("tol", "c0", "growth"):
        if not math.isfinite(getattr(args, flag)):
            print(f"error: --{flag} must be finite, got {getattr(args, flag):g}", file=sys.stderr)
            return EXIT_INPUT
    if math.isnan(args.cmax):
        print("error: --cmax must be a number (<= 0 means no cap), got nan", file=sys.stderr)
        return EXIT_INPUT
    try:
        inner = InnerOptions(max_inner=args.max_inner, armijo_factor=args.armijo_factor,
                             armijo_decrease=args.armijo_decrease, exact=args.exact)
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        print(f"error: --{field.replace('_', '-')} {rule}", file=sys.stderr)
        return EXIT_INPUT
    schedule_names = args.schedule if args.schedule else ["fixed"]
    cmax = args.cmax if args.cmax > 0 else math.inf
    schedules = []
    for name in schedule_names:
        if name == "fixed":
            schedules.append(PenaltySchedule.fixed(args.c0))
        elif name == "geometric":
            schedules.append(PenaltySchedule.geometric(args.c0, args.growth, cmax))
        else:
            schedules.append(PenaltySchedule.adaptive(args.c0, args.growth, cmax, args.adapt_ratio))
    cfg = ExperimentConfig(
        problem_path=args.problem,
        generator=args.generator,
        seed=args.seed,
        sigmas=sigmas,
        schedules=schedules,
        tol=args.tol,
        max_outer=args.max_outer,
        out_dir=Path(args.out),
        inner=inner,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(sigma, sched) for sigma in cfg.sigmas for sched in cfg.schedules]

    def one(job):
        sigma, sched = job
        hist = driver.run(prog, sched, sigma, tol=cfg.tol,
                          max_outer=cfg.max_outer, inner=cfg.inner)
        key = _run_key(prog.name, sigma, sched)
        hist.to_csv(cfg.out_dir / f"{key}.csv")
        hist.to_json(cfg.out_dir / f"{key}.trace.json")
        _write_summary(cfg.out_dir / f"{key}.summary.json", hist)
        return key, hist

    if len(jobs) == 1:
        results = [one(jobs[0])]
    else:
        with ThreadPoolExecutor(max_workers=_worker_count(len(jobs))) as pool:
            results = list(pool.map(one, jobs))

    code = EXIT_OK
    for key, hist in results:
        final = hist.final() if hist.records else None
        resid = f"residual={final.residual():.3e}" if final else "no iterations"
        print(f"{key}: {hist.status} after {len(hist.records)} iterations ({resid})")
        code = max(code, _STATUS_CODES[hist.status])
    return code


def _write_summary(path, hist: RunHistory):
    final = hist.final() if hist.records else None
    doc = {
        "status": hist.status,
        "iterations": len(hist.records),
        "total_inner_iters": hist.total_inner_iters(),
        "config": hist.config,
        "failure": hist.failure,
    }
    if final is not None:
        doc["final"] = {
            "f_val": final.f_val,
            "residual": final.residual(),
            "kkt": final.kkt.as_dict(),
            "lam": final.p.lam.tolist(),
            "mu": final.p.mu.tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _worker_count(jobs: int) -> int:
    cap = os.environ.get("ALMLAB_THREADS")
    try:
        cap = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        cap = 1
    return max(1, min(jobs, cap))


def cmd_rates(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.exists():
        print(f"error: trace file '{trace_path}' not found", file=sys.stderr)
        return EXIT_INPUT
    hist = RunHistory.from_json(trace_path)

    if args.oracle:
        oracle = SolutionSetOracle.from_json(args.oracle)
    elif args.with_oracle:
        prog = _resolve_problem(args)
        oracle = solve_qp_exact(prog)
    else:
        print("error: an oracle solution is required (--oracle FILE or --with-oracle)",
              file=sys.stderr)
        return EXIT_INPUT

    check_oracle_match(hist, oracle)
    kappa = estimate_kappa(hist, oracle, tail_fraction=args.tail)
    report = rate_report(hist, oracle, kappa, hist.config["sigma"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_path.name.replace(".trace.json", "") or "run"
    report.to_csv(out_dir / f"{stem}.rates.csv")
    doc = report.to_json(out_dir / f"{stem}.rates.json")
    if args.probe:
        try:
            probe = superlinearity_probe(hist, oracle)
            doc["probe"] = {"ok": probe.ok, "reason": probe.reason, "ratios": probe.ratios}
        except InsufficientIterationsError as exc:
            doc["probe"] = {"ok": False, "reason": str(exc), "ratios": []}
        with open(out_dir / f"{stem}.rates.json", "w") as fh:
            json.dump(doc, fh, indent=1)
    summary = report.summary
    print(f"kappa_hat={summary.kappa_hat:.6g} sup_rho_tail={summary.sup_rho_tail:.6g} "
          f"bound_violations={summary.bound_violations} margin_violations={summary.margin_violations}")
    return EXIT_OK if summary.bound_violations == 0 else EXIT_RATE_VIOLATIONS


def cmd_verify(args) -> int:
    failures = run_verification(only=args.only)
    print(json.dumps({"failures": [f.as_dict() for f in failures],
                      "checks": args.only or sorted(CHECKS)}, indent=1))
    return EXIT_OK if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
