"""Command-line front end.

Subcommands:
  solve    run the solver on a problem file or generated instance, writing a
           trace CSV, a full-vector trace JSON, and a summary JSON per
           (sigma, schedule) pair
  rates    post-process a trace against an oracle solution into a rate
           report (CSV + JSON); the oracle is read from --oracle FILE or
           computed from --problem/--generator, never both
  verify   run the invariant suites over the standard corpus

Exit codes: 0 success/Converged, 1 input or usage error, 2 MaxOuterIterations,
3 InnerFailure, 4 oracle mismatch, 5 rate bound violations. Grids report
the worst code across runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
# unused here: perfbench/layers.py patches this name when it traces the CLI
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; only --help exits 0
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except OracleMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (AlmlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser as it was, and
    # each call starts from a fresh namespace, so no appended value carries
    # over from one call of main to the next
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
    ps.add_argument("--max-inner", type=int, default=10000,
                    help="inner iterations per subproblem at most, in either mode (default 10000)")
    ps.add_argument("--exact", action="store_true", help="solve subproblems exactly (QP only)")
    ps.add_argument("--out", default=".", help="output directory")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("rates", help="rate report from a trace and an oracle solution")
    pr.add_argument("--trace", required=True, help="trace JSON written by solve")
    pr.add_argument("--oracle", help="oracle solution JSON; or give the problem to compute it")
    _add_problem_args(pr)
    pr.add_argument("--probe", action="store_true", help="also run the superlinear-trend probe")
    pr.add_argument("--out", default=".", help="output directory")
    pr.set_defaults(func=cmd_rates)

    pv = sub.add_parser("verify", help="run invariant suites over the standard corpus")
    pv.add_argument("--only", action="append", metavar="CHECK",
                    help=f"restrict to named checks; known: {', '.join(sorted(CHECKS))}")
    pv.set_defaults(func=cmd_verify)
    return parser


def _add_problem_args(p):
    p.add_argument("--problem", help="problem file (JSON)")
    p.add_argument("--generator", help="generator family name")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--n", type=int, help="generator dimension override")
    p.add_argument("--m1", type=int, help="generator equality count override")
    p.add_argument("--m2", type=int, help="generator inequality count override")


def _resolve_problem(args):
    if args.problem and args.generator:
        raise ProblemFormatError("problem", "give either --problem or --generator, not both")
    if args.problem:
        return load_problem(args.problem)
    if args.generator:
        return generate(GeneratorSpec(args.generator, n=args.n, m1=args.m1,
                                      m2=args.m2, seed=args.seed))
    raise ProblemFormatError("problem", "one of --problem or --generator is required")


def _run_key(prog_name: str, sigma: float, schedule: PenaltySchedule) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in prog_name) or "problem"
    return f"{safe}__sigma{sigma:g}__{schedule.kind}"


# the flag that sets each field of driver.check_settings, PenaltySchedule and
# InnerOptions, whose refusals lead with the field's name
_FLAGS = {
    "sigma": "--sigma", "tol": "--tol", "max_outer": "--max-outer", "max_inner": "--max-inner", "exact": "--exact",
    "c0": "--c0", "growth": "--growth", "c_max": "--cmax", "adapt_ratio": "--adapt-ratio",
}
# how many of (c0, growth, c_max, adapt_ratio) each schedule kind reads; a
# trace echoes only those, and only they are checked
_SCHEDULE_ARITY = {"fixed": 1, "geometric": 3, "adaptive": 4}


def cmd_solve(args) -> int:
    prog = _resolve_problem(args)
    prog.check_convex()
    sigmas = args.sigma or [0.5]
    settings = (args.c0, args.growth, math.inf if args.cmax <= 0 else args.cmax, args.adapt_ratio)
    try:
        inner = InnerOptions(max_inner=args.max_inner, exact=args.exact)
        inner.check(prog)
        schedules = [PenaltySchedule(kind, *settings[:_SCHEDULE_ARITY[kind]])
                     for kind in args.schedule or ["fixed"]]
        for sigma in sigmas:
            driver.check_settings(sigma, args.tol, args.max_outer)
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        print(f"error: {_FLAGS[field]} {rule}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    code = EXIT_OK
    for sigma in sigmas:
        for sched in schedules:
            hist = driver.run(prog, sched, sigma, tol=args.tol,
                              max_outer=args.max_outer, inner=inner)
            key = _run_key(prog.name, sigma, sched)
            hist.to_csv(out_dir / f"{key}.csv")
            hist.to_json(out_dir / f"{key}.trace.json")
            _write_summary(out_dir / f"{key}.summary.json", hist)
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
        fh.write(json.dumps(doc, indent=1))


def cmd_rates(args) -> int:
    if args.oracle and (args.problem or args.generator):
        raise ProblemFormatError("oracle", "give either --oracle or --problem/--generator, not both")
    if not (args.oracle or args.problem or args.generator):
        raise ProblemFormatError("oracle", "one of --oracle, --problem or --generator is required")
    trace_path = Path(args.trace)
    hist = RunHistory.from_json(trace_path)
    if args.oracle:
        oracle = SolutionSetOracle.from_json(args.oracle)
    else:
        oracle = solve_qp_exact(_resolve_problem(args))

    check_oracle_match(hist, oracle)
    kappa = estimate_kappa(hist, oracle)
    report = rate_report(hist, oracle, kappa, hist.config["sigma"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_path.name.replace(".trace.json", "") or "run"
    if args.probe:
        try:
            probe = superlinearity_probe(hist, oracle)
            report.probe = {"ok": probe.ok, "reason": probe.reason, "ratios": probe.ratios}
        except InsufficientIterationsError as exc:
            report.probe = {"ok": False, "reason": str(exc), "ratios": []}
    report.to_csv(out_dir / f"{stem}.rates.csv")
    report.to_json(out_dir / f"{stem}.rates.json")
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
