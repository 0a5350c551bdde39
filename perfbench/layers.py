"""Which almlab functions the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Every span of a measured operation sits under a root span named
``bench.pass``; the workload's input generation sits under ``bench.setup``.
``problems.generate`` is read from the set-up spans (it is what set-up
time is made of), everything else from the pass spans.
"""
from __future__ import annotations

import os

import numpy as np

from spans import Tracer, ancestors_named, child_time, summarize

PASS_ROOT = "bench.pass"
SETUP_ROOT = "bench.setup"

# name, unit, which direction is better
PER_LAYER = [
    ("problem.eval_g.calls", "count", "lower"),
    ("problem.eval_g.self_s", "s", "lower"),
    ("problem.grad_g.calls", "count", "lower"),
    ("problem.grad_g.self_s", "s", "lower"),
    ("problem.objective.calls", "count", "lower"),
    ("problem.kkt_residual.self_s", "s", "lower"),
    ("auglag.criterion_eval.calls", "count", "lower"),
    ("auglag.criterion_eval.self_s", "s", "lower"),
    ("auglag.multiplier_update.calls", "count", "lower"),
    ("auglag.multiplier_update.self_s", "s", "lower"),
    ("auglag.auglag_eval.calls", "count", "lower"),
    ("auglag.auglag_eval.self_s", "s", "lower"),
    ("inner.solve_subproblem.calls", "count", "lower"),
    ("inner.solve_subproblem.self_s", "s", "lower"),
    ("inner.iters", "count", "lower"),
    ("inner.backtracks", "count", "lower"),
    ("inner.lc_evals", "count", "lower"),
    ("inner.accept_ratio", "ratio", "higher"),
    ("inner.snapped", "count", "lower"),
    ("inner.smooth_curvature_bound.self_s", "s", "lower"),
    ("driver.run.self_s", "s", "lower"),
    ("driver.outer_iters", "count", "lower"),
    ("driver.to_csv.s", "s", "lower"),
    ("driver.to_json.s", "s", "lower"),
    ("driver.from_json.s", "s", "lower"),
    ("driver.trace_bytes", "B", "lower"),
    ("oracle.solve_qp_exact.calls", "count", "lower"),
    ("oracle.solve_qp_exact.s", "s", "lower"),
    ("oracle.project_dual.calls", "count", "lower"),
    ("oracle.project_dual.self_s", "s", "lower"),
    ("oracle.project_primal.calls", "count", "lower"),
    ("oracle.project_primal.self_s", "s", "lower"),
    ("oracle.estimate_kappa.s", "s", "lower"),
    ("rates.rate_report.self_s", "s", "lower"),
    ("rates.superlinearity_probe.s", "s", "lower"),
    ("problems.generate.calls", "count", "lower"),
    ("problems.generate.s", "s", "lower"),
    ("io.load_problem.s", "s", "lower"),
    ("verify.context.s", "s", "lower"),
] + [(f"verify.check.{name}.s", "s", "lower") for name in (
    "gradient-consistency", "convexity", "criterion-identity", "yp2",
    "subgradient-transfer", "certificate-validity", "step2-exactness",
    "vanishing-residuals", "dual-convergence", "oracle-kkt", "descent",
    "ppa-equivalence",
)] + [
    ("cli.main.self_s", "s", "lower"),
    ("cli.pool_workers", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# counters that must repeat exactly whenever the inputs repeat
DETERMINISTIC = ("inner.iters", "inner.backtracks", "inner.lc_evals",
                 "driver.outer_iters", "inner.snapped")


def _count_criterion(tracer, args, kwargs, result):
    tracer.count("criterion.satisfied", int(bool(result.satisfied)))


def _count_subproblem(tracer, args, kwargs, result):
    opts = kwargs.get("opts", args[6] if len(args) > 6 else None)
    tracer.count("inner.iters", result.inner_iters)
    tracer.count("inner.backtracks", result.backtracks)
    exact = opts is not None and opts.exact
    if not exact and not result.y.any():
        tracer.count("inner.snapped")


def _count_run(tracer, args, kwargs, result):
    tracer.count("driver.outer_iters", len(result.records))


def _count_trace_bytes(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None:
        tracer.count("driver.trace_bytes", os.path.getsize(path))


def install(tracer: Tracer):
    """Wrap the public functions of every almlab layer; undo with restore()."""
    from almlab import auglag, cli, driver, inner, io, oracle, problem, problems, rates, verify

    tracer.patch_method(problem.ConvexProgram, "eval_g", "problem.eval_g")
    tracer.patch_method(problem.ConvexProgram, "grad_g", "problem.grad_g")
    tracer.patch_method(problem.QuadraticObjective, "value", "problem.objective.value")
    tracer.patch_method(problem.QuadraticObjective, "grad", "problem.objective.grad")
    tracer.patch_function(problem, "kkt_residual", "problem.kkt_residual")
    tracer.patch_function(auglag, "criterion_eval", "auglag.criterion_eval", _count_criterion)
    tracer.patch_function(auglag, "multiplier_update", "auglag.multiplier_update")
    tracer.patch_function(auglag, "auglag_eval", "auglag.auglag_eval")
    tracer.patch_function(inner, "solve_subproblem", "inner.solve_subproblem", _count_subproblem)
    tracer.patch_function(inner, "smooth_curvature_bound", "inner.smooth_curvature_bound")
    tracer.patch_function(driver, "run", "driver.run", _count_run)
    tracer.patch_method(driver.RunHistory, "to_csv", "driver.to_csv")
    tracer.patch_method(driver.RunHistory, "to_json", "driver.to_json", _count_trace_bytes)
    tracer.patch_method(driver.RunHistory, "from_json", "driver.from_json")
    tracer.patch_function(oracle, "solve_qp_exact", "oracle.solve_qp_exact")
    tracer.patch_function(oracle, "project_dual", "oracle.project_dual")
    tracer.patch_function(oracle, "project_primal", "oracle.project_primal")
    tracer.patch_function(oracle, "estimate_kappa", "oracle.estimate_kappa")
    tracer.patch_function(rates, "rate_report", "rates.rate_report")
    tracer.patch_function(rates, "superlinearity_probe", "rates.superlinearity_probe")
    tracer.patch_function(problems, "generate", "problems.generate")
    tracer.patch_function(io, "load_problem", "io.load_problem")
    for name in list(verify.CHECKS):
        tracer.patch_item(verify.CHECKS, name, f"verify.check.{name}")
    tracer.patch_method(verify.VerifyContext, "runs", "verify.context")
    tracer.patch_method(verify.VerifyContext, "oracles", "verify.context")
    tracer.patch_function(cli, "main", "cli.main")

    base = cli.ThreadPoolExecutor

    class RecordingPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.record_max("cli.pool_workers", self._max_workers)

    tracer.patch_value(cli, "ThreadPoolExecutor", RecordingPool)


def compute(tracer: Tracer) -> dict:
    """Per-layer metrics of the spans and counters recorded so far (without
    the trace.overhead_* entries, which need an untraced pass)."""
    table, spans = summarize(tracer)
    run = table.get(PASS_ROOT, {})
    setup = table.get(SETUP_ROOT, {})

    def calls(name, source=run):
        return source.get(name, (0, 0.0, 0.0))[0]

    def total(name, source=run):
        return source.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return run.get(name, (0, 0.0, 0.0))[2]

    def counter(key):
        return tracer.counters.get(("pass", key), 0)

    names = tracer.names
    in_pass = spans["root"] == names.index(PASS_ROOT) if PASS_ROOT in names else np.zeros(spans["name"].size, bool)

    def ix(name):
        return names.index(name) if name in names else -1

    lc_evals = 0
    if ix("inner.solve_subproblem") >= 0 and ix("problem.objective.value") >= 0:
        inside = ancestors_named(spans["name"], spans["parent"], ix("inner.solve_subproblem"))
        lc_evals = int(np.sum(inside & in_pass & (spans["name"] == ix("problem.objective.value"))))

    dur = spans["end"] - spans["start"]
    context_time = child_time(spans, ix("verify.context")) if ix("verify.context") >= 0 else np.zeros(dur.size)

    def check_s(name):
        # the lazily built corpus runs and oracles land in whichever check
        # asks for them first; report them once, as verify.context.s
        sel = in_pass & (spans["name"] == ix(f"verify.check.{name}"))
        return float(np.sum(dur[sel] - context_time[sel]))

    crit_calls = calls("auglag.criterion_eval")
    out = {
        "problem.eval_g.calls": calls("problem.eval_g"),
        "problem.eval_g.self_s": self_s("problem.eval_g"),
        "problem.grad_g.calls": calls("problem.grad_g"),
        "problem.grad_g.self_s": self_s("problem.grad_g"),
        "problem.objective.calls": calls("problem.objective.value") + calls("problem.objective.grad"),
        "problem.kkt_residual.self_s": self_s("problem.kkt_residual"),
        "auglag.criterion_eval.calls": crit_calls,
        "auglag.criterion_eval.self_s": self_s("auglag.criterion_eval"),
        "auglag.multiplier_update.calls": calls("auglag.multiplier_update"),
        "auglag.multiplier_update.self_s": self_s("auglag.multiplier_update"),
        "auglag.auglag_eval.calls": calls("auglag.auglag_eval"),
        "auglag.auglag_eval.self_s": self_s("auglag.auglag_eval"),
        "inner.solve_subproblem.calls": calls("inner.solve_subproblem"),
        "inner.solve_subproblem.self_s": self_s("inner.solve_subproblem"),
        "inner.iters": counter("inner.iters"),
        "inner.backtracks": counter("inner.backtracks"),
        "inner.lc_evals": lc_evals,
        "inner.accept_ratio": counter("criterion.satisfied") / crit_calls if crit_calls else 0.0,
        "inner.snapped": counter("inner.snapped"),
        "inner.smooth_curvature_bound.self_s": self_s("inner.smooth_curvature_bound"),
        "driver.run.self_s": self_s("driver.run"),
        "driver.outer_iters": counter("driver.outer_iters"),
        "driver.to_csv.s": total("driver.to_csv"),
        "driver.to_json.s": total("driver.to_json"),
        "driver.from_json.s": total("driver.from_json"),
        "driver.trace_bytes": counter("driver.trace_bytes"),
        "oracle.solve_qp_exact.calls": calls("oracle.solve_qp_exact"),
        "oracle.solve_qp_exact.s": total("oracle.solve_qp_exact"),
        "oracle.project_dual.calls": calls("oracle.project_dual"),
        "oracle.project_dual.self_s": self_s("oracle.project_dual"),
        "oracle.project_primal.calls": calls("oracle.project_primal"),
        "oracle.project_primal.self_s": self_s("oracle.project_primal"),
        "oracle.estimate_kappa.s": total("oracle.estimate_kappa"),
        "rates.rate_report.self_s": self_s("rates.rate_report"),
        "rates.superlinearity_probe.s": total("rates.superlinearity_probe"),
        "problems.generate.calls": calls("problems.generate", setup),
        "problems.generate.s": total("problems.generate", setup),
        "io.load_problem.s": total("io.load_problem"),
        "verify.context.s": total("verify.context"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.pool_workers": counter("cli.pool_workers"),
        "trace.spans": int(np.sum(in_pass)),
    }
    for name, _, _ in PER_LAYER:
        if name.startswith("verify.check."):
            out[name] = check_s(name[len("verify.check."):-len(".s")])
    return out
