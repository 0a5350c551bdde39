"""Named invariant suites run over the standard problem corpus.

Each check inspects generated problems, recorded runs, or oracle solutions
and yields failure records; ``run_verification`` executes a selection and
returns everything that failed. The CLI wraps this with a machine-readable
report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auglag import auglag_eval
from .driver import CONVERGED, PenaltySchedule, run
from .inner import InnerOptions, solve_subproblem
from .oracle import project_dual, solve_qp_exact
from .problem import DualPoint, kkt_residual, lagrangian_grad
from .problems import GeneratorSpec, generate, standard_corpus
from .rng import Lcg

VERIFY_SIGMA = 0.5
VERIFY_TOL = 1e-8
_SCHEDULE = PenaltySchedule.geometric(10.0, 1.5, 1e6)


@dataclass
class Failure:
    check: str
    problem: str
    message: str

    def as_dict(self):
        return {"check": self.check, "problem": self.problem, "message": self.message}


class VerifyContext:
    """Problems, runs, and oracles shared by all checks; built lazily."""

    def __init__(self, problems=None):
        self.problems = problems if problems is not None else standard_corpus()
        self._runs = None
        self._oracles = None

    @property
    def runs(self):
        if self._runs is None:
            self._runs = [
                run(prog, _SCHEDULE, VERIFY_SIGMA, tol=VERIFY_TOL, max_outer=200)
                for prog in self.problems
            ]
        return self._runs

    @property
    def oracles(self):
        if self._oracles is None:
            self._oracles = [
                solve_qp_exact(prog) if prog.is_affine_qp() else None
                for prog in self.problems
            ]
        return self._oracles


def _check_gradient_consistency(ctx, points=100, step=1e-5, rel_tol=1e-6):
    """Analytic gradients of the smooth objective and every g_i match
    central finite differences."""
    rng = Lcg(2024)
    for prog in ctx.problems:
        worst = 0.0
        for _ in range(points):
            x = rng.normal(prog.n)
            fns = [(prog.smooth.value, prog.smooth.grad)]
            fns += [(g.value, g.grad) for g in prog.ineqs]
            for value, grad in fns:
                ga = np.asarray(grad(x), dtype=float)
                gf = np.empty_like(ga)
                for j in range(prog.n):
                    e = np.zeros(prog.n)
                    e[j] = step
                    gf[j] = (value(x + e) - value(x - e)) / (2 * step)
                worst = max(worst, np.linalg.norm(gf - ga) / max(1.0, np.linalg.norm(ga)))
        if worst > rel_tol:
            yield Failure("gradient-consistency", prog.name,
                          f"relative finite-difference error {worst:.3e} > {rel_tol:g}")


def _check_convexity(ctx, triples=100, slack=1e-10):
    """Interpolation inequality for the smooth objective and every g_i."""
    rng = Lcg(4096)
    for prog in ctx.problems:
        fns = [prog.smooth.value] + [g.value for g in prog.ineqs]
        for _ in range(triples):
            x1, x2 = rng.normal(prog.n), rng.normal(prog.n)
            alpha = rng.uniform()
            mid = alpha * x1 + (1 - alpha) * x2
            for f in fns:
                gap = f(mid) - alpha * f(x1) - (1 - alpha) * f(x2)
                if gap > slack:
                    yield Failure("convexity", prog.name, f"convexity gap {gap:.3e} > {slack:g}")
                    break


def _check_criterion_identity(ctx, rel_tol=1e-10):
    """c^2 (||h||^2 + ||min(mu_prev/c, -g)||^2) equals ||p_prev - p_new||^2."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        for rec in hist.records:
            a, b = rec.criterion.rhs_raw, rec.criterion.rhs_rewritten
            if abs(a - b) > rel_tol * max(abs(a), abs(b), 1e-300):
                yield Failure("criterion-identity", prog.name,
                              f"k={rec.k}: raw {a:.17g} vs rewritten {b:.17g}")
                break


def _check_yp2(ctx, slack=1e-12):
    """||y|| <= sqrt(sigma)/c * ||p_prev - p_new|| at every accepted iterate."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        sigma = hist.config["sigma"]
        for rec in hist.records:
            lhs = float(np.linalg.norm(rec.y))
            rhs = math.sqrt(sigma) / rec.c * float(np.linalg.norm(rec.delta_p))
            if lhs > rhs + slack:
                yield Failure("yp2", prog.name, f"k={rec.k}: ||y||={lhs:.3e} > {rhs:.3e}")
                break


def _check_subgradient_transfer(ctx, tol=1e-9):
    """For smooth problems, y equals the Lagrangian gradient at the updated
    multipliers (the identity putting (y, u) in the joint subdifferential)."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        if not prog.is_smooth:
            continue
        for rec in hist.records:
            gap = float(np.linalg.norm(rec.y - lagrangian_grad(prog, rec.x, rec.p)))
            if gap > tol:
                yield Failure("subgradient-transfer", prog.name, f"k={rec.k}: gap {gap:.3e}")
                break


def _check_certificate_validity(ctx, tol=1e-10):
    """y matches the smooth gradient of L_c at (x, p_prev) for smooth
    problems; for composite ones the prox residual lies in the
    subdifferential of the nonsmooth part."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        p_prev = DualPoint(
            np.array(hist.config["p0_lam"]), np.array(hist.config["p0_mu"])
        )
        for rec in hist.records:
            ev = auglag_eval(prog, rec.x, p_prev, rec.c)
            if prog.is_smooth:
                gap = float(np.linalg.norm(rec.y - ev.smooth_grad))
                # a declared-exact certificate (y = 0) may sit at the
                # evaluation noise floor rather than at exact zero
                limit = tol if rec.y.any() else 1e-9
                if gap > limit:
                    yield Failure("certificate-validity", prog.name,
                                  f"k={rec.k}: smooth gap {gap:.3e}")
                    break
            else:
                resid = rec.y - ev.smooth_grad
                if not prog.nonsmooth.contains_subgradient(rec.x, resid, tol=1e-8):
                    yield Failure("certificate-validity", prog.name,
                                  f"k={rec.k}: prox residual outside the subdifferential")
                    break
            p_prev = rec.p


def _check_step2_exactness(ctx, tol=1e-14):
    """Multiplier and auxiliary updates reproduce from the recorded state."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        p_prev = DualPoint(np.array(hist.config["p0_lam"]), np.array(hist.config["p0_mu"]))
        w_prev = np.array(hist.config["w0"])
        for rec in hist.records:
            h = prog.eval_h(rec.x)
            g = prog.eval_g(rec.x)
            scale = 1.0 + float(np.linalg.norm(rec.p.as_vector()))
            lam_gap = np.linalg.norm(rec.p.lam - (p_prev.lam + rec.c * h))
            mu_gap = np.linalg.norm(rec.p.mu - np.maximum(0.0, p_prev.mu + rec.c * g))
            w_gap = np.linalg.norm(rec.w - (w_prev - rec.c * rec.y))
            u_gap = np.linalg.norm(rec.u * rec.c + rec.p.as_vector() - p_prev.as_vector())
            if max(lam_gap, mu_gap, w_gap, u_gap) > tol * rec.c * scale:
                yield Failure("step2-exactness", prog.name,
                              f"k={rec.k}: update gaps ({lam_gap:.2e},{mu_gap:.2e},{w_gap:.2e},{u_gap:.2e})")
                break
            p_prev, w_prev = rec.p, rec.w


def _check_vanishing_residuals(ctx):
    """Converged runs end with ||u|| and ||y|| at or below the tolerance."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        if hist.status != CONVERGED:
            yield Failure("vanishing-residuals", prog.name, f"status {hist.status}")
            continue
        rec = hist.final()
        tol = hist.config["tol"]
        ny, nu = float(np.linalg.norm(rec.y)), float(np.linalg.norm(rec.u))
        if max(ny, nu) > tol:
            yield Failure("vanishing-residuals", prog.name,
                          f"final ||y||={ny:.3e}, ||u||={nu:.3e} above tol {tol:g}")


def _check_dual_convergence(ctx, slack=1e-12):
    """||p_k - p_N|| decreases monotonically over the final quartile."""
    for prog, hist in zip(ctx.problems, ctx.runs):
        if hist.status != CONVERGED or len(hist.records) < 8:
            continue
        p_final = hist.final().p.as_vector()
        dists = [float(np.linalg.norm(r.p.as_vector() - p_final)) for r in hist.records]
        tail = dists[len(dists) - max(2, len(dists) // 4):-1]
        for a, b in zip(tail, tail[1:]):
            if b > a + slack * (1.0 + a):
                yield Failure("dual-convergence", prog.name,
                              f"tail distance rose from {a:.3e} to {b:.3e}")
                break


def _check_oracle_kkt(ctx, tol=1e-10):
    """Oracle-emitted primal/dual members satisfy the optimality system."""
    rng = Lcg(99)
    for prog, oracle in zip(ctx.problems, ctx.oracles):
        if oracle is None:
            continue
        x_star = oracle.primal_point
        members = [project_dual(oracle, np.zeros(oracle.dual.m))[0],
                   project_dual(oracle, rng.normal(oracle.dual.m))[0]]
        for member in members:
            p = DualPoint.from_vector(member, prog.m1)
            res = kkt_residual(prog, x_star, p, lagrangian_grad(prog, x_star, p))
            if res.max_violation() > tol:
                yield Failure("oracle-kkt", prog.name,
                              f"residual {res.max_violation():.3e} > {tol:g}")
                break


def _check_descent(ctx):
    """Subproblem values are nonincreasing along the inner iterations."""
    opts = InnerOptions(track_values=True)
    sample = ctx.problems[:4] + [p for p in ctx.problems if not p.is_smooth][:2]
    for prog in sample:
        p0 = DualPoint.zeros(prog.m1, prog.m2)
        res = solve_subproblem(prog, p0, 10.0, VERIFY_SIGMA, np.zeros(prog.n), np.zeros(prog.n), opts)
        vals = res.values or []
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-12 * (1.0 + abs(a)):
                yield Failure("descent", prog.name, f"value rose from {a:.6e} to {b:.6e}")
                break


def _closed_form_dual_step(prog, lam, c):
    """One proximal step on the dual of an equality-constrained QP."""
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    Qinv_AT = np.linalg.solve(Q, A.T)
    M = A @ Qinv_AT
    v = -(A @ np.linalg.solve(Q, q) + b)
    m = M.shape[0]
    return np.linalg.solve(c * M + np.eye(m), c * v + lam)


def _check_ppa_equivalence(ctx, tol=1e-9, iters=8, c=10.0):
    """Exact-mode multiplier iterates on equality-constrained QPs match the
    closed-form proximal recursion on the dual function."""
    for seed in range(5):
        prog = generate(GeneratorSpec("sc_qp", m2=0, seed=seed))
        hist = run(prog, PenaltySchedule.fixed(c), sigma=0.0, tol=1e-300,
                   max_outer=iters, inner=InnerOptions(exact=True))
        lam_ref = np.zeros(prog.m1)
        for rec in hist.records:
            lam_ref = _closed_form_dual_step(prog, lam_ref, c)
            gap = float(np.linalg.norm(rec.p.lam - lam_ref))
            if gap > tol:
                yield Failure("ppa-equivalence", prog.name,
                              f"k={rec.k}: dual gap {gap:.3e} > {tol:g}")
                break


CHECKS = {
    "gradient-consistency": _check_gradient_consistency,
    "convexity": _check_convexity,
    "criterion-identity": _check_criterion_identity,
    "yp2": _check_yp2,
    "subgradient-transfer": _check_subgradient_transfer,
    "certificate-validity": _check_certificate_validity,
    "step2-exactness": _check_step2_exactness,
    "vanishing-residuals": _check_vanishing_residuals,
    "dual-convergence": _check_dual_convergence,
    "oracle-kkt": _check_oracle_kkt,
    "descent": _check_descent,
    "ppa-equivalence": _check_ppa_equivalence,
}


def run_verification(problems=None, only=None):
    """Run the selected invariant checks; returns the list of failures."""
    if only:
        unknown = [name for name in only if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)} (known: {', '.join(sorted(CHECKS))})")
        names = [name for name in CHECKS if name in only]
    else:
        names = list(CHECKS)
    ctx = VerifyContext(problems)
    failures = []
    for name in names:
        failures.extend(CHECKS[name](ctx))
    return failures
