"""Named invariant suites run over the standard problem corpus.

Seven checks are functions of (program, trace) that return the message for
the first failing record, or None; ``_over_corpus`` runs each on every
corpus run. Criterion identity also recomputes delta_p and both sides of
the criterion from the recorded iterates. The other five checks inspect
generated problems, oracle solutions or fresh solves and yield failures
themselves. The two sampled checks, gradient consistency and convexity,
draw their points per problem from a fixed seed and call each function's
production ``value`` on the stacked points: once per problem, except that
gradient consistency splits the points of a problem with n > 10 into
blocks of max(1, _VALUE_ROWS // n), so its memory stays O(_VALUE_ROWS n).
``run_verification`` executes a selection and returns everything that
failed. The CLI wraps this with a machine-readable report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auglag import auglag_eval, criterion_eval, multiplier_update
from .driver import CONVERGED, PenaltySchedule, run
from .inner import InnerOptions, solve_subproblem
from .oracle import project_dual, solve_qp_exact
from .problem import DualPoint, kkt_residual, lagrangian_grad
from .problems import GeneratorSpec, generate, standard_corpus
from .rng import Lcg

VERIFY_SIGMA = 0.5
VERIFY_TOL = 1e-8
_SCHEDULE = PenaltySchedule.geometric(10.0, 1.5, 1e6)
# rows per value call of the gradient check: every corpus problem (n <= 6)
# sends all 100 points' 2n perturbations in one call, and a large n holds
# O(_VALUE_ROWS * n) doubles at a time instead of O(100 n^2)
_VALUE_ROWS = 1024


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
    central finite differences at ``points`` draws per problem. The points
    go in blocks of max(1, _VALUE_ROWS // n); each function's value is
    called once per block on the stacked plus rows x + step e_j and once on
    the minus rows, its grad once per point."""
    rng = Lcg(2024)
    for prog in ctx.problems:
        n = prog.n
        X = np.array([rng.normal(n) for _ in range(points)])
        E = step * np.eye(n)
        block = max(1, _VALUE_ROWS // n)
        worst = 0.0
        for Xb in (X[i:i + block] for i in range(0, points, block)):
            plus = (Xb[:, None, :] + E).reshape(-1, n)
            minus = (Xb[:, None, :] - E).reshape(-1, n)
            for fn in (prog.smooth, *prog.ineqs):
                ga = np.array([fn.grad(x) for x in Xb], dtype=float)
                gf = ((fn.value(plus) - fn.value(minus)) / (2 * step)).reshape(len(Xb), n)
                err = np.linalg.norm(gf - ga, axis=1) / np.maximum(1.0, np.linalg.norm(ga, axis=1))
                # np.maximum keeps a NaN, which must fail the test below
                worst = float(np.maximum(worst, err.max()))
        if not worst <= rel_tol:
            yield Failure("gradient-consistency", prog.name,
                          f"relative finite-difference error {worst:.3e} > {rel_tol:g}")


def _check_convexity(ctx, triples=100, slack=1e-10):
    """Interpolation inequality for the smooth objective and every g_i at
    ``triples`` draws (x1, x2, alpha) per problem; each function's value is
    called once on the x1 rows, once on the x2 rows and once on the
    midpoints. One failure per failing triple, with the gap of its first
    failing function."""
    rng = Lcg(4096)
    for prog in ctx.problems:
        draws = [(rng.normal(prog.n), rng.normal(prog.n), rng.uniform()) for _ in range(triples)]
        X1, X2, alpha = (np.array(col) for col in zip(*draws))
        mid = alpha[:, None] * X1 + (1 - alpha)[:, None] * X2
        gaps = np.array([f.value(mid) - alpha * f.value(X1) - (1 - alpha) * f.value(X2)
                         for f in (prog.smooth, *prog.ineqs)])
        failing = ~(gaps <= slack)
        for t in np.flatnonzero(failing.any(axis=0)):
            gap = gaps[failing[:, t].argmax(), t]
            yield Failure("convexity", prog.name, f"convexity gap {gap:.3e} > {slack:g}")


def _walk(hist):
    """(p_prev, w_prev, record) for every record, starting from the
    initial point the config echoes."""
    p_prev = DualPoint(np.array(hist.config["p0_lam"]), np.array(hist.config["p0_mu"]))
    w_prev = np.array(hist.config["w0"])
    for rec in hist.records:
        yield p_prev, w_prev, rec
        p_prev, w_prev = rec.p, rec.w


def _far(a, b, rel_tol):
    """Some entry of a - b exceeds rel_tol times the larger of |a|, |b|."""
    return bool((np.abs(a - b) > rel_tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)).any())


def _criterion_identity(prog, hist, rel_tol=1e-10):
    """c^2 (||h||^2 + ||min(mu_prev/c, -g)||^2) equals ||p_prev - p_new||^2,
    and delta_p and the criterion recompute from the recorded x, y, c and
    the previous state."""
    sigma = hist.config["sigma"]
    for p_prev, w_prev, rec in _walk(hist):
        crit = rec.criterion
        if _far(crit.rhs_raw, crit.rhs_rewritten, rel_tol):
            return f"k={rec.k}: raw {crit.rhs_raw:.17g} vs rewritten {crit.rhs_rewritten:.17g}"
        ev = auglag_eval(prog, rec.x, p_prev, rec.c)
        _, delta_p = multiplier_update(p_prev, rec.c, ev.h, ev.g)
        ref = criterion_eval(rec.c, sigma, w_prev, rec.x, rec.y, ev.h, ev.g, p_prev.mu, delta_p)
        recomputed = {"delta_p": delta_p, **ref.as_dict()}
        for field, value in {"delta_p": rec.delta_p, **crit.as_dict()}.items():
            if _far(value, recomputed[field], rel_tol):
                return f"k={rec.k}: recorded {field} differs from its recomputation"


def _yp2(prog, hist, slack=1e-12):
    """||y|| <= sqrt(sigma)/c * ||p_prev - p_new|| at every accepted iterate."""
    sigma = hist.config["sigma"]
    for rec in hist.records:
        lhs = float(np.linalg.norm(rec.y))
        rhs = math.sqrt(sigma) / rec.c * float(np.linalg.norm(rec.delta_p))
        if lhs > rhs + slack:
            return f"k={rec.k}: ||y||={lhs:.3e} > {rhs:.3e}"


def _subgradient_transfer(prog, hist, tol=1e-9):
    """For smooth problems, y equals the Lagrangian gradient at the updated
    multipliers (the identity putting (y, u) in the joint subdifferential)."""
    if not prog.is_smooth:
        return None
    for rec in hist.records:
        gap = float(np.linalg.norm(rec.y - lagrangian_grad(prog, rec.x, rec.p)))
        if gap > tol:
            return f"k={rec.k}: gap {gap:.3e}"


def _certificate_validity(prog, hist, tol=1e-10):
    """y matches the smooth gradient of L_c at (x, p_prev) for smooth
    problems; for composite ones the prox residual lies in the
    subdifferential of the nonsmooth part."""
    for p_prev, _, rec in _walk(hist):
        ev = auglag_eval(prog, rec.x, p_prev, rec.c)
        if prog.is_smooth:
            gap = float(np.linalg.norm(rec.y - ev.smooth_grad))
            # a declared-exact certificate (y = 0) may sit at the
            # evaluation noise floor rather than at exact zero
            if gap > (tol if rec.y.any() else 1e-9):
                return f"k={rec.k}: smooth gap {gap:.3e}"
        elif not prog.nonsmooth.contains_subgradient(rec.x, rec.y - ev.smooth_grad, tol=1e-8):
            return f"k={rec.k}: prox residual outside the subdifferential"


def _step2_exactness(prog, hist, tol=1e-14):
    """Multiplier and auxiliary updates reproduce from the recorded state."""
    for p_prev, w_prev, rec in _walk(hist):
        h, g = prog.eval_h(rec.x), prog.eval_g(rec.x)
        scale = 1.0 + float(np.linalg.norm(rec.p.as_vector()))
        lam_gap = np.linalg.norm(rec.p.lam - (p_prev.lam + rec.c * h))
        mu_gap = np.linalg.norm(rec.p.mu - np.maximum(0.0, p_prev.mu + rec.c * g))
        w_gap = np.linalg.norm(rec.w - (w_prev - rec.c * rec.y))
        u_gap = np.linalg.norm(rec.u * rec.c + rec.p.as_vector() - p_prev.as_vector())
        if max(lam_gap, mu_gap, w_gap, u_gap) > tol * rec.c * scale:
            return f"k={rec.k}: update gaps ({lam_gap:.2e},{mu_gap:.2e},{w_gap:.2e},{u_gap:.2e})"


def _vanishing_residuals(prog, hist):
    """Converged runs end with ||u|| and ||y|| at or below the tolerance."""
    if hist.status != CONVERGED:
        return f"status {hist.status}"
    rec, tol = hist.final(), hist.config["tol"]
    ny, nu = float(np.linalg.norm(rec.y)), float(np.linalg.norm(rec.u))
    if max(ny, nu) > tol:
        return f"final ||y||={ny:.3e}, ||u||={nu:.3e} above tol {tol:g}"


def _dual_convergence(prog, hist, slack=1e-12):
    """||p_k - p_N|| decreases monotonically over the final quartile."""
    if hist.status != CONVERGED or len(hist.records) < 8:
        return None
    p_final = hist.final().p.as_vector()
    dists = [float(np.linalg.norm(r.p.as_vector() - p_final)) for r in hist.records]
    tail = dists[len(dists) - max(2, len(dists) // 4):-1]
    for a, b in zip(tail, tail[1:]):
        if b > a + slack * (1.0 + a):
            return f"tail distance rose from {a:.3e} to {b:.3e}"


def _over_corpus(name, check):
    """The CHECKS entry running a trace check on every corpus run."""
    def over_corpus(ctx):
        for prog, hist in zip(ctx.problems, ctx.runs):
            message = check(prog, hist)
            if message is not None:
                yield Failure(name, prog.name, message)
    return over_corpus


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
    sample = ctx.problems[:4] + [p for p in ctx.problems if not p.is_smooth][:2]
    for prog in sample:
        p0 = DualPoint.zeros(prog.m1, prog.m2)
        res = solve_subproblem(prog, p0, 10.0, VERIFY_SIGMA, np.zeros(prog.n), np.zeros(prog.n))
        vals = res.values
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-12 * (1.0 + abs(a)):
                yield Failure("descent", prog.name, f"value rose from {a:.6e} to {b:.6e}")
                break


def _closed_form_dual_step(prog, c):
    """The proximal step lam -> solve(c M + I, c v + lam) on the dual of an
    equality-constrained QP, with M and v computed once per program."""
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    M = A @ np.linalg.solve(Q, A.T)
    v = -(A @ np.linalg.solve(Q, q) + b)
    K = c * M + np.eye(M.shape[0])
    return lambda lam: np.linalg.solve(K, c * v + lam)


def _check_ppa_equivalence(ctx, tol=1e-9, iters=8, c=10.0):
    """Exact-mode multiplier iterates on equality-constrained QPs match the
    closed-form proximal recursion on the dual function."""
    for seed in range(5):
        prog = generate(GeneratorSpec("sc_qp", m2=0, seed=seed))
        hist = run(prog, PenaltySchedule.fixed(c), sigma=0.0, tol=1e-300,
                   max_outer=iters, inner=InnerOptions(exact=True))
        step = _closed_form_dual_step(prog, c)
        lam_ref = np.zeros(prog.m1)
        for rec in hist.records:
            lam_ref = step(lam_ref)
            gap = float(np.linalg.norm(rec.p.lam - lam_ref))
            if gap > tol:
                yield Failure("ppa-equivalence", prog.name,
                              f"k={rec.k}: dual gap {gap:.3e} > {tol:g}")
                break


CHECKS = {
    "gradient-consistency": _check_gradient_consistency,
    "convexity": _check_convexity,
    "criterion-identity": _over_corpus("criterion-identity", _criterion_identity),
    "yp2": _over_corpus("yp2", _yp2),
    "subgradient-transfer": _over_corpus("subgradient-transfer", _subgradient_transfer),
    "certificate-validity": _over_corpus("certificate-validity", _certificate_validity),
    "step2-exactness": _over_corpus("step2-exactness", _step2_exactness),
    "vanishing-residuals": _over_corpus("vanishing-residuals", _vanishing_residuals),
    "dual-convergence": _over_corpus("dual-convergence", _dual_convergence),
    "oracle-kkt": _check_oracle_kkt,
    "descent": _check_descent,
    "ppa-equivalence": _check_ppa_equivalence,
}


def run_verification(problems=None, only=None):
    """Run the selected invariant checks; returns the list of failures."""
    unknown = [name for name in only or () if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)} (known: {', '.join(sorted(CHECKS))})")
    ctx = VerifyContext(problems)
    return [failure for name in CHECKS if not only or name in only for failure in CHECKS[name](ctx)]
