"""Subproblem solver: proximal gradient descent on x -> L_c(x, p_prev) with
a per-iterate subgradient certificate, stopping at the first candidate that
passes the relative error criterion.

The certificate comes from prox optimality: after a step
x+ = prox_{t r}(x - t grad_phi(x)) the vector

    y = grad_phi(x+) + (x - t grad_phi(x) - x+) / t

lies in the x-subdifferential of L_c at x+, because the second term is a
subgradient of the nonsmooth part r at x+. For smooth problems the second
term vanishes identically and y is the exact gradient.

Every value and gradient of L_c comes from ``auglag.auglag_eval``. The
evaluation at the accepted x is returned as ``SubproblemResult.lc``, so the
multiplier update and the recorded L_c value need no second evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auglag import AugLagEval, CriterionReport, auglag_eval, criterion_eval, multiplier_update
from .errors import MaxInnerIterationsError, NonFiniteError
from .problem import AffineInequality, ConvexProgram, DualPoint, QuadraticObjective, as_vector


@dataclass
class InnerOptions:
    """Tunables for the subproblem solver, exposed through the CLI."""

    max_inner: int = 10000
    armijo_factor: float = 0.5
    armijo_decrease: float = 1e-4
    max_backtracks: int = 60
    exact: bool = False
    exact_tol: float = 1e-12
    # candidates whose certificate is at the floating-point floor of the
    # gradient evaluation are treated as exact solves (y declared zero);
    # without this, warm starts at the solution and late iterations with
    # large penalties could never pass the criterion in double precision
    snap_tol: float = 1e-13
    track_values: bool = False

    def __post_init__(self):
        # each message leads with the field name, which the CLI maps to its flag
        for name, ok, rule in (
            ("max_inner", self.max_inner >= 0, ">= 0"),
            ("armijo_factor", 0.0 < self.armijo_factor < 1.0, "in (0, 1)"),
            ("armijo_decrease", 0.0 < self.armijo_decrease < 1.0, "in (0, 1)"),
            ("max_backtracks", self.max_backtracks >= 1, ">= 1"),
            ("exact_tol", 0.0 <= self.exact_tol < math.inf, "finite and >= 0"),
            ("snap_tol", 0.0 <= self.snap_tol < math.inf, "finite and >= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class SubproblemResult:
    x: np.ndarray
    y: np.ndarray
    inner_iters: int
    criterion: CriterionReport
    backtracks: int
    # the evaluation of L_c(x, p_prev) at the accepted x
    lc: AugLagEval = None
    values: list = None


_EPS = float(np.finfo(float).eps)


def _certificate_floor(prog, x, p, c, user_tol):
    """Smallest certificate norm distinguishable from roundoff.

    The gradient of L_c sums terms whose magnitudes this estimates; anything
    below ~30 ulps of that sum is evaluation noise, so a certificate there
    is declared an exact solve. Capped at 1e-10 to keep declared-zero
    certificates meaningful for downstream identity checks.
    """
    scale = float(np.linalg.norm(prog.smooth.grad(x)))
    nx = float(np.linalg.norm(x)) + 1.0
    if prog.m1:
        nA = float(np.linalg.norm(prog.eq_matrix()))
        scale += nA * (float(np.linalg.norm(p.lam)) + c * (nA * nx + float(np.linalg.norm(prog.eq_rhs()))))
    for i, con in enumerate(prog.ineqs):
        ng = float(np.linalg.norm(con.grad(x)))
        scale += ng * (float(p.mu[i]) + c * (abs(con.value(x)) + ng * nx))
    return max(user_tol, min(30.0 * _EPS * scale, 1e-10))


def smooth_curvature_bound(prog: ConvexProgram, c: float):
    """Upper bound on the Lipschitz constant of the smooth gradient of L_c.

    Available for quadratic objectives with affine constraint maps; returns
    None otherwise (quadratic inequalities make the bound state-dependent).
    """
    if not (isinstance(prog.smooth, QuadraticObjective)
            and all(isinstance(g, AffineInequality) for g in prog.ineqs)):
        return None
    bound = float(np.linalg.eigvalsh(0.5 * (prog.smooth.Q + prog.smooth.Q.T))[-1])
    if prog.m1:
        bound += c * float(np.linalg.norm(prog.eq_matrix(), 2)) ** 2
    if prog.m2:
        bound += c * float(np.linalg.norm(prog.ineq_matrix(), 2)) ** 2
    return bound if bound > 0 else None


def prox_grad_step(prog: ConvexProgram, p_prev: DualPoint, c: float, x, t: float):
    """One composite gradient step of length t with its certificate.

    Returns (x_next, y_cert) where y_cert is an element of the
    x-subdifferential of L_c at x_next.
    """
    if t <= 0:
        raise ValueError("step size t must be positive")
    x = as_vector(x, prog.n)
    v = x - t * auglag_eval(prog, x, p_prev, c).smooth_grad
    x_next = prog.nonsmooth.prox(v, t) if prog.nonsmooth is not None else v
    y_cert = auglag_eval(prog, x_next, p_prev, c).smooth_grad + (v - x_next) / t
    return x_next, y_cert


def solve_subproblem(
    prog: ConvexProgram,
    p_prev: DualPoint,
    c: float,
    sigma: float,
    w_prev,
    x_init,
    opts: InnerOptions | None = None,
) -> SubproblemResult:
    """Find (x, y) with y in the x-subdifferential of L_c(x, p_prev)
    satisfying the relative error criterion.

    Candidates are produced by proximal gradient steps with Armijo
    backtracking; the criterion is checked at every candidate since all the
    quantities it needs are available there. Raises
    :class:`MaxInnerIterationsError` when the cap is exhausted and
    :class:`NonFiniteError` if the iteration overflows.
    """
    opts = opts or InnerOptions()
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    if (p_prev.mu < 0).any():
        raise ValueError("mu_prev must be nonnegative")
    w_prev = as_vector(w_prev, prog.n, "w_prev")
    x = as_vector(x_init, prog.n, "x_init").copy()

    if opts.exact:
        return _solve_exact(prog, p_prev, c, sigma, w_prev, x, opts)

    curv = smooth_curvature_bound(prog, c)
    # steps no longer than 1/curv are certified descent steps for the
    # composite objective and are accepted without a function-value test,
    # which keeps progress possible after the value hits its roundoff floor
    t_safe = 1.0 / curv if curv else None
    t0 = t_safe if t_safe is not None else 1.0
    t = t0
    snap_at = _certificate_floor(prog, x, p_prev, c, opts.snap_tol)
    cur = auglag_eval(prog, x, p_prev, c)
    if not np.isfinite(cur.smooth_grad).all():
        raise NonFiniteError("non-finite gradient at the initial point")
    backtracks = 0
    values = [cur.value] if opts.track_values else None
    prev_dx = prev_dgrad = None
    # best candidate so far, kept for the stall escape below
    best_norm, best_state, last_improve = math.inf, None, 0
    frozen = 0

    for i in range(opts.max_inner + 1):
        t_try = _trial_step(prev_dx, prev_dgrad, t, t0)
        x_next, y, nxt, t, bt = _line_search(prog, p_prev, c, x, cur, t_try, t_safe, opts)
        backtracks += bt
        y_norm = float(np.linalg.norm(y))
        if y_norm <= snap_at:
            y = np.zeros(prog.n)
        lc = nxt
        if y_norm < 0.75 * best_norm:
            best_norm, best_state, last_improve = y_norm, (x_next, nxt), i
        elif i - last_improve >= 400 and best_norm <= 1e-10:
            # the certificate norm has stopped improving at the solver's own
            # floating-point floor: declare the best candidate an exact solve
            x_next, lc = best_state
            y = np.zeros(prog.n)
        _, delta_p = multiplier_update(p_prev, c, lc.h, lc.g)
        report = criterion_eval(c, sigma, w_prev, x_next, y, lc.h, lc.g, p_prev.mu, delta_p)
        if report.satisfied:
            return SubproblemResult(
                x=x_next, y=y, inner_iters=i, criterion=report,
                backtracks=backtracks, lc=lc, values=values,
            )
        frozen = frozen + 1 if not (x_next - x).any() else 0
        if frozen >= 400:
            raise MaxInnerIterationsError(
                f"inner iterates frozen at the floating-point floor with "
                f"certificate norm {best_norm:.3e} (c={c:g}, sigma={sigma:g})"
            )
        prev_dx = x_next - x
        prev_dgrad = nxt.smooth_grad - cur.smooth_grad
        x, cur = x_next, nxt
        if values is not None:
            values.append(cur.value)
    raise MaxInnerIterationsError(
        f"criterion not met within {opts.max_inner} inner iterations "
        f"(c={c:g}, sigma={sigma:g}); the subproblem may be ill-posed"
    )


def _trial_step(prev_dx, prev_dgrad, t_last, t0):
    # spectral (Barzilai-Borwein) trial step, safeguarded; the line search
    # enforces sufficient decrease regardless of the trial value
    if prev_dx is None:
        return t_last
    denom = float(prev_dx @ prev_dgrad)
    if denom <= 0:
        return t0
    t_bb = float(prev_dx @ prev_dx) / denom
    return min(max(t_bb, 1e-14), 1e12)


def _line_search(prog, p, c, x, cur, t_try, t_safe, opts):
    """Armijo backtracking on the composite value along the prox-gradient arc.

    ``cur`` is the evaluation of L_c at x. Returns (x_next, y, evaluation at
    x_next, step, backtracks). Steps at or below t_safe (the inverse
    curvature bound, when one exists) satisfy the sufficient-decrease
    condition by construction and skip the value comparison, so roundoff in
    the value cannot block them.
    """
    slack = 5e-16 * (1.0 + abs(cur.value))
    for bt in range(opts.max_backtracks):
        v = x - t_try * cur.smooth_grad
        x_next = prog.nonsmooth.prox(v, t_try) if prog.nonsmooth is not None else v
        nxt = auglag_eval(prog, x_next, p, c)
        if not (np.isfinite(nxt.value) and np.isfinite(nxt.smooth_grad).all()):
            t_try *= opts.armijo_factor
            continue
        dx = x_next - x
        certified = t_safe is not None and t_try <= t_safe
        if certified or nxt.value <= cur.value - (opts.armijo_decrease / t_try) * float(dx @ dx) + slack:
            y = nxt.smooth_grad + (v - x_next) / t_try
            return x_next, y, nxt, t_try, bt
        t_try *= opts.armijo_factor
    raise NonFiniteError(
        "line search failed to find a finite decreasing step; "
        "the subproblem value may be unbounded below"
    )


def _solve_exact(prog, p, c, sigma, w_prev, x_init, opts):
    """Solve the subproblem to machine precision and certify y = 0.

    Requires a quadratic objective with affine constraints. The stationarity
    system of L_c in x is piecewise linear in the set of penalized
    inequalities, so a semismooth iteration on that active set converges in
    finitely many steps; each step solves one positive definite system.
    """
    if not prog.is_affine_qp():
        raise ValueError(
            "exact inner mode requires a quadratic objective with affine "
            "constraints and no nonsmooth term"
        )
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    G, d = prog.ineq_matrix(), prog.ineq_rhs()

    base = Q + c * A.T @ A
    rhs0 = -q - A.T @ (p.lam - c * b)
    x = x_init
    # (x, evaluation) of the smallest gradient seen, the fallback to accept
    best_norm, best = np.inf, None
    seen = set()
    polish_rounds = 0
    for iters in range(1, 201):
        active = (p.mu + c * (G @ x - d)) > 0 if prog.m2 else np.zeros(0, dtype=bool)
        H = base + c * G[active].T @ G[active] if active.any() else base
        rhs = rhs0 - (G[active].T @ (p.mu[active] - c * d[active]) if active.any() else 0.0)
        try:
            x_new = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            x_new = np.linalg.lstsq(H, rhs, rcond=None)[0]
        ev = auglag_eval(prog, x_new, p, c)
        gnorm = float(np.linalg.norm(ev.smooth_grad))
        if gnorm < best_norm:
            best_norm, best = gnorm, (x_new, ev)
        if gnorm <= opts.exact_tol:
            x, lc = x_new, ev
            break
        key = active.tobytes()
        if key in seen:
            # active set cycling at the floating-point floor: accept if the
            # best gradient is already negligible, otherwise polish with a
            # few prox-gradient steps and retry
            if best_norm <= 1e-10:
                x, lc = best
                break
            if polish_rounds >= 3:
                raise MaxInnerIterationsError(
                    f"exact subproblem solve stalled with gradient norm {best_norm:.3e}"
                )
            polish_rounds += 1
            seen.clear()
            curv = smooth_curvature_bound(prog, c)
            t = 1.0 / curv if curv else 1.0
            for _ in range(200):
                x_new, _ = prox_grad_step(prog, p, c, x_new, t)
        seen.add(key)
        x = x_new
    else:
        if best_norm > 1e-10:
            raise MaxInnerIterationsError(
                f"exact subproblem solve did not converge (gradient norm {best_norm:.3e})"
            )
        x, lc = best

    y = np.zeros(prog.n)
    _, delta_p = multiplier_update(p, c, lc.h, lc.g)
    report = criterion_eval(c, sigma, w_prev, x, y, lc.h, lc.g, p.mu, delta_p)
    return SubproblemResult(x=x, y=y, inner_iters=iters, criterion=report, backtracks=0, lc=lc)
