"""Subproblem solver: one acceptance loop over the candidates of a step
generator, stopping at the first (x, y) that passes the relative error
criterion, with y in the x-subdifferential of L_c(., p_prev) at x.

- ``_prox_steps`` (the default) takes proximal gradient steps. After
  x+ = prox_{t r}(x - t grad_phi(x)) the certificate

      y = grad_phi(x+) + (x - t grad_phi(x) - x+) / t

  is such a subgradient, because its second term is a subgradient of the
  nonsmooth part r at x+; for smooth problems that term vanishes.
- ``_newton_steps`` (exact mode, affine QPs) takes semismooth Newton steps
  on the penalized active set, with y the gradient; only y = 0 passes.

Every value and gradient of L_c comes from ``auglag.lc_evaluator``, bound
once per subproblem to (prog, p_prev, c). The line search runs its value
stage on every trial and its gradient stage only on a trial with a finite
value that is certified or passes the Armijo test, so a rejected trial
costs one value stage. A candidate is tested on the two sides of the
criterion alone (``auglag.criterion_sides``); the multiplier update and
the full ``CriterionReport`` are built only for the one that passes and
returned with the evaluation of L_c there (``SubproblemResult.lc``), so
the driver evaluates neither again.

Inner products are written a.dot(b), not a @ b, for the reason ``auglag``
gives: the same BLAS kernel and bits at about half the call cost. The line
search computes each of them once (see ``_line_search``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auglag import (
    AugLagEval,
    CriterionReport,
    criterion_eval,
    criterion_sides,
    lc_evaluator,
    multiplier_update,
)
from .errors import MaxInnerIterationsError, NonFiniteError
from .problem import ConvexProgram, DualPoint, QuadraticObjective, as_vector

# backtracks per line search before the step is declared a failure
_MAX_BACKTRACKS = 60
# Armijo line search: step shrink factor and sufficient-decrease constant
_ARMIJO_FACTOR = 0.5
_ARMIJO_DECREASE = 1e-4
# gradient norm at which an exact-mode solve stops
_EXACT_TOL = 1e-12
# candidates whose certificate is at the floating-point floor of the
# gradient evaluation are treated as exact solves (y declared zero);
# without this, warm starts at the solution and late iterations with
# large penalties could never pass the criterion in double precision
_SNAP_TOL = 1e-13


@dataclass
class InnerOptions:
    """Subproblem solver settings, exposed through the CLI."""

    max_inner: int = 10000
    exact: bool = False

    def __post_init__(self):
        # the message leads with the field name, which the CLI maps to its flag
        if not self.max_inner >= 0:
            raise ValueError(f"max_inner must be >= 0, got {self.max_inner!r}")

    def check(self, prog: ConvexProgram):
        """Raise ValueError, led by the field name, when exact mode cannot
        solve prog's subproblems."""
        if self.exact and not prog.is_affine_qp():
            raise ValueError("exact mode requires a quadratic objective with affine constraints "
                             "and no nonsmooth term")


@dataclass
class SubproblemResult:
    x: np.ndarray
    y: np.ndarray
    inner_iters: int
    criterion: CriterionReport
    backtracks: int
    # the evaluation of L_c(x, p_prev) at the accepted x
    lc: AugLagEval
    # L_c at each inner iterate, the start point first; empty in exact mode
    values: list
    # multiplier_update(p_prev, c, lc.h, lc.g) at the accepted x
    p_new: DualPoint
    delta_p: np.ndarray


_EPS = float(np.finfo(float).eps)


def _certificate_floor(prog, x, p, c, g, grad):
    """Smallest certificate norm distinguishable from roundoff.

    The gradient of L_c sums terms whose magnitudes this estimates; anything
    below ~30 ulps of that sum is evaluation noise, so a certificate there
    is declared an exact solve. Capped at 1e-10 to keep declared-zero
    certificates meaningful for downstream identity checks. ``g`` and
    ``grad`` are g(x) and the objective's gradient at x, from the caller's
    evaluation of the start point; the norms of the constant constraint
    data come from ``prog.constraint_norms``, and only the gradients of
    quadratic rows are evaluated here.
    """
    nA, nb, row_norms = prog.constraint_norms
    scale = float(np.linalg.norm(grad))
    nx = float(np.linalg.norm(x)) + 1.0
    if prog.m1:
        scale += nA * (float(np.linalg.norm(p.lam)) + c * (nA * nx + nb))
    if prog.m2:
        for ng, con, mu_i, g_i in zip(row_norms, prog.ineqs, p.mu.tolist(), g.tolist()):
            if ng is None:
                ng = float(np.linalg.norm(con.grad(x)))
            scale += ng * (mu_i + c * (abs(g_i) + ng * nx))
    return max(_SNAP_TOL, min(30.0 * _EPS * scale, 1e-10))


def smooth_curvature_bound(prog: ConvexProgram, c: float):
    """Upper bound on the Lipschitz constant of the smooth gradient of L_c.

    Available for quadratic objectives with affine constraint maps; returns
    None otherwise (quadratic inequalities make the bound state-dependent).
    """
    if not (isinstance(prog.smooth, QuadraticObjective) and prog.ineqs_affine):
        return None
    # c * 0.0 for an empty block can only turn a bound of -0.0 into 0.0
    nA, nG = prog.norms_sq
    bound = float(prog.q_spectrum[-1]) + c * nA + c * nG
    return bound if bound > 0 else None


@np.errstate(over="ignore")
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

    The candidates come from ``_prox_steps``, or from ``_newton_steps`` in
    exact mode; one block below decides acceptance for both. Neither mode
    records more than ``opts.max_inner`` inner iterations. Raises
    :class:`MaxInnerIterationsError` when the generator gives up and
    :class:`NonFiniteError` if the iteration overflows. Both modes test the
    values they decide on for finiteness, so NumPy's overflow warning is
    off here: an overflow ends the same way whether or not warnings are
    raised as errors (``-W error::RuntimeWarning``), while the other
    warnings, an invalid value say, still reach the caller.
    """
    opts = opts or InnerOptions()
    opts.check(prog)
    if not c > 0:
        raise ValueError("penalty parameter c must be positive")
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    if (p_prev.mu < 0).any():
        raise ValueError("mu_prev must be nonnegative")
    w_prev = as_vector(w_prev, prog.n, "w_prev")
    x = as_vector(x_init, prog.n, "x_init").copy()
    lc_at = lc_evaluator(prog, p_prev, c)
    values = []
    if opts.exact:
        steps = _newton_steps(prog, p_prev, c, lc_at, x, opts.max_inner)
        snap_at = _EXACT_TOL
        # any strictly smaller gradient is the new best, only the generator
        # reports a stall, and only y = 0 passes the criterion
        improve, patience, sigma_test = 1.0, math.inf, 0.0
    else:
        grad = prog.smooth.grad(x)
        cur = lc_at.grad_stage(x, lc_at.value_stage(x), grad)
        if not np.isfinite(cur.smooth_grad).all():
            raise NonFiniteError("non-finite gradient at the initial point; no trial step taken, 0 backtracks")
        values.append(cur.value)
        steps = _prox_steps(prog, c, sigma, lc_at, x, cur, opts.max_inner, values)
        snap_at = _certificate_floor(prog, x, p_prev, c, cur.g, grad)
        # a new best must cut the certificate norm to 0.75 of the old one,
        # and 400 candidates without one are a stall
        improve, patience, sigma_test = 0.75, 400, sigma

    best, best_norm, last_improve = None, math.inf, 0
    cand = next(steps)
    while True:
        # each generator yields (x, y, |y|, L_c at x, inner iterations,
        # backtracks so far, stalled) and is sent back the best |y|
        x, y, y_norm, lc, iters, backtracks, stalled = cand
        if y_norm <= snap_at:
            y = np.zeros(prog.n)
        if y_norm < improve * best_norm:
            best, best_norm, last_improve = (x, lc), y_norm, iters
        if (stalled or iters - last_improve >= patience) and best_norm <= 1e-10:
            # the certificate norm has stopped improving at the solver's own
            # floating-point floor: declare the best candidate an exact solve
            (x, lc), y = best, np.zeros(prog.n)
        lhs, rhs_raw = criterion_sides(c, sigma_test, w_prev, x, y, lc.h, lc.g, p_prev.mu)
        if lhs <= rhs_raw:
            return _accepted(p_prev, c, sigma, w_prev, x, y, lc, iters, backtracks, values)
        cand = steps.send(best_norm)


def _prox_steps(prog, c, sigma, lc_at, x, cur, max_inner, values):
    """Proximal gradient candidates from x (evaluated as cur): a spectral
    trial step, then the Armijo line search. Appends L_c at each iterate it
    moves to onto values."""
    curv = smooth_curvature_bound(prog, c)
    if curv == math.inf:
        raise NonFiniteError(f"the curvature bound of L_c overflows at c = {c:.3g}; no trial step taken")
    # steps no longer than 1/curv are certified descent steps for the
    # composite objective and are accepted without a function-value test,
    # which keeps progress possible after the value hits its roundoff floor
    t_safe = 1.0 / curv if curv else None
    t0 = t_safe if t_safe is not None else 1.0
    t = t0
    backtracks = frozen = 0
    prev_dx = prev_dx_sq = prev_dgrad = None
    for i in range(max_inner + 1):
        t_try = _trial_step(prev_dx, prev_dx_sq, prev_dgrad, t, t0)
        x_next, y, nxt, t, bt, dx, dx_sq, y_sq = _line_search(lc_at, prog.nonsmooth, x, cur, t_try, t_safe)
        backtracks += bt
        best_norm = yield x_next, y, math.sqrt(y_sq), nxt, i, backtracks, False
        # ||dx||^2 underflows to 0 for a dx of tiny but nonzero entries
        frozen = 0 if dx_sq > 0 or dx.any() else frozen + 1
        if frozen >= 400:
            raise MaxInnerIterationsError(
                f"inner iterates frozen at the floating-point floor with "
                f"certificate norm {best_norm:.3e} (c={c:g}, sigma={sigma:g})"
                + _last_step(t, backtracks)
            )
        prev_dx, prev_dx_sq = dx, dx_sq
        prev_dgrad = nxt.smooth_grad - cur.smooth_grad
        x, cur = x_next, nxt
        values.append(cur.value)
    raise MaxInnerIterationsError(
        f"criterion not met within {max_inner} inner iterations "
        f"(c={c:g}, sigma={sigma:g}); the subproblem may be ill-posed"
        + _last_step(t, backtracks)
    )


def _newton_steps(prog, p, c, lc_at, x, max_steps):
    """Semismooth Newton candidates for an affine QP (``InnerOptions.check``),
    y the gradient of L_c.

    L_c's stationarity system is piecewise linear in the set of penalized
    inequalities, so Newton steps on that set end in finitely many steps;
    at most ``max_steps`` are taken (the caller's ``max_inner``). A repeated
    active set and the last step are reported as stalls; after a rejected
    repeat, up to three polish rounds of 200 gradient steps move x.
    """
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    G, d = prog.ineq_matrix(), prog.ineq_rhs()
    base = Q + c * A.T @ A
    rhs0 = -q - A.T @ (p.lam - c * b)
    best_norm = math.inf
    seen = set()
    polish_rounds = 0
    for iters in range(1, max_steps + 1):
        active = (p.mu + c * (G @ x - d)) > 0
        Ga = G[active]
        H = base + c * Ga.T @ Ga if len(Ga) else base
        rhs = rhs0 - Ga.T @ (p.mu[active] - c * d[active]) if len(Ga) else rhs0
        try:
            x = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            if not np.isfinite(H).all():  # lstsq's SVD would fail on it too
                raise NonFiniteError(f"the Newton matrix overflowed at c = {c:.3g}, step {iters}") from None
            x = np.linalg.lstsq(H, rhs, rcond=None)[0]
        ev = lc_at(x)
        gnorm = float(np.linalg.norm(ev.smooth_grad))
        key = active.tobytes()
        repeated = key in seen
        best_norm = yield x, ev.smooth_grad, gnorm, ev, iters, 0, repeated or iters == max_steps
        if repeated:
            # the active set cycles above the floating-point floor: move x
            # by a few gradient steps and retry
            if polish_rounds >= 3:
                raise MaxInnerIterationsError(
                    f"exact subproblem solve stalled with gradient norm {best_norm:.3e}"
                )
            polish_rounds += 1
            seen.clear()
            curv = smooth_curvature_bound(prog, c)
            t = 1.0 / curv if curv else 1.0
            for _ in range(200):
                x = x - t * lc_at(x).smooth_grad
        seen.add(key)
    raise MaxInnerIterationsError(
        f"exact subproblem solve did not converge (gradient norm {best_norm:.3e})"
    )


def _last_step(t, backtracks):
    # tail of a failure message: where the line search stood
    return f"; last trial step {t:.3e}, {backtracks} backtracks"


def _accepted(p_prev, c, sigma, w_prev, x, y, lc, inner_iters, backtracks, values):
    """The result for an accepted candidate: the multiplier update and the
    full criterion report are built here, once per subproblem."""
    p_new, delta_p = multiplier_update(p_prev, c, lc.h, lc.g)
    report = criterion_eval(c, sigma, w_prev, x, y, lc.h, lc.g, p_prev.mu, delta_p)
    return SubproblemResult(
        x=x, y=y, inner_iters=inner_iters, criterion=report, backtracks=backtracks,
        lc=lc, values=values, p_new=p_new, delta_p=delta_p,
    )


def _trial_step(prev_dx, prev_dx_sq, prev_dgrad, t_last, t0):
    # spectral (Barzilai-Borwein) trial step, safeguarded; the line search
    # enforces sufficient decrease regardless of the trial value
    if prev_dx is None:
        return t_last
    denom = float(prev_dx.dot(prev_dgrad))
    if denom <= 0:
        return t0
    t_bb = prev_dx_sq / denom
    return min(max(t_bb, 1e-14), 1e12)


def _line_search(lc_at, nonsmooth, x, cur, t_try, t_safe):
    """Armijo backtracking on the composite value along the prox-gradient arc.

    ``lc_at`` is the bound evaluator of L_c (``auglag.lc_evaluator``),
    ``nonsmooth`` the program's nonsmooth term or None, and ``cur`` the
    evaluation at x. Returns (x_next, y, evaluation at x_next, step,
    backtracks, dx, ||dx||^2, ||y||^2), with dx = x_next - x: the caller
    reads the three inner products from here instead of computing them
    again. Steps at or below t_safe (the inverse curvature bound, when one
    exists) satisfy the sufficient-decrease condition by construction and
    skip the value comparison, so roundoff in the value cannot block them.
    Every trial runs the value stage of L_c; only one with a finite value
    that is certified or passes the test runs the gradient stage, and it
    is accepted when that gradient is finite. A finite ||y||^2 implies a
    finite y and so a finite gradient; only a non-finite one (an overflow,
    or a non-finite gradient) is settled by testing the gradient itself.
    """
    value_at, grad_at = lc_at.value_stage, lc_at.grad_stage
    slack = 5e-16 * (1.0 + abs(cur.value))
    for bt in range(_MAX_BACKTRACKS):
        v = x - t_try * cur.smooth_grad
        x_next = nonsmooth.prox(v, t_try) if nonsmooth is not None else v
        nxt = value_at(x_next)
        if math.isfinite(nxt.value):
            dx = x_next - x
            dx_sq = float(dx.dot(dx))
            if (t_safe is not None and t_try <= t_safe) or (
                nxt.value <= cur.value - (_ARMIJO_DECREASE / t_try) * dx_sq + slack
            ):
                grad_at(x_next, nxt)
                y = nxt.smooth_grad + (v - x_next) / t_try
                y_sq = float(y.dot(y))
                if math.isfinite(y_sq) or np.isfinite(nxt.smooth_grad).all():
                    return x_next, y, nxt, t_try, bt, dx, dx_sq, y_sq
        t_try *= _ARMIJO_FACTOR
    raise NonFiniteError(
        "line search failed to find a finite decreasing step; "
        "the subproblem value may be unbounded below"
        # t_try has been shrunk once more after the last step tried
        + _last_step(t_try / _ARMIJO_FACTOR, _MAX_BACKTRACKS)
    )
