"""Augmented Lagrangian evaluation, multiplier updates, and the relative
error criterion in both its raw and rewritten forms.

For penalty c > 0 the augmented Lagrangian is

    L_c(x, lam, mu) = f(x) + <lam, h(x)> + (c/2)||h(x)||^2
                      + (1/(2c)) * (||max(0, mu + c g(x))||^2 - ||mu||^2)

and the subproblem acceptance test for a candidate (x, y) with
y in the x-subdifferential of L_c is

    (2/c) |<w_prev - x, y>| + ||y||^2
        <= sigma * (||h(x)||^2 + ||min(mu_prev/c, -g(x))||^2).

The right-hand side times c^2 equals ||p_prev - p_new||^2 for the updated
multipliers, which is the rewritten form used by the rate analysis.

L_c and the criterion run once per inner trial, so their products are
written a.dot(b), not a @ b: both run the same BLAS kernel and give the same
bits (``tests/test_lc_reference.py::test_dot_gives_the_bits_of_matmul``),
and at n <= 50 ndarray.dot costs about half as much per call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ConvexProgram, DualPoint, as_vector


@dataclass
class AugLagEval:
    """One evaluation of L_c at x: value, gradient of the smooth part, the
    constraint values h(x) and g(x), and the shifted multiplier
    max(0, mu + c g(x)). The gradient is None after the value stage of
    ``lc_evaluator`` alone."""

    value: float
    smooth_grad: np.ndarray
    shifted_mu: np.ndarray
    h: np.ndarray
    g: np.ndarray


def auglag_eval(prog: ConvexProgram, x, p: DualPoint, c: float) -> AugLagEval:
    """Evaluate L_c(x, p), nonsmooth term included, and the gradient of its
    smooth part: ``lc_evaluator(prog, p, c)`` at one checked x."""
    if not c > 0:
        raise ValueError("penalty parameter c must be positive")
    return lc_evaluator(prog, p, c)(as_vector(x, prog.n))


def lc_evaluator(prog: ConvexProgram, p: DualPoint, c: float):
    """The map x -> AugLagEval of L_c(x, p) with (prog, p, c) bound, for a
    float vector x of length prog.n; c > 0 is the caller's to check.

    This is the one formula of L_c: ``auglag_eval``, the inner solver, the
    driver and the checks all read it. What does not depend on x (||mu||^2,
    A^T, which blocks exist, the nonsmooth term) is fixed once here, so a
    subproblem solve binds it once and evaluates it per trial point.

    The map runs in two stages, which it also carries as attributes:
    ``value_stage(x)`` gives h, g, the shifted multiplier and the value,
    with ``smooth_grad`` None, and ``grad_stage(x, ev, grad=None)`` fills in
    ``ev.smooth_grad`` from that evaluation's h and shifted multiplier and
    returns ev; ``grad`` is the objective's gradient at x when the caller
    has it. A line search runs the second stage only on the trial point it
    may accept.
    """
    smooth, nonsmooth = prog.smooth, prog.nonsmooth
    lam, mu = p.lam, p.mu
    mu_sq = float(mu @ mu)
    At = prog.eq_matrix().T if prog.m1 else None
    has_g = bool(prog.m2)

    def value_stage(x) -> AugLagEval:
        h = prog.eval_h(x)
        g = prog.eval_g(x)
        shifted = np.maximum(0.0, mu + c * g)
        value = (
            smooth.value(x)
            + float(lam.dot(h))
            + 0.5 * c * float(h.dot(h))
            + (float(shifted.dot(shifted)) - mu_sq) / (2.0 * c)
        )
        if nonsmooth is not None:
            value += nonsmooth.value(x)
        return AugLagEval(value=value, smooth_grad=None, shifted_mu=shifted, h=h, g=g)

    def grad_stage(x, ev: AugLagEval, grad=None) -> AugLagEval:
        if grad is None:
            grad = smooth.grad(x)
        if At is not None:
            grad = grad + At.dot(lam + c * ev.h)
        if has_g:
            grad = grad + prog.grad_g(x).dot(ev.shifted_mu)
        ev.smooth_grad = grad
        return ev

    def evaluate(x) -> AugLagEval:
        return grad_stage(x, value_stage(x))

    evaluate.value_stage = value_stage
    evaluate.grad_stage = grad_stage
    return evaluate


def multiplier_update(p_prev: DualPoint, c: float, h_val, g_val):
    """Step-2 multiplier update; returns the new point and p_prev - p_new.

    The difference is computed in its cancellation-free form
    (-c*h, c*min(mu_prev/c, -g)), which equals p_prev - p_new exactly in
    real arithmetic; subtracting the stored update would absorb the low
    bits of c*h into the multipliers and spoil the criterion identity at
    small residuals. Callers reuse this value verbatim.
    """
    if not c > 0:
        raise ValueError("penalty parameter c must be positive")
    h_val = np.asarray(h_val, dtype=float)
    g_val = np.asarray(g_val, dtype=float)
    lam_new = p_prev.lam + c * h_val
    mu_new = np.maximum(0.0, p_prev.mu + c * g_val)
    p_new = DualPoint(lam_new, mu_new)
    delta_p = np.concatenate([-c * h_val, c * np.minimum(p_prev.mu / c, -g_val)])
    return p_new, delta_p


def aux_update(w_prev, c: float, y):
    """Auxiliary vector update w_prev - c * y."""
    return np.asarray(w_prev, dtype=float) - c * np.asarray(y, dtype=float)


@dataclass
class CriterionReport:
    """Both sides of the acceptance test for one candidate iterate."""

    lhs: float
    rhs_raw: float
    rhs_rewritten: float
    satisfied: bool

    def as_dict(self):
        return dict(vars(self))


def criterion_eval(c, sigma, w_prev, x, y, h_val, g_val, mu_prev, delta_p) -> CriterionReport:
    """Evaluate the relative error criterion at a candidate (x, y).

    ``delta_p`` must be the difference p_prev - p_new produced by
    ``multiplier_update`` for the same (c, h_val, g_val); the rewritten
    right-hand side is sigma * ||delta_p||^2 / c^2 and agrees with the raw
    form up to roundoff. Equality 0 <= 0 counts as satisfied.
    """
    if not (c > 0 and c * c > 0):  # sigma / (c * c) below
        raise ValueError("penalty parameter c must be positive, with c * c > 0")
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    w_prev = np.asarray(w_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu_prev = np.asarray(mu_prev, dtype=float)
    g_val = np.asarray(g_val, dtype=float)
    h_val = np.asarray(h_val, dtype=float)
    delta_p = np.asarray(delta_p, dtype=float)

    lhs, rhs_raw = criterion_sides(c, sigma, w_prev, x, y, h_val, g_val, mu_prev)
    rhs_rewritten = (sigma / (c * c)) * float(delta_p @ delta_p)
    return CriterionReport(lhs=lhs, rhs_raw=rhs_raw, rhs_rewritten=rhs_rewritten, satisfied=lhs <= rhs_raw)


def criterion_sides(c, sigma, w_prev, x, y, h_val, g_val, mu_prev):
    """(lhs, rhs_raw) of the relative error criterion for float vectors,
    unchecked: the two numbers the acceptance test compares. The inner
    solver tests every candidate with this and builds the full report with
    ``criterion_eval`` only for the one it accepts."""
    lhs = (2.0 / c) * abs(float((w_prev - x).dot(y))) + float(y.dot(y))
    shifted_min = np.minimum(mu_prev / c, -g_val)
    rhs_raw = sigma * (float(h_val.dot(h_val)) + float(shifted_min.dot(shifted_min)))
    return lhs, rhs_raw
