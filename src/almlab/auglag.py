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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ConvexProgram, DualPoint, as_vector


def project_cone(v):
    """Componentwise nonnegative part: the projection onto the cone mu >= 0."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


@dataclass
class AugLagEval:
    """One evaluation of L_c at x: value, gradient of the smooth part, the
    constraint values h(x) and g(x), and the shifted multiplier
    max(0, mu + c g(x))."""

    value: float
    smooth_grad: np.ndarray
    shifted_mu: np.ndarray
    h: np.ndarray
    g: np.ndarray


def auglag_eval(prog: ConvexProgram, x, p: DualPoint, c: float) -> AugLagEval:
    """Evaluate L_c(x, p), nonsmooth term included, and the gradient of its
    smooth part. This is the one evaluation of L_c: the inner solver, the
    driver and the checks all read it."""
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    x = as_vector(x, prog.n)
    h = prog.eval_h(x)
    g = prog.eval_g(x)
    shifted = np.maximum(0.0, p.mu + c * g)
    value = (
        prog.smooth.value(x)
        + float(p.lam @ h)
        + 0.5 * c * float(h @ h)
        + (float(shifted @ shifted) - float(p.mu @ p.mu)) / (2.0 * c)
    )
    if prog.nonsmooth is not None:
        value += prog.nonsmooth.value(x)
    grad = prog.smooth.grad(x)
    if prog.m1:
        grad = grad + prog.eq_matrix().T @ (p.lam + c * h)
    if prog.m2:
        grad = grad + prog.grad_g(x) @ shifted
    return AugLagEval(value=value, smooth_grad=grad, shifted_mu=shifted, h=h, g=g)


def multiplier_update(p_prev: DualPoint, c: float, h_val, g_val):
    """Step-2 multiplier update; returns the new point and p_prev - p_new.

    The difference is computed in its cancellation-free form
    (-c*h, c*min(mu_prev/c, -g)), which equals p_prev - p_new exactly in
    real arithmetic; subtracting the stored update would absorb the low
    bits of c*h into the multipliers and spoil the criterion identity at
    small residuals. Callers reuse this value verbatim.
    """
    if c <= 0:
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
    if c <= 0:
        raise ValueError("penalty parameter c must be positive")
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    w_prev = np.asarray(w_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu_prev = np.asarray(mu_prev, dtype=float)
    g_val = np.asarray(g_val, dtype=float)
    h_val = np.asarray(h_val, dtype=float)
    delta_p = np.asarray(delta_p, dtype=float)

    lhs = (2.0 / c) * abs(float((w_prev - x) @ y)) + float(y @ y)
    shifted_min = np.minimum(mu_prev / c, -g_val)
    rhs_raw = sigma * (float(h_val @ h_val) + float(shifted_min @ shifted_min))
    rhs_rewritten = (sigma / (c * c)) * float(delta_p @ delta_p)
    return CriterionReport(lhs=lhs, rhs_raw=rhs_raw, rhs_rewritten=rhs_rewritten, satisfied=lhs <= rhs_raw)
