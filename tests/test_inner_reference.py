"""Cross-check of the inexact subproblem solver against its former loop,
kept below verbatim as the reference: one ``auglag_eval`` per trial point,
and the multiplier update and the full criterion report at every candidate.

The solver now binds L_c once per subproblem, tests each candidate on the
two sides of the criterion alone and builds the report only for the one it
accepts; its line search computes the gradient of L_c only at a trial it
may accept, and its certificate floor reads norms cached on the program.
The former per-row floor is kept below verbatim too. Every trajectory is
set by the bits of these numbers, so the comparison is exact: the same
arrays down to the sign of each zero.
"""
import functools
import math

import numpy as np
import pytest

from almlab import (
    AffineInequality,
    AffineMap,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    PenaltySchedule,
    QuadraticInequality,
    QuadraticObjective,
    auglag_eval,
    criterion_eval,
    generate,
    multiplier_update,
    run,
    solve_subproblem,
    standard_corpus,
)
from almlab import inner as inner_mod
from almlab.auglag import lc_evaluator
from almlab.errors import MaxInnerIterationsError, NonFiniteError
from almlab.rng import Lcg
from almlab.verify import VERIFY_SIGMA, VERIFY_TOL

PROBLEMS = standard_corpus() + [generate(GeneratorSpec("quad_ineq", seed=s)) for s in range(3)]


def reference_solve(prog, p_prev, c, sigma, w_prev, x, max_inner=10000):
    """The inexact branch of solve_subproblem before the bound evaluator;
    returns (x, y, inner_iters, criterion, backtracks, lc, values)."""
    curv = inner_mod.smooth_curvature_bound(prog, c)
    t_safe = 1.0 / curv if curv else None
    t0 = t_safe if t_safe is not None else 1.0
    t = t0
    snap_at = inner_mod._certificate_floor(prog, x, p_prev, c, prog.eval_g(x), prog.smooth.grad(x))
    cur = auglag_eval(prog, x, p_prev, c)
    if not np.isfinite(cur.smooth_grad).all():
        raise NonFiniteError("non-finite gradient at the initial point")
    backtracks = 0
    values = [cur.value]
    prev_dx = prev_dgrad = None
    best_norm, best_state, last_improve = math.inf, None, 0
    frozen = 0

    for i in range(max_inner + 1):
        t_try = reference_trial_step(prev_dx, prev_dgrad, t, t0)
        x_next, y, nxt, t, bt = reference_line_search(prog, p_prev, c, x, cur, t_try, t_safe)
        backtracks += bt
        y_norm = float(np.linalg.norm(y))
        if y_norm <= snap_at:
            y = np.zeros(prog.n)
        lc = nxt
        if y_norm < 0.75 * best_norm:
            best_norm, best_state, last_improve = y_norm, (x_next, nxt), i
        elif i - last_improve >= 400 and best_norm <= 1e-10:
            x_next, lc = best_state
            y = np.zeros(prog.n)
        _, delta_p = multiplier_update(p_prev, c, lc.h, lc.g)
        report = criterion_eval(c, sigma, w_prev, x_next, y, lc.h, lc.g, p_prev.mu, delta_p)
        if report.satisfied:
            return x_next, y, i, report, backtracks, lc, values
        frozen = frozen + 1 if not (x_next - x).any() else 0
        if frozen >= 400:
            raise MaxInnerIterationsError(
                f"inner iterates frozen at the floating-point floor with "
                f"certificate norm {best_norm:.3e} (c={c:g}, sigma={sigma:g})"
            )
        prev_dx = x_next - x
        prev_dgrad = nxt.smooth_grad - cur.smooth_grad
        x, cur = x_next, nxt
        values.append(cur.value)
    raise MaxInnerIterationsError(
        f"criterion not met within {max_inner} inner iterations "
        f"(c={c:g}, sigma={sigma:g}); the subproblem may be ill-posed"
    )


def reference_trial_step(prev_dx, prev_dgrad, t_last, t0):
    if prev_dx is None:
        return t_last
    denom = float(prev_dx @ prev_dgrad)
    if denom <= 0:
        return t0
    t_bb = float(prev_dx @ prev_dx) / denom
    return min(max(t_bb, 1e-14), 1e12)


def reference_line_search(prog, p, c, x, cur, t_try, t_safe):
    slack = 5e-16 * (1.0 + abs(cur.value))
    for bt in range(inner_mod._MAX_BACKTRACKS):
        v = x - t_try * cur.smooth_grad
        x_next = prog.nonsmooth.prox(v, t_try) if prog.nonsmooth is not None else v
        nxt = auglag_eval(prog, x_next, p, c)
        if not (np.isfinite(nxt.value) and np.isfinite(nxt.smooth_grad).all()):
            t_try *= inner_mod._ARMIJO_FACTOR
            continue
        dx = x_next - x
        certified = t_safe is not None and t_try <= t_safe
        if certified or nxt.value <= cur.value - (inner_mod._ARMIJO_DECREASE / t_try) * float(dx @ dx) + slack:
            y = nxt.smooth_grad + (v - x_next) / t_try
            return x_next, y, nxt, t_try, bt
        t_try *= inner_mod._ARMIJO_FACTOR
    raise NonFiniteError(
        "line search failed to find a finite decreasing step; "
        "the subproblem value may be unbounded below"
    )


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_solve(prog, p, c, sigma, w, x0, max_inner=10000):
    """solve_subproblem and the reference agree bit for bit; returns the
    accepted x."""
    x, y, iters, report, backtracks, lc, values = reference_solve(prog, p, c, sigma, w, x0.copy(), max_inner)
    res = solve_subproblem(prog, p, c, sigma, w, x0, InnerOptions(max_inner=max_inner))
    assert_bits_equal(res.x, x)
    assert_bits_equal(res.y, y)
    assert res.lc.value == lc.value
    for name in ("smooth_grad", "h", "g", "shifted_mu"):
        assert_bits_equal(getattr(res.lc, name), getattr(lc, name))
    assert_bits_equal(list(res.criterion.as_dict().values()), list(report.as_dict().values()))
    assert (res.inner_iters, res.backtracks) == (iters, backtracks)
    assert_bits_equal(res.values, values)
    # the driver records this multiplier step instead of taking its own
    p_new, delta_p = multiplier_update(p, c, lc.h, lc.g)
    assert_bits_equal(res.p_new.lam, p_new.lam)
    assert_bits_equal(res.p_new.mu, p_new.mu)
    assert_bits_equal(res.delta_p, delta_p)
    return x


@functools.cache
def final_state(index):
    """(x, p, w) after the last iteration of the run at the verify settings:
    where the driver would start its next subproblem."""
    prog = PROBLEMS[index]
    hist = run(prog, PenaltySchedule.geometric(10.0, 1.5, 1e6), VERIFY_SIGMA,
               tol=VERIFY_TOL, max_outer=200)
    rec = hist.final()
    return rec.x, rec.p, rec.w


@pytest.mark.parametrize("sigma", [0.01, 0.5, 0.9])
@pytest.mark.parametrize("c", [10.0, 1e4])
@pytest.mark.parametrize("index", range(len(PROBLEMS)), ids=[p.name for p in PROBLEMS])
def test_solve_matches_reference_bit_for_bit(index, c, sigma):
    prog = PROBLEMS[index]
    # cold start: the origin with zero multipliers
    cold = np.zeros(prog.n), DualPoint.zeros(prog.m1, prog.m2), np.zeros(prog.n)
    for x0, p, w in (cold, final_state(index)):
        assert_same_solve(prog, p, c, sigma, w, x0)


def floor_problem(seed):
    """An unconstrained QP scaled by 1e3..1e6 and started 1e-9 off its
    minimizer. Its criterion needs y = 0 exactly, and the gradient's noise
    floor lies near or above the snap threshold (estimated at the start,
    1e-13), so depending on the seed the solve snaps, ends in the stall
    escape or fails frozen."""
    rng = Lcg(seed)
    M = rng.normal((3, 3))
    scale = 10.0 ** (3 + seed % 4)
    Q = (M @ M.T + 0.1 * np.eye(3)) * scale
    q = rng.normal(3) * scale
    x0 = np.linalg.solve(Q, -q) * (1 + 1e-9)
    return ConvexProgram(smooth=QuadraticObjective(Q, q)), x0


@pytest.mark.parametrize("seed, max_inner, path", [
    # seeds 4 and 13 stall away from the last iterate, seed 0 on it
    (0, 1000, "stall"), (4, 1000, "stall"), (13, 1000, "stall"), (8, 1000, "snap"),
    (7, 1000, "frozen"), (0, 100, "not met"),
])
def test_floor_paths_match_reference(seed, max_inner, path):
    prog, x0 = floor_problem(seed)
    p, w = DualPoint.zeros(0, 0), np.zeros(3)
    if path in ("frozen", "not met"):
        with pytest.raises(MaxInnerIterationsError) as ref:
            reference_solve(prog, p, 1.0, 0.5, w, x0.copy(), max_inner)
        with pytest.raises(MaxInnerIterationsError, match=path) as got:
            solve_subproblem(prog, p, 1.0, 0.5, w, x0, InnerOptions(max_inner=max_inner))
        # the message keeps its text and appends where the line search stood
        assert str(got.value).startswith(str(ref.value) + "; last trial step ")
        return
    x = assert_same_solve(prog, p, 1.0, 0.5, w, x0, max_inner)
    # y is declared zero; the stall escape does so above the snap threshold
    grad_norm = float(np.linalg.norm(auglag_eval(prog, x, p, 1.0).smooth_grad))
    snap_at = inner_mod._certificate_floor(prog, x0, p, 1.0, prog.eval_g(x0), prog.smooth.grad(x0))
    assert (grad_norm > snap_at) == (path == "stall")


def test_cheap_test_agrees_with_the_report(monkeypatch):
    """At every candidate of the corpus runs at the verify settings, the two
    sides the solver compares are those of criterion_eval, and so is the
    decision. The same runs give 66 snapped iterates of 293 and 12006
    inner iterations."""
    real_sides = inner_mod.criterion_sides
    candidates = []

    def spy(c, sigma, w_prev, x, y, h_val, g_val, mu_prev):
        lhs, rhs_raw = real_sides(c, sigma, w_prev, x, y, h_val, g_val, mu_prev)
        _, delta_p = multiplier_update(DualPoint(np.zeros(h_val.shape[0]), mu_prev), c, h_val, g_val)
        report = criterion_eval(c, sigma, w_prev, x, y, h_val, g_val, mu_prev, delta_p)
        assert_bits_equal([lhs, rhs_raw], [report.lhs, report.rhs_raw])
        assert (lhs <= rhs_raw) == report.satisfied
        candidates.append(report.satisfied)
        return lhs, rhs_raw

    monkeypatch.setattr(inner_mod, "criterion_sides", spy)
    schedule = PenaltySchedule.geometric(10.0, 1.5, 1e6)
    snapped = outer = inner = 0
    for prog in standard_corpus():
        hist = run(prog, schedule, VERIFY_SIGMA, tol=VERIFY_TOL, max_outer=200)
        outer += len(hist.records)
        inner += hist.total_inner_iters()
        snapped += sum(1 for rec in hist.records if not rec.y.any())
    assert (snapped, outer, inner) == (66, 293, 12006)
    # one candidate per inner iteration, the accepted one included
    assert len(candidates) == inner + outer
    assert sum(candidates) == outer


def reference_certificate_floor(prog, x, p, c):
    """The certificate floor before the cached norms: one con.grad and one
    con.value call per inequality."""
    scale = float(np.linalg.norm(prog.smooth.grad(x)))
    nx = float(np.linalg.norm(x)) + 1.0
    if prog.m1:
        nA = float(np.linalg.norm(prog.eq_matrix()))
        scale += nA * (float(np.linalg.norm(p.lam)) + c * (nA * nx + float(np.linalg.norm(prog.eq_rhs()))))
    for i, con in enumerate(prog.ineqs):
        ng = float(np.linalg.norm(con.grad(x)))
        scale += ng * (float(p.mu[i]) + c * (abs(con.value(x)) + ng * nx))
    return max(inner_mod._SNAP_TOL, min(30.0 * inner_mod._EPS * scale, 1e-10))


def _mixed_rows(m1, m2, seed):
    """A program on n = 5 whose m2 inequalities alternate affine, quadratic,
    affine, ...; m1 equalities when m1 > 0."""
    rng = Lcg(seed)
    n = 5
    ineqs = []
    for i in range(m2):
        if i % 2:
            M = rng.normal((n, n))
            ineqs.append(QuadraticInequality(M @ M.T, rng.normal(n), -1.0 - rng.uniform()))
        else:
            ineqs.append(AffineInequality(rng.normal(n), rng.normal()))
    eq = AffineMap(rng.normal((m1, n)), rng.normal(m1)) if m1 else None
    M = rng.normal((n, n))
    return ConvexProgram(smooth=QuadraticObjective(M @ M.T + np.eye(n), rng.normal(n)),
                         eq=eq, ineqs=ineqs, name=f"mixed-m1={m1}-m2={m2}")


FLOOR_PROBLEMS = PROBLEMS + [_mixed_rows(2, 5, 11), _mixed_rows(0, 4, 12), _mixed_rows(3, 0, 13),
                             _mixed_rows(0, 0, 14)]


def floor_points(prog, seed, count=9):
    """(x, p, c) triples at three penalties, the origin with zero multipliers
    first."""
    rng = Lcg(seed)
    points = [(np.zeros(prog.n), DualPoint.zeros(prog.m1, prog.m2), 1.0)]
    for k in range(count):
        x = rng.normal(prog.n) * 10.0 ** (k % 3 - 1)
        p = DualPoint(rng.normal(prog.m1), np.maximum(rng.normal(prog.m2), 0.0))
        points.append((x, p, (1e-3, 1.0, 1e4)[k % 3]))
    return points


@pytest.mark.parametrize("index", range(len(FLOOR_PROBLEMS)), ids=[p.name for p in FLOOR_PROBLEMS])
def test_certificate_floor_matches_reference_bit_for_bit(index, monkeypatch):
    prog = FLOOR_PROBLEMS[index]
    points = floor_points(prog, 500 + index)
    for x, p, c in points:
        assert (inner_mod._certificate_floor(prog, x, p, c, prog.eval_g(x), prog.smooth.grad(x))
                == reference_certificate_floor(prog, x, p, c))
    # the clamps to [1e-13, 1e-10] hide most bits of the sum; with no lower
    # clamp and eps scaled by 2^-48 (exact), both return 30 eps' times it
    monkeypatch.setattr(inner_mod, "_SNAP_TOL", 0.0)
    monkeypatch.setattr(inner_mod, "_EPS", 2.0 ** -100)
    for x, p, c in points:
        got = inner_mod._certificate_floor(prog, x, p, c, prog.eval_g(x), prog.smooth.grad(x))
        want = reference_certificate_floor(prog, x, p, c)
        assert 0.0 < got < 1e-10
        assert got == want


class FiniteGradBelow(QuadraticObjective):
    """A quadratic whose gradient is inf wherever some |x_i| exceeds the
    threshold; its value stays finite."""

    threshold = 0.9

    def grad(self, x):
        g = super().grad(x)
        return np.full_like(g, np.inf) if (np.abs(x) > self.threshold).any() else g


@pytest.mark.parametrize("t_try, certified", [(1.0, True), (1.5, False)])
def test_line_search_rejects_a_trial_with_a_non_finite_gradient(t_try, certified):
    # min 0.5 x^2 - x with t_safe = 1 from x = 0: the first trial lands at
    # x = t_try > 0.9, where the value passes (certified at t = 1, by the
    # Armijo test at t = 1.5) but the gradient is inf; the step is halved
    # once and the second trial is accepted
    prog = ConvexProgram(smooth=FiniteGradBelow(np.eye(1), -np.ones(1)))
    p, x = DualPoint.zeros(0, 0), np.zeros(1)
    lc_at = lc_evaluator(prog, p, 1.0)
    cur = lc_at(x)
    first = lc_at.value_stage(x - t_try * cur.smooth_grad)
    assert math.isfinite(first.value)
    assert certified or first.value < cur.value - 1e-4 / t_try * t_try ** 2
    x_next, y, nxt, t, bt = inner_mod._line_search(lc_at, None, x, cur, t_try, 1.0)
    assert (t, bt) == (t_try / 2, 1)
    assert_bits_equal(x_next, [t_try / 2])
    ref = reference_line_search(prog, p, 1.0, x, auglag_eval(prog, x, p, 1.0), t_try, 1.0)
    assert_bits_equal(x_next, ref[0])
    assert_bits_equal(y, ref[1])
    assert nxt.value == ref[2].value
    assert_bits_equal(nxt.smooth_grad, ref[2].smooth_grad)
    assert (t, bt) == ref[3:]
