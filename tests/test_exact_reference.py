"""Cross-check of the exact inner mode against its former loop, kept below
verbatim (only its return differs) as the reference: a semismooth Newton
iteration on the penalized active set with its own best-so-far point, cycle
detection, three polish rounds of 200 gradient steps and a 200-step cap.

Exact mode now runs as a step generator under the acceptance loop it shares
with the proximal gradient mode. Every accepted subproblem of the runs
below, and every failure, must come out the same bit for bit: x, y, the
evaluation of L_c there, the inner iteration count, the criterion report,
and the exception class and message. The one intended difference is the
cap: the solver's only bound on Newton steps is ``max_inner``, so a solve
that needs more than 200 steps converges where the reference gave up.
"""
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
    QuadraticObjective,
    auglag_eval,
    criterion_eval,
    generate,
    multiplier_update,
    run,
    solve_subproblem,
    standard_corpus,
)
from almlab import driver as driver_mod
from almlab import inner as inner_mod
from almlab.errors import MaxInnerIterationsError
from almlab.rng import Lcg
from almlab.verify import VERIFY_SIGMA, VERIFY_TOL

# the former module constant, fixed here so that a changed tolerance in the
# solver shows up as a difference
_EXACT_TOL = 1e-12


def reference_solve_exact(prog, p, c, sigma, w_prev, x_init):
    """The former ``_solve_exact``; returns (x, y, inner_iters, criterion,
    lc) where it built the result."""
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
        if gnorm <= _EXACT_TOL:
            x, lc = x_new, ev
            break
        key = active.tobytes()
        if key in seen:
            # active set cycling at the floating-point floor: accept if the
            # best gradient is already negligible, otherwise polish with a
            # few gradient steps and retry
            if best_norm <= 1e-10:
                x, lc = best
                break
            if polish_rounds >= 3:
                raise MaxInnerIterationsError(
                    f"exact subproblem solve stalled with gradient norm {best_norm:.3e}"
                )
            polish_rounds += 1
            seen.clear()
            curv = inner_mod.smooth_curvature_bound(prog, c)
            t = 1.0 / curv if curv else 1.0
            for _ in range(200):
                x_new = x_new - t * auglag_eval(prog, x_new, p, c).smooth_grad
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
    return x, y, iters, report, lc


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_same_solve(prog, p, c, sigma, w, x0):
    """Exact-mode solve_subproblem and the reference agree bit for bit, on
    the result or on the exception; returns the result, or the exception."""
    x0 = np.asarray(x0, dtype=float)
    try:
        want = reference_solve_exact(prog, p, c, sigma, w, x0.copy())
    except MaxInnerIterationsError as exc:
        with pytest.raises(type(exc)) as got:
            solve_subproblem(prog, p, c, sigma, w, x0, InnerOptions(exact=True))
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return got.value
    res = solve_subproblem(prog, p, c, sigma, w, x0, InnerOptions(exact=True))
    x, y, iters, report, lc = want
    assert_bits_equal(res.x, x)
    assert_bits_equal(res.y, y)
    assert res.lc.value == lc.value
    for name in ("smooth_grad", "h", "g", "shifted_mu"):
        assert_bits_equal(getattr(res.lc, name), getattr(lc, name))
    assert res.inner_iters == iters
    assert_bits_equal(list(res.criterion.as_dict().values()), list(report.as_dict().values()))
    assert (res.backtracks, res.values) == (0, [])
    return res


def run_against_reference(monkeypatch, prog, schedule, sigma, tol, max_outer=200):
    """Run the driver in exact mode with every subproblem checked against
    the reference; returns the history and the number of subproblems."""
    calls = []

    def checked(prog_, p, c, sigma_, w, x, opts=None):
        assert opts is not None and opts.exact
        calls.append(c)
        got = assert_same_solve(prog_, p, c, sigma_, w, x)
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(driver_mod, "solve_subproblem", checked)
    hist = run(prog, schedule, sigma, tol=tol, max_outer=max_outer, inner=InnerOptions(exact=True))
    return hist, len(calls)


AFFINE_QPS = [prog for prog in standard_corpus() if prog.is_affine_qp()]


@pytest.mark.parametrize("index", range(len(AFFINE_QPS)), ids=[p.name for p in AFFINE_QPS])
def test_corpus_runs_match_reference(index, monkeypatch):
    # the verify settings, in exact mode
    hist, calls = run_against_reference(monkeypatch, AFFINE_QPS[index], PenaltySchedule.geometric(10.0, 1.5, 1e6),
                                        VERIFY_SIGMA, VERIFY_TOL)
    assert hist.status == "Converged"
    assert calls == len(hist.records)


@pytest.mark.parametrize("n, m1, m2", [(6, 2, 3), (50, 10, 20), (200, 40, 80)])
def test_sc_qp_ladder_matches_reference(n, m1, m2, monkeypatch):
    # the solve-large schedule; at n = 200 two subproblems end on a cycling
    # active set and accept the best point with y = 0
    prog = generate(GeneratorSpec("sc_qp", n=n, m1=m1, m2=m2, seed=3))
    hist, calls = run_against_reference(monkeypatch, prog, PenaltySchedule.geometric(10.0, 1.5, 1e6), 0.5, 1e-8)
    assert hist.status == "Converged"
    assert calls == len(hist.records)


def test_polish_program_matches_reference():
    # the stalled active set of test_inner.py's polish test
    prog = ConvexProgram(
        smooth=QuadraticObjective(np.diag([1.0, 0.0]), np.array([0.0, -1.0])),
        ineqs=(AffineInequality(np.array([0.0, 1.0]), 1.0),),
    )
    res = assert_same_solve(prog, DualPoint.zeros(0, 1), 1.0, 0.5, np.zeros(2), np.zeros(2))
    assert res.x.tolist() == [0.0, 2.0]


def small_program(seed):
    """(prog, p, x0) on n = 2 with two equalities and four inequalities,
    Q positive definite, multipliers and start drawn from the seed."""
    rng = Lcg(seed)
    M = rng.normal((2, 2))
    prog = ConvexProgram(
        smooth=QuadraticObjective(M @ M.T + 0.1 * np.eye(2), rng.normal(2)),
        eq=AffineMap(rng.normal((2, 2)), rng.normal(2)),
        ineqs=[AffineInequality(rng.normal(2), rng.normal()) for _ in range(4)],
    )
    p = DualPoint(rng.normal(2), np.maximum(rng.normal(4), 0.0))
    return prog, p, rng.normal(2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("c", [1.0, 1e3, 1e5, 1e6])
def test_small_programs_match_reference(seed, c):
    # at c = 1e5 no Newton point reaches a gradient norm of 1e-12, and each
    # solve accepts its best point on a repeated active set; at c = 1e6 the
    # gradient's noise floor lies above 1e-10 at seeds 0, 2 and 3, which
    # end stalled after three polish rounds
    prog, p, x0 = small_program(seed)
    got = assert_same_solve(prog, p, c, 0.0, np.zeros(2), x0)
    if c == 1e6 and seed != 1:
        assert isinstance(got, MaxInnerIterationsError)
        assert "stalled with gradient norm" in str(got)
    elif c >= 1e5:
        assert 1e-12 < float(np.linalg.norm(got.lc.smooth_grad)) <= 1e-10


def kink_chain(m2):
    """min 0.5 x^2 + x on n = 1 with rows 3^(i/2) (x - i) <= 0, i = 1..m2.
    From x = m2 + 1 every row is active; each Newton step lands half-way
    into the next interval to the left, because the newest row outweighs
    all the others, so the active set shrinks by one row per step and
    never repeats. The minimizer x = -1 is m2 + 1 steps away."""
    a = 3.0 ** (np.arange(1, m2 + 1) / 2)
    prog = ConvexProgram(
        smooth=QuadraticObjective(np.eye(1), np.ones(1)),
        ineqs=[AffineInequality(np.array([ai]), ai * i) for i, ai in enumerate(a, start=1)],
    )
    return prog, DualPoint.zeros(0, m2), np.array([m2 + 1.0])


def test_kink_chain_matches_reference():
    prog, p, x0 = kink_chain(150)
    got = assert_same_solve(prog, p, 1.0, 0.0, np.zeros(1), x0)
    assert (got.inner_iters, got.x.tolist()) == (151, [-1.0])


def test_kink_chain_needs_only_max_inner():
    # 202 Newton steps: past the reference's 200-step cap, within max_inner
    prog, p, x0 = kink_chain(201)
    args = (prog, p, 1.0, 0.0, np.zeros(1), x0)
    got = solve_subproblem(*args, InnerOptions(exact=True))
    assert (got.inner_iters, got.x.tolist()) == (202, [-1.0])
    assert got.criterion.satisfied and not got.y.any()
    with pytest.raises(MaxInnerIterationsError, match="did not converge"):
        solve_subproblem(*args, InnerOptions(max_inner=150, exact=True))
