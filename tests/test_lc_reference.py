"""Cross-check of auglag_eval, the one evaluation of L_c, against the inner
solver's former private evaluator, kept below verbatim as the reference.

Every trajectory of the inner solver is set by the bits of this evaluation,
so the comparison is exact: the same value, and the same arrays down to the
sign of each zero.
"""
import numpy as np
import pytest

from almlab import (
    AffineInequality,
    ConvexProgram,
    DualPoint,
    InnerOptions,
    PenaltySchedule,
    QuadraticObjective,
    auglag_eval,
    run,
    solve_subproblem,
    standard_corpus,
)
from almlab import inner as inner_mod
from almlab.rng import Lcg
from almlab.verify import VERIFY_SIGMA, VERIFY_TOL

CORPUS = standard_corpus()


def reference_pieces(prog, x, p, c):
    """(full value, smooth gradient, h(x), g(x)) of L_c at x."""
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
    return value, grad, h, g


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def seeded_points(prog, seed, count=6):
    """(x, p, c) triples: random ones, and the origin with zero multipliers,
    where mu + c g(x) has exact zeros wherever an offset is zero."""
    rng = Lcg(seed)
    points = [(np.zeros(prog.n), DualPoint.zeros(prog.m1, prog.m2), 1.0)]
    for k in range(count):
        x = rng.normal(prog.n) * (1.0 + k)
        p = DualPoint(rng.normal(prog.m1), np.maximum(rng.normal(prog.m2), 0.0))
        points.append((x, p, (0.1, 10.0, 1e4)[k % 3]))
    return points


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[p.name for p in CORPUS])
def test_auglag_eval_matches_reference_bit_for_bit(index):
    prog = CORPUS[index]
    for x, p, c in seeded_points(prog, 1000 + index):
        value, grad, h, g = reference_pieces(prog, x, p, c)
        ev = auglag_eval(prog, x, p, c)
        assert ev.value == value or (np.isnan(ev.value) and np.isnan(value))
        assert_bits_equal(ev.smooth_grad, grad)
        assert_bits_equal(ev.h, h)
        assert_bits_equal(ev.g, g)
        assert_bits_equal(ev.shifted_mu, np.maximum(0.0, p.mu + c * g))


def test_shift_keeps_the_sign_of_zero():
    # mu = -0.0 and c g(x) underflowing to -0.0 give a shift of -0.0, which
    # max(0, .) keeps and max(., 0) would turn into +0.0
    prog = ConvexProgram(smooth=QuadraticObjective(np.eye(1), np.zeros(1)),
                         ineqs=(AffineInequality(np.array([1.0]), 5e-324),))
    x, p = np.zeros(1), DualPoint(np.zeros(0), np.array([-0.0]))
    value, grad, h, g = reference_pieces(prog, x, p, 0.1)
    ev = auglag_eval(prog, x, p, 0.1)
    assert np.signbit(ev.shifted_mu).all()
    assert ev.value == value
    assert_bits_equal(ev.smooth_grad, grad)
    assert_bits_equal(ev.g, g)


@pytest.mark.parametrize("exact", [False, True])
def test_driver_records_the_accepted_evaluation(exact):
    schedule = PenaltySchedule.geometric(10.0, 1.5, 1e6)
    progs = [p for p in CORPUS if p.is_affine_qp() or not exact]
    for prog in progs:
        hist = run(prog, schedule, VERIFY_SIGMA, tol=VERIFY_TOL, max_outer=200,
                   inner=InnerOptions(exact=exact))
        assert hist.records
        p_prev = DualPoint(np.array(hist.config["p0_lam"]), np.array(hist.config["p0_mu"]))
        for rec in hist.records:
            assert rec.auglag_val == auglag_eval(prog, rec.x, p_prev, rec.c).value
            p_prev = rec.p


@pytest.mark.parametrize("exact", [False, True])
def test_subproblem_result_carries_its_evaluation(sc_qp7, exact):
    p = DualPoint(np.array([0.1, -0.1]), np.array([0.2, 0.0, 0.1]))
    res = solve_subproblem(sc_qp7, p, 10.0, 0.5, np.zeros(6), np.zeros(6),
                           InnerOptions(exact=exact))
    ev = auglag_eval(sc_qp7, res.x, p, 10.0)
    assert res.lc.value == ev.value
    for got, want in ((res.lc.smooth_grad, ev.smooth_grad), (res.lc.h, ev.h), (res.lc.g, ev.g)):
        assert_bits_equal(got, want)


@pytest.mark.parametrize("c", [1.0, 10.0, 1e3])
def test_exact_mode_fallback_carries_the_accepted_evaluation(c, monkeypatch):
    # with an exact tolerance of 0 the semismooth iteration runs until its
    # active set repeats and then accepts its best iterate, not its last one
    monkeypatch.setattr(inner_mod, "_EXACT_TOL", 0.0)
    opts = InnerOptions(exact=True)
    for prog in (p for p in CORPUS if p.is_affine_qp()):
        p = DualPoint(np.full(prog.m1, 0.1), np.full(prog.m2, 0.2))
        res = solve_subproblem(prog, p, c, 0.5, np.zeros(prog.n), np.ones(prog.n), opts)
        ev = auglag_eval(prog, res.x, p, c)
        assert res.lc.value == ev.value
        assert_bits_equal(res.lc.smooth_grad, ev.smooth_grad)
        assert_bits_equal(res.lc.g, ev.g)


def _dot_forms(rng, n, m):
    """(name, a, b) for every product form the inner loop takes with
    ndarray.dot: the value's x.Q and the gradient's Q.x, the equality map's
    A.x, the view A.T that multiplies lam + c h, the read-only cached jac of
    grad_g, and the inner products of two vectors."""
    Q, A = rng.standard_normal((n, n)), rng.standard_normal((m, n))
    x, u, s = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(m)
    prog = ConvexProgram(smooth=QuadraticObjective(np.eye(n), np.zeros(n)),
                         ineqs=[AffineInequality(row, 0.0) for row in rng.standard_normal((m, n))])
    jac = prog.grad_g(x)
    assert not jac.flags.writeable and A.T.flags.f_contiguous
    return [("x.Q", x, Q), ("Q.x", Q, x), ("A.x", A, x), ("A.T.s", A.T, s),
            ("jac.s", jac, s), ("u.v", x, u), ("s.s", s, s)]


@pytest.mark.parametrize("form", ["x.Q", "Q.x", "A.x", "A.T.s", "jac.s", "u.v", "s.s"])
def test_dot_gives_the_bits_of_matmul(form):
    """The premise of the inner loop's a.dot(b) in place of a @ b: on the
    installed NumPy both run the same BLAS kernel, so every trajectory keeps
    its bits. Random shapes (n, m) up to (400, 160), the first (1, 1)."""
    rng = np.random.default_rng(28)
    shapes = [(1, 1), (400, 160)] + [(int(rng.integers(1, 401)), int(rng.integers(1, 161))) for _ in range(30)]
    for n, m in shapes:
        _, a, b = next(f for f in _dot_forms(rng, n, m) if f[0] == form)
        got, want = np.asarray(a.dot(b)), np.asarray(a @ b)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"{form} at (n, m) = ({n}, {m})"


def test_corpus_trajectory_counts():
    """The standard corpus at the verify settings: 66 of 293 accepted
    iterates snapped to y = 0, and 12006 inner iterations in total."""
    schedule = PenaltySchedule.geometric(10.0, 1.5, 1e6)
    snapped = outer = inner = 0
    for prog in CORPUS:
        hist = run(prog, schedule, VERIFY_SIGMA, tol=VERIFY_TOL, max_outer=200)
        outer += len(hist.records)
        inner += hist.total_inner_iters()
        snapped += sum(1 for rec in hist.records if not rec.y.any())
    assert (snapped, outer, inner) == (66, 293, 12006)
