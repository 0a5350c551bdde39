"""The oracle for a PSD Q that is not positive definite: proximal point steps.

Such a Q is the only kind whose X* can be more than a point. solve_qp_exact
decides first that the program has a minimizer, then takes proximal point
steps, each a dual active-set search on Q + I/t. After each step it moves
to the program's minimizer on the step's face, tested as a KKT point of the
program itself, or along the face's flat descent direction to the next
row. The programs here:

* the PQP family: sc_qp with Q replaced by PQP, where P projects out a
  random subspace (numpy ``default_rng(seed)``), and q = PQP z, so the
  objective is bounded below however far the rows let x go;
* LPs (Q = 0) on sc_qp's rows with q = -(A'lam + G'mu), mu >= 0, so that q
  lies in the cone of the row normals and the LP is bounded; q is scaled by
  1e-6, 1 and 1e6;
* small programs with one curvature or slope far below ||Q||_2 + ||q||,
  whose x* is known in closed form, as they are and rotated, and a face
  that lies inside null(Q).

Where m2 <= 8 the result is checked against the enumeration of
test_oracle_reference.py. The two may return different points of X*, so
they are compared by objective and by their dual sets.
"""
import numpy as np
import pytest

from almlab import (
    AffineMap,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    QuadraticObjective,
    generate,
    kkt_residual,
    project_dual,
    solve_qp_exact,
)
from almlab import oracle as oracle_mod
from almlab.errors import EnumerationLimitError
from almlab.problem import lagrangian_grad

from test_oracle_reference import _qp, assert_same_solution_sets, reference_oracle


def pqp(n, m1, m2, rank, seed, off=0.0):
    """sc_qp (n, m1, m2) with Q := PQP of rank ``rank`` and
    q = PQP z - off (A'lam + G'mu), mu >= 0, bounded below like q = PQP z."""
    prog = generate(GeneratorSpec("sc_qp", n=n, m1=m1, m2=m2, seed=seed))
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.normal(size=(n, n - rank)))[0]
    P = np.eye(n) - V @ V.T
    Q = P @ prog.smooth.Q @ P
    Q = 0.5 * (Q + Q.T)
    q = Q @ rng.normal(size=n) - off * (prog.eq_matrix().T @ rng.normal(size=m1)
                                        + prog.ineq_matrix().T @ rng.uniform(size=m2))
    return ConvexProgram(smooth=QuadraticObjective(Q, q), eq=prog.eq, ineqs=prog.ineqs,
                         name=f"pqp_{n}_{m1}_{m2}_rank{rank}_seed{seed}" + (f"_off{off:g}" if off else ""))


def lp(scale, seed, n=20, m1=4, m2=8):
    """min q'x over the rows of sc_qp (n, m1, m2), q = -scale (A'lam + G'mu)."""
    prog = generate(GeneratorSpec("sc_qp", n=n, m1=m1, m2=m2, seed=seed))
    rng = np.random.default_rng(seed)
    q = -(prog.eq_matrix().T @ rng.normal(size=m1) + prog.ineq_matrix().T @ rng.uniform(size=m2))
    return ConvexProgram(smooth=QuadraticObjective(np.zeros((n, n)), scale * q), eq=prog.eq,
                         ineqs=prog.ineqs, name=f"lp_scale{scale:g}_seed{seed}")


PSD_FAMILY = ([pqp(20, 4, 12, 12, seed) for seed in range(10)]
              + [pqp(50, 10, m2, 30, seed) for m2 in (12, 20, 40) for seed in range(10)])
SMALL_PSD = [pqp(20, 4, m2, 12, seed) for m2 in (3, 6, 8) for seed in range(10)]
LPS = [lp(1.0, seed) for seed in range(5)]
SCALED_LPS = [lp(scale, seed) for scale in (1e-6, 1e6) for seed in range(5)]


def _names(progs):
    return [p.name for p in progs]


def _assert_kkt_point(prog, orc):
    # x* with the projection of 0 onto P* satisfies KKT
    x = orc.primal_point
    dp = DualPoint.from_vector(project_dual(orc, np.zeros(orc.dual.m))[0], prog.m1)
    res = kkt_residual(prog, x, dp, lagrangian_grad(prog, x, dp))
    assert res.max_violation() <= 1e-9 * (1.0 + np.linalg.norm(prog.smooth.q))


ALL = PSD_FAMILY + LPS + SCALED_LPS


@pytest.mark.parametrize("prog", ALL, ids=_names(ALL))
def test_psd_program_returns_a_kkt_point_within_half_the_cap(prog, monkeypatch):
    assert prog.q_spectrum[0] < 2e-10 * max(1.0, prog.q_spectrum[-1])
    monkeypatch.setattr(oracle_mod, "_PROX_CAP", oracle_mod._PROX_CAP // 2)
    _assert_kkt_point(prog, solve_qp_exact(prog))


@pytest.mark.parametrize("prog", SMALL_PSD + LPS, ids=_names(SMALL_PSD + LPS))
def test_small_psd_program_matches_the_enumeration(prog):
    # the enumeration's tolerances are absolute, so it judges the LPs at
    # scale 1 only
    orc = solve_qp_exact(prog)
    assert_same_solution_sets(orc, reference_oracle(prog), prog)
    _assert_kkt_point(prog, orc)


@pytest.mark.parametrize("seed", range(5))
def test_scaled_lp_scales_the_oracle(seed):
    # min s q'x has s times the objective and s times the dual set of
    # min q'x: projecting s p gives s times the projection of p
    base = solve_qp_exact(LPS[seed])
    f = LPS[seed].smooth.value(base.primal_point)
    p = np.random.default_rng(seed).normal(size=base.dual.m)
    z = base.dual.project(p)[0]
    for scale in (1e-6, 1e6):
        scaled = lp(scale, seed)
        orc = solve_qp_exact(scaled)
        assert abs(scaled.smooth.value(orc.primal_point) - scale * f) <= 1e-12 * scale * (1.0 + abs(f))
        assert np.linalg.norm(orc.dual.project(scale * p)[0] - scale * z) <= 1e-9 * scale * (1.0 + np.linalg.norm(z))




def test_loose_slope_tolerance_still_returns_a_kkt_point(monkeypatch):
    # with no move along a flat direction, a face minimizer is returned
    # only when it passes the program's own KKT tests
    monkeypatch.setattr(oracle_mod, "_PROX_TOL", 1e6)
    for prog in PSD_FAMILY[:10]:
        _assert_kkt_point(prog, solve_qp_exact(prog))


# (Q, q, rows, offsets, x*) with x* the unique minimizer
SCALE_SPREAD = {
    # ||q|| = 1e5 sits on the pinned flat direction; the free curvature is 1
    "large_q_on_a_pinned_direction": (np.diag([1.0, 0.0]), [-1.0, -1e5], [[0.0, 1.0]], [1.0], [1.0, 1.0]),
    # the free curvature is 1e-5 of ||Q||_2
    "curvature_1e-5_of_the_norm": (np.diag([1e5, 1.0, 0.0]), [0.0, -1.0, -1.0], [[0.0, 0.0, 1.0]], [1.0],
                                   [0.0, 1.0, 1.0]),
    # the free curvature is 1e-9 of ||Q||_2, above the 2e-10 certificate
    "curvature_1e-9_of_the_norm": (np.diag([1.0, 1e-9, 0.0]), [-1.0, -1e-9, -1.0], [[0.0, 0.0, 1.0]], [1.0],
                                   [1.0, 1.0, 1.0]),
    # slope 1e-7 along the flat direction, which x crosses to the row
    "slope_1e-7_on_a_flat_direction": (np.diag([1.0, 0.0]), [0.0, -1e-7], [[0.0, 1.0]], [1.0], [0.0, 1.0]),
}


def test_step_cap_raises(monkeypatch):
    # the slope program takes two steps: one to the face {}, whose flat
    # slope sends x to the row, and one to the face {0}
    Q, q, rows, offsets, _ = SCALE_SPREAD["slope_1e-7_on_a_flat_direction"]
    monkeypatch.setattr(oracle_mod, "_PROX_CAP", 1)
    with pytest.raises(EnumerationLimitError, match="cap of 1"):
        solve_qp_exact(_qp(Q, q, rows=rows, offsets=offsets))


@pytest.mark.parametrize("name", SCALE_SPREAD)
def test_scale_spread_matches_the_enumeration(name):
    Q, q, rows, offsets, x_star = SCALE_SPREAD[name]
    prog = _qp(Q, q, rows=rows, offsets=offsets)
    orc = solve_qp_exact(prog)
    np.testing.assert_allclose(orc.primal_point, x_star, rtol=0, atol=1e-12)
    assert_same_solution_sets(orc, reference_oracle(prog), prog)
    _assert_kkt_point(prog, orc)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", SCALE_SPREAD)
def test_rotated_scale_spread_reaches_the_minimum(name, seed):
    # R' x* is the minimizer of the rotated program; along a curvature of
    # 1e-9 roundoff moves x by up to ~1e-7, which moves f by ~1e-23
    Q, q, rows, offsets, x_star = SCALE_SPREAD[name]
    R = np.linalg.qr(np.random.default_rng(seed).normal(size=Q.shape))[0]
    prog = _qp(R @ Q @ R.T, R @ np.array(q), rows=[R @ np.array(g) for g in rows], offsets=offsets)
    orc = solve_qp_exact(prog)
    f_star = prog.smooth.value(R @ np.array(x_star))
    assert abs(prog.smooth.value(orc.primal_point) - f_star) <= 1e-12 * (1.0 + abs(f_star))
    np.testing.assert_allclose(orc.primal_point, R @ np.array(x_star), rtol=0, atol=1e-6)
    _assert_kkt_point(prog, orc)


@pytest.mark.parametrize("seed", range(3))
def test_lp_with_a_large_q_is_not_refused(seed):
    # the unboundedness check projects -q / ||q||: at n = 50, m2 = 20 and
    # q scaled by 1e6 its search would judge -q itself against a
    # feasibility tolerance made for unit data
    base, scaled = lp(1.0, seed, n=50, m1=10, m2=20), lp(1e6, seed, n=50, m1=10, m2=20)
    f = base.smooth.value(solve_qp_exact(base).primal_point)
    orc = solve_qp_exact(scaled)
    assert abs(scaled.smooth.value(orc.primal_point) - 1e6 * f) <= 1e-12 * 1e6 * (1.0 + abs(f))
    _assert_kkt_point(scaled, orc)


def test_face_minimizer_moves_along_a_flat_slope_and_tests_the_residual():
    # min x1^2 / 2 - 1e-7 x2 s.t. x2 <= 1. On the face {} f falls along the
    # flat x2: past tol, x moves to the row; below it, the residual 1e-7 is
    # above its bound. On the face {0} the minimizer is (0, 1).
    Q, q, rows, offsets, _ = SCALE_SPREAD["slope_1e-7_on_a_flat_direction"]
    Q, q = np.array(Q), np.array(q)
    G, d, A, b = np.array(rows), np.array(offsets), np.zeros((0, 2)), np.zeros(0)
    x, consistent = oracle_mod._face_minimizer(Q, q, A, b, G, d, [], np.array([0.5, 0.0]), 1.0, 1e-9)
    assert not consistent
    np.testing.assert_allclose(x, [0.0, 1.0], rtol=0, atol=1e-15)
    assert oracle_mod._face_minimizer(Q, q, A, b, G, d, [], np.array([0.5, 0.0]), 1.0, 1.0) == (None, False)
    x, consistent = oracle_mod._face_minimizer(Q, q, A, b, G, d, [0], np.array([0.5, 1.0]), 1.0, 1e-9)
    assert consistent
    np.testing.assert_allclose(x, [0.0, 1.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("prog", [lp(s, 5, n=50, m1=10, m2=40) for s in (1e-6, 1.0, 1e6)]
                         + [pqp(20, 4, 12, 12, seed, off=1e-6) for seed in range(4)], ids=lambda p: p.name)
def test_long_flat_crossing_returns_a_kkt_point(prog):
    # a face with a flat direction whose slope is ~1e-9 of ||Q||_2 + ||q||
    # and a blocking row ~0.1 away: proximal point steps alone cover it in
    # thousands of steps
    _assert_kkt_point(prog, solve_qp_exact(prog))


@pytest.mark.parametrize("seed", range(10, 15))
def test_lp_with_a_small_q_returns_an_exact_kkt_point(seed):
    # with q scaled by 1e-6 the face tests' residual bound, relative to
    # 1 + ||(q, b, d)||, passes face minimizers that are not yet the last;
    # the slope test, relative to ||Q||_2 + ||q||, sends x on to the next row
    prog = lp(1e-6, seed, n=50, m1=10, m2=40)
    _assert_kkt_point(prog, solve_qp_exact(prog))


@pytest.mark.parametrize("seed", range(6))
def test_face_inside_the_null_space_of_q_is_flat(seed):
    # Q = R diag(1, 0, 0) R' with the equality row R e1: the face {} has
    # Z'QZ = 0 up to roundoff, so all of it is flat, and x moves along
    # R e2 (slope 1e-8) to the row R e2 . x <= 1. Judged against the face's
    # own largest eigenvalue, roundoff would pass for curvature.
    R = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    prog = _qp(R @ np.diag([1.0, 0.0, 0.0]) @ R.T, R @ np.array([0.0, -1e-8, 0.0]), rows=[R[:, 1]],
               offsets=[1.0], eq=AffineMap(R[:, :1].T.copy(), np.zeros(1)))
    orc = solve_qp_exact(prog)
    assert abs(R[:, 1] @ orc.primal_point - 1.0) <= 1e-12
    _assert_kkt_point(prog, orc)
