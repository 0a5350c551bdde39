"""The factored face solve of solve_qp_exact for positive definite Q.

For a positive definite Q the oracle factors Q once per program and solves
each face on its own rows (``oracle._DefiniteHessian``): the k x k Gram
block of the face's rows, then one step of iterative refinement on the
face's KKT system. ``reference_solve_face`` (kept verbatim in
test_projection_kernel.py) is the face solve it replaced: it builds the
whole (n + k)-square KKT matrix and solves it by ``np.linalg.lstsq``. Run in
its place, the dual active-set search must visit the same faces, each with
the same has-a-KKT-point flag, and land on the same x to 1e-12 (1 + ||x||),
and no matrix handed to lstsq may be a face's KKT matrix.

Unlike that least squares, the factored solve keeps the oracle exact when
the program is scaled or Q is ill-conditioned: the scale and conditioning
ladders below are metamorphic and ground-truth checks, and the last tests
judge the oracle at the sizes the solver runs at.
"""
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from almlab import (
    AffineMap,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    PenaltySchedule,
    QuadraticObjective,
    generate,
    kkt_residual,
    project_dual,
    run,
    solve_qp_exact,
)
from almlab import oracle as oracle_mod
from almlab.errors import InfeasibleError
from almlab.problem import lagrangian_grad

from test_oracle_proximal import LPS, PSD_FAMILY, SMALL_PSD
from test_oracle_reference import CORPUS_QPS, LADDER, _qp
from test_projection_kernel import reference_solve_face


def _degenerate_programs():
    """The programs of test_oracle_search.TestDegenerateBranches, by test name."""
    parallel = _qp([[1.0]], [-2.0], rows=[[10.0], [1.0]], offsets=[10.0, 0.5])
    E = np.array([[-3.0, -3.0, 0.0, -1.0], [-2.0, 3.0, -3.0, 1.0]])
    p = np.array([3.0, 2.0, -3.0, 3.0])
    return {
        "parallel_row": parallel,
        "dependent_normal_drops_first": _qp(
            np.eye(3), [-3.0, 3.0, -3.0],
            rows=[[2.0, -2.0, -2.0], [0.0, -2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 1.0, 1.0]],
            offsets=[1.0, 2.0, 1.0, 2.0], eq=AffineMap(np.array([[2.0, 2.0, -1.0]]), np.array([-2.0]))),
        "nearly_inconsistent": _qp([[1.0]], [-2.0], rows=[[10.0], [1.0]], offsets=[10.0, 1.0 - 5e-9]),
        "nearly_inconsistent_equality": _qp(
            np.eye(2), [-2.0, 0.0], rows=[[10.0, 0.0], [1.0, 10.0]], offsets=[10.0, 1.0 - 5e-8],
            eq=AffineMap(np.array([[0.0, 1.0]]), np.array([0.0]))),
        "dependent_then_partial": _qp(
            [[20.0, 3.0, -3.0], [3.0, 12.0, 9.0], [-3.0, 9.0, 28.0]], [-380.0, 6.0, 168.0],
            rows=[[9.0, -3.0, -3.0], [14.0, 7.0, 8.0], [5.0, 3.0, -3.0], [12.0, 8.0, 6.0], [9.0, 0.0, -4.0]],
            offsets=[13.0, 9.0, 10.0, 8.0, 7.0]),
        "two_partial_steps": _qp(
            [[7.0, 6.0, 3.0, -8.0], [6.0, 29.0, 18.0, -16.0], [3.0, 18.0, 15.0, -9.0],
             [-8.0, -16.0, -9.0, 15.0]], [-155.0, -184.0, -108.0, 189.0],
            rows=[[6.0, -2.0, 7.0, 7.0], [6.0, -8.0, 1.0, -5.0], [9.0, -3.0, 0.0, -3.0], [8.0, 1.0, 8.0, 5.0],
                  [13.0, 9.0, -1.0, 3.0], [12.0, 8.0, 7.0, 7.0], [14.0, 8.0, 5.0, 0.0], [8.0, 0.0, 2.0, 3.0],
                  [13.0, -3.0, -2.0, 5.0]],
            offsets=[13.0, 7.0, 6.0, 7.0, 6.0, 9.0, 9.0, 10.0, 12.0]),
        "independent_row": _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, 0.0]], offsets=[-1.0]),
        "exact_duplicate_row": _qp(np.eye(2), [-2.0, 0.0], rows=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                   offsets=[1.0, 1.0, 5.0]),
        "scaled_duplicate_row": _qp([[1.0]], [-2.0], rows=[[1.0], [2.0]], offsets=[1.0, 2.0]),
        "row_implied_by_equality": _qp(np.eye(2), [-3.0, 0.0], rows=[[1.0, 1.0], [1.0, 0.0]],
                                       offsets=[1.0, 0.5], eq=AffineMap(np.array([[1.0, 1.0]]), np.array([1.0]))),
        "row_contradicting_equality": _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, 1.0]], offsets=[0.5],
                                          eq=AffineMap(np.array([[1.0, 1.0]]), np.array([1.0]))),
        "weakly_active_row": _qp(np.eye(2), [-1.0, -1.0], rows=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 0.0]),
        "infeasible_pair": _qp([[1.0]], [0.0], rows=[[1.0], [-1.0]], offsets=[-1.0, -1.0]),
        "dual_projection_partial_step": _qp(np.eye(4), -p, rows=-np.eye(4), offsets=np.zeros(4),
                                            eq=AffineMap(E, np.array([-2.0, -1.0]))),
    }


DEGENERATE = _degenerate_programs()
PROGRAMS = ([generate(spec) for spec in LADDER] + CORPUS_QPS + list(DEGENERATE.values()))
IDS = [spec.label() for spec in LADDER] + [prog.name for prog in CORPUS_QPS] + list(DEGENERATE)


def _kkt_face(Q, q, *args):
    """reference_solve_face on the matrix behind the factored kernel."""
    if isinstance(Q, oracle_mod._DefiniteHessian):
        Q = Q.Q
    return reference_solve_face(Q, q, *args)


def _search(prog, kernel=None):
    """solve_qp_exact with the face solve ``kernel`` (the production one when
    None). Returns (x* or the exception raised, faces), where faces lists
    (S, x) for every face solved, x None when it has no KKT point."""
    solve = kernel or oracle_mod._solve_face
    faces = []

    def face(Q, q, A, b, G, d, S, *args):
        result = solve(Q, q, A, b, G, d, S, *args)
        faces.append((list(S), result[0]))
        return result

    with mock.patch.object(oracle_mod, "_solve_face", face):
        try:
            return solve_qp_exact(prog).primal_point, faces
        except InfeasibleError as exc:
            return exc, faces


@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_factored_faces_match_the_kkt_solve(index):
    prog = PROGRAMS[index]
    x, faces = _search(prog)
    x_ref, faces_ref = _search(prog, _kkt_face)
    assert [(S, f is not None) for S, f in faces] == [(S, f is not None) for S, f in faces_ref]
    for (_, f), (_, f_ref) in zip(faces + [(None, x)], faces_ref + [(None, x_ref)]):
        if isinstance(f_ref, np.ndarray):
            assert np.linalg.norm(f - f_ref) <= 1e-12 * (1.0 + np.linalg.norm(f_ref))
        else:
            assert type(f) is type(f_ref)


@contextmanager
def _lstsq_calls():
    """(shape, face) for every matrix handed to np.linalg.lstsq in the block:
    face is the list S of the face being solved, or None outside a face."""
    calls, current = [], [None]
    real_lstsq, real_face = np.linalg.lstsq, oracle_mod._solve_face

    def lstsq(a, *args, **kwargs):
        calls.append((np.shape(a), current[0]))
        return real_lstsq(a, *args, **kwargs)

    def face(Q, q, A, b, G, d, S, *args):
        current[0] = list(S)
        try:
            return real_face(Q, q, A, b, G, d, S, *args)
        finally:
            current[0] = None

    with mock.patch.object(np.linalg, "lstsq", lstsq), mock.patch.object(oracle_mod, "_solve_face", face):
        yield calls


# Q PSD but not positive definite: the proximal point steps, and before
# them the solvability check's projections
PSD_PROGRAMS = PSD_FAMILY + SMALL_PSD + LPS


@pytest.mark.parametrize("index", range(len(PROGRAMS + PSD_PROGRAMS)), ids=IDS + [p.name for p in PSD_PROGRAMS])
def test_no_kkt_matrix_reaches_lstsq(index):
    # inside a face on k = m1 + |S| rows, lstsq sees only the k x k Gram
    # block; outside, the dependent-normal branch expands a row in the
    # n x (m1 + |W|) basis of the active normals, and the minimizer of a
    # proximal point step's face takes its multipliers from the n x k
    # matrix of the face's normals. A face's KKT matrix is
    # (n + k)-square.
    prog = (PROGRAMS + PSD_PROGRAMS)[index]
    with _lstsq_calls() as calls:
        _search(prog)
    for shape, S in calls:
        if S is None:
            assert shape[0] == prog.n
        else:
            assert shape == (prog.m1 + len(S),) * 2


def test_dependent_rows_take_the_least_squares_block():
    # the parallel rows 10 x <= 10 and x <= 0.5 make face {0, 1}'s Gram
    # block [[100, 10], [10, 1]] singular
    with _lstsq_calls() as calls:
        solve_qp_exact(DEGENERATE["parallel_row"])
    assert ((2, 2), [0, 1]) in calls


def _roundoff_scale(prog, x):
    """1 + ||Q|| ||x|| + ||q||: the size of the terms of Qx + q, to which
    roundoff in a KKT residual is relative."""
    Q, q = prog.smooth.Q, prog.smooth.q
    return 1.0 + np.linalg.norm(Q, 2) * np.linalg.norm(x) + np.linalg.norm(q)


def test_face_refines_to_its_kkt_point():
    # one face on an ill-conditioned Q (eigenvalues 1 ... 1e8): its KKT
    # residual is at roundoff, and its multipliers are those of x
    prog = generate(GeneratorSpec("sc_qp", n=50, m1=10, m2=20, seed=3, conditioning=(1.0, 1e8)))
    Q, q, A, b, G, d = (prog.smooth.Q, prog.smooth.q, prog.eq_matrix(), prog.eq_rhs(),
                        prog.ineq_matrix(), prog.ineq_rhs())
    S = [0, 3, 7]
    kernel = oracle_mod._DefiniteHessian.factor(Q, q, A, b, G, d, prog.q_spectrum[-1])
    x, mu_S, residual, rhs_norm = kernel.face(S)
    C = np.vstack([A, G[S]])
    nu = np.linalg.lstsq(C.T, -(Q @ x + q), rcond=None)[0]
    assert residual <= 1e-13 * _roundoff_scale(prog, x)
    assert abs(rhs_norm - np.linalg.norm(np.concatenate([q, b, d[S]]))) <= 1e-15 * rhs_norm
    assert np.linalg.norm(mu_S - nu[prog.m1:]) <= 1e-12 * np.linalg.norm(nu)


def _scaled(prog, s):
    return ConvexProgram(smooth=QuadraticObjective(s * prog.smooth.Q, s * prog.smooth.q),
                         eq=prog.eq, ineqs=prog.ineqs)


@pytest.mark.parametrize("seed", range(10))
def test_scaled_objective_scales_the_oracle(seed):
    # min s (0.5 x'Qx + q'x) over the same rows has the same x* and s times
    # the multipliers; the least-squares face solve raised a false
    # InfeasibleError at s = 1e6 (4 of these seeds) and s = 1e8 (all)
    prog = generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=8, seed=seed))
    base = solve_qp_exact(prog)
    for s in (1e-8, 1e6, 1e8):
        orc = solve_qp_exact(_scaled(prog, s))
        x, rhs = base.primal_point, s * base.dual.eq_rhs
        assert np.linalg.norm(orc.primal_point - x) <= 1e-9 * np.linalg.norm(x), s
        assert np.linalg.norm(orc.dual.eq_rhs - rhs) <= 1e-9 * np.linalg.norm(rhs), s
        assert orc.dual.zero_idx == base.dual.zero_idx
        assert orc.dual.nonneg_idx == base.dual.nonneg_idx


CONDITIONING_LADDER = [GeneratorSpec("sc_qp", n=n, m1=n // 5, m2=2 * n // 5, seed=seed, conditioning=(1.0, hi))
                       for n in (20, 50) for hi in (1e4, 1e6, 1e8, 1e9, 1e10) for seed in range(10)]


@pytest.mark.parametrize("spec", CONDITIONING_LADDER, ids=lambda s: f"{s.label()}-cond{s.conditioning[1]:g}")
def test_ill_conditioned_q_keeps_an_exact_oracle(spec):
    # every program has an oracle, its face residual bound growing with
    # ||Q||_2 ||x||, and x* with the projection of 0 onto P* satisfies KKT
    # to roundoff. At 1e10 the spectrum falls below the positive definite
    # certificate, and the oracle takes proximal point steps
    prog = generate(spec)
    orc = solve_qp_exact(prog)
    x = orc.primal_point
    dp = DualPoint.from_vector(project_dual(orc, np.zeros(orc.dual.m))[0], prog.m1)
    res = kkt_residual(prog, x, dp, lagrangian_grad(prog, x, dp))
    assert res.max_violation() <= 1e-13 * _roundoff_scale(prog, x)


@pytest.mark.parametrize("dims, seed", [((200, 40, 80), 3), ((400, 80, 160), 0)], ids=["n200", "n400"])
def test_ground_truth_at_the_solver_sizes(dims, seed):
    # the sizes of the solve-large benchmark: x* with the projection of 0
    # onto P* is a KKT point, and the rows P* leaves sign-constrained are
    # the rows active at the end of an exact-mode run
    n, m1, m2 = dims
    prog = generate(GeneratorSpec("sc_qp", n=n, m1=m1, m2=m2, seed=seed))
    orc = solve_qp_exact(prog)
    x = orc.primal_point
    dp = DualPoint.from_vector(project_dual(orc, np.zeros(orc.dual.m))[0], m1)
    res = kkt_residual(prog, x, dp, lagrangian_grad(prog, x, dp))
    assert res.max_violation() <= 1e-9 * (1.0 + np.linalg.norm(prog.smooth.q))
    hist = run(prog, PenaltySchedule.geometric(10.0, 1.5, 1e6), 0.5, inner=InnerOptions(exact=True))
    g = prog.eval_g(hist.records[-1].x)
    assert [m1 + i for i in range(m2) if g[i] >= -1e-8] == list(orc.dual.nonneg_idx)
