"""Cross-check of solve_qp_exact against the full active-set enumeration.

The reference below solves every one of the 2^m2 faces and keeps the first
KKT-consistent one. For a positive definite Q solve_qp_exact stops at that
face, and every output array must agree, bit for bit or (x* and the dual
right side) to roundoff. For any other PSD Q it first refuses an empty
feasible set or a feasible descent ray, then takes proximal point steps,
which may end at another point of a non-singleton X*: there the objective
and the dual sets must agree.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from almlab import (
    AffineInequality,
    AffineMap,
    ConvexProgram,
    GeneratorSpec,
    QuadraticObjective,
    generate,
    solve_qp_exact,
    standard_corpus,
)
from almlab import oracle as oracle_mod
from almlab.errors import InfeasibleError, ProblemFormatError, UnboundedError
from almlab.oracle import DualPolyhedron, SolutionSetOracle


def reference_oracle(prog):
    n, m1, m2 = prog.n, prog.m1, prog.m2
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    G = np.vstack([g.coeff for g in prog.ineqs]) if m2 else np.zeros((0, n))
    d = np.array([g.offset for g in prog.ineqs]) if m2 else np.zeros(0)
    solutions = []
    for mask in range(1 << m2):
        S = [i for i in range(m2) if mask >> i & 1]
        C = np.vstack([A, G[S]]) if (m1 or S) else np.zeros((0, n))
        rhs_c = np.concatenate([b, d[S]])
        k = C.shape[0]
        kkt = np.block([[Q, C.T], [C, np.zeros((k, k))]])
        rhs = np.concatenate([-q, rhs_c])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            continue
        x = sol[:n]
        mu = np.zeros(m2)
        mu[S] = sol[n + m1:]
        if m1 and np.max(np.abs(A @ x - b)) > 1e-10:
            continue
        if m2 and np.max(G @ x - d) > 1e-10:
            continue
        if (mu < -1e-12).any():
            continue
        solutions.append(x)
    if not solutions:
        raise InfeasibleError("no active set yields a KKT-consistent feasible point")
    x_star = solutions[0]
    g_star = G @ x_star - d if m2 else np.zeros(0)
    active = [i for i in range(m2) if g_star[i] >= -1e-8]
    inactive = [i for i in range(m2) if i not in active]
    E = np.hstack([A.T, G.T]) if (m1 + m2) else np.zeros((n, 0))
    dual = DualPolyhedron(E, -(Q @ x_star + q), tuple(m1 + i for i in inactive),
                          tuple(m1 + i for i in active))
    ref = SolutionSetOracle(x_star, oracle_mod._null_space(np.vstack([Q, A, G])), dual,
                            prog.fingerprint())
    # solve_qp_exact's certificate: it solves these programs' faces on the
    # factored kernel, not by the least squares above
    ev = prog.q_spectrum
    ref.positive_definite = bool(ev[0] >= 2e-10 * max(1.0, float(ev[-1])))
    return ref


def _assert_same(got, ref, close, name):
    if close:
        assert np.linalg.norm(got - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref)), name
    else:
        assert np.array_equal(got, ref), name


def assert_bitwise_equal(got, ref):
    """Every output bit for bit, except that for positive definite Q the
    point x* and the dual right side -grad s(x*) come from the factored
    face solve and agree with the reference's least squares to roundoff,
    1e-12 (1 + ||ref||)."""
    _assert_same(got.primal_point, ref.primal_point, ref.positive_definite, "primal_point")
    assert np.array_equal(got.primal_basis, ref.primal_basis), "primal_basis"
    assert np.array_equal(got.dual.eq_mat, ref.dual.eq_mat)
    _assert_same(got.dual.eq_rhs, ref.dual.eq_rhs, ref.positive_definite, "dual.eq_rhs")
    assert got.dual.zero_idx == ref.dual.zero_idx
    assert got.dual.nonneg_idx == ref.dual.nonneg_idx
    assert got.fingerprint == ref.fingerprint


def assert_same_solution_sets(got, ref, prog):
    """For a Q that is not positive definite X* need not be a point, and
    two oracles may return different points of it. The objective at x*
    must agree within 1e-12 (1 + |f|), and the projections of 0 and of a
    seeded point onto the two dual sets within 1e-9 (1 + ||z||)."""
    f, f_ref = prog.smooth.value(got.primal_point), prog.smooth.value(ref.primal_point)
    assert abs(f - f_ref) <= 1e-12 * (1.0 + abs(f_ref)), "objective"
    for p in (np.zeros(ref.dual.m), np.random.default_rng(0).normal(size=ref.dual.m)):
        z, z_ref = got.dual.project(p)[0], ref.dual.project(p)[0]
        assert np.linalg.norm(z - z_ref) <= 1e-9 * (1.0 + np.linalg.norm(z_ref)), "dual projection"


LADDER = [GeneratorSpec("sc_qp", n=20, m1=4, m2=m2, seed=s) for m2 in (3, 6, 8, 10) for s in range(10)]
# every sc_qp, reference1d and degenerate_dual_qp (seeds 0-4) of the corpus
CORPUS_QPS = [prog for prog in standard_corpus() if prog.is_affine_qp()]


@pytest.mark.parametrize("spec", LADDER, ids=GeneratorSpec.label)
def test_ladder_matches_reference(spec):
    prog = generate(spec)
    assert_bitwise_equal(solve_qp_exact(prog), reference_oracle(prog))


@pytest.mark.parametrize("prog", CORPUS_QPS, ids=lambda p: p.name)
def test_corpus_matches_reference(prog):
    assert_bitwise_equal(solve_qp_exact(prog), reference_oracle(prog))


@pytest.mark.parametrize("prog", CORPUS_QPS + [generate(s) for s in LADDER],
                         ids=[p.name for p in CORPUS_QPS] + [s.label() for s in LADDER])
def test_sign_constrained_rows_are_the_active_rows(prog):
    # a row whose multiplier may be positive must be active at x*, and a
    # row pinned to zero must not be; the slack tolerance scales with the
    # data as the oracle's feasibility tolerance does
    orc = solve_qp_exact(prog)
    G, d, b = prog.ineq_matrix(), prog.ineq_rhs(), prog.eq_rhs()
    tol = 1e-8 * max(1.0, np.abs(b).max(initial=0.0), np.abs(d).max(initial=0.0))
    slack = G @ orc.primal_point - d
    assert all(slack[j - prog.m1] >= -tol for j in orc.dual.nonneg_idx)
    assert all(slack[i - prog.m1] < -tol for i in orc.dual.zero_idx)


@pytest.fixture
def spy(monkeypatch):
    """checks: for each call of _check_solvable, the number of faces solved
    before it; faces: every face solved outside it, in order."""
    log = SimpleNamespace(checks=[], faces=[])
    inside = []
    real_check, real_face = oracle_mod._check_solvable, oracle_mod._solve_face

    def check(*args):
        log.checks.append(len(log.faces))
        inside.append(True)
        try:
            return real_check(*args)
        finally:
            inside.pop()

    def face(Q, q, A, b, G, d, S, *args):
        if not inside:
            log.faces.append(list(S))
        return real_face(Q, q, A, b, G, d, S, *args)

    monkeypatch.setattr(oracle_mod, "_check_solvable", check)
    monkeypatch.setattr(oracle_mod, "_solve_face", face)
    return log


def _qp(Q, q, rows=(), offsets=(), eq=None):
    ineqs = tuple(AffineInequality(np.array(r, dtype=float), o) for r, o in zip(rows, offsets))
    return ConvexProgram(smooth=QuadraticObjective(np.array(Q, dtype=float), np.array(q, dtype=float)),
                         eq=eq, ineqs=ineqs)


class TestCertificateBoundary:
    def test_positive_definite_skips_the_solvability_check(self, spy):
        orc = solve_qp_exact(generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=6, seed=0)))
        assert spy.checks == []
        assert spy.faces
        assert orc.primal_is_singleton()

    def test_psd_with_kkt_point_is_checked_once_before_any_face(self, spy):
        # min 0.5*x1^2 - x2 s.t. x2 <= 1: flat in x2 but bounded by the row
        prog = _qp(np.diag([1.0, 0.0]), [0.0, -1.0], rows=[[0.0, 1.0]], offsets=[1.0])
        orc = solve_qp_exact(prog)
        assert spy.checks == [0]
        np.testing.assert_allclose(orc.primal_point, [0.0, 1.0], atol=1e-12)
        assert_same_solution_sets(orc, reference_oracle(prog), prog)

    def test_psd_descent_ray_still_raises(self, spy):
        # min 0.5*x1^2 - x2 s.t. x2 >= -1: x2 -> +inf is a feasible descent ray
        prog = _qp(np.diag([1.0, 0.0]), [0.0, -1.0], rows=[[0.0, -1.0]], offsets=[1.0])
        with pytest.raises(UnboundedError):
            solve_qp_exact(prog)
        assert spy.checks == [0]
        assert spy.faces == []

    def test_nearly_singular_definite_q_is_checked(self, spy):
        # lambda_min / lambda_max = 1e-11 lies below the certificate's margin
        prog = _qp(np.diag([1.0, 1e-11]), [0.0, 0.0], rows=[[1.0, 1.0]], offsets=[-1.0])
        orc = solve_qp_exact(prog)
        assert spy.checks == [0]
        assert_same_solution_sets(orc, reference_oracle(prog), prog)

    @pytest.mark.parametrize("field, prog", [
        ("Q", _qp([[1.0, 0.5, 0.0], [0.5, 1.0, np.nan], [0.0, np.nan, 1.0]], np.zeros(3))),
        ("Q", _qp([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3))),
        ("Q", _qp([[np.inf]], np.zeros(1))),
        ("q", _qp(np.eye(2), [np.nan, 0.0])),
        ("A", _qp(np.eye(2), [0.0, 0.0], eq=AffineMap(np.array([[np.inf, 1.0]]), np.ones(1)))),
        ("b", _qp(np.eye(2), [0.0, 0.0], eq=AffineMap(np.ones((1, 2)), np.array([np.nan])))),
        ("G", _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, np.nan]], offsets=[1.0])),
        ("d", _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, 0.0]], offsets=[-np.inf])),
    ], ids=["Q-nan-off-diagonal", "Q-nan-diagonal", "Q-inf-scalar", "q", "A", "b", "G", "d"])
    def test_non_finite_data_is_refused(self, spy, capfd, field, prog):
        # refused before any LAPACK call: nothing is printed (LAPACK's
        # DLASCL complaint on a NaN matrix goes to stdout), the solvability
        # check does not run and no face is visited
        with pytest.raises(ProblemFormatError, match=f"field '{field}'"):
            solve_qp_exact(prog)
        assert spy.checks == []
        assert spy.faces == []
        assert capfd.readouterr() == ("", "")


# x2 <= 0 and x2 >= 1 cannot both hold
_EMPTY_ROWS = dict(rows=[[0.0, 1.0], [0.0, -1.0]], offsets=[0.0, -1.0])


class TestSolvability:
    """A PSD program without a minimizer is refused before the proximal
    point steps, with the exception that names why."""

    @pytest.mark.parametrize("prog", [
        _qp(np.diag([0.0, 1.0]), [-1.0, 0.0], **_EMPTY_ROWS),
        _qp(np.zeros((2, 2)), [-1.0, 0.0], eq=AffineMap(np.array([[0.0, 1.0]]), np.array([0.5])),
            **_EMPTY_ROWS),
    ], ids=["flat-q", "zero-q-with-equality"])
    def test_empty_feasible_set_is_infeasible_not_unbounded(self, spy, prog):
        # -x1 descends without bound along a ray no row limits, but no x is
        # feasible
        with pytest.raises(InfeasibleError):
            solve_qp_exact(prog)
        assert spy.checks == [0]
        assert spy.faces == []

    def test_empty_feasible_set_beyond_the_cap_is_infeasible(self, spy):
        # 21 rows, the last contradicting the others: emptiness is decided
        # before any proximal point step
        prog = _qp(np.diag([0.0, 1.0]), [-1.0, 0.0], rows=[[0.0, 1.0]] * 20 + [[0.0, -1.0]],
                   offsets=[0.0] * 20 + [-1.0])
        with pytest.raises(InfeasibleError):
            solve_qp_exact(prog)
        assert spy.checks == [0]

    def test_bounded_program_with_21_rows_returns_its_minimizer(self, spy):
        # 21 copies of the row x2 <= 1
        prog = _qp(np.diag([1.0, 0.0]), [0.0, -1.0], rows=[[0.0, 1.0]] * 21, offsets=[1.0] * 21)
        orc = solve_qp_exact(prog)
        assert spy.checks == [0]
        np.testing.assert_allclose(orc.primal_point, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("prog", [
        # min -x1 - x2 over the cone x1 <= 2 x2, x2 <= 2 x1, which holds (1, 1)
        _qp(np.zeros((2, 2)), [-1.0, -1.0], rows=[[1.0, -2.0], [-2.0, 1.0]], offsets=[0.0, 0.0]),
        # min -x3 s.t. -1 <= x1 <= 1: x3 is free
        _qp(np.zeros((3, 3)), [0.0, 0.0, -1.0], rows=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
            offsets=[1.0, 1.0]),
    ], ids=["cone", "free-coordinate"])
    def test_descent_ray_raises_with_no_face_solved(self, spy, prog):
        with pytest.raises(UnboundedError):
            solve_qp_exact(prog)
        assert spy.checks == [0]
        assert spy.faces == []

    def test_flat_coordinate_box_matches_the_reference(self, spy):
        # min 0.5 x2^2 - x1 - x2 s.t. -1 <= x1 <= 1: flat in x1, bounded by
        # the box at x* = (1, 1)
        prog = _qp(np.diag([0.0, 1.0]), [-1.0, -1.0], rows=[[1.0, 0.0], [-1.0, 0.0]],
                   offsets=[1.0, 1.0])
        orc = solve_qp_exact(prog)
        assert spy.checks == [0]
        np.testing.assert_allclose(orc.primal_point, [1.0, 1.0], atol=1e-12)
        assert_bitwise_equal(orc, reference_oracle(prog))
