"""The oracle's dual active-set search on positive definite Q.

Each face the search visits is solved by ``oracle._solve_face``; the tests
count those solves, watch which faces are visited, and check the result
against the full enumeration of test_oracle_reference.py, bit for bit
wherever the first consistent face is unique. They also cover the Q the
oracle refuses, an indefinite or asymmetric one, and how a DualPolyhedron
serves its projections: one search per distinct point, on the row basis of
its equality rows.
"""
import dataclasses
import json

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
    estimate_kappa,
    generate,
    kkt_residual,
    project_dual,
    rate_report,
    run,
    solve_qp_exact,
    standard_corpus,
    superlinearity_probe,
)
from almlab import oracle as oracle_mod
from almlab.cli import main
from almlab.errors import EnumerationLimitError, InfeasibleError, ProblemFormatError
from almlab.oracle import DualPolyhedron
from almlab.problem import lagrangian_grad

from test_oracle_reference import LADDER, assert_bitwise_equal, assert_same_solution_sets, reference_oracle
from test_projection_reference import reference_project


@pytest.fixture
def faces(monkeypatch):
    """(face, solvable) for every face solved, in order."""
    visited = []
    real = oracle_mod._solve_face

    def spy(Q, q, A, b, G, d, S, *args, **kwargs):
        result = real(Q, q, A, b, G, d, S, *args, **kwargs)
        visited.append((list(S), result[0] is not None))
        return result

    monkeypatch.setattr(oracle_mod, "_solve_face", spy)
    return visited


def _qp(Q, q, rows=(), offsets=(), eq=None):
    ineqs = tuple(AffineInequality(np.array(r, dtype=float), o) for r, o in zip(rows, offsets))
    return ConvexProgram(smooth=QuadraticObjective(np.array(Q, dtype=float), np.array(q, dtype=float)),
                         eq=eq, ineqs=ineqs)


def _drops_a_row(visited):
    """True when some solvable face is followed by one no larger: the search
    gave up an active row."""
    return any(ok and len(nxt) <= len(face) for (face, ok), (nxt, _) in zip(visited, visited[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_search_is_not_exponential(faces, seed):
    m2 = 20
    prog = generate(GeneratorSpec("sc_qp", n=28, m1=4, m2=m2, seed=seed))
    oracle = solve_qp_exact(prog)
    assert 1 <= len(faces) <= 2 * m2 + 1
    rng = np.random.default_rng(seed)
    for p in (np.zeros(oracle.dual.m), rng.normal(size=oracle.dual.m)):
        member = project_dual(oracle, p)[0]
        dp = DualPoint.from_vector(member, prog.m1)
        res = kkt_residual(prog, oracle.primal_point, dp, lagrangian_grad(prog, oracle.primal_point, dp))
        assert res.max_violation() <= 1e-10


def test_unconstrained_minimum_costs_one_solve(faces):
    orc = solve_qp_exact(generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=0, seed=0)))
    assert faces == [([], True)]
    assert orc.primal_is_singleton()


def test_definite_q_has_a_single_point_primal_set():
    # Q = diag(1, 1e-9) is positive definite, but [Q; G] with G = (100, 0)
    # has a singular value below 1e-10 of its largest: a null-space SVD of
    # the stack would give a direction along which the minimizer is unique
    prog = _qp(np.diag([1.0, 1e-9]), [-1.0, 0.0], rows=[[100.0, 0.0]], offsets=[50.0])
    assert solve_qp_exact(prog).primal_basis.shape == (2, 0)


class TestDegenerateBranches:
    def test_parallel_row_takes_the_dependent_normal_branch(self, faces):
        # min 0.5 (x - 2)^2 s.t. 10 x <= 10 and x <= 0.5: the first row is
        # added first, and the second's normal is a multiple of it
        prog = _qp([[1.0]], [-2.0], rows=[[10.0], [1.0]], offsets=[10.0, 0.5])
        orc = solve_qp_exact(prog)
        assert ([0, 1], False) in faces
        assert faces[-1] == ([1], True)
        np.testing.assert_allclose(orc.primal_point, [0.5], rtol=1e-12)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_dependent_normal_drops_the_first_row_to_reach_zero(self, faces):
        # four normals in R^3 at face {0, 1, 2}: rows 0 and 2 can give way to
        # row 1, and row 2's multiplier reaches zero first
        eq = AffineMap(np.array([[2.0, 2.0, -1.0]]), np.array([-2.0]))
        rows = [[2.0, -2.0, -2.0], [0.0, -2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 1.0, 1.0]]
        prog = _qp(np.eye(3), [-3.0, 3.0, -3.0], rows=rows, offsets=[1.0, 2.0, 1.0, 2.0], eq=eq)
        orc = solve_qp_exact(prog)
        assert faces == [([], True), ([2], True), ([0, 2], True), ([0, 1, 2], False), ([0, 1], True)]
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_nearly_inconsistent_face_takes_the_dependent_normal_branch(self, faces):
        # min 0.5 (x - 2)^2 s.t. 10 x <= 10 and x <= 1 - 5e-9: the second row
        # is violated by 5e-9 at face {0}, above the feasibility tolerance
        # 1e-9 but below the face solve's 1e-8 residual test. The
        # least-squares solve of face {0, 1} is a compromise that leaves its
        # own row 1 violated, so the face has no KKT point; the search takes
        # the dependent-normal branch and lands on face {1}, as the
        # enumeration does.
        prog = _qp([[1.0]], [-2.0], rows=[[10.0], [1.0]], offsets=[10.0, 1.0 - 5e-9])
        orc = solve_qp_exact(prog)
        assert faces == [([], True), ([0], True), ([0, 1], False), ([1], True)]
        np.testing.assert_allclose(orc.primal_point, [1.0 - 5e-9], rtol=1e-12, atol=0.0)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_nearly_inconsistent_face_through_an_equality_row(self, faces):
        # as above with x2 = 0 and row 1 = x1 + 10 x2 <= 1 - 5e-8, which is
        # 10 times the equality row plus 0.1 times row 0: the compromise at
        # face {0, 1} leaves the equality row off by about 5e-9, above the
        # tolerance, and row 1 by only about 5e-10
        eq = AffineMap(np.array([[0.0, 1.0]]), np.array([0.0]))
        prog = _qp(np.eye(2), [-2.0, 0.0], rows=[[10.0, 0.0], [1.0, 10.0]], offsets=[10.0, 1.0 - 5e-8], eq=eq)
        orc = solve_qp_exact(prog)
        assert faces == [([], True), ([0], True), ([0, 1], False), ([1], True)]
        np.testing.assert_allclose(orc.primal_point, [1.0 - 5e-8, 0.0], rtol=1e-12, atol=1e-15)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_dependent_step_then_partial_step(self, faces):
        # at face {0, 1, 2} row 4 is a fourth normal in R^3; the z = 0 step
        # lowers mu_0 and mu_2 until row 2 leaves. The partial step at face
        # {0, 1, 4} then drops row 0, whose lowered multiplier reaches zero
        # first; from the multipliers of face {0, 1, 2} it would drop row 1.
        Q = [[20.0, 3.0, -3.0], [3.0, 12.0, 9.0], [-3.0, 9.0, 28.0]]
        rows = [[9.0, -3.0, -3.0], [14.0, 7.0, 8.0], [5.0, 3.0, -3.0], [12.0, 8.0, 6.0], [9.0, 0.0, -4.0]]
        prog = _qp(Q, [-380.0, 6.0, 168.0], rows=rows, offsets=[13.0, 9.0, 10.0, 8.0, 7.0])
        orc = solve_qp_exact(prog)
        assert [face for face, _ in faces] == [[], [1], [0, 1], [0, 1, 2], [0, 1, 2, 4], [0, 1, 4], [1, 4], [4]]
        assert faces[4] == ([0, 1, 2, 4], False)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_two_partial_steps_in_a_row(self, faces):
        # adding row 2 at face {1, 4, 6} takes two partial steps: the first
        # drops row 4 and moves mu along the line to face {1, 2, 4, 6}; the
        # second, from that interpolated mu, drops row 1. From the
        # multipliers of face {1, 4, 6} it would drop row 6 instead.
        Q = [[7.0, 6.0, 3.0, -8.0], [6.0, 29.0, 18.0, -16.0], [3.0, 18.0, 15.0, -9.0], [-8.0, -16.0, -9.0, 15.0]]
        rows = [[6.0, -2.0, 7.0, 7.0], [6.0, -8.0, 1.0, -5.0], [9.0, -3.0, 0.0, -3.0], [8.0, 1.0, 8.0, 5.0],
                [13.0, 9.0, -1.0, 3.0], [12.0, 8.0, 7.0, 7.0], [14.0, 8.0, 5.0, 0.0], [8.0, 0.0, 2.0, 3.0],
                [13.0, -3.0, -2.0, 5.0]]
        prog = _qp(Q, [-155.0, -184.0, -108.0, 189.0], rows=rows,
                   offsets=[13.0, 7.0, 6.0, 7.0, 6.0, 9.0, 9.0, 10.0, 12.0])
        orc = solve_qp_exact(prog)
        assert faces == [([], True), ([6], True), ([1, 6], True), ([1, 4, 6], True), ([1, 2, 4, 6], True),
                         ([1, 2, 6], True), ([2, 6], True), ([2, 4, 6], True), ([2, 4], True)]
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_failed_solve_on_an_independent_row_is_not_a_dependent_normal(self, monkeypatch):
        # face {0} of min 0.5 ||x||^2 s.t. x1 <= -1 made to fail as an
        # unequilibrated solve can: its row does not depend on the (empty)
        # active set, so the search stops instead of exchanging rows
        real = oracle_mod._solve_face
        visited = []

        def failing(Q, q, A, b, G, d, S, *args, **kwargs):
            visited.append(list(S))
            return (None, None, False) if S == [0] else real(Q, q, A, b, G, d, S, *args, **kwargs)

        monkeypatch.setattr(oracle_mod, "_solve_face", failing)
        prog = _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, 0.0]], offsets=[-1.0])
        with pytest.raises(InfeasibleError, match="independent of the active rows"):
            solve_qp_exact(prog)
        assert visited == [[], [0]]

    def test_cap_names_its_face_solves(self, faces, monkeypatch):
        # the parallel-row program needs four face solves; one per row plus
        # one allows three
        monkeypatch.setattr(oracle_mod, "_SEARCH_CAP", 1)
        prog = _qp([[1.0]], [-2.0], rows=[[10.0], [1.0]], offsets=[10.0, 0.5])
        with pytest.raises(EnumerationLimitError, match="cap of 3 face solves"):
            solve_qp_exact(prog)
        assert len(faces) == 3

    def test_exact_duplicate_row(self, faces):
        # rows 0 and 1 are identical and tie for the most violated
        prog = _qp(np.eye(2), [-2.0, 0.0], rows=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                   offsets=[1.0, 1.0, 5.0])
        orc = solve_qp_exact(prog)
        assert faces[-1] == ([0], True)
        assert orc.dual.nonneg_idx == (0, 1)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_scaled_duplicate_row_lands_on_another_face(self, faces):
        # 2 x <= 2 is x <= 1 again and is the more violated: the search stops
        # at face {1}, the enumeration at face {0}; both give x* = 1
        prog = _qp([[1.0]], [-2.0], rows=[[1.0], [2.0]], offsets=[1.0, 2.0])
        orc = solve_qp_exact(prog)
        ref = reference_oracle(prog)
        assert faces[-1] == ([1], True)
        np.testing.assert_allclose(orc.primal_point, ref.primal_point, rtol=1e-12, atol=0.0)
        assert orc.dual.zero_idx == ref.dual.zero_idx
        assert orc.dual.nonneg_idx == ref.dual.nonneg_idx

    def test_row_implied_by_the_equality_rows(self, faces):
        # x1 + x2 = 1 forces x1 + x2 <= 1 to hold with equality
        eq = AffineMap(np.array([[1.0, 1.0]]), np.array([1.0]))
        prog = _qp(np.eye(2), [-3.0, 0.0], rows=[[1.0, 1.0], [1.0, 0.0]], offsets=[1.0, 0.5], eq=eq)
        orc = solve_qp_exact(prog)
        assert 0 in [i - prog.m1 for i in orc.dual.nonneg_idx]
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_row_contradicting_the_equality_rows_is_infeasible(self, faces):
        eq = AffineMap(np.array([[1.0, 1.0]]), np.array([1.0]))
        prog = _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, 1.0]], offsets=[0.5], eq=eq)
        with pytest.raises(InfeasibleError):
            solve_qp_exact(prog)
        with pytest.raises(InfeasibleError):
            reference_oracle(prog)
        assert faces == [([], True), ([0], False)]

    def test_weakly_active_row(self, faces):
        # min 0.5 ||x - (1, 1)||^2 s.t. x1 <= 1, x2 <= 0: the first row holds
        # with equality at x* = (1, 0) and carries mu* = 0
        prog = _qp(np.eye(2), [-1.0, -1.0], rows=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 0.0])
        orc = solve_qp_exact(prog)
        assert faces[-1] == ([1], True)
        assert orc.dual.nonneg_idx == (0, 1)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_infeasible_pair(self, faces):
        # x <= -1 and -x <= -1: the second normal is minus the first
        prog = _qp([[1.0]], [0.0], rows=[[1.0], [-1.0]], offsets=[-1.0, -1.0])
        with pytest.raises(InfeasibleError):
            solve_qp_exact(prog)
        with pytest.raises(InfeasibleError):
            reference_oracle(prog)
        assert faces[-1] == ([0, 1], False)

    def test_dual_projection_with_a_partial_step(self, faces):
        # projecting p onto {z >= 0, E z = e}: coordinate 2 is pinned first
        # and released when coordinate 1 is pinned
        E = np.array([[-3.0, -3.0, 0.0, -1.0], [-2.0, 3.0, -3.0, 1.0]])
        e = np.array([-2.0, -1.0])
        p = np.array([3.0, 2.0, -3.0, 3.0])
        prog = _qp(np.eye(4), -p, rows=-np.eye(4), offsets=np.zeros(4), eq=AffineMap(E, e))
        orc = solve_qp_exact(prog)
        assert _drops_a_row(faces)
        assert faces[-1] == ([1], True)
        assert_bitwise_equal(orc, reference_oracle(prog))

        faces.clear()
        poly = DualPolyhedron(E, e, (), (0, 1, 2, 3))
        z, dist = poly.project(p)
        assert _drops_a_row(faces)
        # the projection searches the row basis of E, not E itself, so it
        # meets the program's x* only to roundoff
        z_ref, dist_ref = reference_project(poly, p)
        scale = np.linalg.norm(z_ref) + np.linalg.norm(p)
        assert np.linalg.norm(z - orc.primal_point) <= 1e-12 * scale
        assert np.linalg.norm(z - z_ref) <= 1e-12 * scale
        assert abs(dist - dist_ref) <= 1e-12 * scale


class TestRefusedQ:
    def test_indefinite_q_is_refused(self, faces):
        with pytest.raises(ProblemFormatError, match="field 'Q'.*positive semidefinite"):
            solve_qp_exact(_qp(np.diag([1.0, -1.0]), [0.0, 0.0]))
        assert faces == []

    def test_asymmetric_q_is_refused(self, faces):
        with pytest.raises(ProblemFormatError, match="field 'Q'.*symmetric"):
            solve_qp_exact(_qp([[1.0, 5.0], [-5.0, 1.0]], [1.0, 0.0]))
        assert faces == []

    def test_rates_on_an_indefinite_problem_exits_1(self, tmp_path, capsys):
        path = tmp_path / "saddle.json"
        path.write_text(json.dumps({"n": 2, "Q": [[1.0, 0.0], [0.0, -1.0]], "q": [0.0, 0.0]}))
        # solve and run both refuse this file, so the trace comes from a PSD
        # program with n = 2; rates refuses in solve_qp_exact, before it
        # compares fingerprints
        trace = tmp_path / "saddle.trace.json"
        run(_qp(np.eye(2), [0.0, 0.0]), PenaltySchedule.fixed(10.0), 0.5).to_json(trace)
        capsys.readouterr()
        code = main(["rates", "--trace", str(trace), "--problem", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "field 'Q'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.rates.*"))

    def test_rotated_psd_q_still_solves(self):
        # Q = R diag(1, 0) R' is PSD with a flat direction R[:, 1]; the row
        # bounds the descent along it
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        Q = R @ np.diag([1.0, 0.0]) @ R.T
        prog = _qp(Q, -R[:, 0] - R[:, 1], rows=[R[:, 1]], offsets=[2.0])
        orc = solve_qp_exact(prog)
        assert_same_solution_sets(orc, reference_oracle(prog), prog)
        np.testing.assert_allclose(orc.primal_point, R @ [1.0, 2.0], atol=1e-12)

    def test_corpus_and_ladder_q_pass_both_checks(self):
        for prog in [p for p in standard_corpus() if p.is_affine_qp()] + [generate(s) for s in LADDER]:
            Q, ev = prog.smooth.Q, prog.q_spectrum
            assert np.abs(Q - Q.T).max() <= 1e-10 * max(1.0, np.abs(Q).max()), prog.name
            assert ev[0] >= -2e-10 * max(1.0, ev[-1]), prog.name


@pytest.fixture
def searches(monkeypatch):
    """The linear term -p[keep] of every dual active-set search, in order."""
    calls = []
    real = oracle_mod._dual_active_set_face

    def spy(Q, q, *args):
        calls.append(q.copy())
        return real(Q, q, *args)

    monkeypatch.setattr(oracle_mod, "_dual_active_set_face", spy)
    return calls


def _fresh(poly):
    return DualPolyhedron(poly.eq_mat, poly.eq_rhs, poly.zero_idx, poly.nonneg_idx)


class TestProjectionMemo:
    def test_same_point_runs_one_search(self, searches):
        orc = solve_qp_exact(generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=8, seed=0)))
        searches.clear()
        p = np.random.default_rng(0).normal(size=orc.dual.m)
        z, dist = project_dual(orc, p)
        again = project_dual(orc, p.copy())
        assert len(searches) == 1
        assert again[0] is z and again[1] == dist

    def test_projection_and_data_are_read_only(self):
        E, e = np.array([[1.0, 1.0]]), np.array([1.0])
        poly = DualPolyhedron(E, e, (), (1,))
        z, _ = poly.project(np.array([2.0, -1.0]))
        for arr in (z, poly.eq_mat, poly.eq_rhs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        E[0, 0], e[0] = 5.0, 5.0
        assert poly.eq_mat[0, 0] == 1.0 and poly.eq_rhs[0] == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            poly.eq_rhs = e

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_result_equals_cold(self, seed):
        poly = solve_qp_exact(generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=8, seed=seed))).dual
        rng = np.random.default_rng(seed)
        pts = [rng.normal(size=poly.m) for _ in range(4)]
        for q in pts:
            poly.project(q)
        for q in pts:
            z, dist = poly.project(q)
            z_cold, dist_cold = _fresh(poly).project(q)
            assert np.array_equal(z, z_cold) and dist == dist_cold

    def test_rates_pipeline_searches_each_multiplier_once(self, searches):
        prog = generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=8, seed=1))
        hist = run(prog, PenaltySchedule.geometric(2.0, 2.0, 1e12), sigma=0.5,
                   tol=1e-10, max_outer=40, inner=InnerOptions(exact=True))
        orc = solve_qp_exact(prog)
        searches.clear()
        kappa = estimate_kappa(hist, orc)
        rate_report(hist, orc, kappa, 0.5)
        superlinearity_probe(hist, orc)
        p0 = np.concatenate([hist.config["p0_lam"], hist.config["p0_mu"]])
        distinct = {p0.tobytes()} | {rec.p.as_vector().tobytes() for rec in hist.records}
        assert len(hist.records) >= 8
        assert len(searches) == len(distinct)


class TestRowBasis:
    @pytest.mark.parametrize("seed", range(3))
    def test_search_carries_rank_rows(self, monkeypatch, seed):
        # the cli-grid shape: n = 50 equality rows of rank at most m = 5
        orc = solve_qp_exact(generate(GeneratorSpec("sc_qp", n=50, seed=seed)))
        rows = []
        real = oracle_mod._solve_face

        def spy(Q, q, A, *args, **kwargs):
            rows.append(A.shape[0])
            return real(Q, q, A, *args, **kwargs)

        monkeypatch.setattr(oracle_mod, "_solve_face", spy)
        poly = orc.dual
        keep = [i for i in range(poly.m) if i not in poly.zero_idx]
        rank = np.linalg.matrix_rank(poly.eq_mat[:, keep])
        poly.project(np.random.default_rng(seed).normal(size=poly.m))
        assert poly.eq_mat.shape[0] == 50 and rank <= poly.m
        assert rows and set(rows) == {rank}

    def test_inconsistent_equality_rows_are_infeasible(self, searches):
        # z1 = 1 and z1 = 2
        poly = DualPolyhedron(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]), (), (1,))
        for _ in range(2):
            with pytest.raises(InfeasibleError, match="the equality rows are inconsistent"):
                poly.project(np.zeros(2))
        assert searches == []
