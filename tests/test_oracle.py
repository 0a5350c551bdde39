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
    SolutionSetOracle,
    estimate_kappa,
    generate,
    kkt_residual,
    project_dual,
    project_primal,
    run,
    solve_qp_exact,
)
from almlab.errors import (
    InfeasibleError,
    NoValidSamplesError,
    UnboundedError,
)
from almlab.oracle import DualPolyhedron

from conftest import make_halfspace_qp, make_zero_objective_eq

PHI = (1.0 + np.sqrt(5.0)) / 2.0


class TestSolveQpExact:
    def test_reference_solution_sets(self, reference1d):
        orc = solve_qp_exact(reference1d)
        np.testing.assert_allclose(orc.primal_point, [1.0], atol=1e-12)
        assert orc.primal_is_singleton()
        proj, dist = project_dual(orc, np.zeros(1))
        np.testing.assert_allclose(proj, [-1.0], atol=1e-12)
        assert dist == pytest.approx(1.0)

    def test_halfspace_hand_solution(self):
        orc = solve_qp_exact(make_halfspace_qp())
        np.testing.assert_allclose(orc.primal_point, [-1.0, 0.0], atol=1e-12)
        member, dist = project_dual(orc, np.zeros(1))
        np.testing.assert_allclose(member, [1.0], atol=1e-12)

    def test_zero_objective_forced_solution(self):
        orc = solve_qp_exact(make_zero_objective_eq())
        np.testing.assert_allclose(orc.primal_point, [0.0], atol=1e-12)
        proj, dist = project_dual(orc, np.array([3.0]))
        np.testing.assert_allclose(proj, [0.0], atol=1e-12)
        assert dist == pytest.approx(3.0)

    def test_infeasible(self):
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(1), np.zeros(1)),
            eq=AffineMap(np.array([[1.0], [1.0]]), np.array([0.0, 1.0])),
        )
        with pytest.raises(InfeasibleError):
            solve_qp_exact(prog)

    def test_unbounded(self):
        prog = ConvexProgram(smooth=QuadraticObjective(np.zeros((1, 1)), np.array([-1.0])))
        with pytest.raises(UnboundedError):
            solve_qp_exact(prog)

    def test_unbounded_with_inactive_constraint(self):
        # min -x1 s.t. x1 >= -1 is unbounded above in x1
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.zeros((2, 2)), np.array([-1.0, 0.0])),
            ineqs=(AffineInequality(np.array([-1.0, 0.0]), 1.0),),
        )
        with pytest.raises(UnboundedError):
            solve_qp_exact(prog)

    def test_many_rows_with_definite_q_are_searched(self):
        # Q = I goes to the dual active-set search, which stops at the
        # empty face
        n = 21
        ineqs = tuple(AffineInequality(e, 1.0) for e in np.eye(n))
        prog = ConvexProgram(smooth=QuadraticObjective(np.eye(n), np.zeros(n)), ineqs=ineqs)
        orc = solve_qp_exact(prog)
        assert np.array_equal(orc.primal_point, np.zeros(n))
        member, dist = project_dual(orc, np.zeros(orc.dual.m))
        assert np.array_equal(member, np.zeros(n))
        assert dist == 0.0

    def test_21_rows_with_a_flat_direction_are_solved(self):
        # a flat direction sends the same rows to the proximal point steps.
        # 0 is a minimizer, and the steps stay there.
        n = 21
        ineqs = tuple(AffineInequality(e, 1.0) for e in np.eye(n))
        Q = np.diag([1.0] * (n - 1) + [0.0])
        prog = ConvexProgram(smooth=QuadraticObjective(Q, np.zeros(n)), ineqs=ineqs)
        orc = solve_qp_exact(prog)
        assert np.array_equal(orc.primal_point, np.zeros(n))
        assert np.array_equal(project_dual(orc, np.ones(orc.dual.m))[0], np.zeros(n))

    def test_requires_affine_qp(self):
        with pytest.raises(ValueError):
            solve_qp_exact(generate(GeneratorSpec("quad_ineq", seed=0)))

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_kkt_consistency(self, seed):
        qp = generate(GeneratorSpec("sc_qp", seed=seed))
        orc = solve_qp_exact(qp)
        member, _ = project_dual(orc, np.zeros(orc.dual.m))
        p = DualPoint.from_vector(member, qp.m1)
        stat = qp.smooth.grad(orc.primal_point) + qp.eq_matrix().T @ p.lam + qp.grad_g(orc.primal_point) @ p.mu
        res = kkt_residual(qp, orc.primal_point, p, stat)
        assert res.max_violation() <= 1e-10

    def test_degenerate_dual_dimension(self):
        prog = generate(GeneratorSpec("degenerate_dual_qp", seed=3))
        orc = solve_qp_exact(prog)
        # stationarity rows plus pinned coordinates leave a dual affine
        # family of dimension >= 1
        E = orc.dual.eq_mat
        pins = np.zeros((len(orc.dual.zero_idx), E.shape[1]))
        for r, i in enumerate(orc.dual.zero_idx):
            pins[r, i] = 1.0
        stacked = np.vstack([E, pins])
        rank = np.linalg.matrix_rank(stacked, tol=1e-9)
        assert E.shape[1] - rank >= 1


class TestProjections:
    def test_dual_idempotent(self, sc_qp7):
        orc = solve_qp_exact(sc_qp7)
        member, _ = project_dual(orc, np.ones(orc.dual.m))
        again, dist = project_dual(orc, member)
        assert dist <= 1e-10
        np.testing.assert_allclose(again, member, atol=1e-10)

    def test_dual_ray_structure(self):
        # {(lam, mu): lam = 0, mu >= 0}: projection of (1, -1) is the origin
        poly = DualPolyhedron(
            eq_mat=np.array([[1.0, 0.0]]), eq_rhs=np.zeros(1),
            zero_idx=(), nonneg_idx=(1,),
        )
        proj, dist = poly.project(np.array([1.0, -1.0]))
        np.testing.assert_allclose(proj, [0.0, 0.0], atol=1e-12)
        assert dist == pytest.approx(np.sqrt(2.0))

    def test_primal_point_idempotent(self, reference1d):
        orc = solve_qp_exact(reference1d)
        _, dist = project_primal(orc, np.ones(1))
        assert dist == 0.0
        _, dist = project_primal(orc, np.array([2.0 / 3.0]))
        assert dist == pytest.approx(1.0 / 3.0)

    def test_primal_affine_set(self):
        # X* = {x : x1 = 0} in R^2
        orc = SolutionSetOracle(
            primal_point=np.zeros(2),
            primal_basis=np.array([[0.0], [1.0]]),
            dual=DualPolyhedron(np.zeros((0, 1)), np.zeros(0), (), ()),
        )
        proj, dist = project_primal(orc, np.array([3.0, 5.0]))
        np.testing.assert_allclose(proj, [0.0, 5.0])
        assert dist == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_dual_projection_variational_inequality(self, seed):
        # z = proj(p) iff (p - z) . (m - z) <= 0 for every member m; check
        # against members produced by projecting other random points
        prog = generate(GeneratorSpec("degenerate_dual_qp", seed=seed))
        orc = solve_qp_exact(prog)
        rng = np.random.default_rng(seed)
        points = [rng.normal(size=orc.dual.m) * 3 for _ in range(8)]
        projections = [project_dual(orc, q)[0] for q in points]
        for q, z in zip(points, projections):
            assert orc.dual.contains(z, tol=1e-8)
            for m in projections:
                assert (q - z) @ (m - z) <= 1e-8
            # the reported distance is also the minimum over known members
            dist = np.linalg.norm(q - z)
            for m in projections:
                assert dist <= np.linalg.norm(q - m) + 1e-10

    def test_oracle_json_round_trip(self, tmp_path, sc_qp7):
        orc = solve_qp_exact(sc_qp7)
        path = tmp_path / "oracle.json"
        orc.to_json(path)
        back = SolutionSetOracle.from_json(path)
        np.testing.assert_array_equal(back.primal_point, orc.primal_point)
        assert back.fingerprint == orc.fingerprint
        p = np.ones(orc.dual.m)
        np.testing.assert_allclose(project_dual(back, p)[0], project_dual(orc, p)[0], atol=1e-12)


class TestEstimateKappa:
    def test_reference_exact_trace_bound(self, reference1d):
        # exact mode: (y, u) = (0, -h(x_k)); the ratio is sqrt(2), below the
        # golden-ratio singular value of the inverse optimality system
        orc = solve_qp_exact(reference1d)
        hist = run(reference1d, PenaltySchedule.fixed(2.0), sigma=0.0,
                   tol=1e-10, max_outer=30, inner=InnerOptions(exact=True))
        est = estimate_kappa(hist, orc)
        assert est.kappa_hat == pytest.approx(np.sqrt(2.0), rel=1e-6)
        assert est.kappa_hat <= PHI
        assert est.epsilon_used > 0

    def test_single_exact_iterate_has_no_samples(self, reference1d):
        orc = solve_qp_exact(reference1d)
        hist = run(reference1d, PenaltySchedule.fixed(2.0), sigma=0.5,
                   p0=DualPoint(np.array([-1.0]), np.zeros(0)),
                   x0=np.ones(1), tol=1e-6, max_outer=5,
                   inner=InnerOptions(exact=True))
        assert len(hist.records) == 1
        with pytest.raises(NoValidSamplesError):
            estimate_kappa(hist, orc)

    def test_stability_across_starts(self):
        qp = generate(GeneratorSpec("sc_qp", seed=9))
        orc = solve_qp_exact(qp)
        h1 = run(qp, PenaltySchedule.fixed(50.0), sigma=0.5, tol=1e-9, max_outer=300)
        h2 = run(qp, PenaltySchedule.fixed(50.0), sigma=0.5, tol=1e-9, max_outer=300,
                 x0=np.full(qp.n, 3.0), w0=np.full(qp.n, -1.0))
        k1 = estimate_kappa(h1, orc).kappa_hat
        k2 = estimate_kappa(h2, orc).kappa_hat
        assert k1 / k2 <= 2.0 and k2 / k1 <= 2.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_holds_on_held_out_run(self, seed):
        # the estimate from one run bounds a second run's iterates with a
        # factor-two margin
        qp = generate(GeneratorSpec("sc_qp", seed=seed))
        orc = solve_qp_exact(qp)
        h1 = run(qp, PenaltySchedule.fixed(50.0), sigma=0.5, tol=1e-9, max_outer=300)
        kappa = estimate_kappa(h1, orc).kappa_hat
        h2 = run(qp, PenaltySchedule.fixed(50.0), sigma=0.5, tol=1e-9, max_outer=300,
                 x0=np.full(qp.n, -2.0))
        from almlab.oracle import joint_distance

        for rec in h2.records:
            resid = rec.residual()
            if resid < 1e-13:
                continue
            assert joint_distance(orc, rec.x, rec.p.as_vector()) <= 2.0 * kappa * resid + 1e-9
