import numpy as np
import pytest

from almlab import (
    BoxL1Regularizer,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    QuadraticObjective,
    auglag_eval,
    generate,
    prox_grad_step,
    solve_subproblem,
)
from almlab.errors import MaxInnerIterationsError, NonFiniteError


class TestSolveSubproblem:
    def test_reference_closed_form_exact(self, reference1d):
        # argmin of 0.5 x^2 + lam (x-1) + (c/2)(x-1)^2 is (c - lam)/(1 + c)
        res = solve_subproblem(
            reference1d, DualPoint(np.zeros(1), np.zeros(0)), 2.0, 0.0,
            np.zeros(1), np.zeros(1), InnerOptions(exact=True),
        )
        np.testing.assert_allclose(res.x, [2.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(res.y, 0.0)
        assert res.criterion.satisfied

    def test_warm_start_at_minimizer_returns_immediately(self, reference1d):
        p = DualPoint(np.zeros(1), np.zeros(0))
        x_star = np.array([2.0 / 3.0])
        res = solve_subproblem(reference1d, p, 2.0, 0.5, np.zeros(1), x_star)
        assert res.inner_iters == 0
        assert np.linalg.norm(res.y) <= 1e-10
        assert res.criterion.satisfied

    def test_looser_sigma_needs_fewer_iterations(self):
        # not guaranteed instance-by-instance; assert the trend over seeds
        from almlab import PenaltySchedule, run

        wins, loose_total, tight_total = 0, 0, 0
        for seed in range(5):
            qp = generate(GeneratorSpec("sc_qp", seed=seed))
            loose = run(qp, PenaltySchedule.fixed(100.0), sigma=0.9, tol=1e-8, max_outer=300)
            tight = run(qp, PenaltySchedule.fixed(100.0), sigma=0.01, tol=1e-8, max_outer=300)
            assert loose.status == tight.status == "Converged"
            wins += loose.total_inner_iters() < tight.total_inner_iters()
            loose_total += loose.total_inner_iters()
            tight_total += tight.total_inner_iters()
        assert wins >= 4
        assert loose_total < tight_total

    def test_result_satisfies_both_conditions(self, sc_qp7):
        p = DualPoint(np.array([0.1, -0.1]), np.array([0.2, 0.0, 0.1]))
        res = solve_subproblem(sc_qp7, p, 10.0, 0.5, np.zeros(6), np.zeros(6))
        assert res.criterion.satisfied
        # certificate: y equals the smooth gradient of L_c at (x, p_prev)
        ev = auglag_eval(sc_qp7, res.x, p, 10.0)
        gap = np.linalg.norm(res.y - ev.smooth_grad)
        assert gap <= max(1e-10, 1e-9 if not res.y.any() else 1e-10)

    def test_max_inner_raises(self, sc_qp7):
        p = DualPoint.zeros(2, 3)
        with pytest.raises(MaxInnerIterationsError):
            solve_subproblem(sc_qp7, p, 10.0, 0.01, np.zeros(6), np.full(6, 5.0),
                             InnerOptions(max_inner=1))

    def test_unbounded_subproblem_surfaces_nonfinite(self):
        # linear objective, no constraints: the subproblem value diverges and
        # the iterates overflow
        prog = ConvexProgram(smooth=QuadraticObjective(np.zeros((1, 1)), np.array([-1.0])))
        with pytest.raises((NonFiniteError, MaxInnerIterationsError)):
            solve_subproblem(prog, DualPoint.zeros(0, 0), 1.0, 0.5,
                             np.zeros(1), np.zeros(1), InnerOptions(max_inner=5000))

    def test_mu_negative_rejected(self, sc_qp7):
        with pytest.raises(ValueError):
            solve_subproblem(sc_qp7, DualPoint(np.zeros(2), np.array([-1.0, 0, 0])),
                             1.0, 0.5, np.zeros(6), np.zeros(6))

    def test_exact_mode_requires_affine_qp(self):
        prog = generate(GeneratorSpec("quad_ineq", seed=0))
        with pytest.raises(ValueError):
            solve_subproblem(prog, DualPoint.zeros(0, 1), 1.0, 0.0,
                             np.zeros(prog.n), np.zeros(prog.n), InnerOptions(exact=True))

    def test_descent_along_inner_iterations(self, sc_qp7):
        p = DualPoint.zeros(2, 3)
        res = solve_subproblem(sc_qp7, p, 50.0, 0.1, np.zeros(6), np.full(6, 2.0),
                               InnerOptions(track_values=True))
        vals = res.values
        assert len(vals) >= 2
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12 * (1 + abs(a))

    @pytest.mark.parametrize("seed", range(8))
    def test_termination_on_strongly_convex(self, seed):
        # criterion met within the default cap for sigma >= 0.01
        qp = generate(GeneratorSpec("sc_qp", seed=seed))
        p = DualPoint.zeros(qp.m1, qp.m2)
        res = solve_subproblem(qp, p, 100.0, 0.01, np.zeros(qp.n), np.zeros(qp.n))
        assert res.inner_iters <= 10000


class TestInnerOptions:
    def test_defaults_are_valid(self):
        InnerOptions()
        InnerOptions(max_inner=0, exact_tol=0.0, snap_tol=0.0)

    @pytest.mark.parametrize("field, value", [
        ("max_inner", -1),
        ("armijo_factor", float("nan")),
        ("armijo_factor", 0.0),
        ("armijo_factor", 1.0),
        ("armijo_factor", 2.0),
        ("armijo_decrease", float("nan")),
        ("armijo_decrease", 0.0),
        ("armijo_decrease", 1.0),
        ("max_backtracks", 0),
        ("exact_tol", float("nan")),
        ("exact_tol", float("inf")),
        ("exact_tol", -1e-12),
        ("snap_tol", float("nan")),
        ("snap_tol", float("inf")),
        ("snap_tol", -1e-13),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            InnerOptions(**{field: value})


class TestProxGradStep:
    def test_smooth_certificate_is_gradient(self, sc_qp7):
        p = DualPoint.zeros(2, 3)
        x = np.full(6, 0.7)
        x_next, y = prox_grad_step(sc_qp7, p, 5.0, x, 0.01)
        ev = auglag_eval(sc_qp7, x_next, p, 5.0)
        np.testing.assert_allclose(y, ev.smooth_grad, atol=1e-14)

    def test_stationary_fixed_point(self, reference1d):
        p = DualPoint(np.zeros(1), np.zeros(0))
        x_star = np.array([2.0 / 3.0])  # exact minimizer for c = 2
        x_next, y = prox_grad_step(reference1d, p, 2.0, x_star, 0.1)
        np.testing.assert_allclose(x_next, x_star, atol=1e-15)
        assert np.linalg.norm(y) <= 1e-14

    def test_box_clipping_normal_cone_signs(self):
        # min 0.5||x - (2, -2)||^2 with box [0,1]^2: prox clips, residual in
        # the normal cone (>= 0 at the upper bound, <= 0 at the lower bound)
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(2), np.array([-2.0, 2.0])),
            nonsmooth=BoxL1Regularizer(2, lo=np.zeros(2), hi=np.ones(2)),
        )
        x = np.array([0.5, 0.5])
        x_next, y = prox_grad_step(prog, DualPoint.zeros(0, 0), 1.0, x, 1.0)
        np.testing.assert_allclose(x_next, [1.0, 0.0])
        resid = y - prog.smooth.grad(x_next)
        assert resid[0] >= -1e-12  # at hi
        assert resid[1] <= 1e-12  # at lo
        assert prog.nonsmooth.contains_subgradient(x_next, resid)

    def test_nonpositive_step_rejected(self, reference1d):
        with pytest.raises(ValueError):
            prox_grad_step(reference1d, DualPoint(np.zeros(1), np.zeros(0)),
                           1.0, np.zeros(1), 0.0)


class TestCompositeCertificates:
    @pytest.mark.parametrize("seed", range(3))
    def test_box_composite_residual_membership(self, seed):
        prog = generate(GeneratorSpec("box_composite", seed=seed))
        p = DualPoint.zeros(prog.m1, prog.m2)
        res = solve_subproblem(prog, p, 10.0, 0.3, np.zeros(prog.n), prog.interior_point)
        ev = auglag_eval(prog, res.x, p, 10.0)
        resid = res.y - ev.smooth_grad
        assert prog.nonsmooth.contains_subgradient(res.x, resid, tol=1e-8)

    def test_l1_certificate_within_weights(self):
        # weighted l1 without a box: residual components within [-w, w],
        # equal to +-w off the zero set
        w = 0.7
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(2), np.array([-3.0, 0.1])),
            nonsmooth=BoxL1Regularizer(2, l1_weight=w),
        )
        res = solve_subproblem(prog, DualPoint.zeros(0, 0), 1.0, 0.0,
                               np.zeros(2), np.zeros(2), InnerOptions(snap_tol=1e-12))
        resid = res.y - prog.smooth.grad(res.x)
        assert np.all(np.abs(resid) <= w + 1e-8)
        for i in range(2):
            if abs(res.x[i]) > 1e-9:
                assert abs(abs(resid[i]) - w) <= 1e-6
