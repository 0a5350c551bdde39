import numpy as np
import pytest

from almlab import (
    AffineInequality,
    BoxL1Regularizer,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    QuadraticObjective,
    auglag_eval,
    generate,
    solve_subproblem,
)
from almlab import inner as inner_mod
from almlab.auglag import lc_evaluator
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

    @pytest.mark.parametrize("exact", [False, True])
    def test_sigma_one_rejected(self, sc_qp7, exact):
        with pytest.raises(ValueError, match=r"sigma must lie in \[0, 1\)"):
            solve_subproblem(sc_qp7, DualPoint.zeros(2, 3), 1.0, 1.0,
                             np.zeros(6), np.zeros(6), InnerOptions(exact=exact))

    def test_mu_negative_rejected(self, sc_qp7):
        with pytest.raises(ValueError):
            solve_subproblem(sc_qp7, DualPoint(np.zeros(2), np.array([-1.0, 0, 0])),
                             1.0, 0.5, np.zeros(6), np.zeros(6))

    def test_exact_mode_polishes_a_stalled_active_set(self, monkeypatch):
        # min 0.5 x1^2 - x2 s.t. x2 <= 1 at c = 1, p = 0: with the row
        # inactive the Newton matrix diag(1, 0) is singular, lstsq lands on
        # x = 0 where the row is still inactive, and the active set repeats.
        # Gradient steps carry x2 past 1, after which one Newton step on the
        # active row solves exactly: x = (0, 2).
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.diag([1.0, 0.0]), np.array([0.0, -1.0])),
            ineqs=(AffineInequality(np.array([0.0, 1.0]), 1.0),),
        )
        calls = []

        def counting_evaluator(*args):
            lc_at = lc_evaluator(*args)

            def counting_eval(x):
                calls.append(x)
                return lc_at(x)

            counting_eval.value_stage, counting_eval.grad_stage = lc_at.value_stage, lc_at.grad_stage
            return counting_eval

        monkeypatch.setattr(inner_mod, "lc_evaluator", counting_evaluator)
        res = solve_subproblem(prog, DualPoint.zeros(0, 1), 1.0, 0.5,
                               np.zeros(2), np.zeros(2), InnerOptions(exact=True))
        assert res.x.tolist() == [0.0, 2.0]
        assert res.inner_iters == 3
        assert res.criterion.satisfied and not res.y.any()
        # one evaluation per Newton step and one per polish step
        assert len(calls) == 3 + 200

    def test_exact_mode_keeps_max_inner(self):
        # from x = 5 * 1 at c = 1e4 the Newton iteration reaches a gradient
        # norm of at most 1e-12 at step 5; step 4's is at most 1e-10, so a cap
        # of 4 accepts that point with y = 0, and smaller caps fail
        prog = generate(GeneratorSpec("sc_qp", n=50, m1=10, m2=20, seed=3))
        args = (prog, DualPoint.zeros(prog.m1, prog.m2), 1e4, 0.5, np.zeros(prog.n), np.full(prog.n, 5.0))
        assert solve_subproblem(*args, InnerOptions(exact=True)).inner_iters == 5
        capped = solve_subproblem(*args, InnerOptions(max_inner=4, exact=True))
        assert capped.inner_iters == 4 and not capped.y.any()
        assert 1e-12 < np.linalg.norm(capped.lc.smooth_grad) <= 1e-10
        for max_inner in (0, 1, 3):
            with pytest.raises(MaxInnerIterationsError, match="did not converge"):
                solve_subproblem(*args, InnerOptions(max_inner=max_inner, exact=True))

    @pytest.mark.parametrize("exact", [False, True])
    def test_nan_penalty_rejected(self, sc_qp7, exact):
        with pytest.raises(ValueError, match="penalty parameter c must be positive"):
            solve_subproblem(sc_qp7, DualPoint.zeros(2, 3), float("nan"), 0.5,
                             np.zeros(6), np.zeros(6), InnerOptions(exact=exact))

    def test_exact_mode_requires_affine_qp(self):
        prog = generate(GeneratorSpec("quad_ineq", seed=0))
        with pytest.raises(ValueError):
            solve_subproblem(prog, DualPoint.zeros(0, 1), 1.0, 0.0,
                             np.zeros(prog.n), np.zeros(prog.n), InnerOptions(exact=True))

    def test_descent_along_inner_iterations(self, sc_qp7):
        p = DualPoint.zeros(2, 3)
        res = solve_subproblem(sc_qp7, p, 50.0, 0.1, np.zeros(6), np.full(6, 2.0))
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


class TestFailureMessages:
    """Each failure of the inexact solver keeps its text and appends the
    last trial step and the backtrack count."""

    TAIL = r"; last trial step \d\.\d{3}e[+-]\d+, \d+ backtracks$"

    def test_non_finite_initial_gradient(self):
        prog = ConvexProgram(smooth=QuadraticObjective(np.eye(1), np.zeros(1)))
        with np.errstate(invalid="ignore"), pytest.raises(
                NonFiniteError, match=r"^non-finite gradient at the initial point; "
                                      r"no trial step taken, 0 backtracks$"):
            solve_subproblem(prog, DualPoint.zeros(0, 0), 1.0, 0.5, np.zeros(1), np.array([np.inf]))

    def test_line_search_failure(self):
        # q'x overflows to -inf at every step down to 2^-59
        prog = ConvexProgram(smooth=QuadraticObjective(np.zeros((1, 1)), np.array([-1e308])))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^line search failed to find a finite decreasing step; "
                                      r"the subproblem value may be unbounded below; "
                                      r"last trial step 1\.735e-18, 60 backtracks$"):
            solve_subproblem(prog, DualPoint.zeros(0, 0), 1.0, 0.5, np.zeros(1), np.zeros(1))

    def test_frozen_iterates(self):
        # the certified step 1e-8 moves x2 = 1e10 by less than half an ulp,
        # while the gradient in x2 stays 1 and the criterion needs y = 0
        prog = ConvexProgram(smooth=QuadraticObjective(np.diag([1e8, 1.0]), np.array([0.0, -(1e10 - 1)])))
        with pytest.raises(MaxInnerIterationsError,
                           match=r"^inner iterates frozen at the floating-point floor with certificate "
                                 r"norm 1\.000e\+00 \(c=1, sigma=0\.5\); last trial step 1\.000e-08, 0 backtracks$"):
            solve_subproblem(prog, DualPoint.zeros(0, 0), 1.0, 0.5, np.zeros(2), np.array([0.0, 1e10]))

    def test_criterion_not_met(self, sc_qp7):
        with pytest.raises(MaxInnerIterationsError,
                           match=r"^criterion not met within 1 inner iterations \(c=10, sigma=0\.01\); "
                                 r"the subproblem may be ill-posed" + self.TAIL):
            solve_subproblem(sc_qp7, DualPoint.zeros(2, 3), 10.0, 0.01, np.zeros(6), np.full(6, 5.0),
                             InnerOptions(max_inner=1))


class TestInnerOptions:
    def test_defaults_are_valid(self):
        InnerOptions()
        InnerOptions(max_inner=0)

    @pytest.mark.parametrize("field, value", [
        ("max_inner", -1),
    ])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            InnerOptions(**{field: value})


class TestLineSearchStep:
    """The composite gradient step inside the inner solver's line search."""

    @staticmethod
    def step(prog, p, c, x, t):
        lc_at = lc_evaluator(prog, p, c)
        curv = inner_mod.smooth_curvature_bound(prog, c)
        t_safe = 1.0 / curv if curv else None
        return inner_mod._line_search(lc_at, prog.nonsmooth, x, lc_at(x), t, t_safe)[:5]

    def test_smooth_certificate_is_gradient(self, sc_qp7):
        p = DualPoint.zeros(2, 3)
        x = np.full(6, 0.7)
        x_next, y, nxt, t, bt = self.step(sc_qp7, p, 5.0, x, 0.01)
        assert (t, bt) == (0.01, 0)
        ev = auglag_eval(sc_qp7, x_next, p, 5.0)
        np.testing.assert_allclose(y, ev.smooth_grad, atol=1e-14)
        np.testing.assert_array_equal(nxt.smooth_grad, ev.smooth_grad)

    def test_stationary_fixed_point(self, reference1d):
        p = DualPoint(np.zeros(1), np.zeros(0))
        x_star = np.array([2.0 / 3.0])  # exact minimizer for c = 2
        x_next, y, _, _, _ = self.step(reference1d, p, 2.0, x_star, 0.1)
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
        x_next, y, _, _, _ = self.step(prog, DualPoint.zeros(0, 0), 1.0, x, 1.0)
        np.testing.assert_allclose(x_next, [1.0, 0.0])
        resid = y - prog.smooth.grad(x_next)
        assert resid[0] >= -1e-12  # at hi
        assert resid[1] <= 1e-12  # at lo
        assert prog.nonsmooth.contains_subgradient(x_next, resid)


class TestCompositeCertificates:
    @pytest.mark.parametrize("seed", range(3))
    def test_box_composite_residual_membership(self, seed):
        prog = generate(GeneratorSpec("box_composite", seed=seed))
        p = DualPoint.zeros(prog.m1, prog.m2)
        res = solve_subproblem(prog, p, 10.0, 0.3, np.zeros(prog.n), prog.interior_point)
        ev = auglag_eval(prog, res.x, p, 10.0)
        resid = res.y - ev.smooth_grad
        assert prog.nonsmooth.contains_subgradient(res.x, resid, tol=1e-8)

    def test_l1_certificate_within_weights(self, monkeypatch):
        # weighted l1 without a box: residual components within [-w, w],
        # equal to +-w off the zero set
        w = 0.7
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(2), np.array([-3.0, 0.1])),
            nonsmooth=BoxL1Regularizer(2, l1_weight=w),
        )
        monkeypatch.setattr(inner_mod, "_SNAP_TOL", 1e-12)
        res = solve_subproblem(prog, DualPoint.zeros(0, 0), 1.0, 0.0,
                               np.zeros(2), np.zeros(2))
        resid = res.y - prog.smooth.grad(res.x)
        assert np.all(np.abs(resid) <= w + 1e-8)
        for i in range(2):
            if abs(res.x[i]) > 1e-9:
                assert abs(abs(resid[i]) - w) <= 1e-6


class TestCallAccounting:
    """Every trial of the line search evaluates the objective's value and
    g; only the start point and each accepted trial evaluate the objective's
    gradient. The certificate floor reads g and the objective's gradient at
    the start point from the start point's evaluation."""

    @pytest.mark.parametrize("spec", [
        GeneratorSpec("sc_qp", seed=0),
        GeneratorSpec("box_composite", seed=0),
        GeneratorSpec("sc_qp", n=200, seed=0),
    ], ids=["sc_qp", "box_composite", "sc_qp-n200"])
    @pytest.mark.parametrize("c, sigma", [(10.0, 0.5), (1e3, 0.01)])
    def test_value_per_trial_grad_per_accepted_step(self, spec, c, sigma, monkeypatch):
        calls = {"value": 0, "grad": 0, "eval_g": 0}
        for name, cls in (("value", QuadraticObjective), ("grad", QuadraticObjective), ("eval_g", ConvexProgram)):
            production = getattr(cls, name)

            def counted(self, x, name=name, production=production):
                calls[name] += 1
                return production(self, x)

            monkeypatch.setattr(cls, name, counted)
        prog = generate(spec)
        x0 = prog.interior_point if prog.interior_point is not None else np.zeros(prog.n)
        res = solve_subproblem(prog, DualPoint.zeros(prog.m1, prog.m2), c, sigma, np.zeros(prog.n), x0)
        # at the large penalty every case backtracks: rejected trials are counted
        assert c < 1e3 or res.backtracks > 0
        assert calls["value"] == res.inner_iters + res.backtracks + 2
        assert calls["grad"] == res.inner_iters + 2
        # one per trial and one at the start point, whether m2 is 0 or not
        assert calls["eval_g"] == res.inner_iters + res.backtracks + 2
