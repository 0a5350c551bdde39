import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almlab import (
    AffineInequality,
    BoxL1Regularizer,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    QuadraticInequality,
    QuadraticObjective,
    eval_constraints,
    generate,
    kkt_residual,
    lagrangian_value,
)
from almlab.errors import DimensionMismatchError
from almlab.problem import lagrangian_grad
from almlab.rng import Lcg

from conftest import make_halfspace_qp, make_unconstrained_1d


class TestEvalConstraints:
    def test_reference_point(self, reference1d):
        h, g = eval_constraints(reference1d, np.zeros(1))
        np.testing.assert_allclose(h, [-1.0])
        assert g.shape == (0,)

    def test_affine_identity_boundary(self):
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(2), np.zeros(2)),
            ineqs=(
                AffineInequality(np.array([1.0, 0.0]), 1.0),
                AffineInequality(np.array([0.0, 1.0]), 1.0),
            ),
        )
        _, g = eval_constraints(prog, np.array([1.0, 1.0]))
        np.testing.assert_allclose(g, [0.0, 0.0])

    def test_quadratic_root(self):
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(1), np.zeros(1)),
            ineqs=(QuadraticInequality(np.array([[1.0]]), np.zeros(1), -2.0),),
        )
        _, g = eval_constraints(prog, np.array([2.0]))
        np.testing.assert_allclose(g, [0.0])

    def test_dimension_mismatch(self, reference1d):
        with pytest.raises(DimensionMismatchError):
            eval_constraints(reference1d, np.zeros(3))

    def test_nonfinite_rejected(self, reference1d):
        with pytest.raises(ValueError):
            eval_constraints(reference1d, np.array([np.nan]))


class TestLagrangianValue:
    def test_saddle_point(self, reference1d):
        val = lagrangian_value(reference1d, np.ones(1), DualPoint(np.array([-1.0]), np.zeros(0)))
        assert val == pytest.approx(0.5)

    def test_negative_mu_sentinel(self):
        prog = make_halfspace_qp()
        val = lagrangian_value(prog, np.zeros(2), DualPoint(np.zeros(0), np.array([-0.5])))
        assert val == -math.inf

    def test_zero_multipliers(self):
        prog = make_halfspace_qp()
        x = np.array([3.0, 4.0])
        val = lagrangian_value(prog, x, DualPoint(np.zeros(0), np.zeros(1)))
        assert val == pytest.approx(prog.f_value(x))


class TestKktResidual:
    def test_exact_kkt_point(self, reference1d):
        res = kkt_residual(reference1d, np.ones(1), DualPoint(np.array([-1.0]), np.zeros(0)), np.zeros(1))
        assert res.max_violation() <= 1e-10

    def test_unconstrained_minimum(self):
        prog = make_unconstrained_1d()
        res = kkt_residual(prog, np.zeros(1), DualPoint.zeros(0, 0), np.zeros(1))
        assert res.max_violation() == 0.0

    def test_infeasible_stationary(self, reference1d):
        # gradient of 0.5 x^2 + lam*(x-1) at x=0, lam=0 is 0 but h = -1
        res = kkt_residual(reference1d, np.zeros(1), DualPoint(np.zeros(1), np.zeros(0)), np.zeros(1))
        assert res.stationarity == 0.0
        assert res.eq_feas == pytest.approx(1.0)

    def test_comp_and_mu_neg(self):
        prog = make_halfspace_qp()
        p = DualPoint(np.zeros(0), np.array([-2.0]))
        res = kkt_residual(prog, np.array([-2.0, 0.0]), p, np.zeros(2))
        assert res.mu_neg == pytest.approx(2.0)
        assert res.comp == pytest.approx(2.0)  # |mu . g| = |-2 * -1|


class TestGradientConsistency:
    @pytest.mark.parametrize("family,seed", [("sc_qp", 0), ("sc_qp", 3), ("quad_ineq", 1), ("box_composite", 2)])
    def test_finite_differences(self, family, seed):
        prog = generate(GeneratorSpec(family, seed=seed))
        rng = Lcg(seed + 1000)
        step = 1e-5
        for _ in range(100):
            x = rng.normal(prog.n)
            for value, grad in [(prog.smooth.value, prog.smooth.grad)] + [
                (g.value, g.grad) for g in prog.ineqs
            ]:
                ga = np.asarray(grad(x), dtype=float)
                gf = np.array([
                    (value(x + step * e) - value(x - step * e)) / (2 * step)
                    for e in np.eye(prog.n)
                ])
                assert np.linalg.norm(gf - ga) <= 1e-6 * max(1.0, np.linalg.norm(ga))


class TestConvexityProbe:
    @pytest.mark.parametrize("family,seed", [("sc_qp", 1), ("quad_ineq", 0), ("degenerate_dual_qp", 2)])
    def test_interpolation_inequality(self, family, seed):
        prog = generate(GeneratorSpec(family, seed=seed))
        rng = Lcg(seed + 2000)
        fns = [prog.smooth.value] + [g.value for g in prog.ineqs]
        for _ in range(100):
            x1, x2 = rng.normal(prog.n), rng.normal(prog.n)
            a = rng.uniform()
            for f in fns:
                assert f(a * x1 + (1 - a) * x2) <= a * f(x1) + (1 - a) * f(x2) + 1e-10

    def test_equality_map_is_affine(self, sc_qp7):
        rng = Lcg(5)
        for _ in range(50):
            x1, x2 = rng.normal(sc_qp7.n), rng.normal(sc_qp7.n)
            a = rng.uniform()
            lhs = sc_qp7.eval_h(a * x1 + (1 - a) * x2)
            rhs = a * sc_qp7.eval_h(x1) + (1 - a) * sc_qp7.eval_h(x2)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestBoxL1Regularizer:
    def test_prox_clips_to_box(self):
        reg = BoxL1Regularizer(2, lo=np.zeros(2), hi=np.ones(2))
        np.testing.assert_allclose(reg.prox(np.array([-3.0, 0.4]), 1.0), [0.0, 0.4])

    def test_prox_soft_threshold(self):
        reg = BoxL1Regularizer(3, l1_weight=1.0)
        np.testing.assert_allclose(reg.prox(np.array([2.0, -0.5, 0.5]), 1.0), [1.0, 0.0, 0.0])

    @given(
        v=st.floats(-5, 5),
        w=st.floats(0, 2),
        t=st.floats(0.01, 3),
        lo=st.floats(-2, 0),
        hi=st.floats(0.1, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_prox_matches_grid_search(self, v, w, t, lo, hi):
        # independent oracle: dense scalar grid minimization
        reg = BoxL1Regularizer(1, l1_weight=w, lo=lo, hi=hi)
        grid = np.linspace(lo, hi, 4001)
        obj = w * np.abs(grid) + (grid - v) ** 2 / (2 * t)
        best = grid[np.argmin(obj)]
        got = reg.prox(np.array([v]), t)[0]
        assert abs(got - best) <= (hi - lo) / 4000 + 1e-12

    def test_subgradient_membership(self):
        reg = BoxL1Regularizer(3, l1_weight=1.0, lo=-np.ones(3), hi=np.ones(3))
        x = np.array([0.5, 0.0, 1.0])
        assert reg.contains_subgradient(x, np.array([1.0, -0.3, 5.0]))
        assert not reg.contains_subgradient(x, np.array([0.5, 0.0, 0.0]))  # first: must be exactly w
        assert not reg.contains_subgradient(x, np.array([1.0, 2.0, 5.0]))  # second: |d| <= w at zero
        assert not reg.contains_subgradient(x, np.array([1.0, 0.0, 0.5]))  # third: >= w at upper bound

    def test_value_infinite_outside_box(self):
        reg = BoxL1Regularizer(1, lo=np.zeros(1), hi=np.ones(1))
        assert reg.value(np.array([2.0])) == math.inf
        assert reg.value(np.array([0.5])) == 0.0


class TestStackedRows:
    def test_ineq_matrix_and_rhs(self, sc_qp7):
        G, d = sc_qp7.ineq_matrix(), sc_qp7.ineq_rhs()
        assert G.shape == (sc_qp7.m2, sc_qp7.n) and d.shape == (sc_qp7.m2,)
        x = np.linspace(-1.0, 1.0, sc_qp7.n)
        np.testing.assert_allclose(G @ x - d, sc_qp7.eval_g(x), rtol=0, atol=1e-14)

    def test_no_inequalities(self, reference1d):
        assert reference1d.ineq_matrix().shape == (0, reference1d.n)
        assert reference1d.ineq_rhs().shape == (0,)

    def test_lagrangian_grad(self, sc_qp7):
        x = np.linspace(-1.0, 1.0, sc_qp7.n)
        p = DualPoint(np.array([0.3, -0.2]), np.array([0.5, 0.0, 1.0]))
        want = (sc_qp7.smooth.grad(x) + sc_qp7.eq_matrix().T @ p.lam
                + sc_qp7.ineq_matrix().T @ p.mu)
        np.testing.assert_allclose(lagrangian_grad(sc_qp7, x, p), want, rtol=0, atol=1e-13)


class TestProgramValidation:
    def test_eq_dimension_mismatch(self):
        from almlab import AffineMap

        with pytest.raises(DimensionMismatchError):
            ConvexProgram(
                smooth=QuadraticObjective(np.eye(2), np.zeros(2)),
                eq=AffineMap(np.ones((1, 3)), np.ones(1)),
            )

    def test_fingerprint_distinguishes(self, reference1d, sc_qp7):
        assert reference1d.fingerprint() != sc_qp7.fingerprint()
        assert reference1d.fingerprint() == generate(GeneratorSpec("reference1d")).fingerprint()
