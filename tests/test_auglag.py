import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from almlab import (
    AffineInequality,
    ConvexProgram,
    DualPoint,
    QuadraticObjective,
    auglag_eval,
    aux_update,
    criterion_eval,
    multiplier_update,
)

from conftest import make_halfspace_qp


class TestAugLagEval:
    def test_reference_hand_value(self, reference1d):
        ev = auglag_eval(reference1d, np.zeros(1), DualPoint(np.zeros(1), np.zeros(0)), 2.0)
        assert ev.value == pytest.approx(1.0)
        np.testing.assert_allclose(ev.smooth_grad, [-2.0])

    def test_inequality_max_branch(self):
        # mu=1, c=1, g(x) = -5 at x: penalty term (1/2)((max(0, 1-5))^2 - 1) = -0.5
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.zeros((1, 1)), np.zeros(1)),
            ineqs=(AffineInequality(np.array([1.0]), 5.0),),
        )
        ev = auglag_eval(prog, np.zeros(1), DualPoint(np.zeros(0), np.array([1.0])), 1.0)
        assert ev.value == pytest.approx(-0.5)
        np.testing.assert_allclose(ev.shifted_mu, [0.0])

    def test_interior_feasible_zero_multipliers(self):
        prog = make_halfspace_qp()
        x = np.array([-3.0, 1.0])  # g(x) = -2 < 0
        ev = auglag_eval(prog, x, DualPoint.zeros(0, 1), 1.0)
        assert ev.value == pytest.approx(prog.f_value(x))

    def test_shifted_mu_nonnegative_and_grad_transfer(self, sc_qp7):
        p = DualPoint(np.array([0.3, -0.2]), np.array([0.5, 0.0, 1.0]))
        x = np.ones(sc_qp7.n) * 0.4
        c = 7.0
        ev = auglag_eval(sc_qp7, x, p, c)
        assert (ev.shifted_mu >= 0).all()
        p_new, _ = multiplier_update(p, c, sc_qp7.eval_h(x), sc_qp7.eval_g(x))
        expected = (
            sc_qp7.smooth.grad(x)
            + sc_qp7.eq_matrix().T @ p_new.lam
            + sc_qp7.grad_g(x) @ p_new.mu
        )
        np.testing.assert_allclose(ev.smooth_grad, expected, atol=1e-12)

    def test_grad_matches_finite_differences(self, sc_qp7):
        p = DualPoint(np.array([0.1, 0.2]), np.array([0.4, 0.0, 0.9]))
        x = np.full(sc_qp7.n, 0.3)
        c = 3.0
        ev = auglag_eval(sc_qp7, x, p, c)
        step = 1e-6
        fd = np.array([
            (auglag_eval(sc_qp7, x + step * e, p, c).value
             - auglag_eval(sc_qp7, x - step * e, p, c).value) / (2 * step)
            for e in np.eye(sc_qp7.n)
        ])
        assert np.linalg.norm(fd - ev.smooth_grad) <= 1e-6 * max(1.0, np.linalg.norm(ev.smooth_grad))

    @pytest.mark.parametrize("c", [0.0, float("nan")])
    def test_nonpositive_c_rejected(self, reference1d, c):
        with pytest.raises(ValueError):
            auglag_eval(reference1d, np.zeros(1), DualPoint(np.zeros(1), np.zeros(0)), c)


class TestMultiplierUpdate:
    def test_equality_update(self):
        p, delta = multiplier_update(DualPoint(np.zeros(1), np.zeros(0)), 2.0, np.array([0.5]), np.zeros(0))
        np.testing.assert_allclose(p.lam, [1.0])
        np.testing.assert_allclose(delta, [-1.0])

    def test_max_branch_per_component(self):
        p, delta = multiplier_update(
            DualPoint(np.zeros(0), np.array([1.0, 0.0])), 2.0, np.zeros(0), np.array([-1.0, 0.25])
        )
        np.testing.assert_allclose(p.mu, [0.0, 0.5])
        np.testing.assert_allclose(delta, [1.0, -0.5])

    def test_fixed_point_at_feasibility(self):
        p_prev = DualPoint(np.zeros(1), np.zeros(2))
        p, delta = multiplier_update(p_prev, 5.0, np.zeros(1), np.array([-0.3, -0.1]))
        np.testing.assert_allclose(p.as_vector(), p_prev.as_vector())
        np.testing.assert_allclose(delta, 0.0)

    def test_mu_stays_nonnegative(self):
        p, _ = multiplier_update(DualPoint(np.zeros(0), np.array([0.2])), 1.0, np.zeros(0), np.array([-9.0]))
        assert (p.mu >= 0).all()

    @pytest.mark.parametrize("c", [-1.0, float("nan")])
    def test_nonpositive_c_rejected(self, c):
        with pytest.raises(ValueError):
            multiplier_update(DualPoint.zeros(1, 0), c, np.zeros(1), np.zeros(0))


class TestAuxUpdate:
    def test_exact_solve_leaves_w(self):
        np.testing.assert_allclose(aux_update(np.array([1.0, 1.0]), 2.0, np.zeros(2)), [1.0, 1.0])

    def test_direct_arithmetic(self):
        np.testing.assert_allclose(aux_update(np.array([0.0]), 2.0, np.array([0.5])), [-1.0])

    def test_cancellation(self):
        w = np.array([3.0, -2.0])
        np.testing.assert_allclose(aux_update(w, 4.0, w / 4.0), 0.0)


class TestCriterionEval:
    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), 1e-170])
    def test_penalty_whose_square_is_not_positive_rejected(self, c):
        # sigma / (c * c) divides by zero for c = 1e-170
        with pytest.raises(ValueError, match=r"c must be positive, with c \* c > 0"):
            criterion_eval(c=c, sigma=0.5, w_prev=np.zeros(1), x=np.zeros(1), y=np.zeros(1),
                           h_val=np.array([0.7]), g_val=np.zeros(0), mu_prev=np.zeros(0),
                           delta_p=np.array([-0.7]))

    def test_exact_solve_satisfies_any_sigma(self):
        rep = criterion_eval(
            c=3.0, sigma=0.0, w_prev=np.array([5.0]), x=np.zeros(1), y=np.zeros(1),
            h_val=np.array([0.7]), g_val=np.zeros(0), mu_prev=np.zeros(0),
            delta_p=np.array([-2.1]),
        )
        assert rep.lhs == 0.0
        assert rep.satisfied

    def test_direct_substitution(self):
        # w = x, ||y||^2 = 0.01, sigma = 0.5, residual term 0.09
        rep = criterion_eval(
            c=2.0, sigma=0.5, w_prev=np.zeros(1), x=np.zeros(1), y=np.array([0.1]),
            h_val=np.array([0.3]), g_val=np.zeros(0), mu_prev=np.zeros(0),
            delta_p=np.array([-0.6]),
        )
        assert rep.lhs == pytest.approx(0.01)
        assert rep.rhs_raw == pytest.approx(0.045)
        assert rep.satisfied

    def test_identity_hand_case(self):
        mu_prev = np.array([1.0, 0.0])
        g = np.array([-1.0, 0.25])
        _, delta = multiplier_update(DualPoint(np.zeros(0), mu_prev), 2.0, np.zeros(0), g)
        rep = criterion_eval(
            c=2.0, sigma=0.5, w_prev=np.zeros(2), x=np.zeros(2), y=np.zeros(2),
            h_val=np.zeros(0), g_val=g, mu_prev=mu_prev, delta_p=delta,
        )
        assert rep.rhs_raw / 0.5 == pytest.approx(0.3125)
        assert rep.rhs_rewritten / 0.5 == pytest.approx(0.3125)

    def test_zero_equals_zero_is_satisfied(self):
        rep = criterion_eval(
            c=1.0, sigma=0.0, w_prev=np.zeros(1), x=np.zeros(1), y=np.zeros(1),
            h_val=np.zeros(1), g_val=np.zeros(0), mu_prev=np.zeros(0), delta_p=np.zeros(1),
        )
        assert rep.satisfied

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            criterion_eval(1.0, 1.0, np.zeros(1), np.zeros(1), np.zeros(1),
                           np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        for c in (0.0, float("nan")):
            with pytest.raises(ValueError):
                criterion_eval(c, 0.5, np.zeros(1), np.zeros(1), np.zeros(1),
                               np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))

    @given(
        c=st.floats(0.01, 1e4),
        mu=hnp.arrays(np.float64, 4, elements=st.floats(0, 10)),
        g=hnp.arrays(np.float64, 4, elements=st.floats(-10, 10)),
        h=hnp.arrays(np.float64, 3, elements=st.floats(-10, 10)),
    )
    @settings(max_examples=300, deadline=None)
    def test_identity_property(self, c, mu, g, h):
        """The rewritten right-hand side always agrees with the raw form."""
        _, delta = multiplier_update(DualPoint(np.zeros(3), mu), c, h, g)
        rep = criterion_eval(
            c=c, sigma=0.7, w_prev=np.zeros(2), x=np.zeros(2), y=np.zeros(2),
            h_val=h, g_val=g, mu_prev=mu, delta_p=delta,
        )
        tol = 1e-10 * max(rep.rhs_raw, rep.rhs_rewritten, 1e-300)
        assert abs(rep.rhs_raw - rep.rhs_rewritten) <= tol
