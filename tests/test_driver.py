import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from almlab import (
    CONVERGED,
    MAX_OUTER,
    AffineInequality,
    ConvexProgram,
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    PenaltySchedule,
    QuadraticInequality,
    QuadraticObjective,
    RunHistory,
    check_stop,
    generate,
    next_penalty,
    run,
)
from almlab import driver as driver_mod
from almlab.driver import CSV_COLUMNS, IterationRecord
from almlab.errors import ProblemFormatError
from almlab.problem import KktResidual
from almlab.auglag import CriterionReport


def _record(k=1, c=10.0, eq_feas=0.0, ineq_feas=0.0, y=None, u=None):
    y = np.zeros(1) if y is None else np.asarray(y, float)
    u = np.zeros(1) if u is None else np.asarray(u, float)
    return IterationRecord(
        k=k, c=c, x=np.zeros(1), y=y, p=DualPoint(np.zeros(1), np.zeros(0)),
        w=np.zeros(1), u=u, delta_p=u * c,
        criterion=CriterionReport(0.0, 0.0, 0.0, True),
        kkt=KktResidual(float(np.linalg.norm(y)), eq_feas, ineq_feas, 0.0, 0.0),
        inner_iters=0, backtracks=0, f_val=0.0, auglag_val=0.0,
    )


class TestAnalyticRecursion:
    def test_exact_mode_dual_sequence(self, reference1d):
        hist = run(reference1d, PenaltySchedule.fixed(2.0), sigma=0.0,
                   tol=1e-300, max_outer=12, inner=InnerOptions(exact=True))
        for rec in hist.records:
            expected = -(1.0 - 3.0 ** -rec.k)
            assert rec.p.lam[0] == pytest.approx(expected, abs=1e-12)
            # primal follows x_k = (c - lam_{k-1})/(1 + c)
            assert rec.x[0] == pytest.approx(1.0 - 3.0 ** -rec.k, abs=1e-12)

    def test_start_at_solution_converges_immediately(self, reference1d):
        hist = run(reference1d, PenaltySchedule.fixed(2.0), sigma=0.5,
                   p0=DualPoint(np.array([-1.0]), np.zeros(0)),
                   x0=np.ones(1), tol=1e-8, max_outer=50,
                   inner=InnerOptions(exact=True))
        assert hist.status == CONVERGED
        assert len(hist.records) == 1
        assert hist.final().residual() <= 1e-8

    def test_seeded_qp_converges_with_small_kkt(self):
        qp = generate(GeneratorSpec("sc_qp", seed=7))
        hist = run(qp, PenaltySchedule.geometric(10.0, 1.5, 1e6), sigma=0.5,
                   tol=1e-9, max_outer=200)
        assert hist.status == CONVERGED
        assert hist.final().kkt.max_violation() <= 1e-8


class TestNextPenalty:
    def test_fixed(self):
        sched = PenaltySchedule.fixed(10.0)
        assert next_penalty(sched, 5, RunHistory([], MAX_OUTER, {})) == 10.0

    def test_geometric_cap(self):
        sched = PenaltySchedule.geometric(1.0, 2.0, 8.0)
        assert next_penalty(sched, 5, RunHistory([], MAX_OUTER, {})) == 8.0

    def test_adaptive_doubles_on_stall(self):
        sched = PenaltySchedule.adaptive(10.0, 2.0, 1e6, adapt_ratio=0.5)
        stalled = RunHistory([_record(k=1, eq_feas=1.0), _record(k=2, eq_feas=0.9)], MAX_OUTER, {})
        assert next_penalty(sched, 3, stalled) == 20.0
        improving = RunHistory([_record(k=1, eq_feas=1.0), _record(k=2, eq_feas=0.1)], MAX_OUTER, {})
        assert next_penalty(sched, 3, improving) == 10.0

    def test_adaptive_first_iteration_uses_c0(self):
        sched = PenaltySchedule.adaptive(7.0, 2.0)
        assert next_penalty(sched, 1, RunHistory([], MAX_OUTER, {})) == 7.0

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PenaltySchedule.fixed(0.0)
        with pytest.raises(ValueError):
            PenaltySchedule.geometric(1.0, 0.5)
        with pytest.raises(ValueError):
            PenaltySchedule("adaptive", 1.0, 2.0, 10.0, adapt_ratio=1.5)
        with pytest.raises(ValueError):
            PenaltySchedule("unknown", 1.0)

    @pytest.mark.parametrize("c0, growth, c_max", [
        (float("nan"), 2.0, 10.0),
        (float("inf"), 2.0, 10.0),
        (1.0, float("nan"), 10.0),
        (1.0, float("inf"), 10.0),
        (1.0, 2.0, float("nan")),
    ])
    def test_schedule_rejects_non_finite(self, c0, growth, c_max):
        with pytest.raises(ValueError):
            PenaltySchedule.geometric(c0, growth, c_max)

    def test_schedule_keeps_infinite_cap(self):
        assert PenaltySchedule.geometric(1.0, 2.0).c_max == float("inf")


class TestCheckStop:
    def test_exact_kkt_point(self):
        assert check_stop(_record(), 1e-300) == CONVERGED

    def test_threshold_comparison(self):
        rec = _record(y=[1e-3], u=[0.0])
        assert check_stop(rec, 1e-8) is None

    def test_reference_closed_form_residual(self, reference1d):
        # u_k = -h(x_k) = 3^{-k}: converged exactly when 3^{-k} <= tol
        hist = run(reference1d, PenaltySchedule.fixed(2.0), sigma=0.0,
                   tol=1e-6, max_outer=100, inner=InnerOptions(exact=True))
        k_stop = hist.final().k
        assert 3.0 ** -k_stop <= 1e-6 * (1 + 1e-9)
        assert 3.0 ** -(k_stop - 1) > 1e-6


class TestStepTwoExactness:
    def test_updates_reproduce(self):
        qp = generate(GeneratorSpec("sc_qp", seed=4))
        hist = run(qp, PenaltySchedule.geometric(10.0, 1.5, 1e6), sigma=0.5,
                   tol=1e-8, max_outer=200)
        assert hist.status == CONVERGED
        p_prev = DualPoint(np.array(hist.config["p0_lam"]), np.array(hist.config["p0_mu"]))
        w_prev = np.array(hist.config["w0"])
        for rec in hist.records:
            h = qp.eval_h(rec.x)
            g = qp.eval_g(rec.x)
            scale = rec.c * (1.0 + float(np.linalg.norm(rec.p.as_vector())))
            assert np.linalg.norm(rec.p.lam - (p_prev.lam + rec.c * h)) <= 1e-14 * scale
            assert np.linalg.norm(rec.p.mu - np.maximum(0, p_prev.mu + rec.c * g)) <= 1e-14 * scale
            assert np.linalg.norm(rec.w - (w_prev - rec.c * rec.y)) <= 1e-14 * scale
            assert np.linalg.norm(rec.u * rec.c + rec.p.as_vector() - p_prev.as_vector()) <= 1e-14 * scale
            p_prev, w_prev = rec.p, rec.w

    def test_dual_distance_monotone_tail(self):
        qp = generate(GeneratorSpec("sc_qp", seed=11))
        hist = run(qp, PenaltySchedule.fixed(30.0), sigma=0.5, tol=1e-9, max_outer=300)
        assert hist.status == CONVERGED
        p_final = hist.final().p.as_vector()
        dists = [np.linalg.norm(r.p.as_vector() - p_final) for r in hist.records]
        tail = dists[len(dists) - max(2, len(dists) // 4):-1]
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-12 * (1 + a)


class TestPpaEquivalence:
    def test_exact_mode_matches_dual_proximal_recursion(self):
        # equality-constrained QP: the dual update has the closed form
        # lam_k = (c M + I)^{-1} (c v + lam_{k-1}) with M = A Q^{-1} A',
        # v = -(A Q^{-1} q + b)
        for seed in range(3):
            qp = generate(GeneratorSpec("sc_qp", m2=0, seed=seed))
            c = 10.0
            hist = run(qp, PenaltySchedule.fixed(c), sigma=0.0, tol=1e-300,
                       max_outer=10, inner=InnerOptions(exact=True))
            Q, q = qp.smooth.Q, qp.smooth.q
            A, b = qp.eq_matrix(), qp.eq_rhs()
            M = A @ np.linalg.solve(Q, A.T)
            v = -(A @ np.linalg.solve(Q, q) + b)
            lam = np.zeros(qp.m1)
            for rec in hist.records:
                lam = np.linalg.solve(c * M + np.eye(qp.m1), c * v + lam)
                assert np.linalg.norm(rec.p.lam - lam) <= 1e-9


class TestRefusesNonConvexPrograms:
    """run checks the paper's convexity assumption before its first
    iteration: on Q = diag(1, -1) it used to stop Converged at the saddle."""

    @pytest.fixture
    def no_subproblem(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a subproblem was solved")
        monkeypatch.setattr(driver_mod, "solve_subproblem", fail)

    @pytest.mark.parametrize("exact", [False, True])
    def test_saddle_q_is_refused(self, no_subproblem, exact):
        prog = ConvexProgram(smooth=QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2)))
        with pytest.raises(ProblemFormatError, match="field 'Q'.*positive semidefinite"):
            run(prog, PenaltySchedule.fixed(10.0), 0.5, inner=InnerOptions(exact=exact))

    def test_indefinite_row_is_refused(self, no_subproblem):
        prog = ConvexProgram(
            smooth=QuadraticObjective(np.eye(2), np.zeros(2)),
            ineqs=[QuadraticInequality(np.diag([1.0, -1.0]), np.zeros(2), -1.0),
                   AffineInequality(np.ones(2), 1.0)],
        )
        with pytest.raises(ProblemFormatError, match=r"field 'ineq\[0\]\.P'.*positive semidefinite"):
            run(prog, PenaltySchedule.fixed(10.0), 0.5)

    def test_asymmetric_q_is_refused(self, no_subproblem):
        prog = ConvexProgram(smooth=QuadraticObjective([[1.0, 5.0], [-5.0, 1.0]], np.zeros(2)))
        with pytest.raises(ProblemFormatError, match="field 'Q'.*symmetric"):
            run(prog, PenaltySchedule.fixed(10.0), 0.5)

    @given(
        n=st.integers(2, 4),
        entries=st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16),
        q=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        exact=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_indefinite_q_converges(self, n, entries, q, exact):
        M = np.array(entries).reshape(4, 4)[:n, :n]
        Q = 0.5 * (M + M.T)
        ev = np.linalg.eigvalsh(Q)
        assume(ev[0] < -2e-10 * max(1.0, ev[-1]))
        prog = ConvexProgram(smooth=QuadraticObjective(Q, q[:n]))
        with pytest.raises(ProblemFormatError, match="field 'Q'"):
            run(prog, PenaltySchedule.fixed(10.0), 0.5, max_outer=20, inner=InnerOptions(exact=exact))


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        qp = generate(GeneratorSpec("sc_qp", seed=2))
        hist = run(qp, PenaltySchedule.geometric(10.0, 1.5, 1e6), sigma=0.5,
                   tol=1e-8, max_outer=100)
        path = tmp_path / "trace.json"
        hist.to_json(path)
        back = RunHistory.from_json(path)
        assert back.status == hist.status
        assert back.config == hist.config
        assert len(back.records) == len(hist.records)
        for a, b in zip(hist.records, back.records):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.p.as_vector(), b.p.as_vector())
            assert a.criterion.satisfied == b.criterion.satisfied

    def test_csv_columns_and_determinism(self, tmp_path):
        qp = generate(GeneratorSpec("sc_qp", seed=2))
        paths = []
        for i in range(2):
            hist = run(qp, PenaltySchedule.fixed(50.0), sigma=0.5, tol=1e-8, max_outer=100)
            p = tmp_path / f"run{i}.csv"
            hist.to_csv(p)
            paths.append(p)
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_validation_errors(self, reference1d):
        with pytest.raises(ValueError):
            run(reference1d, PenaltySchedule.fixed(1.0), sigma=0.5, tol=0.0)
        with pytest.raises(ValueError):
            run(reference1d, PenaltySchedule.fixed(1.0), sigma=1.0)
        with pytest.raises(ValueError):
            run(generate(GeneratorSpec("quad_ineq")), PenaltySchedule.fixed(1.0),
                sigma=0.5, p0=DualPoint(np.zeros(0), np.array([-1.0])))

    def test_max_outer_zero_rejected(self, reference1d):
        with pytest.raises(ValueError, match=r"^max_outer must be >= 1, got 0$"):
            run(reference1d, PenaltySchedule.fixed(1.0), sigma=0.5, max_outer=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, reference1d, tol):
        with pytest.raises(ValueError, match="tol"):
            run(reference1d, PenaltySchedule.fixed(1.0), sigma=0.5, tol=tol)

    def test_inner_failure_status(self, sc_qp7):
        hist = run(sc_qp7, PenaltySchedule.fixed(100.0), sigma=0.01, tol=1e-8,
                   max_outer=50, inner=InnerOptions(max_inner=2))
        assert hist.status == "InnerFailure"
        assert hist.failure
