import json
import math
from dataclasses import replace

import numpy as np
import pytest

from almlab import (
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    PenaltySchedule,
    RunHistory,
    estimate_kappa,
    generate,
    penalty_threshold,
    rate_report,
    run,
    solve_qp_exact,
    superlinearity_probe,
    theoretical_rho,
)
from almlab import rates as rates_mod
from almlab.errors import InsufficientIterationsError, NoValidSamplesError, OracleMismatchError
from almlab.rates import check_oracle_match
from almlab.rng import Lcg


class TestTheoreticalRho:
    def test_unit_kappa_sigma_zero(self):
        assert theoretical_rho(1.0, 0.0, 2.0) == pytest.approx(1.0 / math.sqrt(5.0))

    def test_golden_kappa(self):
        assert theoretical_rho(1.618, 0.0, 2.0) == pytest.approx(0.628952184053298, abs=1e-12)

    def test_threshold_boundary_not_applicable(self):
        # c = 2*kappa*(sigma + sqrt(sigma)) = 3 exactly
        assert theoretical_rho(2.0, 0.25, 3.0) is None
        assert theoretical_rho(2.0, 0.25, 3.0 + 1e-9) is not None

    def test_in_unit_interval_above_threshold(self):
        rng = Lcg(12)
        for _ in range(100):
            kappa = rng.uniform(0.1, 10.0)
            sigma = rng.uniform(0.0, 0.999)
            c = penalty_threshold(kappa, sigma) + rng.uniform(0.01, 50.0)
            rho = theoretical_rho(kappa, sigma, c)
            assert 0.0 < rho < 1.0

    def test_strictly_decreasing_in_c(self):
        rng = Lcg(34)
        for _ in range(100):
            kappa = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.0, 0.9)
            base = penalty_threshold(kappa, sigma)
            c1 = base + rng.uniform(0.1, 10.0)
            c2 = c1 + rng.uniform(0.1, 10.0)
            assert theoretical_rho(kappa, sigma, c2) < theoretical_rho(kappa, sigma, c1)


class TestPenaltyThreshold:
    def test_sigma_zero(self):
        assert penalty_threshold(1.0, 0.0) == 0.0

    def test_arithmetic(self):
        assert penalty_threshold(2.0, 0.25) == pytest.approx(3.0)

    def test_limit_toward_one(self):
        assert penalty_threshold(1.0, 0.999999) == pytest.approx(4.0, abs=1e-5)


@pytest.fixture(scope="module")
def reference_run():
    prog = generate(GeneratorSpec("reference1d"))
    orc = solve_qp_exact(prog)
    hist = run(prog, PenaltySchedule.fixed(2.0), sigma=0.0, tol=1e-10,
               max_outer=30, inner=InnerOptions(exact=True))
    return prog, orc, hist


class TestRateReport:
    def test_reference_constant_contraction(self, reference_run):
        prog, orc, hist = reference_run
        kappa = estimate_kappa(hist, orc)
        rep = rate_report(hist, orc, kappa, sigma=0.0)
        for row in rep.rows:
            if not math.isnan(row.rho_hat):
                # measured ratios carry roundoff ~ eps / dist_prev
                dist_prev = row.dist_p / row.rho_hat
                assert row.rho_hat == pytest.approx(1.0 / 3.0, abs=1e-9 + 5e-15 / dist_prev)
            assert row.threshold_ok
            assert row.rho_theory >= 0.44
        assert rep.summary.bound_violations == 0
        early = [r.rho_hat for r in rep.rows[:10] if not math.isnan(r.rho_hat)]
        np.testing.assert_allclose(early, 1.0 / 3.0, atol=1e-9)

    def test_degenerate_trace_nan_sentinel(self):
        prog = generate(GeneratorSpec("sc_qp", seed=1))
        orc = solve_qp_exact(prog)
        # kappa from an ordinary run; the report itself comes from a trace
        # started exactly at the solution, where every distance sits at the
        # noise floor
        normal = run(prog, PenaltySchedule.fixed(10.0), sigma=0.5, tol=1e-8, max_outer=200)
        kappa_est = estimate_kappa(normal, orc)
        member, _ = orc.dual.project(np.zeros(orc.dual.m))
        hist = run(prog, PenaltySchedule.fixed(10.0), sigma=0.5,
                   p0=DualPoint.from_vector(member, prog.m1),
                   x0=orc.primal_point, tol=1e-7, max_outer=10,
                   inner=InnerOptions(exact=True))
        rep = rate_report(hist, orc, kappa_est, sigma=0.5)
        assert math.isnan(rep.summary.sup_rho_tail)
        assert rep.summary.bound_violations == 0

    def test_geometric_schedule_rho_theory_decreases(self):
        prog = generate(GeneratorSpec("sc_qp", seed=3))
        orc = solve_qp_exact(prog)
        hist = run(prog, PenaltySchedule.geometric(10.0, 2.0, 1e8), sigma=0.5,
                   tol=1e-8, max_outer=60)
        kappa = estimate_kappa(hist, orc)
        rep = rate_report(hist, orc, kappa, sigma=0.5)
        theory = [r.rho_theory for r in rep.rows if not math.isnan(r.rho_theory)]
        assert all(b < a for a, b in zip(theory, theory[1:]))

    def test_empty_history_rejected(self, reference_run):
        _, orc, hist = reference_run
        empty = RunHistory([], "InnerFailure", hist.config)
        with pytest.raises(NoValidSamplesError, match="empty run history"):
            estimate_kappa(empty, orc)
        with pytest.raises(ValueError, match="empty run history"):
            rate_report(empty, orc, estimate_kappa(hist, orc), sigma=0.0)

    def test_fingerprints_are_compared_as_strings(self, reference_run):
        # an oracle without a fingerprint matches no trace
        _, orc, hist = reference_run
        with pytest.raises(OracleMismatchError):
            check_oracle_match(hist, replace(orc, fingerprint=""))

    def test_oracle_mismatch_detected(self, reference_run):
        _, _, hist = reference_run
        other = solve_qp_exact(generate(GeneratorSpec("sc_qp", seed=0)))
        kappa = estimate_kappa(hist, solve_qp_exact(generate(GeneratorSpec("reference1d"))))
        with pytest.raises(OracleMismatchError):
            rate_report(hist, other, kappa, sigma=0.0)

    def test_csv_and_json_outputs(self, tmp_path, reference_run):
        prog, orc, hist = reference_run
        kappa = estimate_kappa(hist, orc)
        rep = rate_report(hist, orc, kappa, sigma=0.0)
        csv_path = tmp_path / "r.csv"
        rep.to_csv(csv_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "k,c,dist_p,dist_x,rho_hat,rho_theory,primal_bound,threshold_ok"
        doc = rep.to_json(tmp_path / "r.json")
        assert doc["summary"]["bound_violations"] == 0

    def test_json_writes_numpy_scalars(self, tmp_path, monkeypatch):
        # a NumPy c0 makes every c, and so every threshold_ok, a NumPy
        # scalar, which json.dumps hands to _json_default
        prog = generate(GeneratorSpec("sc_qp", seed=3))
        orc = solve_qp_exact(prog)
        hist = run(prog, PenaltySchedule.geometric(np.float64(10.0), 1.5, 1e6), sigma=0.5,
                   tol=1e-8, max_outer=60)
        rep = rate_report(hist, orc, estimate_kappa(hist, orc), sigma=0.5)
        assert all(type(r.threshold_ok) is np.bool_ for r in rep.rows)
        calls = []
        real = rates_mod._json_default
        monkeypatch.setattr(rates_mod, "_json_default", lambda v: calls.append(type(v)) or real(v))
        rep.to_json(tmp_path / "r.json")
        assert calls and set(calls) <= {np.bool_, np.float64}
        rows = json.loads((tmp_path / "r.json").read_text())["rows"]
        assert [r["threshold_ok"] for r in rows] == [bool(r.threshold_ok) for r in rep.rows]
        with pytest.raises(TypeError):
            rates_mod._json_default(object())


class TestSuperlinearityProbe:
    def test_fixed_schedule_not_applicable(self, reference_run):
        prog, orc, hist = reference_run
        probe = superlinearity_probe(hist, orc)
        assert not probe
        assert "geometric" in probe.reason

    def test_reference_doubling_penalty(self):
        # c_k = 2^k: the per-step contraction 1/(1 + c_k) halves each time
        prog = generate(GeneratorSpec("reference1d"))
        orc = solve_qp_exact(prog)
        hist = run(prog, PenaltySchedule.geometric(2.0, 2.0, 1e12), sigma=0.0,
                   tol=1e-12, max_outer=12, inner=InnerOptions(exact=True))
        probe = superlinearity_probe(hist, orc)
        assert probe.ok
        expected = [1.0 / (1.0 + 2.0 ** k) for k in range(1, len(probe.ratios) + 1)]
        # later ratios sit near the distance noise floor; check the clean ones
        np.testing.assert_allclose(probe.ratios[:5], expected[:5], rtol=1e-6)
        assert probe.ratios[-1] / probe.ratios[0] <= 0.5

    def test_slow_growth_falls_short_of_half(self):
        # c_k = 2 * 1.1^(k-1): the ratios 1/(1 + c_k) shrink every step,
        # but after eight steps only to 0.61 of the first
        prog = generate(GeneratorSpec("reference1d"))
        orc = solve_qp_exact(prog)
        hist = run(prog, PenaltySchedule.geometric(2.0, 1.1, 1e12), sigma=0.0,
                   tol=1e-8, max_outer=8, inner=InnerOptions(exact=True))
        probe = superlinearity_probe(hist, orc)
        assert not probe.ok
        assert probe.reason == "final ratio above half the initial ratio"
        np.testing.assert_allclose(probe.ratios, [1.0 / (1.0 + 2.0 * 1.1 ** k) for k in range(8)], rtol=1e-6)

    def test_capped_schedule_plateaus(self):
        prog = generate(GeneratorSpec("reference1d"))
        orc = solve_qp_exact(prog)
        hist = run(prog, PenaltySchedule.geometric(2.0, 2.0, 4.0), sigma=0.0,
                   tol=1e-12, max_outer=14, inner=InnerOptions(exact=True))
        probe = superlinearity_probe(hist, orc)
        assert not probe.ok
        assert "strictly decreasing" in probe.reason

    def test_insufficient_iterations(self):
        prog = generate(GeneratorSpec("reference1d"))
        orc = solve_qp_exact(prog)
        hist = run(prog, PenaltySchedule.geometric(2.0, 2.0, 1e12), sigma=0.0,
                   tol=1e-2, max_outer=3, inner=InnerOptions(exact=True))
        with pytest.raises(InsufficientIterationsError):
            superlinearity_probe(hist, orc)
