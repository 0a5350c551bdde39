"""Every check of verify can fail.

One corpus run goes through to_json/from_json, one record of it is edited,
and each of the seven (program, trace) checks runs on the result. The
checks that must notice the edit name the first record they reject; the
others, and all seven on the untampered run, return None.

Through ``CHECKS``, each failure branch is reached once more: a tampered
run handed to a ``VerifyContext`` for the trace checks, and a patched
oracle, subproblem solve or dual recursion for the others; each must yield
a ``Failure`` with its check's name and message.

The two sampled checks evaluate each function on stacked points, once per
problem on the corpus and in blocks of bounded size on a large n: they
report what a point-by-point loop reports, they call the production value
methods, and those methods give one value per row.
"""
import dataclasses
import json

import numpy as np
import pytest

from almlab import (
    AffineInequality,
    ConvexProgram,
    GeneratorSpec,
    QuadraticInequality,
    QuadraticObjective,
    RunHistory,
    generate,
    run,
    standard_corpus,
)
from almlab import verify as verify_mod
from almlab.rng import Lcg

TRACE_CHECKS = {
    "criterion-identity": verify_mod._criterion_identity,
    "yp2": verify_mod._yp2,
    "subgradient-transfer": verify_mod._subgradient_transfer,
    "certificate-validity": verify_mod._certificate_validity,
    "step2-exactness": verify_mod._step2_exactness,
    "vanishing-residuals": verify_mod._vanishing_residuals,
    "dual-convergence": verify_mod._dual_convergence,
}

K = 4  # the edited record, doc["records"][K - 1]


def _shift(key, by):
    def edit(doc, rec):
        rec[key] = [v + by for v in rec[key]]
    return edit


def _scale_mu(doc, rec):
    rec["mu"] = [v * 1.001 for v in rec["mu"]]


def _swap_with_next(doc, rec):
    records = doc["records"]
    records[K - 1], records[K] = records[K], records[K - 1]


def _round_delta_p(doc, rec):
    rec["delta_p"] = [float(f"{v:.8g}") for v in rec["delta_p"]]


def _scale_y(doc, rec):
    rec["y"] = [v * 10.0 for v in rec["y"]]


def _move_tail_lam(doc, rec):
    # the second-to-last record: the dual-convergence tail compares its
    # distance to p_N with that of the record before it
    tail = doc["records"][-2]
    tail["lam"] = [v + 1e-3 for v in tail["lam"]]


@pytest.fixture(scope="module")
def corpus_run():
    """sc_qp seed 0 at the verify settings: smooth, m1 = 2, m2 = 3, twelve
    records, nonzero y and mu at record K."""
    prog = standard_corpus()[0]
    hist = run(prog, verify_mod._SCHEDULE, verify_mod.VERIFY_SIGMA,
               tol=verify_mod.VERIFY_TOL, max_outer=200)
    return prog, json.dumps(hist.to_json())


@pytest.mark.parametrize("edit, expected", [
    (lambda doc, rec: None, {}),
    (_scale_mu, {"step2-exactness": K, "subgradient-transfer": K, "certificate-validity": K + 1}),
    (_shift("y", 1e-6), {"criterion-identity": K, "subgradient-transfer": K,
                         "certificate-validity": K, "step2-exactness": K}),
    (_shift("x", 1e-9), {"criterion-identity": K, "subgradient-transfer": K,
                         "certificate-validity": K, "step2-exactness": K}),
    (_swap_with_next, {"criterion-identity": K + 1, "certificate-validity": K + 1,
                       "step2-exactness": K + 1}),
    (_shift("lam", 1e-9), {"step2-exactness": K, "certificate-validity": K + 1}),
    (lambda doc, rec: doc.update(status="MaxOuterIterations"), {"vanishing-residuals": "status "}),
    (_round_delta_p, {"criterion-identity": K}),
    (lambda doc, rec: rec["criterion"].update(lhs=0.0), {"criterion-identity": K}),
    (_scale_y, {"yp2": K, "criterion-identity": K, "subgradient-transfer": K,
                "certificate-validity": K, "step2-exactness": K}),
    (_move_tail_lam, {"dual-convergence": "tail distance rose", "subgradient-transfer": 11,
                      "certificate-validity": 12, "step2-exactness": 11}),
], ids=["untampered", "mu-scaled", "y-shifted", "x-shifted", "records-swapped", "lam-shifted",
        "status-edited", "delta_p-rounded", "lhs-zeroed", "y-scaled", "tail-lam-moved"])
def test_edited_record_fails_the_named_checks(corpus_run, edit, expected):
    """expected maps each failing check to the record k its message names,
    or to the start of a message that names none."""
    prog, text = corpus_run
    doc = json.loads(text)
    edit(doc, doc["records"][K - 1])
    hist = RunHistory.from_json(doc)
    failures = {name: check(prog, hist) for name, check in TRACE_CHECKS.items()}
    failures = {name: message for name, message in failures.items() if message is not None}
    assert failures.keys() == expected.keys(), failures
    for name, where in expected.items():
        prefix = f"k={where}:" if isinstance(where, int) else where
        assert failures[name].startswith(prefix), failures[name]


def _context(prog, doc):
    """A VerifyContext on prog alone whose corpus run is the trace doc."""
    ctx = verify_mod.VerifyContext([prog])
    ctx._runs = [RunHistory.from_json(doc)]
    return ctx


def _check(name, ctx):
    return list(verify_mod.CHECKS[name](ctx))


def test_criterion_identity_fails_on_raw_vs_rewritten(corpus_run):
    prog, text = corpus_run
    doc = json.loads(text)
    crit = doc["records"][K - 1]["criterion"]
    crit["rhs_rewritten"] *= 2.0
    message = f"k={K}: raw {crit['rhs_raw']:.17g} vs rewritten {crit['rhs_rewritten']:.17g}"
    assert _check("criterion-identity", _context(prog, doc)) == [
        verify_mod.Failure("criterion-identity", prog.name, message)]


def test_certificate_validity_fails_on_a_composite_program():
    # box_composite seed 0 at the verify settings: nine records; y moved a
    # unit off every recorded prox residual at record K
    prog = standard_corpus()[26]
    assert not prog.is_smooth
    hist = run(prog, verify_mod._SCHEDULE, verify_mod.VERIFY_SIGMA,
               tol=verify_mod.VERIFY_TOL, max_outer=200)
    doc = hist.to_json()
    assert _check("certificate-validity", _context(prog, doc)) == []
    rec = doc["records"][K - 1]
    rec["y"] = [v + 1.0 for v in rec["y"]]
    assert _check("certificate-validity", _context(prog, doc)) == [
        verify_mod.Failure("certificate-validity", prog.name,
                           f"k={K}: prox residual outside the subdifferential")]


def test_vanishing_residuals_fails_above_tol_on_a_converged_run(corpus_run):
    prog, text = corpus_run
    doc = json.loads(text)
    assert doc["status"] == "Converged"
    final = doc["records"][-1]
    final["y"] = [1e-3] + [0.0] * (len(final["y"]) - 1)
    (failure,) = _check("vanishing-residuals", _context(prog, doc))
    assert (failure.check, failure.problem) == ("vanishing-residuals", prog.name)
    assert failure.message.startswith("final ||y||=1.000e-03, ||u||=")
    assert failure.message.endswith(" above tol 1e-08")


def test_oracle_kkt_fails_on_a_moved_primal_point(monkeypatch):
    prog = standard_corpus()[0]
    real = verify_mod.solve_qp_exact

    def moved(prog_):
        oracle = real(prog_)
        return dataclasses.replace(oracle, primal_point=oracle.primal_point + 1e-3)

    monkeypatch.setattr(verify_mod, "solve_qp_exact", moved)
    (failure,) = _check("oracle-kkt", verify_mod.VerifyContext([prog]))
    assert (failure.check, failure.problem) == ("oracle-kkt", prog.name)
    assert failure.message.startswith("residual ") and failure.message.endswith(" > 1e-10")


def test_descent_fails_on_a_rising_value(monkeypatch):
    prog = standard_corpus()[0]
    real = verify_mod.solve_subproblem
    rose = []

    def rising(*args, **kwargs):
        res = real(*args, **kwargs)
        rose.append(res.values[-1])
        res.values = res.values + [res.values[-1] + 1.0]
        return res

    monkeypatch.setattr(verify_mod, "solve_subproblem", rising)
    failures = _check("descent", verify_mod.VerifyContext([prog]))
    (a,) = rose
    assert failures == [verify_mod.Failure("descent", prog.name, f"value rose from {a:.6e} to {a + 1.0:.6e}")]


def test_ppa_equivalence_fails_on_a_shifted_recursion(monkeypatch):
    real = verify_mod._closed_form_dual_step
    monkeypatch.setattr(verify_mod, "_closed_form_dual_step",
                        lambda prog, c: lambda lam, step=real(prog, c): step(lam) + 1e-6)
    failures = _check("ppa-equivalence", verify_mod.VerifyContext([]))
    # one failure per seed, at the first record
    assert [f.problem for f in failures] == [
        generate(GeneratorSpec("sc_qp", m2=0, seed=seed)).name for seed in range(5)]
    for f in failures:
        assert f.check == "ppa-equivalence"
        assert f.message.startswith("k=1: dual gap ") and f.message.endswith(" > 1e-09")


def _pointwise_convexity(prog, triples=100, slack=1e-10):
    """The convexity check one triple and one function at a time: the
    messages of the failing triples, in order."""
    rng = Lcg(4096)
    fns = [prog.smooth.value] + [g.value for g in prog.ineqs]
    messages = []
    for _ in range(triples):
        x1, x2 = rng.normal(prog.n), rng.normal(prog.n)
        alpha = rng.uniform()
        mid = alpha * x1 + (1 - alpha) * x2
        for f in fns:
            gap = f(mid) - alpha * f(x1) - (1 - alpha) * f(x2)
            if gap > slack:
                messages.append(f"convexity gap {gap:.3e} > {slack:g}")
                break
    return messages


def test_convexity_reports_every_failing_triple_in_order():
    n = 2
    prog = ConvexProgram(QuadraticObjective(np.eye(n), np.zeros(n)),
                         ineqs=(AffineInequality(np.ones(n), 1.0),
                                QuadraticInequality(-np.eye(n), np.zeros(n), 1.0)),
                         name="concave-row")
    failures = verify_mod.run_verification([prog], only=["convexity"])
    assert {(f.check, f.problem) for f in failures} == {("convexity", "concave-row")}
    assert [f.message for f in failures] == _pointwise_convexity(prog)
    assert len(failures) == 100
    assert failures[0].message == "convexity gap 1.984e-01 > 1e-10"


def test_gradient_consistency_reads_the_production_value(monkeypatch):
    prog = standard_corpus()[0]
    assert prog.smooth.q.any()
    assert verify_mod.run_verification([prog], only=["gradient-consistency"]) == []
    production = QuadraticObjective.value
    monkeypatch.setattr(QuadraticObjective, "value", lambda self, x: production(self, x) - x @ self.q)
    failures = verify_mod.run_verification([prog], only=["gradient-consistency"])
    assert [(f.check, f.problem) for f in failures] == [("gradient-consistency", prog.name)]


def test_gradient_check_bounds_the_rows_per_value_call(monkeypatch):
    """Every corpus problem sends all 100 points in one call per function
    and sign; n = 200 sends them in blocks of at most _VALUE_ROWS rows."""
    rows = []
    for cls in (QuadraticObjective, AffineInequality):
        production = cls.value
        monkeypatch.setattr(cls, "value", lambda self, x, f=production: rows.append(len(x)) or f(self, x))
    for prog in standard_corpus():
        rows.clear()
        verify_mod.run_verification([prog], only=["gradient-consistency"])
        counted = [f for f in (prog.smooth, *prog.ineqs) if isinstance(f, (QuadraticObjective, AffineInequality))]
        assert rows == [100 * prog.n] * (2 * len(counted)), prog.name
    prog = generate(GeneratorSpec("sc_qp", n=200, m1=4, m2=8, seed=0))
    rows.clear()
    assert verify_mod.run_verification([prog], only=["gradient-consistency"]) == []
    assert max(rows) <= verify_mod._VALUE_ROWS
    assert sum(rows) == 2 * 100 * 200 * (1 + prog.m2)


def _value_cases():
    """(function, the pre-batching scalar expression, n) for every
    objective and inequality of the corpus and of two quad_ineq programs."""
    progs = standard_corpus() + [generate(GeneratorSpec("quad_ineq", seed=s)) for s in range(2)]
    for prog in progs:
        o = prog.smooth
        yield o, lambda x, o=o: float(0.5 * (x @ o.Q @ x) + o.q @ x + o.const), prog.n
        for g in prog.ineqs:
            if isinstance(g, AffineInequality):
                yield g, lambda x, g=g: float(g.coeff @ x - g.offset), prog.n
            else:
                yield g, lambda x, g=g: float(0.5 * (x @ g.P @ x) + g.r @ x + g.s), prog.n


@pytest.mark.parametrize("cls", [QuadraticObjective, AffineInequality, QuadraticInequality])
def test_value_takes_one_point_or_one_per_row(cls):
    rng = Lcg(7)
    cases = [case for case in _value_cases() if type(case[0]) is cls]
    assert cases
    for fn, old, n in cases:
        X = np.array([rng.normal(n) for _ in range(12)])
        rows = [fn.value(x) for x in X]
        for x, v in zip(X, rows):
            assert type(v) is float
            assert v == old(x)  # bit for bit
        batch = fn.value(X)
        assert batch.shape == (12,)
        # relative to max(1, |value|): an affine row's value can cancel to
        # near zero, where a batch sum order moves it by 1e-14 of itself
        np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=1e-14)


class NanValueObjective(QuadraticObjective):
    """A quadratic whose value is NaN everywhere; its gradient is finite."""

    def value(self, x):
        return super().value(x) * np.nan


class NanValueInequality(AffineInequality):
    def value(self, x):
        return super().value(x) * np.nan


@pytest.mark.parametrize("where", ["objective", "inequality"])
def test_sampled_checks_fail_a_nan_value(where):
    # a NaN error or gap compares false against its tolerance either way;
    # both checks must count it as a failure, not a pass
    n = 2
    if where == "objective":
        prog = ConvexProgram(NanValueObjective(np.eye(n), np.zeros(n)), name="nan-value")
    else:
        prog = ConvexProgram(QuadraticObjective(np.eye(n), np.zeros(n)),
                             ineqs=(NanValueInequality(np.ones(n), 1.0),), name="nan-value")
    with np.errstate(invalid="ignore"):
        failures = verify_mod.run_verification([prog], only=["gradient-consistency", "convexity"])
    grad = [f.message for f in failures if f.check == "gradient-consistency"]
    conv = [f.message for f in failures if f.check == "convexity"]
    assert grad == ["relative finite-difference error nan > 1e-06"]
    assert conv == ["convexity gap nan > 1e-10"] * 100
    assert {f.problem for f in failures} == {"nan-value"}
