"""The one writer of every output file, ``io.write_json`` and ``io.write_csv``:
the trace CSV and JSON, the summary, the rate report and the oracle file.

A float goes to a CSV with 17 significant digits and any other value as
str gives it; a NumPy scalar goes to JSON as the plain number or bool it
holds; and a document that cannot be written leaves the file it was meant
for as it was.
"""
import json
import math

import numpy as np
import pytest

from almlab import (
    DualPoint,
    GeneratorSpec,
    InnerOptions,
    PenaltySchedule,
    RunHistory,
    SolutionSetOracle,
    estimate_kappa,
    generate,
    rate_report,
    run,
    solve_qp_exact,
)
from almlab.auglag import CriterionReport
from almlab.cli import _write_summary
from almlab.driver import IterationRecord
from almlab.problem import KktResidual
from almlab.rates import RateReport, RateRow, RateSummary


def _record(k, c, v, inner_iters):
    """A record whose every float column of the CSV holds v."""
    vec = np.array([v])
    return IterationRecord(
        k=k, c=c, x=vec, y=vec, p=DualPoint(np.zeros(0), np.zeros(0)), w=vec, u=vec, delta_p=vec,
        criterion=CriterionReport(v, v, v, True), kkt=KktResidual(v, v, v, v, v),
        inner_iters=inner_iters, backtracks=0, f_val=v, auglag_val=v,
    )


def test_trace_csv_text(tmp_path):
    hist = RunHistory(records=[
        _record(1, 0.1, 0.1, 7),
        _record(2, 10.0, math.nan, 0),
        _record(3, 1e300, math.inf, 12),
        _record(4, 2.5, -math.inf, 3),  # the norm columns hold |-inf|
        _record(5, 100, 2, 1),
    ], status="Converged", config={})
    hist.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes().decode() == (
        "k,c,f_val,auglag_val,lhs,rhs,norm_y,norm_u,eq_feas,ineq_feas,comp,inner_iters\n"
        "1," + "0.10000000000000001," * 10 + "7\n"
        "2,10," + "nan," * 9 + "0\n"
        "3,1.0000000000000001e+300," + "inf," * 9 + "12\n"
        "4,2.5,-inf,-inf,-inf,-inf,inf,inf,-inf,-inf,-inf,3\n"
        "5,100,2,2,2,2,2,2,2,2,2,1\n"
    )


def test_rate_report_csv_text(tmp_path):
    rows = [
        RateRow(1, 0.1, math.nan, math.inf, -math.inf, 0.1, 3, True),
        RateRow(2, 100, 0.25, 0.0, math.nan, math.nan, 1e-20, False),
    ]
    report = RateReport(rows=rows, summary=RateSummary(1.0, math.nan, 0, 0, 1))
    report.to_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes().decode() == (
        "k,c,dist_p,dist_x,rho_hat,rho_theory,primal_bound,threshold_ok\n"
        "1,0.10000000000000001,nan,inf,-inf,0.10000000000000001,3,1\n"
        "2,100,0.25,0,nan,nan,9.9999999999999995e-21,0\n"
    )


def _write_all(path_stem, hist, oracle):
    """Write all five file kinds of hist, judged against oracle; their texts."""
    report = rate_report(hist, oracle, estimate_kappa(hist, oracle), hist.config["sigma"])
    paths = [path_stem.with_suffix(s) for s in (".csv", ".trace.json", ".summary.json", ".rates.csv",
                                                 ".rates.json", ".oracle.json")]
    hist.to_csv(paths[0])
    hist.to_json(paths[1])
    _write_summary(paths[2], hist)
    report.to_csv(paths[3])
    report.to_json(paths[4])
    oracle.to_json(paths[5])
    return [p.read_text() for p in paths]


@pytest.mark.parametrize("numpy_kwargs, plain_kwargs", [
    ({"schedule": PenaltySchedule.fixed(np.int64(100))}, {"schedule": PenaltySchedule.fixed(100)}),
    ({"max_outer": np.int64(50)}, {"max_outer": 50}),
    ({"inner": InnerOptions(max_inner=np.int64(100), exact=np.bool_(False))},
     {"inner": InnerOptions(max_inner=100, exact=False)}),
], ids=["c0", "max-outer", "inner-options"])
def test_numpy_scalars_are_written_as_plain_values(tmp_path, numpy_kwargs, plain_kwargs):
    # a penalty sweep over np.array([10, 100]) hands the schedule an np.int64
    prog = generate(GeneratorSpec("reference1d"))
    oracle = solve_qp_exact(prog)
    settings = {"schedule": PenaltySchedule.fixed(100.0), "max_outer": 100, "inner": InnerOptions()}
    hist = run(prog, sigma=0.5, **{**settings, **numpy_kwargs})
    twin = run(prog, sigma=0.5, **{**settings, **plain_kwargs})
    texts = _write_all(tmp_path / "numpy", hist, oracle)
    assert texts == _write_all(tmp_path / "plain", twin, oracle)
    back = RunHistory.from_json(tmp_path / "numpy.trace.json")
    assert back.to_json() == json.loads(texts[1]) == hist.to_json()
    assert SolutionSetOracle.from_json(tmp_path / "numpy.oracle.json").to_json() == oracle.to_json()


def test_a_write_that_fails_leaves_the_file_as_it_was(tmp_path):
    hist = run(generate(GeneratorSpec("reference1d")), PenaltySchedule.fixed(2.0), 0.0)
    path = tmp_path / "t.trace.json"
    hist.to_json(path)
    before = path.read_bytes()
    hist.config["bogus"] = object()
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        hist.to_json(path)
    assert path.read_bytes() == before
