"""Every trace check of verify can fail.

One corpus run goes through to_json/from_json, one record of it is edited,
and each of the seven (program, trace) checks runs on the result. The
checks that must notice the edit name the first record they reject; the
others, and all seven on the untampered run, return None.
"""
import json

import pytest

from almlab import RunHistory, run, standard_corpus
from almlab import verify as verify_mod

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
    (lambda doc, rec: doc.update(status="MaxOuterIterations"), {"vanishing-residuals": None}),
    (_round_delta_p, {"criterion-identity": K}),
    (lambda doc, rec: rec["criterion"].update(lhs=0.0), {"criterion-identity": K}),
], ids=["untampered", "mu-scaled", "y-shifted", "x-shifted", "records-swapped", "lam-shifted",
        "status-edited", "delta_p-rounded", "lhs-zeroed"])
def test_edited_record_fails_the_named_checks(corpus_run, edit, expected):
    prog, text = corpus_run
    doc = json.loads(text)
    edit(doc, doc["records"][K - 1])
    hist = RunHistory.from_json(doc)
    failures = {name: check(prog, hist) for name, check in TRACE_CHECKS.items()}
    failures = {name: message for name, message in failures.items() if message is not None}
    assert failures.keys() == expected.keys(), failures
    for name, k in expected.items():
        assert failures[name].startswith("status " if k is None else f"k={k}:"), failures[name]
