"""Empirical contraction ratios checked against the theoretical rate bounds.

For error-bound modulus kappa, tolerance sigma and penalty c the dual
contraction factor is

    rho = kappa * sqrt(1 + sigma)
          / sqrt(c^2 - 2*kappa*(sigma + sqrt(sigma))*c + kappa^2*(1 + sigma))

valid once c exceeds the threshold 2*kappa*(sigma + sqrt(sigma)); rho is
then strictly below one and decreases toward zero as c grows. The primal
iterates obey dist(x_k, X*) <= kappa*(1 + sqrt(sigma))/c_k * ||p_{k-1} - p_k||.

Because the empirical kappa_hat is a lower estimate of the true modulus,
violations of the kappa_hat-based bounds are reported as red flags while a
doubled modulus provides the safety-margin check.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .driver import RunHistory, _fmt
from .errors import InsufficientIterationsError, OracleMismatchError
from .oracle import ErrorBoundEstimate, SolutionSetOracle, project_dual, project_primal

_DIST_FLOOR = 1e-13
_BOUND_SLACK = 1e-9


def penalty_threshold(kappa: float, sigma: float) -> float:
    """Smallest penalty above which the contraction formula applies."""
    return 2.0 * kappa * (sigma + math.sqrt(sigma))


def theoretical_rho(kappa: float, sigma: float, c: float):
    """Contraction modulus, or None when c is at or below the threshold."""
    if c <= penalty_threshold(kappa, sigma):
        return None
    denom_sq = c * c - 2.0 * kappa * (sigma + math.sqrt(sigma)) * c + kappa * kappa * (1.0 + sigma)
    return kappa * math.sqrt(1.0 + sigma) / math.sqrt(denom_sq)


@dataclass
class RateRow:
    k: int
    c: float
    dist_p: float
    dist_x: float
    rho_hat: float  # nan when the previous distance is at the noise floor
    rho_theory: float  # nan below the penalty threshold
    primal_bound: float
    threshold_ok: bool


@dataclass
class RateSummary:
    kappa_hat: float
    sup_rho_tail: float  # nan when no tail ratio is valid
    bound_violations: int
    margin_violations: int
    tail_start: int

    def as_dict(self):
        return dict(vars(self))


@dataclass
class RateReport:
    rows: list
    summary: RateSummary
    # the superlinear-trend probe's outcome, when one was run
    probe: dict = None

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "c", "dist_p", "dist_x", "rho_hat", "rho_theory", "primal_bound", "threshold_ok"])
            for r in self.rows:
                writer.writerow([
                    r.k, _fmt(r.c), _fmt(r.dist_p), _fmt(r.dist_x), _fmt(r.rho_hat),
                    _fmt(r.rho_theory), _fmt(r.primal_bound), int(r.threshold_ok),
                ])

    def to_json(self, path=None):
        doc = {"summary": self.summary.as_dict(), "rows": [vars(r) for r in self.rows]}
        if self.probe is not None:
            doc["probe"] = self.probe
        if path is not None:
            with open(path, "w") as fh:
                fh.write(json.dumps(doc, indent=1, default=_json_default))
        return doc


def _json_default(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.bool_):
        return bool(v)
    raise TypeError(type(v))


def _dual_distances(history: RunHistory, oracle: SolutionSetOracle):
    """dist(p_k, P*) for k = 0..N, with p_0 read from the config echo."""
    p0 = np.concatenate([
        np.asarray(history.config.get("p0_lam", []), dtype=float),
        np.asarray(history.config.get("p0_mu", []), dtype=float),
    ])
    dists = [project_dual(oracle, p0)[1]]
    for rec in history.records:
        dists.append(project_dual(oracle, rec.p.as_vector())[1])
    return dists


def check_oracle_match(history: RunHistory, oracle: SolutionSetOracle):
    """Raise OracleMismatchError when trace and oracle fingerprints differ;
    both readers refuse a document without its fingerprint."""
    if history.config["problem_fingerprint"] != oracle.fingerprint:
        raise OracleMismatchError("run trace and oracle solution come from different problems")


def rate_report(history: RunHistory, oracle: SolutionSetOracle, kappa: ErrorBoundEstimate, sigma: float) -> RateReport:
    """Per-iteration contraction ratios and bound checks for one run.

    The tail window ("sufficiently large k") is the final quartile of
    recorded iterations. Ratios whose previous distance is below 1e-13 are
    excluded as roundoff noise. ``bound_violations`` counts tail rows that
    break the kappa_hat-based bounds by more than 1e-9;
    ``margin_violations`` applies the same checks with 2*kappa_hat.
    """
    check_oracle_match(history, oracle)
    records = history.records
    if not records:
        raise ValueError("empty run history")
    kap = kappa.kappa_hat
    dual_dists = _dual_distances(history, oracle)

    rows = []
    for i, rec in enumerate(records):
        dist_p_prev, dist_p = dual_dists[i], dual_dists[i + 1]
        dist_x = project_primal(oracle, rec.x)[1]
        rho_hat = dist_p / dist_p_prev if dist_p_prev > _DIST_FLOOR else math.nan
        rho_th = theoretical_rho(kap, sigma, rec.c)
        dp_norm = float(np.linalg.norm(rec.delta_p))
        rows.append(RateRow(
            k=rec.k,
            c=rec.c,
            dist_p=dist_p,
            dist_x=dist_x,
            rho_hat=rho_hat,
            rho_theory=rho_th if rho_th is not None else math.nan,
            primal_bound=kap * (1.0 + math.sqrt(sigma)) / rec.c * dp_norm,
            threshold_ok=rec.c > penalty_threshold(kap, sigma),
        ))

    tail_start = len(rows) - max(1, len(rows) // 4)
    sup_rho = math.nan
    violations = 0
    margin_violations = 0
    for row in rows[tail_start:]:
        if not math.isnan(row.rho_hat):
            sup_rho = row.rho_hat if math.isnan(sup_rho) else max(sup_rho, row.rho_hat)
            if row.threshold_ok and row.rho_hat > row.rho_theory + _BOUND_SLACK:
                violations += 1
            rho_margin = theoretical_rho(2.0 * kap, sigma, row.c)
            if rho_margin is not None and row.rho_hat > rho_margin + _BOUND_SLACK:
                margin_violations += 1
        if row.dist_x > row.primal_bound + _BOUND_SLACK:
            violations += 1
        if row.dist_x > 2.0 * row.primal_bound + _BOUND_SLACK:
            margin_violations += 1
    summary = RateSummary(
        kappa_hat=kap,
        sup_rho_tail=sup_rho,
        bound_violations=violations,
        margin_violations=margin_violations,
        tail_start=tail_start,
    )
    return RateReport(rows=rows, summary=summary)


@dataclass
class ProbeResult:
    """Outcome of the superlinear-trend probe; falsy results carry a reason."""

    ok: bool
    reason: str
    ratios: list

    def __bool__(self) -> bool:
        return self.ok


def superlinearity_probe(history: RunHistory, oracle: SolutionSetOracle) -> ProbeResult:
    """True when the contraction ratios keep shrinking under a growing penalty.

    Applies only to unbounded geometric schedules; the valid ratio sequence
    (both distances above the noise floor) must be strictly decreasing from
    its first entry and end at half its initial value or less. Raises
    :class:`InsufficientIterationsError` with fewer than four valid ratios.
    """
    check_oracle_match(history, oracle)
    sched = history.config.get("schedule", {})
    if sched.get("kind") != "geometric" or sched.get("growth", 1.0) <= 1.0:
        return ProbeResult(False, "schedule is not an increasing geometric sequence", [])
    dists = _dual_distances(history, oracle)
    ratios = [
        dists[i + 1] / dists[i]
        for i in range(len(dists) - 1)
        if dists[i] > _DIST_FLOOR and dists[i + 1] > _DIST_FLOOR
    ]
    if len(ratios) < 4:
        raise InsufficientIterationsError(
            f"only {len(ratios)} valid contraction ratios; at least 4 required"
        )
    for a, b in zip(ratios, ratios[1:]):
        if not b < a:
            return ProbeResult(False, "ratios are not strictly decreasing", ratios)
    if ratios[-1] / ratios[0] > 0.5:
        return ProbeResult(False, "final ratio above half the initial ratio", ratios)
    return ProbeResult(True, "", ratios)
