"""Outer loop of the inexact augmented Lagrangian method.

Each iteration solves the penalized subproblem at the current multipliers,
then applies the multiplier and auxiliary updates

    lam_k = lam_{k-1} + c_k h(x_k)
    mu_k  = max(0, mu_{k-1} + c_k g(x_k))
    w_k   = w_{k-1} - c_k y_k

and records the full state. The scaled multiplier step
u_k = (p_{k-1} - p_k) / c_k together with the certificate y_k forms a
subgradient of the ordinary Lagrangian at (x_k, p_k), so the run stops once
max(||(y, u)||, ||h||, ||max(0, g)||) falls below the tolerance.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .auglag import CriterionReport, aux_update
from .errors import MaxInnerIterationsError, NonFiniteError, ProblemFormatError
from .inner import InnerOptions, solve_subproblem
from .io import _get_array, _get_int, _get_number, _get_vector, _json_object
from .problem import ConvexProgram, DualPoint, KktResidual, as_vector, kkt_residual

CONVERGED = "Converged"
MAX_OUTER = "MaxOuterIterations"
INNER_FAILURE = "InnerFailure"

CSV_COLUMNS = (
    "k", "c", "f_val", "auglag_val", "lhs", "rhs", "norm_y", "norm_u",
    "eq_feas", "ineq_feas", "comp", "inner_iters",
)


@dataclass
class PenaltySchedule:
    """Penalty parameter rule; every produced value stays >= c0 > 0.

    kinds:
      fixed      c_k = c0
      geometric  c_k = min(c_max, c0 * growth**(k-1))
      adaptive   multiply by growth whenever the feasibility residual failed
                 to decrease by the factor adapt_ratio, capped at c_max
    """

    kind: str
    c0: float
    growth: float = 1.0
    c_max: float = math.inf
    adapt_ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fixed", "geometric", "adaptive"):
            raise ValueError(f"unknown schedule kind '{self.kind}'")
        if not (math.isfinite(self.c0) and self.c0 > 0):
            raise ValueError(f"c0 must be positive and finite, got {self.c0:g}")
        if not (math.isfinite(self.growth) and self.growth >= 1.0):
            raise ValueError(f"growth factor must be finite and >= 1, got {self.growth:g}")
        if not self.c_max > 0:
            raise ValueError("c_max must be positive")
        if self.kind == "adaptive" and not 0.0 < self.adapt_ratio < 1.0:
            raise ValueError("adapt_ratio must lie in (0, 1)")

    @classmethod
    def fixed(cls, c0):
        return cls("fixed", c0)

    @classmethod
    def geometric(cls, c0, growth, c_max=math.inf):
        return cls("geometric", c0, growth, c_max)

    @classmethod
    def adaptive(cls, c0, growth, c_max=math.inf, adapt_ratio=0.5):
        return cls("adaptive", c0, growth, c_max, adapt_ratio)

    def as_dict(self):
        return dict(vars(self))


@dataclass
class IterationRecord:
    """Complete state of one outer iteration."""

    k: int
    c: float
    x: np.ndarray
    y: np.ndarray
    p: DualPoint
    w: np.ndarray
    u: np.ndarray
    delta_p: np.ndarray
    criterion: CriterionReport
    kkt: KktResidual
    inner_iters: int
    backtracks: int
    f_val: float
    auglag_val: float

    def residual(self) -> float:
        """||(y, u)||, the subgradient norm controlled by the theory."""
        return math.hypot(float(np.linalg.norm(self.y)), float(np.linalg.norm(self.u)))


@dataclass
class RunHistory:
    records: list
    status: str
    config: dict
    failure: str = ""

    def final(self) -> IterationRecord:
        return self.records[-1]

    def total_inner_iters(self) -> int:
        return sum(r.inner_iters for r in self.records)

    def to_csv(self, path):
        """One row per iteration, fixed column order, 17 significant digits."""
        with open(path, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow([
                    r.k, _fmt(r.c), _fmt(r.f_val), _fmt(r.auglag_val),
                    _fmt(r.criterion.lhs), _fmt(r.criterion.rhs_raw),
                    _fmt(float(np.linalg.norm(r.y))), _fmt(float(np.linalg.norm(r.u))),
                    _fmt(r.kkt.eq_feas), _fmt(r.kkt.ineq_feas), _fmt(r.kkt.comp),
                    r.inner_iters,
                ])

    def to_json(self, path=None):
        """Full-vector trace; returns the document when path is None."""
        doc = {
            "config": self.config,
            "status": self.status,
            "failure": self.failure,
            "records": [
                {
                    "k": r.k,
                    "c": r.c,
                    "x": r.x.tolist(),
                    "y": r.y.tolist(),
                    "lam": r.p.lam.tolist(),
                    "mu": r.p.mu.tolist(),
                    "w": r.w.tolist(),
                    "u": r.u.tolist(),
                    "delta_p": r.delta_p.tolist(),
                    "criterion": r.criterion.as_dict(),
                    "kkt": r.kkt.as_dict(),
                    "inner_iters": r.inner_iters,
                    "backtracks": r.backtracks,
                    "f_val": r.f_val,
                    "auglag_val": r.auglag_val,
                }
                for r in self.records
            ],
        }
        if path is not None:
            with open(path, "w") as fh:
                fh.write(json.dumps(doc, indent=1))
        return doc

    @classmethod
    def from_json(cls, source) -> "RunHistory":
        """Rebuild a history from a trace document or a file path.

        Raises :class:`ProblemFormatError` naming the first malformed field,
        e.g. ``records[3].mu``: every number a trace record holds must be
        finite, and every record vector must have the length that
        ``config.x0``, ``p0_lam`` and ``p0_mu`` imply.
        """
        doc = _json_object(source)
        config = _container(doc, "config", dict, "an object")
        status = _container(doc, "status", str, "a string")
        records = _container(doc, "records", list, "a list")
        sigma = _get_number(config, "sigma", parent="config")
        if not 0.0 <= sigma < 1.0:
            raise ProblemFormatError("config.sigma", f"must lie in [0, 1), got {sigma!r}")
        try:
            PenaltySchedule(**config["schedule"])
        except (KeyError, TypeError, ValueError):
            fields = ", ".join(PenaltySchedule.__dataclass_fields__)
            raise ProblemFormatError("config.schedule", f"expected an object with fields {fields}") from None
        n, m1, m2 = (_get_vector(config, key, parent="config").shape[0]
                     for key in ("x0", "p0_lam", "p0_mu"))
        sizes = {"x": n, "y": n, "lam": m1, "mu": m2, "w": n, "u": m1 + m2, "delta_p": m1 + m2}
        vec = {key: _stacked(records, key, size) for key, size in sizes.items()}
        out = []
        for i, rec in enumerate(records):  # _stacked has found every record an object
            parent = f"records[{i}]"
            c = _get_number(rec, "c", parent)
            if not c > 0:
                raise ProblemFormatError(f"{parent}.c", f"must be positive, got {c!r}")
            out.append(IterationRecord(
                k=_get_int(rec, "k", parent), c=c,
                x=vec["x"][i], y=vec["y"][i], p=DualPoint(vec["lam"][i], vec["mu"][i]),
                w=vec["w"][i], u=vec["u"][i], delta_p=vec["delta_p"][i],
                criterion=_record_part(rec, "criterion", CriterionReport, parent),
                kkt=_record_part(rec, "kkt", KktResidual, parent),
                inner_iters=_get_int(rec, "inner_iters", parent),
                backtracks=_get_int(rec, "backtracks", parent),
                f_val=_get_number(rec, "f_val", parent),
                auglag_val=_get_number(rec, "auglag_val", parent),
            ))
        return cls(records=out, status=status, config=config, failure=doc.get("failure", ""))


def _container(doc, key, kind, what):
    """doc[key] when it is a kind."""
    v = doc.get(key)
    if isinstance(v, kind):
        return v
    raise ProblemFormatError(key, "missing" if key not in doc else f"expected {what}, got {v!r}")


def _stacked(records, key, size):
    """records[i][key] for every i as one finite len(records) x size array.

    One conversion covers every record; the per-record pass that names the
    offending entry runs only when that conversion fails a check.
    """
    try:
        a = np.array([rec[key] for rec in records], dtype=float)
        if a.shape == (len(records), size) and np.isfinite(a).all():
            return a
    except (KeyError, TypeError, ValueError):
        pass
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ProblemFormatError(f"records[{i}]", "expected an object")
        name, v = _get_array(rec, key, "a numeric vector", f"records[{i}]")
        if v.shape != (size,):
            raise ProblemFormatError(name, f"expected length {size}, got shape {v.shape}")
    # only an empty record list gets here: any other failure names a record above
    return np.empty((0, size))


def _record_part(rec, key, data_cls, parent):
    """data_cls built from the object rec[key]: exactly its fields, the bool
    ones true or false and every other one a finite number."""
    name = f"{parent}.{key}"
    part = rec.get(key)
    fields = data_cls.__dataclass_fields__
    if not isinstance(part, dict) or part.keys() != fields.keys():
        raise ProblemFormatError(name, f"expected an object with fields {', '.join(fields)}")
    values = {}
    for field, spec in fields.items():
        if spec.type not in (bool, "bool"):
            values[field] = _get_number(part, field, name)
        elif isinstance(part[field], bool):
            values[field] = part[field]
        else:
            raise ProblemFormatError(f"{name}.{field}", f"expected true or false, got {part[field]!r}")
    return data_cls(**values)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def next_penalty(schedule: PenaltySchedule, k: int, history: RunHistory) -> float:
    """Penalty parameter for outer iteration k (1-based)."""
    if k < 1:
        raise ValueError("iteration index k starts at 1")
    if schedule.kind == "fixed":
        return schedule.c0
    if schedule.kind == "geometric":
        return min(schedule.c_max, schedule.c0 * schedule.growth ** (k - 1))
    records = history.records if history is not None else []
    if not records:
        return schedule.c0
    c_prev = records[-1].c
    if len(records) >= 2:
        feas_new = math.hypot(records[-1].kkt.eq_feas, records[-1].kkt.ineq_feas)
        feas_old = math.hypot(records[-2].kkt.eq_feas, records[-2].kkt.ineq_feas)
        if feas_new > schedule.adapt_ratio * feas_old:
            return min(schedule.c_max, c_prev * schedule.growth)
    return c_prev


def check_stop(record: IterationRecord, tol: float):
    """CONVERGED when max(||(y, u)||, eq_feas, ineq_feas) <= tol, else None."""
    worst = max(record.residual(), record.kkt.eq_feas, record.kkt.ineq_feas)
    return CONVERGED if worst <= tol else None


def run(
    prog: ConvexProgram,
    schedule: PenaltySchedule,
    sigma: float,
    p0: DualPoint | None = None,
    w0=None,
    x0=None,
    tol: float = 1e-8,
    max_outer: int = 100,
    inner: InnerOptions | None = None,
) -> RunHistory:
    """Run the outer loop and record every iterate in full.

    Parameters
    ----------
    prog : ConvexProgram
        Problem to solve; never modified.
    schedule : PenaltySchedule
        Penalty parameter rule.
    sigma : float
        Relative error tolerance in [0, 1). With sigma = 0 only exact
        subproblem solves can pass the criterion.
    p0, w0, x0 : optional
        Cold-start defaults: zero multipliers, x0 = 0, w0 = x0.
    tol : float
        Stopping tolerance on max(||(y, u)||, ||h||, ||max(0, g)||).
    max_outer : int
        Outer iteration cap, at least 1.
    inner : InnerOptions
        Subproblem solver options (exact mode, iteration caps, ...).

    Returns
    -------
    RunHistory with status Converged, MaxOuterIterations, or InnerFailure.

    Raises
    ------
    ProblemFormatError
        Before the first iteration, naming Q or ineq[i].P, when that matrix
        is not symmetric PSD (``ConvexProgram.check_convex``): on such a
        program a stationary point of L_c can be a saddle, and the run
        would report it as Converged.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer!r}")
    prog.check_convex()
    p = p0 if p0 is not None else DualPoint.zeros(prog.m1, prog.m2)
    if (p.mu < 0).any():
        raise ValueError("initial mu must be nonnegative")
    x = as_vector(x0, prog.n, "x0") if x0 is not None else np.zeros(prog.n)
    w = as_vector(w0, prog.n, "w0") if w0 is not None else x.copy()
    inner = inner or InnerOptions()

    config = {
        "sigma": sigma,
        "schedule": schedule.as_dict(),
        "tol": tol,
        "max_outer": max_outer,
        "exact": inner.exact,
        "max_inner": inner.max_inner,
        "p0_lam": p.lam.tolist(),
        "p0_mu": p.mu.tolist(),
        "x0": x.tolist(),
        "w0": w.tolist(),
        "problem_fingerprint": prog.fingerprint(),
        "problem_name": prog.name,
    }
    history = RunHistory(records=[], status=MAX_OUTER, config=config)

    for k in range(1, max_outer + 1):
        c = next_penalty(schedule, k, history)
        try:
            sub = solve_subproblem(prog, p, c, sigma, w, x, opts=inner)
        except (MaxInnerIterationsError, NonFiniteError) as exc:
            history.status = INNER_FAILURE
            history.failure = f"iteration {k}: {exc}"
            break
        x, y = sub.x, sub.y
        # the multiplier step the subproblem solver took to accept x
        p_new, delta_p = sub.p_new, sub.delta_p
        w = aux_update(w, c, y)
        u = delta_p / c
        kkt = kkt_residual(prog, x, p_new, y)
        record = IterationRecord(
            k=k, c=c, x=x, y=y, p=p_new, w=w, u=u, delta_p=delta_p,
            criterion=sub.criterion, kkt=kkt,
            inner_iters=sub.inner_iters, backtracks=sub.backtracks,
            f_val=prog.f_value(x),
            auglag_val=sub.lc.value,
        )
        history.records.append(record)
        p = p_new
        if check_stop(record, tol) == CONVERGED:
            history.status = CONVERGED
            break
    return history
