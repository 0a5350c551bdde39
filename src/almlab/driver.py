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

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .auglag import CriterionReport, aux_update
from .errors import MaxInnerIterationsError, NonFiniteError, ProblemFormatError
from .inner import InnerOptions, solve_subproblem
from .io import Fields, non_numbers, write_csv, write_json
from .problem import ConvexProgram, DualPoint, KktResidual, as_vector, kkt_residual, norm

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
        # each message leads with the field name, which the CLI maps to its
        # flag and a trace reader to config.schedule.<field>
        if self.kind not in ("fixed", "geometric", "adaptive"):
            raise ValueError(f"kind must be fixed, geometric or adaptive, got {self.kind!r}")
        # a c whose square underflows to 0 would divide by zero in the criterion
        if not (math.isfinite(self.c0) and self.c0 > 0 and self.c0 * self.c0 > 0):
            raise ValueError(f"c0 must be positive and finite, with c0 * c0 > 0, got {self.c0:g}")
        if not (math.isfinite(self.growth) and self.growth >= 1.0):
            raise ValueError(f"growth must be finite and >= 1, got {self.growth:g}")
        if not self.c_max >= self.c0:
            raise ValueError(f"c_max must be >= c0 = {self.c0:g}, got {self.c_max:g}")
        if self.kind == "adaptive" and not 0.0 < self.adapt_ratio < 1.0:
            raise ValueError(f"adapt_ratio must lie in (0, 1), got {self.adapt_ratio:g}")

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
        """||(y, u)||, the subgradient norm controlled by the theory; ||y|| is
        kkt.stationarity."""
        return math.hypot(self.kkt.stationarity, norm(self.u))


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
        """One row per iteration, fixed column order, written by :func:`write_csv`."""
        write_csv(path, CSV_COLUMNS, ([
            r.k, r.c, r.f_val, r.auglag_val, r.criterion.lhs, r.criterion.rhs_raw,
            np.linalg.norm(r.y), np.linalg.norm(r.u), r.kkt.eq_feas, r.kkt.ineq_feas, r.kkt.comp,
            r.inner_iters,
        ] for r in self.records))

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
            write_json(path, doc)
        return doc

    @classmethod
    def from_json(cls, source) -> "RunHistory":
        """Rebuild a history from a trace document or a file path.

        Raises :class:`ProblemFormatError` naming the first malformed or
        unknown field, e.g. ``records[3].mu``: every number a trace record
        holds must be finite, and every record vector must have the length
        that ``config.x0``, ``p0_lam`` and ``p0_mu`` imply; the config must
        pass ``check_settings``, ``PenaltySchedule`` and ``InnerOptions``
        (naming ``config.sigma`` or ``config.schedule.c0``, say) and carry
        its problem_fingerprint.
        """
        doc = Fields.load(source)
        config = doc.obj("config")
        config.build(check_settings, config.number("sigma"), config.number("tol"), config.int("max_outer"))
        schedule = config.obj("schedule")
        try:  # PenaltySchedule refuses a field it does not know
            schedule.build(PenaltySchedule, **schedule.doc)
        except (TypeError, OverflowError):  # OverflowError: an integer past 1.8e308
            fields = ", ".join(PenaltySchedule.__dataclass_fields__)
            raise ProblemFormatError(schedule.name, f"expected an object with fields {fields}") from None
        config.build(InnerOptions, max_inner=config.int("max_inner"), exact=config.boolean("exact"))
        config.string("problem_fingerprint")
        config.string("problem_name", empty=True)
        n, m1, m2 = (config.vector(key).size for key in ("x0", "p0_lam", "p0_mu"))
        config.vector("w0", n)
        config.done()
        status, failure = doc.string("status"), doc.string("failure", empty=True)
        records = doc.objs("records")
        doc.done()
        sizes = {"x": n, "y": n, "lam": m1, "mu": m2, "w": n, "u": m1 + m2, "delta_p": m1 + m2}
        vec = {key: _stacked(records, key, size) for key, size in sizes.items()}
        out = []
        for i, rec in enumerate(records):
            c = rec.number("c")
            if not c > 0:
                raise rec.refuse("c", f"must be positive, got {c!r}")
            out.append(IterationRecord(
                k=rec.int("k"), c=c,
                x=vec["x"][i], y=vec["y"][i], p=DualPoint(vec["lam"][i], vec["mu"][i]),
                w=vec["w"][i], u=vec["u"][i], delta_p=vec["delta_p"][i],
                criterion=_record_part(rec, "criterion", CriterionReport),
                kkt=_record_part(rec, "kkt", KktResidual),
                inner_iters=rec.int("inner_iters"),
                backtracks=rec.int("backtracks"),
                f_val=rec.number("f_val"),
                auglag_val=rec.number("auglag_val"),
            ))
            rec.done()
        return cls(records=out, status=status, config=config.doc, failure=failure)


def _stacked(records, key, size):
    """The field key of every record view as one finite
    len(records) x size array, with no true, false or string in it.

    One conversion covers every record; the per-record pass that names the
    offending entry runs only when that conversion fails a check.
    """
    try:
        rows = [rec.get(key) for rec in records]
        a = np.array(rows, dtype=float)
        if a.shape == (len(records), size) and np.isfinite(a).all() and not non_numbers(chain.from_iterable(rows)):
            return a
    except (TypeError, ValueError, OverflowError):  # a missing field is a ProblemFormatError, a ValueError
        pass
    for rec in records:
        rec.vector(key, size)
    # only an empty record list gets here: any other failure names a record above
    return np.empty((0, size))


def _record_part(rec, key, data_cls):
    """data_cls built from the object field key of the record view rec:
    exactly its fields, the bool ones true or false and every other one a
    finite number."""
    fields = data_cls.__dataclass_fields__
    part = rec.obj(key, *fields)
    values = {field: part.boolean(field) if spec.type in (bool, "bool") else part.number(field)
              for field, spec in fields.items()}
    part.done()
    return data_cls(**values)


def next_penalty(schedule: PenaltySchedule, k: int, history: RunHistory) -> float:
    """Penalty parameter for outer iteration k (1-based); inf when it
    overflows, which only an infinite c_max allows."""
    if k < 1:
        raise ValueError("iteration index k starts at 1")
    if schedule.kind == "fixed":
        return schedule.c0
    if schedule.kind == "geometric":
        try:
            return min(schedule.c_max, schedule.c0 * schedule.growth ** (k - 1))
        except OverflowError:  # growth ** (k - 1) is past the float range
            return schedule.c_max
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


def check_settings(sigma, tol, max_outer):
    """Raise ValueError, its message led by the field name, unless sigma
    lies in [0, 1), tol is positive and finite and max_outer >= 1."""
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma:g}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer!r}")


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
    check_settings(sigma, tol, max_outer)
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
        try:
            c = next_penalty(schedule, k, history)
            if c == math.inf:
                raise NonFiniteError("the penalty overflows; give the schedule a finite c_max")
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
