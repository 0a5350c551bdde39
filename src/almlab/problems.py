"""Deterministic seeded test-problem families.

Every family is generated from the documented LCG stream only, so a given
spec reproduces the identical problem bit for bit. Families:

  reference1d        min 0.5*x^2 s.t. x = 1; solution x* = 1, lam* = -1
  sc_qp              strongly convex QP with full-row-rank equalities and
                     strictly feasible affine inequalities (Slater holds)
  degenerate_dual_qp duplicated equality rows make the dual solution set an
                     affine family of dimension >= 1
  quad_ineq          one convex quadratic inequality active at the solution
  box_composite      smooth quadratic plus a box indicator, with equalities
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSpecError, NotAvailableError
from .problem import (
    AffineInequality,
    AffineMap,
    BoxL1Regularizer,
    ConvexProgram,
    QuadraticInequality,
    QuadraticObjective,
)
from .rng import Lcg

FAMILIES = ("reference1d", "sc_qp", "degenerate_dual_qp", "quad_ineq", "box_composite")

_DEFAULT_DIMS = {
    "reference1d": (1, 1, 0),
    "sc_qp": (6, 2, 3),
    "degenerate_dual_qp": (5, 3, 2),
    "quad_ineq": (4, 0, 1),
    "box_composite": (5, 2, 0),
}


@dataclass
class GeneratorSpec:
    family: str
    n: int | None = None
    m1: int | None = None
    m2: int | None = None
    seed: int = 0
    conditioning: tuple = (1.0, 10.0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InconsistentSpecError(f"unknown family '{self.family}'")
        dn, dm1, dm2 = _DEFAULT_DIMS[self.family]
        self.n = dn if self.n is None else _integer("n", self.n)
        self.m1 = dm1 if self.m1 is None else _integer("m1", self.m1)
        self.m2 = dm2 if self.m2 is None else _integer("m2", self.m2)
        self.seed = _integer("seed", self.seed)
        lo, hi = float(self.conditioning[0]), float(self.conditioning[1])
        if not 0 < lo <= hi:
            raise InconsistentSpecError("conditioning range must satisfy 0 < lo <= hi")
        self.conditioning = (lo, hi)
        _validate_dims(self)

    def label(self) -> str:
        return f"{self.family}[n={self.n},m1={self.m1},m2={self.m2},seed={self.seed}]"


def _integer(name: str, value) -> int:
    """value as an int; numpy integers pass, 2.5 and "2" do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InconsistentSpecError(f"{name} must be an integer, got {value!r}") from None


def _validate_dims(spec: GeneratorSpec):
    fam, n, m1, m2 = spec.family, spec.n, spec.m1, spec.m2
    if n < 1 or m1 < 0 or m2 < 0:
        raise InconsistentSpecError("dimensions must be positive")
    if fam == "reference1d" and (n, m1, m2) != (1, 1, 0):
        raise InconsistentSpecError("reference1d is the fixed 1-D instance")
    if fam == "sc_qp" and m1 >= n:
        raise InconsistentSpecError("sc_qp needs m1 < n for a nontrivial feasible set")
    if fam == "degenerate_dual_qp":
        if m1 < 2:
            raise InconsistentSpecError("degenerate_dual_qp needs m1 >= 2 to duplicate a row")
        if m1 - 1 >= n:
            raise InconsistentSpecError("degenerate_dual_qp needs m1 - 1 independent rows < n")
    if fam == "quad_ineq" and (m1 != 0 or m2 != 1):
        raise InconsistentSpecError("quad_ineq is a single quadratic inequality instance")
    if fam == "box_composite" and (m2 != 0 or m1 < 1 or m1 >= n):
        raise InconsistentSpecError("box_composite uses equalities only, with m1 < n")


def generate(spec: GeneratorSpec) -> ConvexProgram:
    """Build the problem instance described by spec; pure and deterministic."""
    rng = Lcg(spec.seed)
    if spec.family == "reference1d":
        return _reference1d()
    if spec.family == "sc_qp":
        return _sc_qp(spec, rng)
    if spec.family == "degenerate_dual_qp":
        return _degenerate_dual(spec, rng)
    if spec.family == "quad_ineq":
        return _quad_ineq(spec, rng)
    return _box_composite(spec, rng)


def feasible_point(prog: ConvexProgram):
    """Strictly feasible point recorded at generation time.

    Raises :class:`NotAvailableError` for problems that were not generated
    here (hand-built or loaded from a file without one).
    """
    if prog.interior_point is None:
        raise NotAvailableError(f"no feasible point recorded for problem '{prog.name or '?'}'")
    return prog.interior_point.copy()


def _spd_matrix(rng: Lcg, n: int, conditioning) -> np.ndarray:
    """V' D V with orthogonal V and spectrum spread over the given range."""
    lo, hi = conditioning
    eigs = np.linspace(lo, hi, n)
    V = rng.orthogonal(n)
    Q = (V * eigs) @ V.T
    return 0.5 * (Q + Q.T)


def _unit_rows(rng: Lcg, rows: int, n: int, min_sv: float = 1e-6) -> np.ndarray:
    """Full-row-rank matrix with unit rows; redraws until well conditioned."""
    for _ in range(100):
        M = rng.normal((rows, n))
        norms = np.linalg.norm(M, axis=1)
        if (norms < 1e-9).any():
            continue
        M = M / norms[:, None]
        if rows == 0 or np.linalg.svd(M, compute_uv=False)[-1] > min_sv:
            return M
    raise InconsistentSpecError("could not draw a full-row-rank constraint matrix")


def _reference1d() -> ConvexProgram:
    return ConvexProgram(
        smooth=QuadraticObjective(np.array([[1.0]]), np.zeros(1)),
        eq=AffineMap(np.array([[1.0]]), np.array([1.0])),
        interior_point=np.array([1.0]),
        name="reference1d",
    )


def _sc_qp(spec: GeneratorSpec, rng: Lcg) -> ConvexProgram:
    n, m1, m2 = spec.n, spec.m1, spec.m2
    Q = _spd_matrix(rng, n, spec.conditioning)
    q = rng.normal(n)
    x_int = rng.normal(n)
    eq = None
    if m1:
        A = _unit_rows(rng, m1, n)
        eq = AffineMap(A, A @ x_int)
    ineqs = []
    if m2:
        G = _unit_rows(rng, m2, n)
        margins = rng.uniform(0.2, 1.2, m2)
        for i in range(m2):
            ineqs.append(AffineInequality(G[i], float(G[i] @ x_int + margins[i])))
    return ConvexProgram(
        smooth=QuadraticObjective(Q, q),
        eq=eq,
        ineqs=tuple(ineqs),
        interior_point=x_int,
        name=spec.label(),
    )


def _degenerate_dual(spec: GeneratorSpec, rng: Lcg) -> ConvexProgram:
    n, m1, m2 = spec.n, spec.m1, spec.m2
    Q = _spd_matrix(rng, n, spec.conditioning)
    q = rng.normal(n)
    A0 = _unit_rows(rng, m1 - 1, n)
    x_anchor = rng.normal(n)
    b0 = A0 @ x_anchor
    # solve the equality-constrained problem so inequalities can be placed
    # strictly inactive at the optimum
    k = m1 - 1
    kkt = np.block([[Q, A0.T], [A0, np.zeros((k, k))]])
    sol = np.linalg.solve(kkt, np.concatenate([-q, b0]))
    x_star = sol[:n]
    A = np.vstack([A0, A0[0]])
    b = np.concatenate([b0, b0[:1]])
    ineqs = []
    if m2:
        G = _unit_rows(rng, m2, n)
        margins = rng.uniform(0.5, 1.5, m2)
        for i in range(m2):
            ineqs.append(AffineInequality(G[i], float(G[i] @ x_star + margins[i])))
    return ConvexProgram(
        smooth=QuadraticObjective(Q, q),
        eq=AffineMap(A, b),
        ineqs=tuple(ineqs),
        interior_point=x_star,
        name=spec.label(),
    )


def _quad_ineq(spec: GeneratorSpec, rng: Lcg) -> ConvexProgram:
    n = spec.n
    target = rng.normal(n)
    norm = float(np.linalg.norm(target))
    if norm < 0.5:
        target = target + np.sign(target + 1e-3)  # keep the target off the origin
        norm = float(np.linalg.norm(target))
    radius = 0.5 * norm
    # min 0.5*||x - target||^2 over the ball of the given radius: the
    # constraint 0.5*||x||^2 - 0.5*radius^2 <= 0 is active at the solution
    return ConvexProgram(
        smooth=QuadraticObjective(np.eye(n), -target, const=0.5 * norm * norm),
        ineqs=(QuadraticInequality(np.eye(n), np.zeros(n), -0.5 * radius * radius),),
        interior_point=np.zeros(n),
        name=spec.label(),
    )


def _box_composite(spec: GeneratorSpec, rng: Lcg) -> ConvexProgram:
    n, m1 = spec.n, spec.m1
    Q = _spd_matrix(rng, n, spec.conditioning)
    q = rng.normal(n)
    center = 0.5 * rng.normal(n)
    widths = rng.uniform(0.5, 1.5, n)
    box = BoxL1Regularizer(n, lo=center - widths, hi=center + widths)
    A = _unit_rows(rng, m1, n)
    return ConvexProgram(
        smooth=QuadraticObjective(Q, q),
        eq=AffineMap(A, A @ center),
        nonsmooth=box,
        interior_point=center,
        name=spec.label(),
    )


def standard_corpus() -> list:
    """The 31-problem verification corpus: 20 sc_qp, reference1d, 5
    degenerate duals, 5 box composites."""
    problems = [generate(GeneratorSpec("sc_qp", seed=s)) for s in range(20)]
    problems.append(generate(GeneratorSpec("reference1d")))
    problems += [generate(GeneratorSpec("degenerate_dual_qp", seed=s)) for s in range(5)]
    problems += [generate(GeneratorSpec("box_composite", seed=s)) for s in range(5)]
    return problems
