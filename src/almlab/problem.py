"""Convex program model: objective oracles, constraint maps, KKT residuals.

The decision space is R^n with the dot product. A program minimizes
``f(x) = s(x) + r(x)`` subject to ``h(x) = 0`` and ``g(x) <= 0`` where ``s``
is smooth convex, ``r`` is an optional prox-friendly nonsmooth part
(weighted l1 and/or a box indicator), ``h`` is affine and every ``g_i`` is
smooth convex (affine or convex quadratic).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


def as_vector(x, n=None, name="x"):
    """Coerce to a 1-D float array, optionally checking its length."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a vector, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise DimensionMismatchError(f"{name} has length {a.shape[0]}, expected {n}")
    return a


class QuadraticObjective:
    """Smooth convex quadratic 0.5*x'Qx + q'x + const with Q symmetric PSD."""

    def __init__(self, Q, q, const=0.0):
        self.q = as_vector(q, name="q")
        n = self.q.shape[0]
        self.Q = np.asarray(Q, dtype=float).reshape(n, n)
        self.const = float(const)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def value(self, x) -> float:
        return float(0.5 * (x @ self.Q @ x) + self.q @ x + self.const)

    def grad(self, x):
        return self.Q @ x + self.q


class BoxL1Regularizer:
    """Nonsmooth part r(x) = sum_i w_i |x_i| + indicator of the box [lo, hi].

    Both pieces are optional. The proximal map is soft-thresholding followed
    by clipping, which is exact because each coordinate problem is a convex
    scalar minimization over an interval.
    """

    def __init__(self, n, l1_weight=None, lo=None, hi=None):
        self.n = int(n)
        if l1_weight is None:
            self.weight = None
        else:
            w = np.asarray(l1_weight, dtype=float)
            self.weight = np.full(self.n, float(w)) if w.ndim == 0 else as_vector(w, self.n, "l1_weight")
            if (self.weight < 0).any():
                raise ValueError("l1 weights must be nonnegative")
        if lo is None and hi is None:
            self.lo = self.hi = None
        else:
            self.lo = np.full(self.n, -np.inf) if lo is None else _broadcast_bound(lo, self.n)
            self.hi = np.full(self.n, np.inf) if hi is None else _broadcast_bound(hi, self.n)
            if (self.lo > self.hi).any():
                raise ValueError("box lower bounds exceed upper bounds")

    def value(self, x) -> float:
        if self.lo is not None and ((x < self.lo) | (x > self.hi)).any():
            return math.inf
        return float(self.weight @ np.abs(x)) if self.weight is not None else 0.0

    def prox(self, v, t):
        """argmin_u r(u) + ||u - v||^2 / (2t)."""
        if t <= 0:
            raise ValueError("prox step size must be positive")
        z = v
        if self.weight is not None:
            z = np.sign(v) * np.maximum(np.abs(v) - t * self.weight, 0.0)
        if self.lo is not None:
            z = np.clip(z, self.lo, self.hi)
        return z

    def subgradient_interval(self, x):
        """Componentwise interval [lower, upper] equal to the subdifferential."""
        lower = np.zeros(self.n)
        upper = np.zeros(self.n)
        if self.weight is not None:
            pos, neg, zero = x > 0, x < 0, x == 0
            lower += np.where(pos, self.weight, np.where(neg, -self.weight, -self.weight))
            upper += np.where(neg, -self.weight, np.where(pos, self.weight, self.weight))
        if self.lo is not None:
            # normal cone of the box: prox output hits bounds exactly, so
            # comparisons with == are reliable for iterates it produced
            lower = np.where(x <= self.lo, -np.inf, lower)
            upper = np.where(x >= self.hi, np.inf, upper)
        return lower, upper

    def contains_subgradient(self, x, d, tol=1e-10) -> bool:
        lower, upper = self.subgradient_interval(x)
        return bool(np.all(d >= lower - tol) and np.all(d <= upper + tol))


def _broadcast_bound(v, n):
    a = np.asarray(v, dtype=float)
    return np.full(n, float(a)) if a.ndim == 0 else as_vector(a, n, "bound")


class AffineMap:
    """h(x) = A x - b."""

    def __init__(self, A, b):
        self.b = as_vector(b, name="b")
        self.A = np.asarray(A, dtype=float).reshape(self.b.shape[0], -1)

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def value(self, x):
        return self.A @ x - self.b


class AffineInequality:
    """g(x) = coeff . x - offset, constrained to be <= 0."""

    def __init__(self, coeff, offset):
        self.coeff = as_vector(coeff, name="coeff")
        self.offset = float(offset)

    def value(self, x) -> float:
        return float(self.coeff @ x - self.offset)

    def grad(self, x):
        return self.coeff


class QuadraticInequality:
    """g(x) = 0.5*x'Px + r.x + s with P PSD, constrained to be <= 0."""

    def __init__(self, P, r, s):
        self.r = as_vector(r, name="r")
        n = self.r.shape[0]
        self.P = np.asarray(P, dtype=float).reshape(n, n)
        self.s = float(s)

    def value(self, x) -> float:
        return float(0.5 * (x @ self.P @ x) + self.r @ x + self.s)

    def grad(self, x):
        return self.P @ x + self.r


@dataclass
class ConvexProgram:
    """Immutable problem description; all evaluation methods are pure."""

    smooth: QuadraticObjective
    eq: AffineMap | None = None
    ineqs: tuple = ()
    nonsmooth: BoxL1Regularizer | None = None
    interior_point: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.ineqs = tuple(self.ineqs)
        n = self.n
        if self.eq is not None and self.eq.A.shape[1] != n:
            raise DimensionMismatchError(
                f"equality map has {self.eq.A.shape[1]} columns, expected {n}"
            )
        for i, g in enumerate(self.ineqs):
            gn = g.coeff.shape[0] if isinstance(g, AffineInequality) else g.r.shape[0]
            if gn != n:
                raise DimensionMismatchError(f"inequality {i} has dimension {gn}, expected {n}")
        if self.nonsmooth is not None and self.nonsmooth.n != n:
            raise DimensionMismatchError("nonsmooth term dimension mismatch")
        if self.interior_point is not None:
            self.interior_point = as_vector(self.interior_point, n, "interior_point")

    @property
    def n(self) -> int:
        return self.smooth.n

    @property
    def m1(self) -> int:
        return 0 if self.eq is None else self.eq.m

    @property
    def m2(self) -> int:
        return len(self.ineqs)

    @property
    def is_smooth(self) -> bool:
        return self.nonsmooth is None

    def f_value(self, x) -> float:
        v = self.smooth.value(x)
        return v + self.nonsmooth.value(x) if self.nonsmooth is not None else v

    def eval_h(self, x):
        return self.eq.value(x) if self.eq is not None else np.zeros(0)

    def eval_g(self, x):
        return np.array([g.value(x) for g in self.ineqs]) if self.ineqs else np.zeros(0)

    def grad_g(self, x):
        """n x m2 matrix whose columns are the inequality gradients."""
        if not self.ineqs:
            return np.zeros((self.n, 0))
        return np.column_stack([g.grad(x) for g in self.ineqs])

    def eq_matrix(self):
        return self.eq.A if self.eq is not None else np.zeros((0, self.n))

    def eq_rhs(self):
        return self.eq.b if self.eq is not None else np.zeros(0)

    def ineq_matrix(self):
        """m2 x n matrix whose rows are the coefficients of the affine
        inequalities G x <= d; every inequality must be affine."""
        return np.vstack([g.coeff for g in self.ineqs]) if self.ineqs else np.zeros((0, self.n))

    def ineq_rhs(self):
        return np.array([g.offset for g in self.ineqs]) if self.ineqs else np.zeros(0)

    def is_affine_qp(self) -> bool:
        """Quadratic objective, affine constraints, no nonsmooth part."""
        return (
            isinstance(self.smooth, QuadraticObjective)
            and self.nonsmooth is None
            and all(isinstance(g, AffineInequality) for g in self.ineqs)
        )

    def fingerprint(self) -> str:
        """Stable content hash used to match traces with oracle solutions."""
        h = hashlib.sha256()
        h.update(f"n={self.n};m1={self.m1};m2={self.m2};".encode())
        h.update(np.ascontiguousarray(self.smooth.Q).tobytes())
        h.update(np.ascontiguousarray(self.smooth.q).tobytes())
        h.update(np.float64(self.smooth.const).tobytes())
        if self.eq is not None:
            h.update(np.ascontiguousarray(self.eq.A).tobytes())
            h.update(np.ascontiguousarray(self.eq.b).tobytes())
        for g in self.ineqs:
            if isinstance(g, AffineInequality):
                h.update(b"aff" + g.coeff.tobytes() + np.float64(g.offset).tobytes())
            else:
                h.update(b"quad" + np.ascontiguousarray(g.P).tobytes() + g.r.tobytes() + np.float64(g.s).tobytes())
        if self.nonsmooth is not None:
            r = self.nonsmooth
            h.update(b"w" + (r.weight.tobytes() if r.weight is not None else b"-"))
            h.update(b"lo" + (r.lo.tobytes() if r.lo is not None else b"-"))
            h.update(b"hi" + (r.hi.tobytes() if r.hi is not None else b"-"))
        return h.hexdigest()


@dataclass
class DualPoint:
    """Multiplier pair p = (lam, mu); algorithm-produced points keep mu >= 0."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.lam = as_vector(self.lam, name="lam")
        self.mu = as_vector(self.mu, name="mu")

    @classmethod
    def zeros(cls, m1: int, m2: int) -> "DualPoint":
        return cls(np.zeros(m1), np.zeros(m2))

    @classmethod
    def from_vector(cls, vec, m1: int) -> "DualPoint":
        vec = as_vector(vec, name="p")
        return cls(vec[:m1], vec[m1:])

    @property
    def m(self) -> int:
        return self.lam.shape[0] + self.mu.shape[0]

    def as_vector(self):
        return np.concatenate([self.lam, self.mu])


@dataclass
class KktResidual:
    """Componentwise violations of the first-order optimality system."""

    stationarity: float
    eq_feas: float
    ineq_feas: float
    comp: float
    mu_neg: float

    def max_violation(self) -> float:
        return max(self.stationarity, self.eq_feas, self.ineq_feas, self.comp, self.mu_neg)

    def as_dict(self):
        return dict(vars(self))


def eval_constraints(prog: ConvexProgram, x):
    """Values (h(x), g(x)) of the constraint maps."""
    x = as_vector(x, prog.n)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return prog.eval_h(x), prog.eval_g(x)


def lagrangian_value(prog: ConvexProgram, x, p: DualPoint) -> float:
    """f(x) + <lam, h(x)> + <mu, g(x)>, or -inf when some mu_i < 0."""
    x = as_vector(x, prog.n)
    if (p.mu < 0).any():
        return -math.inf
    h, g = prog.eval_h(x), prog.eval_g(x)
    return prog.f_value(x) + float(p.lam @ h) + float(p.mu @ g)


def lagrangian_grad(prog: ConvexProgram, x, p: DualPoint):
    """Gradient in x of s(x) + <lam, h(x)> + <mu, g(x)>, the smooth part of
    the ordinary Lagrangian."""
    grad = prog.smooth.grad(x)
    if prog.m1:
        grad = grad + prog.eq_matrix().T @ p.lam
    if prog.m2:
        grad = grad + prog.grad_g(x) @ p.mu
    return grad


def kkt_residual(prog: ConvexProgram, x, p: DualPoint, y) -> KktResidual:
    """Residuals of the optimality system at (x, p) with certificate y.

    The caller guarantees y is an element of the subdifferential of the
    ordinary Lagrangian in x at (x, p); its norm is then a valid
    stationarity residual.
    """
    x = as_vector(x, prog.n)
    y = as_vector(y, prog.n, "y")
    if p.lam.shape[0] != prog.m1 or p.mu.shape[0] != prog.m2:
        raise DimensionMismatchError("dual point does not match the program")
    h, g = prog.eval_h(x), prog.eval_g(x)
    return KktResidual(
        stationarity=float(np.linalg.norm(y)),
        eq_feas=float(np.linalg.norm(h)),
        ineq_feas=float(np.linalg.norm(np.maximum(g, 0.0))),
        comp=abs(float(p.mu @ g)),
        mu_neg=float(np.linalg.norm(np.minimum(p.mu, 0.0))),
    )
