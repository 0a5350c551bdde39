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
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ProblemFormatError


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

    def value(self, x):
        """A float for an array x of shape (n,), one value per row for x of
        shape (k, n). A vector takes ndarray.dot, which runs the BLAS
        kernels of @ with less call overhead and gives the same bits
        (``tests/test_lc_reference.py::test_dot_gives_the_bits_of_matmul``);
        the rows of a (k, n) x share one matrix product, so their values
        can differ from the vector values in the last bits."""
        if x.ndim == 1:
            return float(0.5 * x.dot(self.Q).dot(x) + x.dot(self.q) + self.const)
        return 0.5 * np.vecdot(x @ self.Q, x) + x @ self.q + self.const

    def grad(self, x):
        return self.Q.dot(x) + self.q


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
            lower += np.where(x > 0, self.weight, -self.weight)
            upper += np.where(x < 0, -self.weight, self.weight)
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
        return self.A.dot(x) - self.b


class AffineInequality:
    """g(x) = coeff . x - offset, constrained to be <= 0."""

    def __init__(self, coeff, offset):
        self.coeff = as_vector(coeff, name="coeff")
        self.offset = float(offset)

    def value(self, x):
        """A float for x of shape (n,), one value per row for x of shape (k, n)."""
        v = x @ self.coeff - self.offset
        return v if v.ndim else float(v)

    def grad(self, x):
        return self.coeff


class QuadraticInequality:
    """g(x) = 0.5*x'Px + r.x + s with P PSD, constrained to be <= 0."""

    def __init__(self, P, r, s):
        self.r = as_vector(r, name="r")
        n = self.r.shape[0]
        self.P = np.asarray(P, dtype=float).reshape(n, n)
        self.s = float(s)

    def value(self, x):
        """A float for x of shape (n,), one value per row for x of shape (k, n)."""
        v = 0.5 * np.vecdot(x @ self.P, x) + x @ self.r + self.s
        return v if v.ndim else float(v)

    def grad(self, x):
        return self.P @ x + self.r


@dataclass
class ConvexProgram:
    """Immutable problem description; all evaluation methods are pure.

    The stacked rows and spectral quantities are cached on first use.
    """

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

    @cached_property
    def _rows(self):
        """(G, d, jac, quad), stacked once and read-only: G is m2 x n and
        C-contiguous, jac the n x m2 copy of G.T in np.column_stack's layout.
        Quadratic rows are zero in G, d and jac, and listed in quad as
        (index, row) pairs.

        The copy costs a second m2 x n block but keeps the bits: callers
        multiply grad_g's jac by multipliers, and G.T @ s differs from
        jac @ s in the last bits, as np.vecdot(jac.T, x) does from
        np.vecdot(G, x) in eval_g (numpy 2.4, one OpenBLAS thread: 1127
        and 986 of 1400 random shapes up to 400 x 160)."""
        G, d, quad = np.zeros((self.m2, self.n)), np.zeros(self.m2), []
        for i, con in enumerate(self.ineqs):
            if isinstance(con, AffineInequality):
                G[i], d[i] = con.coeff, con.offset
            else:
                quad.append((i, con))
        jac = np.ascontiguousarray(G.T)
        for a in (G, d, jac):
            a.setflags(write=False)
        return G, d, jac, tuple(quad)

    def eval_g(self, x):
        # np.vecdot runs the dot kernel of a per-row coeff @ x, so the bits
        # match it; G @ x sums in another order, which changes the last
        # bits and with them every step length the inner solver takes
        if not self.ineqs:
            return np.zeros(0)
        G, d, _, quad = self._rows
        g = np.vecdot(G, x) - d
        for i, con in quad:
            g[i] = con.value(x)
        return g

    def grad_g(self, x):
        """n x m2 matrix whose columns are the inequality gradients; the
        cached read-only block when every inequality is affine."""
        _, _, jac, quad = self._rows
        if not quad:
            return jac
        jac = jac.copy()
        for i, con in quad:
            jac[:, i] = con.grad(x)
        return jac

    def eq_matrix(self):
        return self.eq.A if self.eq is not None else np.zeros((0, self.n))

    def eq_rhs(self):
        return self.eq.b if self.eq is not None else np.zeros(0)

    def ineq_matrix(self):
        """Read-only m2 x n matrix whose rows are the coefficients of the
        affine inequalities G x <= d; every inequality must be affine."""
        return self._rows[0]

    def ineq_rhs(self):
        return self._rows[1]

    @property
    def ineqs_affine(self) -> bool:
        return not self._rows[3]

    def is_affine_qp(self) -> bool:
        """Quadratic objective, affine constraints, no nonsmooth part."""
        return isinstance(self.smooth, QuadraticObjective) and self.nonsmooth is None and self.ineqs_affine

    @cached_property
    def q_spectrum(self):
        """Ascending eigenvalues of sym(Q); see :func:`_sym_spectrum`."""
        return _sym_spectrum(self.smooth.Q)

    def check_convex(self):
        """Raise :class:`ProblemFormatError` naming Q, or the P of quadratic
        row i as ineq[i].P, when that matrix M is not symmetric
        (max |M - M'| > 1e-10 max(1, max |M|)) or not PSD (least eigenvalue
        below -2e-10 max(1, largest)). Q's test reads the cached spectrum."""
        _require_psd("Q", self.smooth.Q, self.q_spectrum)
        for i, con in self._rows[3]:
            _require_psd(f"ineq[{i}].P", con.P, _sym_spectrum(con.P))

    @cached_property
    def norms_sq(self):
        """(||A||_2^2, ||G||_2^2), each 0.0 for an empty block."""
        return tuple(float(np.linalg.norm(M, 2)) ** 2 if M.size else 0.0
                     for M in (self.eq_matrix(), self.ineq_matrix()))

    @cached_property
    def constraint_norms(self):
        """(||A||_F, ||b||, row norms): the 2-norm of each affine
        inequality's coeff in row order, None for a quadratic row, whose
        gradient depends on x. Each is the float of one np.linalg.norm call
        on that array, as the inner solver's certificate floor reads it."""
        rows = tuple(float(np.linalg.norm(con.coeff)) if isinstance(con, AffineInequality) else None
                     for con in self.ineqs)
        return float(np.linalg.norm(self.eq_matrix())), float(np.linalg.norm(self.eq_rhs())), rows

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


def _sym_spectrum(M):
    """Ascending eigenvalues of sym(M), or [nan] for a non-finite M, on
    which eigvalsh returns zeros or fails; comparisons with NaN are false,
    so no bound or definiteness is claimed for such an M."""
    Ms = 0.5 * (M + M.T)
    return np.linalg.eigvalsh(Ms) if np.isfinite(Ms).all() else np.full(1, np.nan)


def _require_psd(field, M, ev):
    """The symmetry and PSD tests of :meth:`ConvexProgram.check_convex` on
    one matrix M with ev = _sym_spectrum(M)."""
    sym = field.rpartition(".")[2]
    skew = float(np.abs(M - M.T).max(initial=0.0))
    if skew > 1e-10 * max(1.0, float(np.abs(M).max(initial=0.0))):
        raise ProblemFormatError(field, f"must be symmetric, but max |{sym} - {sym}'| = {skew:.3g}")
    if ev[0] < -2e-10 * max(1.0, float(ev[-1])):
        raise ProblemFormatError(field, f"must be positive semidefinite, but its least eigenvalue is {ev[0]:.3g}")


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
