"""Exact primal/dual solution sets for affine-constrained QPs.

Both sets come from a face search. It finds the minimizer of a convex QP
as the KKT point of a face, a set of inequality rows taken as active, and
every face it visits is solved and tested by one helper, ``_solve_face``:
a solve of the face's KKT system, then primal feasibility and multiplier
sign tests scaled with the data. How a face is solved depends on the
Hessian kind. For positive definite Q, ``solve_qp_exact`` factors Q once
per program (``_DefiniteHessian``): a face on k rows solves a k x k block
of the rows' Gram matrix C Q^-1 C' and takes one step of iterative
refinement on its KKT system. A dual projection solves its faces in closed
form (below). Only a PSD Q that is not positive definite (the enumeration
and its solvability check) keeps the least-squares solve of the whole
(n + k)-square KKT matrix. Which faces are visited depends on Q:

* positive definite Q (every dual projection, and every program whose
  cached spectrum certifies it) runs the dual active-set search of
  Goldfarb & Idnani (1983). It starts at the face with no inequality row
  and adds violated rows one at a time, typically one face solve per active
  row plus one. Its cap is _SEARCH_CAP * (m2 + 1) face solves.
* any other PSD Q runs the enumeration: faces in subset-index order, up to
  the first consistent one. Its worst case is 2^m2 faces, and it refuses
  more than _ENUM_CAP rows. Before its first face, two more runs of the
  search decide whether the program has a minimizer at all: an empty
  feasible set raises InfeasibleError and a feasible descent ray raises
  UnboundedError, whatever the number of rows.

With the same face solve, both return the same x bit for bit whenever
they stop at the same face. A Q that is not symmetric or not PSD is
refused. The dual solution set is the polyhedron

    { p = (lam, mu) : A' lam + G' mu = -grad s(x*),
      mu_i = 0 for inactive i, mu_j >= 0 for active j }

and its Euclidean projection is the dual active-set search run with Q = I.
A DualPolyhedron keeps its data read-only and is prepared once, on its
first projection: the coordinates pinned to zero are dropped and the n
equality rows are replaced by an orthonormal row basis B of their rank r
(at most m1 + m2) with right side beta, so each face solve carries r rows
instead of n. With Q = I and orthonormal rows, the face with no pinned
coordinate is z = p - B'(Bp - beta) with no solve, and a face pinning the
coordinates J solves one r x r system, (B_F B_F') nu = B_F p_F - beta.
Each distinct point is projected once; a repeated point returns the same
read-only result.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .driver import RunHistory
from .errors import (
    EnumerationLimitError,
    InfeasibleError,
    NoValidSamplesError,
    ProblemFormatError,
    UnboundedError,
)
from .io import _get_matrix, _get_vector, _json_object
from .problem import ConvexProgram, as_vector

_ENUM_CAP = 20
# face solves per row of G (plus one) before the dual active-set search gives up
_SEARCH_CAP = 10
# feasibility and multiplier-sign tolerances of a face's KKT point, at unit
# data scale; _tolerances scales them up for larger data
_FEAS_TOL = 1e-10
_MU_TOL = 1e-12
# rows with g_i(x*) >= -_ACTIVE_TOL are active at x*
_ACTIVE_TOL = 1e-8


def _rank(s, rtol=1e-10):
    """Numerical rank from the singular values s (descending): how many
    exceed rtol times the largest."""
    return int(np.sum(s > rtol * (s[0] if s.size else 1.0)))


def _null_space(M):
    """Orthonormal basis of the null space of M (n columns); n x k array."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M)
    return vh[_rank(s):].T


def _tolerances(q, b, d):
    """(feas_tol, mu_tol) for a face's KKT point: _FEAS_TOL * max(1, |b|, |d|)
    for primal feasibility and _MU_TOL * max(1, |q|) for multiplier signs, so
    both tests keep their meaning when the data is scaled up."""
    feas_tol = _FEAS_TOL * max(1.0, np.abs(b).max(initial=0.0), np.abs(d).max(initial=0.0))
    mu_tol = _MU_TOL * max(1.0, np.abs(q).max(initial=0.0))
    return feas_tol, mu_tol


@dataclass(frozen=True)
class _UnitHessian:
    """Q = I for the projection QP of a DualPolyhedron. The search's A is
    then a row basis B (r x k, orthonormal rows) and its G is -I on the
    coordinates ``signs``, with d = 0; ``BT`` is B', fixed once per
    polyhedron with ``signs``."""

    BT: np.ndarray
    signs: np.ndarray

    def face(self, q, B, beta, S):
        """(x, mu[S]) of the face pinning the coordinates J = signs[S] to zero.

        With p = -q, the free block F satisfies B_F x_F = beta and
        x_F = p_F - B_F' nu. Because BB' = I, face S = {} gives nu = Bp - beta
        with no solve. Otherwise B_F B_F' = I - B_J B_J' is singular when B
        is square, so (B_F B_F') nu = B_F p_F - beta is solved by least
        squares, and the multipliers of J are mu_J = (B' nu)_J - p_J.
        """
        x = -q
        J = self.signs[S]
        p_J = x[J]
        x[J] = 0.0
        nu = B @ x - beta
        if S:
            BF = np.delete(B, J, axis=1)
            nu = np.linalg.lstsq(BF @ BF.T, nu, rcond=None)[0]
        w = self.BT @ nu
        x -= w
        x[J] = 0.0
        return x, w[J] - p_J


@dataclass(frozen=True)
class _DefiniteHessian:
    """A positive definite Q of :func:`solve_qp_exact`, factored once, with
    the program's rows C = [A; G] (the first m1 of them equality rows) and
    right sides r = [b; d] carried through Q^-1.

    This is the range-space face solve of Goldfarb & Idnani (1983). One LU
    factorization of Q gives Q^-1, and with it the program keeps the
    unconstrained minimizer x0 = -Q^-1 q, Y = Q^-1 C', the Gram matrix
    M = C Q^-1 C' of all m1 + m2 rows (made symmetric) and h = C x0 - r. A
    face then costs matrix-vector products and one solve of a k x k block
    of M. The kernel belongs to one program: :meth:`face` reads the
    program's data from it, not from the search's arguments.
    """

    Q: np.ndarray
    q: np.ndarray
    C: np.ndarray
    r: np.ndarray
    m1: int
    Qinv: np.ndarray
    x0: np.ndarray
    Y: np.ndarray
    M: np.ndarray
    h: np.ndarray

    @classmethod
    def factor(cls, Q, q, A, b, G, d):
        Qinv = np.linalg.inv(Q)
        C, r = np.vstack([A, G]), np.concatenate([b, d])
        Y = Qinv @ C.T
        M = C @ Y
        x0 = -(Qinv @ q)
        return cls(Q, q, C, r, A.shape[0], Qinv, x0, Y, 0.5 * (M + M.T), C @ x0 - r)

    def face(self, S):
        """(x, mu[S], residual, rhs_norm) of the face on the k rows
        R = [A; G_S].

        The multipliers nu_R solve the Gram block, M_RR nu_R = h_R
        (:func:`_gram_solver`), and x = x0 - Y_R nu_R. One step of iterative
        refinement on the face's KKT system, with the same factors, then
        corrects (x, nu_R) by its residual (stationarity s = Qx + C_R' nu_R + q
        and the gap g = C_R x - r_R): M_RR dnu = g - Y_R' s and
        dx = -Q^-1 s - Y_R dnu. residual and rhs_norm are the 2-norms of
        the refined KKT residual and of the right side (q, r_R).
        """
        R = np.concatenate([np.arange(self.m1), self.m1 + np.asarray(S, dtype=np.intp)])
        solve = _gram_solver(self.M[R[:, None], R])
        nu = np.zeros(self.r.size)
        nu[R] = solve(self.h[R])
        x = self.x0 - self.Y @ nu
        stat, gap = self._kkt_gap(x, nu, R)
        dnu = np.zeros(self.r.size)
        dnu[R] = solve(gap - (self.Y.T @ stat)[R])
        x -= self.Qinv @ stat + self.Y @ dnu
        nu += dnu
        stat, gap = self._kkt_gap(x, nu, R)
        r_R = self.r[R]
        residual = math.sqrt(stat @ stat + gap @ gap)
        return x, nu[self.m1:][S], residual, math.sqrt(self.q @ self.q + r_R @ r_R)

    def _kkt_gap(self, x, nu, R):
        """(Qx + C'nu + q, (Cx - r)[R]): the KKT residual of the face on
        the rows R at (x, nu), where nu is zero off R."""
        return self.Q @ x + self.C.T @ nu + self.q, (self.C @ x - self.r)[R]


def _gram_solver(M):
    """v -> M^-1 v for the Gram block M of a face's rows, symmetric PSD.

    M is solved by LU (NumPy has no triangular solve for the Cholesky
    factor) when its Cholesky factor L exists with every pivot L_ii^2 above
    1e-10 M_ii. Otherwise some row (nearly) depends on the rows before it,
    and M is solved by least squares, as the KKT least squares of a matrix
    Q handles duplicated rows; M has the null space of the rows' normals,
    so both give the same minimum-norm multipliers.
    """
    try:
        pivots = np.linalg.cholesky(M).diagonal() ** 2
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is None or (pivots <= 1e-10 * M.diagonal()).any():
        return lambda v: np.linalg.lstsq(M, v, rcond=None)[0]
    return lambda v: np.linalg.solve(M, v)


def _solve_face(Q, q, A, b, G, d, S, feas_tol, mu_tol):
    """Solve and test the face on which the rows S of G (ascending) are active.

    Each Hessian kind has its own face solve. A :class:`_DefiniteHessian`
    (positive definite Q, factored once) solves the Gram block of the rows
    of A and G[S] and refines the result on the face's KKT system
    (:meth:`_DefiniteHessian.face`). A :class:`_UnitHessian` (a dual
    projection) solves the face in closed form (:meth:`_UnitHessian.face`);
    its stationarity rows hold by construction, so its KKT residual is that
    of the rows of A. A matrix Q, which is PSD but not certified positive
    definite, has the equality-KKT system of the rows of A and G[S] solved
    by least squares. Rank-deficient systems from duplicated rows are
    handled by all three.
    Returns (x, mu, consistent): x is None when the face has no KKT point,
    that is when the residual exceeds 1e-8 relative or the solution leaves
    a row of A or of G[S] violated by more than feas_tol (a compromise
    between nearly dependent rows that cannot all hold); mu carries the
    multipliers of S at their row indices and zeros elsewhere, and
    consistent says that x is feasible to feas_tol and mu >= -mu_tol.
    """
    m1, m2 = A.shape[0], G.shape[0]
    if isinstance(Q, _UnitHessian):
        x, mu_S = Q.face(q, A, b, S)
        eq_gap = A @ x - b
        residual = math.sqrt(eq_gap @ eq_gap)
        rhs_norm = math.sqrt(q @ q + b @ b)
    elif isinstance(Q, _DefiniteHessian):
        x, mu_S, residual, rhs_norm = Q.face(S)
        eq_gap = A @ x - b
    else:
        n = Q.shape[0]
        C = np.vstack([A, G[S]]) if (m1 or S) else np.zeros((0, n))
        rhs_c = np.concatenate([b, d[S]])
        k = C.shape[0]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = Q
        kkt[:n, n:] = C.T
        kkt[n:, :n] = C
        rhs = np.concatenate([-q, rhs_c])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        residual, rhs_norm = np.linalg.norm(kkt @ sol - rhs), np.linalg.norm(rhs)
        x, mu_S = sol[:n], sol[n + m1:]
        eq_gap = A @ x - b
    if residual > 1e-8 * (1.0 + rhs_norm):
        return None, None, False
    if m1 and np.abs(eq_gap).max() > feas_tol:
        return None, None, False
    slack = G @ x - d
    infeasible = m2 and slack.max() > feas_tol
    if infeasible and S and slack[S].max() > feas_tol:
        return None, None, False
    mu = np.zeros(m2)
    mu[S] = mu_S
    consistent = not (infeasible or (mu < -mu_tol).any())
    return x, mu, consistent


def _check_solvable(Q, q, A, b, G, d):
    """Refuse a PSD program that has no minimizer.

    A convex QP that is feasible and bounded below attains its minimum
    (Frank & Wolfe 1956), so two searches by :func:`_dual_active_set_face`
    decide it. The first minimizes 0.5||x||^2 over {Ax = b, Gx <= d} and
    raises :class:`InfeasibleError` when that set is empty. With N an
    orthonormal basis of null(Q), the second projects -N'q onto the
    recession cone {z : ANz = 0, GNz <= 0}; a projection z != 0 makes Nz a
    feasible descent ray (q'Nz = -||z||^2), and ||z|| > 1e-8 (1 + ||N'q||)
    raises :class:`UnboundedError`.
    """
    n = Q.shape[0]
    _dual_active_set_face(np.eye(n), np.zeros(n), A, b, G, d)
    N = _null_space(Q)
    c = N.T @ q
    z = _dual_active_set_face(np.eye(N.shape[1]), c, A @ N, np.zeros(A.shape[0]),
                              G @ N, np.zeros(G.shape[0]))
    if np.linalg.norm(z) > 1e-8 * (1.0 + np.linalg.norm(c)):
        raise UnboundedError("feasible descent ray found: the objective is unbounded below")


def _first_kkt_face(Q, q, A, b, G, d):
    """The first consistent face in subset-index order, for PSD Q.

    :func:`_check_solvable` first refuses an empty feasible set
    (:class:`InfeasibleError`) and a feasible descent ray
    (:class:`UnboundedError`), so every program that reaches the faces has
    a minimizer. Every face visited is solved and tested by
    :func:`_solve_face`. The worst case is 2^m2 faces, so more than
    _ENUM_CAP rows in G raise :class:`EnumerationLimitError`; a program
    on which no face passes the tests raises :class:`InfeasibleError`.
    """
    _check_solvable(Q, q, A, b, G, d)
    m2 = G.shape[0]
    if m2 > _ENUM_CAP:
        raise EnumerationLimitError(f"{m2} inequality rows exceed the enumeration cap of {_ENUM_CAP}")
    feas_tol, mu_tol = _tolerances(q, b, d)
    for mask in range(1 << m2):
        S = [i for i in range(m2) if mask >> i & 1]
        x, _, consistent = _solve_face(Q, q, A, b, G, d, S, feas_tol, mu_tol)
        if consistent:
            return x
    raise InfeasibleError("no active set yields a KKT-consistent feasible point")


def _dual_active_set_face(Q, q, A, b, G, d):
    """The consistent face of a strictly convex QP by a dual active-set search.

    Goldfarb & Idnani (1983, Math. Program. 27): starting from the
    minimizer on the equality rows alone (the face S = {}), add the most
    violated row p. A full step solves the face W + {p} directly; when that
    face's multipliers on W go negative, a partial step moves mu along the
    line to it until the first of them reaches zero and drops that row.
    When the face W + {p} has no KKT point (G_p depends on the active
    normals, and the face's rows cannot all hold to the feasibility
    tolerance), x stays and the multipliers move along the expansion of G_p
    in the active normals instead; a G_p that no active row can give way to
    proves the program infeasible (:class:`InfeasibleError`). A face with no
    KKT point although G_p is independent of the active normals is a failed
    solve, and raises :class:`InfeasibleError` as the enumeration, finding
    no consistent face, would. Every face is solved and tested by
    :func:`_solve_face`, and the search returns the first face that passes,
    so with the same face solve its x is the enumeration's bit for bit
    whenever both land on the same face. A face costs one solve; most searches take one per active row plus
    one, and more than _SEARCH_CAP * (m2 + 1) solves raise
    :class:`EnumerationLimitError`.
    """
    m1, m2 = A.shape[0], G.shape[0]
    feas_tol, mu_tol = _tolerances(q, b, d)
    cap = _SEARCH_CAP * (m2 + 1)
    W = []
    x, mu, consistent = _solve_face(Q, q, A, b, G, d, W, feas_tol, mu_tol)
    if x is None:
        raise InfeasibleError("the equality rows are inconsistent")
    solves = 1
    while not consistent:
        slack = G @ x - d
        slack[W] = -np.inf
        if not (m2 and slack.max() > feas_tol):
            raise InfeasibleError(f"face {W} fails its KKT tests with no violated row left to add")
        p = int(np.argmax(slack))
        while True:
            if solves >= cap:
                raise EnumerationLimitError(f"the dual active-set search exceeded its cap of {cap} face solves")
            S = sorted(W + [p])
            x_new, mu_new, consistent = _solve_face(Q, q, A, b, G, d, S, feas_tol, mu_tol)
            solves += 1
            if x_new is None:
                # G_p = A'r_A + G_W'r over the active normals: raising mu_p
                # by t lowers mu_W by t r, and the first row to reach zero
                # leaves; with no r_i > 0 row p contradicts the active rows
                N = np.vstack([A, G[W]]).T
                r = np.linalg.lstsq(N, G[p], rcond=None)[0]
                if np.linalg.norm(N @ r - G[p]) > 1e-8 * (1.0 + np.linalg.norm(G[p])):
                    raise InfeasibleError(f"face {S} has no KKT point, yet row {p} is independent "
                                          "of the active rows")
                r = r[m1:]
                give = [(mu[i] / ri, i) for i, ri in zip(W, r) if ri > 1e-12 * max(1.0, np.abs(r).max())]
                if not give:
                    raise InfeasibleError(f"inequality row {p} cannot hold together with the active rows")
                t, j = min(give)
                mu[W] -= t * r
            else:
                neg = [i for i in W if mu_new[i] < -mu_tol]
                if not neg:
                    x, mu, W = x_new, mu_new, S
                    break
                # x moves along the same line, but nothing reads it before
                # the next full step replaces it
                theta, j = min((mu[i] / (mu[i] - mu_new[i]), i) for i in neg)
                mu[W] += max(theta, 0.0) * (mu_new[W] - mu[W])
            mu[j] = 0.0
            W.remove(j)
    return x


@dataclass(frozen=True)
class DualPolyhedron:
    """{p : eq_mat p = eq_rhs, p_i = 0 (i in zero_idx), p_j >= 0 (j in nonneg_idx)}.

    The arrays are copied read-only and the index lists frozen to tuples at
    construction, so the row basis and the projections it keeps cannot go
    stale.
    """

    eq_mat: np.ndarray
    eq_rhs: np.ndarray
    zero_idx: tuple
    nonneg_idx: tuple
    # p.tobytes() -> project(p), for every point projected so far
    _projections: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("eq_mat", "eq_rhs"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        for name in ("zero_idx", "nonneg_idx"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.eq_mat.shape[1]

    def contains(self, p, tol=1e-9) -> bool:
        p = as_vector(p, self.m, "p")
        if np.linalg.norm(self.eq_mat @ p - self.eq_rhs) > tol:
            return False
        if any(abs(p[i]) > tol for i in self.zero_idx):
            return False
        return all(p[j] >= -tol for j in self.nonneg_idx)

    @cached_property
    def _reduced(self):
        """(keep, H, B, beta, G, d) for the projection QP, built on first use.

        keep lists the coordinates not pinned to zero. On them the equality
        rows E_k = eq_mat[:, keep] (n x k) become B = V_r' (r x k), the
        orthonormal row basis of an SVD E_k = U S V' with r singular values
        above 1e-10 relative (the cutoff of _null_space), and eq_rhs
        becomes beta = S_r^-1 U_r' eq_rhs. G = -I on the sign-constrained
        coordinates and d = 0. H is the :class:`_UnitHessian` that stands
        for Q = I and carries B' and the sign positions in keep, so no face
        rebuilds them. Raises :class:`InfeasibleError` when eq_rhs has a
        component outside the range of E_k above 1e-8 (1 + |eq_rhs|).
        """
        zero = set(self.zero_idx)
        keep = [i for i in range(self.m) if i not in zero]
        U, s, vh = np.linalg.svd(self.eq_mat[:, keep], full_matrices=False)
        r = _rank(s)
        e_r = U[:, :r].T @ self.eq_rhs
        if np.linalg.norm(self.eq_rhs - U[:, :r] @ e_r) > 1e-8 * (1.0 + np.linalg.norm(self.eq_rhs)):
            raise InfeasibleError("the equality rows are inconsistent")
        B = vh[:r]
        signs = np.array([keep.index(j) for j in self.nonneg_idx], dtype=np.intp)
        G = -np.eye(len(keep))[signs]
        H = _UnitHessian(BT=np.ascontiguousarray(B.T), signs=signs)
        return np.array(keep, dtype=np.intp), H, B, e_r / s[:r], G, np.zeros(signs.size)

    def project(self, p):
        """(z, ||z - p||) for the Euclidean projection z of p.

        The projection minimizes 0.5||z - p||^2 over the coordinates not
        pinned to zero, subject to the row basis of the equality rows
        (:attr:`_reduced`) and z_j >= 0 on the sign-constrained ones: a QP
        with Q = I, solved exactly by :func:`_dual_active_set_face`, whose
        faces :meth:`_UnitHessian.face` solves in closed form on the row
        basis. Sign-constrained entries are clipped at zero, so roundoff
        cannot leave them negative. The result is kept: projecting the same
        p again returns the same tuple, whose z is read-only.
        """
        p = as_vector(p, self.m, "p")
        key = p.tobytes()
        if key in self._projections:
            return self._projections[key]
        keep, H, B, beta, G, d = self._reduced
        x = _dual_active_set_face(H, -p[keep], B, beta, G, d)
        x[H.signs] = np.maximum(x[H.signs], 0.0)
        z = np.zeros(self.m)
        z[keep] = x
        z.setflags(write=False)
        result = self._projections[key] = (z, float(np.linalg.norm(z - p)))
        return result

    def as_dict(self):
        return {
            "eq_mat": self.eq_mat.tolist(),
            "eq_rhs": self.eq_rhs.tolist(),
            "zero_idx": list(self.zero_idx),
            "nonneg_idx": list(self.nonneg_idx),
        }

    @classmethod
    def from_dict(cls, d):
        """Read as_dict's form; raises :class:`ProblemFormatError` naming
        the first malformed field (as ``dual.<field>``)."""
        if not isinstance(d, dict):
            raise ProblemFormatError("dual", "expected an object")
        rhs = _get_vector(d, "eq_rhs", parent="dual")
        mat = _get_matrix(d, "eq_mat", rhs.size, None, parent="dual")
        zero, nonneg = (_get_indices(d, name, mat.shape[1]) for name in ("zero_idx", "nonneg_idx"))
        both = set(zero) & set(nonneg)
        if both:
            raise ProblemFormatError("dual.nonneg_idx", f"repeats zero_idx entries {sorted(both)}")
        return cls(mat, rhs, zero, nonneg)


def _get_indices(d, field, m):
    """d[field] as a tuple of distinct integers in [0, m)."""
    name = f"dual.{field}"
    if field not in d:
        raise ProblemFormatError(name, "missing")
    raw = d[field]
    if not isinstance(raw, list) or any(isinstance(i, bool) for i in raw):
        raise ProblemFormatError(name, "expected a list of integers")
    try:
        idx = tuple(operator.index(i) for i in raw)
    except TypeError as exc:
        raise ProblemFormatError(name, "expected a list of integers") from exc
    if any(not 0 <= i < m for i in idx):
        raise ProblemFormatError(name, f"indices must lie in [0, {m}), got {list(idx)}")
    if len(set(idx)) != len(idx):
        raise ProblemFormatError(name, f"repeated index in {list(idx)}")
    return idx


@dataclass
class SolutionSetOracle:
    """Exact descriptions of the primal and dual solution sets.

    The primal set is x0 + span(primal_basis); a strongly convex objective
    gives an empty basis (a single point). The dual set is polyhedral.
    """

    primal_point: np.ndarray
    primal_basis: np.ndarray
    dual: DualPolyhedron
    fingerprint: str = ""

    def primal_is_singleton(self) -> bool:
        return self.primal_basis.shape[1] == 0

    def to_json(self, path=None):
        doc = {
            "primal_point": self.primal_point.tolist(),
            "primal_basis": self.primal_basis.tolist(),
            "dual": self.dual.as_dict(),
            "fingerprint": self.fingerprint,
        }
        if path is not None:
            with open(path, "w") as fh:
                fh.write(json.dumps(doc, indent=1))
        return doc

    @classmethod
    def from_json(cls, source) -> "SolutionSetOracle":
        """Read to_json's document, from a path or as a dict; every field is
        checked, and a malformed one raises :class:`ProblemFormatError`."""
        doc = _json_object(source)
        point = _get_vector(doc, "primal_point")
        basis = _get_matrix(doc, "primal_basis", point.size, None)
        if "dual" not in doc:
            raise ProblemFormatError("dual", "missing")
        dual = DualPolyhedron.from_dict(doc["dual"])
        if dual.eq_rhs.size != point.size:
            raise ProblemFormatError("dual.eq_rhs", f"expected length {point.size}, got {dual.eq_rhs.size}")
        fingerprint = doc.get("fingerprint", "")
        if not isinstance(fingerprint, str):
            raise ProblemFormatError("fingerprint", "expected a string")
        return cls(point, basis, dual, fingerprint)


def solve_qp_exact(prog: ConvexProgram) -> SolutionSetOracle:
    """Exact solution sets of an affine-constrained QP.

    x* and the active set come from the dual active-set search
    (:func:`_dual_active_set_face`) when the program's cached spectrum
    certifies Q positive definite, else from the enumeration
    (:func:`_first_kkt_face`): the first active set in subset-index order
    whose KKT point is feasible with mu >= 0. A positive definite Q is
    factored once (:class:`_DefiniteHessian`), and each face the search
    visits solves a block of the rows' Gram matrix with one step of
    iterative refinement, with no KKT least squares; the enumeration keeps
    the least-squares solve of each face's KKT matrix. Raises
    :class:`ProblemFormatError` naming a non-finite Q, q, A, b, G or d
    before any factorization, and naming a Q that is not symmetric
    (max |Q - Q'| > 1e-10 max(1, max |Q|)) or not PSD (least eigenvalue
    below -2e-10 max(1, largest)), on which no face is exact.
    Raises :class:`InfeasibleError` when the feasible set is empty or no
    face passes, :class:`UnboundedError` when a feasible descent ray exists
    (positive definite Q has none; for other Q both are decided by
    :func:`_check_solvable` before the enumeration's first face), and
    :class:`EnumerationLimitError` past either search's cap: m2 > _ENUM_CAP
    = 20 rows for the enumeration, _SEARCH_CAP (m2 + 1) = 10 (m2 + 1) face
    solves for a search.
    """
    if not prog.is_affine_qp():
        raise ValueError("the oracle requires a quadratic objective with affine constraints")
    n, m1, m2 = prog.n, prog.m1, prog.m2
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    G, d = prog.ineq_matrix(), prog.ineq_rhs()
    for name, arr in (("Q", Q), ("q", q), ("A", A), ("b", b), ("G", G), ("d", d)):
        if not np.isfinite(arr).all():
            raise ProblemFormatError(name, "must be finite")
    prog.check_convex()
    ev = prog.q_spectrum

    # For orthonormal N the spectrum of N'QN lies inside that of Q, so a
    # positive definite Q leaves no face a flat direction: the program is
    # strictly convex, X* is the single point x*, and the dual active-set
    # search needs no solvability check.
    positive_definite = ev[0] >= 2e-10 * max(1.0, float(ev[-1]))
    if positive_definite:
        x_star = _dual_active_set_face(_DefiniteHessian.factor(Q, q, A, b, G, d), q, A, b, G, d)
    else:
        x_star = _first_kkt_face(Q, q, A, b, G, d)

    primal_basis = np.zeros((n, 0)) if positive_definite else _null_space(np.vstack([Q, A, G]))
    grad_at_star = Q @ x_star + q
    g_star = G @ x_star - d if m2 else np.zeros(0)
    active = [i for i in range(m2) if g_star[i] >= -_ACTIVE_TOL]
    inactive = [i for i in range(m2) if i not in active]
    E = np.hstack([A.T, G.T]) if (m1 + m2) else np.zeros((n, 0))
    dual = DualPolyhedron(
        eq_mat=E,
        eq_rhs=-grad_at_star,
        zero_idx=tuple(m1 + i for i in inactive),
        nonneg_idx=tuple(m1 + i for i in active),
    )
    return SolutionSetOracle(
        primal_point=x_star,
        primal_basis=primal_basis,
        dual=dual,
        fingerprint=prog.fingerprint(),
    )


def project_primal(oracle: SolutionSetOracle, x):
    """Projection of x onto the primal solution set and its distance."""
    x = as_vector(x, oracle.primal_point.shape[0], "x")
    z = oracle.primal_point
    if oracle.primal_basis.shape[1]:
        V = oracle.primal_basis
        z = z + V @ (V.T @ (x - z))
    return z, float(np.linalg.norm(x - z))


def project_dual(oracle: SolutionSetOracle, p):
    """Projection of p = (lam, mu) onto the dual solution set and its distance."""
    return oracle.dual.project(p)


def joint_distance(oracle: SolutionSetOracle, x, p) -> float:
    """Distance from (x, p) to the product of the two solution sets."""
    _, dx = project_primal(oracle, x)
    _, dp = project_dual(oracle, p)
    return math.hypot(dx, dp)


@dataclass
class ErrorBoundEstimate:
    """Empirical lower estimate of the error-bound modulus kappa.

    kappa_hat is the largest observed ratio dist((x, p), solution sets) over
    ||(y, u)||; epsilon_used records the residual range the samples cover.
    """

    kappa_hat: float
    epsilon_used: float


def estimate_kappa(history: RunHistory, oracle: SolutionSetOracle) -> ErrorBoundEstimate:
    """Estimate kappa from the last ceil(N/4) of a run's N iterations.

    Iterations with ||(y, u)|| < 1e-13 are skipped (roundoff dominates);
    raises :class:`NoValidSamplesError` when nothing remains.
    """
    records = history.records
    if not records:
        raise NoValidSamplesError("empty run history")
    count = max(1, math.ceil(0.25 * len(records)))
    ratios = []
    eps_used = 0.0
    for rec in records[-count:]:
        resid = rec.residual()
        if resid < 1e-13:
            continue
        dist = joint_distance(oracle, rec.x, rec.p.as_vector())
        ratios.append(dist / resid)
        eps_used = max(eps_used, resid)
    if not ratios:
        raise NoValidSamplesError("all tail iterations have negligible residual")
    return ErrorBoundEstimate(kappa_hat=float(max(ratios)), epsilon_used=eps_used)
