"""Exact primal/dual solution sets for affine-constrained QPs.

Both sets come from one face search, the dual active-set search of
Goldfarb & Idnani (1983) on a QP with a positive definite Hessian H. It
finds the minimizer as the KKT point of a face, a set of inequality rows
taken as active, typically with one face solve per active row plus one.
Every face it visits is solved and tested by ``_solve_face`` on one of two
kernels, neither of which builds the face's (n + k)-square KKT matrix:
``_DefiniteHessian`` factors H once and solves a face on k rows as a k x k
block of their Gram matrix C H^-1 C'; ``_UnitHessian`` (H = I on an
orthonormal row basis, for a dual projection) solves it in closed form.

For a positive definite Q the search runs on the program itself. Any other
PSD Q gets two projections, which refuse an empty feasible set
(InfeasibleError) and a feasible descent ray (UnboundedError), then
proximal point steps (Rockafellar 1976; Luque 1984), each the search on
Q + I/t (``_proximal_point``). A Q that is not symmetric or not PSD is
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
from dataclasses import dataclass, field, replace
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

# face solves per row of G (plus one) before the dual active-set search gives up
_SEARCH_CAP = 10
# feasibility and multiplier-sign tolerances of a face's KKT point, at unit
# data scale; _tolerances scales them up for larger data
_FEAS_TOL = 1e-10
_MU_TOL = 1e-12
# rows with g_i(x*) >= -_ACTIVE_TOL are active at x*
_ACTIVE_TOL = 1e-8
# _proximal_point: t (||Q||_2 + ||q||), flat slope test, step cap
_PROX_TAU = 1e5
_PROX_TOL = 1e-15
_PROX_CAP = 500


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
    """A positive definite Hessian Q, factored once, with a QP's rows
    C = [A; G] (the first m1 of them equality rows), right sides r = [b; d]
    and linear term q.

    This is the range-space face solve of Goldfarb & Idnani (1983). One LU
    factorization gives Q^-1, Y = Q^-1 C' and the Gram matrix M = C Q^-1 C'
    of all m1 + m2 rows (made symmetric); q gives x0 = -Q^-1 q and
    h = C x0 - r, which :meth:`with_q` re-derives for another q. A face
    costs matrix-vector products and one solve of a k x k block of M. norm
    is ||Q||_2. :meth:`face` reads the QP's data from the kernel, not from
    the search's arguments.
    """

    Q: np.ndarray
    norm: float
    C: np.ndarray
    r: np.ndarray
    m1: int
    Qinv: np.ndarray
    Y: np.ndarray
    M: np.ndarray
    q: np.ndarray = None
    x0: np.ndarray = None
    h: np.ndarray = None

    @classmethod
    def factor(cls, Q, q, A, b, G, d, norm):
        Qinv = np.linalg.inv(Q)
        C, r = np.vstack([A, G]), np.concatenate([b, d])
        Y = Qinv @ C.T
        M = C @ Y
        return cls(Q, norm, C, r, A.shape[0], Qinv, Y, 0.5 * (M + M.T)).with_q(q)

    def with_q(self, q):
        """The kernel of the same Q and rows with the linear term q."""
        x0 = -(self.Qinv @ q)
        return replace(self, q=q, x0=x0, h=self.C @ x0 - self.r)

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
    and least squares gives the minimum-norm multipliers.
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

    Q is a kernel. :meth:`_DefiniteHessian.face` solves the Gram block of
    the rows of A and G[S], refined on the face's KKT system, whose residual
    is relative to 1 + ||(q, b, d_S)|| + ||Q||_2 ||x||, the size of its
    terms. :meth:`_UnitHessian.face` (a dual projection) is closed form, so
    its residual is that of the rows of A, relative to 1 + ||(q, b)||.
    Both handle duplicated rows; :func:`_test_kkt_point` tests the result.
    """
    if isinstance(Q, _UnitHessian):
        x, mu_S = Q.face(q, A, b, S)
        eq_gap = A @ x - b
        residual, scale = math.sqrt(eq_gap @ eq_gap), math.sqrt(q @ q + b @ b)
    else:
        x, mu_S, residual, rhs_norm = Q.face(S)
        eq_gap, scale = A @ x - b, rhs_norm + Q.norm * math.sqrt(x @ x)
    return _test_kkt_point(x, mu_S, residual, scale, eq_gap, G, d, S, feas_tol, mu_tol)


def _test_kkt_point(x, mu_S, residual, scale, eq_gap, G, d, S, feas_tol, mu_tol):
    """Test x, with the multipliers mu_S of the active rows S of G, as the
    KKT point of its face.

    Returns (x, mu, consistent): x is None when the face has no KKT point,
    that is when the KKT residual exceeds 1e-8 (1 + scale) or x leaves a
    row of A (eq_gap = Ax - b) or of G[S] violated by more than feas_tol (a
    compromise between nearly dependent rows that cannot all hold); mu
    carries the multipliers of S at their row indices and zeros elsewhere,
    and consistent says that x is feasible to feas_tol and mu >= -mu_tol.
    """
    if residual > 1e-8 * (1.0 + scale):
        return None, None, False
    if eq_gap.size and np.abs(eq_gap).max() > feas_tol:
        return None, None, False
    m2 = G.shape[0]
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
    (Frank & Wolfe 1956), so two projections (searches with the identity
    factored as the Hessian) decide it. Projecting 0 onto {Ax = b, Gx <= d}
    raises :class:`InfeasibleError` when that set is empty. With N an
    orthonormal basis of null(Q) and c = N'q scaled to a norm of at most 1
    (the cone below is closed under scaling, the search's tolerances are
    not), a projection z of -c onto the recession cone {z : ANz = 0,
    GNz <= 0} with ||z|| > 1e-8 (1 + ||c||) makes Nz a feasible descent ray
    and raises :class:`UnboundedError`.
    """
    def project(p, A, b, G, d):
        H = _DefiniteHessian.factor(np.eye(p.size), -p, A, b, G, d, 1.0)
        return _dual_active_set_face(H, -p, A, b, G, d)[0]

    project(np.zeros(Q.shape[0]), A, b, G, d)
    N = _null_space(Q)
    c = N.T @ q
    c /= max(1.0, float(np.linalg.norm(c)))
    z = project(-c, A @ N, np.zeros(A.shape[0]), G @ N, np.zeros(G.shape[0]))
    if np.linalg.norm(z) > 1e-8 * (1.0 + np.linalg.norm(c)):
        raise UnboundedError("feasible descent ray found: the objective is unbounded below")


def _face_minimizer(Q, q, A, b, G, d, S, x, norm, tol):
    """(x', consistent) for x on the face S, with rows C = [A; G_S].

    With Z an orthonormal basis of null(C) and Z'QZ = U diag(w) U', a Newton
    step on the curved directions (w > 1e-10 ||Q||_2) moves x to the face's
    minimizer nearest x. On the flat ones f falls linearly along
    v = -Z U_0 U_0' Z'(Qx + q): when ||v|| > tol and a row of G blocks v,
    x' is x moved along v to the first such row, and consistent is False.
    Otherwise x' is x if it passes :func:`_test_kkt_point` with the
    program's own stationarity residual min ||Qx + q + C'nu|| (least
    squares on C'), else None.
    """
    C, r = np.vstack([A, G[S]]), np.concatenate([b, d[S]])
    Z = _null_space(C)
    w, U = np.linalg.eigh(Z.T @ Q @ Z)
    flat = w <= 1e-10 * norm
    g = U.T @ (Z.T @ (Q @ x + q))
    x = x - Z @ (U[:, ~flat] @ (g[~flat] / w[~flat]))
    v = -(Z @ (U[:, flat] @ g[flat]))
    Gv = G @ v
    Gv[S] = 0.0
    if np.linalg.norm(v) > tol and (Gv > 0).any():
        return x + max(0.0, float(np.min((d - G @ x)[Gv > 0] / Gv[Gv > 0]))) * v, False
    grad = Q @ x + q
    nu = np.linalg.lstsq(C.T, -grad, rcond=None)[0]
    residual = float(np.linalg.norm(grad + C.T @ nu))
    scale = math.sqrt(q @ q + r @ r) + norm * math.sqrt(x @ x)
    x, _, consistent = _test_kkt_point(x, nu[A.shape[0]:], residual, scale, A @ x - b, G, d, S, *_tolerances(q, b, d))
    return (x if consistent else None), consistent


def _proximal_point(Q, q, A, b, G, d, norm):
    """A point of X* for a PSD Q that is not certified positive definite.

    After :func:`_check_solvable`, proximal point steps run from x = 0, each
    a search on Q + I/t, factored once, with the linear term q - x_j/t. The
    step size t = _PROX_TAU / s, s = ||Q||_2 + ||q|| (norm is ||Q||_2; s = 1
    when both are 0), keeps the terms t q of a face solve well inside its
    feasibility tolerance. The steps find faces: after each,
    :func:`_face_minimizer` moves x to the minimizer of the step's face, or
    along a flat descent direction to the next row where the slope exceeds
    tol = _PROX_TOL s (1 + ||x||), and the first face minimizer that passes
    the KKT tests is returned. So no small curvature, large ||q|| or long
    flat direction takes many steps. More than _PROX_CAP steps raise
    :class:`EnumerationLimitError`.
    """
    _check_solvable(Q, q, A, b, G, d)
    n = Q.shape[0]
    s = (norm + float(np.linalg.norm(q))) or 1.0
    t = _PROX_TAU / s
    H = _DefiniteHessian.factor(Q + np.eye(n) / t, q, A, b, G, d, norm + 1.0 / t)
    x = np.zeros(n)
    for _ in range(_PROX_CAP):
        q_j = q - x / t
        x, _, S = _dual_active_set_face(H.with_q(q_j), q_j, A, b, G, d)
        x_S, consistent = _face_minimizer(Q, q, A, b, G, d, S, x, norm, _PROX_TOL * s * (1.0 + np.linalg.norm(x)))
        if consistent:
            return x_S
        if x_S is not None:
            x = x_S
    raise EnumerationLimitError(f"the proximal point steps exceeded their cap of {_PROX_CAP}")


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
    solve, and raises :class:`InfeasibleError`. Every face is solved and
    tested by :func:`_solve_face`; the first that passes is returned as
    (x, mu, W), mu holding the multipliers of all rows of G. More than
    _SEARCH_CAP * (m2 + 1) face solves raise :class:`EnumerationLimitError`.
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
    return x, mu, W


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
        x = _dual_active_set_face(H, -p[keep], B, beta, G, d)[0]
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

    x* comes from the dual active-set search (:func:`_dual_active_set_face`)
    on Q factored once when the program's cached spectrum certifies Q
    positive definite, else from :func:`_proximal_point`. Raises
    :class:`ProblemFormatError` naming a non-finite Q, q, A, b, G or d, or a
    Q that is not symmetric (max |Q - Q'| > 1e-10 max(1, max |Q|)) or not
    PSD (least eigenvalue below -2e-10 max(1, largest)); :class:`InfeasibleError`
    when the feasible set is empty or no face passes its tests;
    :class:`UnboundedError` for a feasible descent ray; and
    :class:`EnumerationLimitError` past 10 (m2 + 1) face solves in a search
    or 500 proximal point steps.
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
    norm = float(max(-ev[0], ev[-1]))  # ||Q||_2

    # For orthonormal N the spectrum of N'QN lies inside that of Q, so a
    # positive definite Q leaves no face a flat direction: the program is
    # strictly convex, X* is the single point x*, and the dual active-set
    # search needs no solvability check.
    positive_definite = ev[0] >= 2e-10 * max(1.0, float(ev[-1]))
    if positive_definite:
        H = _DefiniteHessian.factor(Q, q, A, b, G, d, norm)
        x_star = _dual_active_set_face(H, q, A, b, G, d)[0]
    else:
        x_star = _proximal_point(Q, q, A, b, G, d, norm)

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
