"""Exact primal/dual solution sets for affine-constrained QPs.

Both sets come from one face search, the dual active-set search of
Goldfarb & Idnani (1983) on a QP with a positive definite Hessian H. It
finds the minimizer as the KKT point of a face, a set of inequality rows
taken as active, typically with one face solve per active row plus one.
Every face it visits is solved by one of two kernels, neither of which
builds the face's (n + k)-square KKT matrix, and tested by
``_test_kkt_point``: ``_DefiniteHessian`` factors an H other than I once
and solves a face on k rows as a k x k block of their Gram matrix
C H^-1 C'; ``_UnitHessian`` (H = I, built by ``_unit_kernel`` on an
orthonormal basis of the equality rows) solves it in closed form, with a
block only for the face's inequality rows. Every projection takes the
second.

For a positive definite Q the search runs on the program itself, and X* is
the point x*. Any other PSD Q gets two projections, which refuse an empty
feasible set (InfeasibleError) and a feasible descent ray (UnboundedError),
then proximal point steps (Rockafellar 1976; Luque 1984), each the search
on Q + I/t (``_proximal_point``), and X* is the polyhedron

    { x : Ax = b, Gx <= d, Qx = Qx*, q'x = q'x* }

(Mangasarian 1988, Oper. Res. Lett. 7). A Q that is not symmetric or not
PSD is refused. The dual solution set is the polyhedron

    { p = (lam, mu) : A' lam + G' mu = -grad s(x*),
      mu_i = 0 for inactive i, mu_j >= 0 for active j },

the same at every point of X* (Rockafellar 1970, Convex Analysis, sec. 28).
One class, :class:`Polyhedron`, holds both sets and the solvability
check's two, and projects onto each by the dual active-set search with
Q = I. It keeps its data read-only and is prepared once, on its first
projection: the coordinates pinned to zero are dropped and the equality
rows are replaced by an orthonormal row basis B of their rank r with right
side beta, so each face solve carries r rows. With Q = I and orthonormal
rows, the face with no inequality row is z = p - B'(Bp - beta) with no
solve, and a face on the rows J solves one |J| x |J| block. Each distinct
point is projected once; a repeated point returns the same read-only
result.
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
from .io import _get_matrix, _get_string, _get_vector, _json_object
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
    """Q = I with the equality rows replaced by an orthonormal row basis B
    (r x n) and right side beta (:func:`_unit_kernel`); ``BT`` is B'. The
    search's A and b are B and beta, and its inequality rows are any.

    No face solve needs a factorization of Q: with p = -q, the face with no
    inequality row is x1 = p - B'(Bp - beta), and on the face S the
    multipliers solve a |S| x |S| block.
    """

    B: np.ndarray
    BT: np.ndarray
    beta: np.ndarray

    def face(self, q, G, d, S):
        """(x, mu[S], residual, scale, Bx - beta) of the face on which the
        rows S of G are active.

        With R = G_S (I - B'B), the part of each row off span(B), the
        multipliers solve (RR') nu = G_S x1 - d_S (:func:`_gram_solver`), and
        x = x1 - R'nu; stationarity holds by construction. span(B) is
        projected out twice, so R keeps no roundoff of the part in span(B),
        which x would carry off the equality rows when a row lies close to
        span(B) and nu is large. A row with ||R_i||^2 <= 1e-24 ||G_i||^2,
        roundoff of a row in span(B), moves nothing and takes nu_i = 0;
        :func:`_test_kkt_point` then finds whether G_i x = d_i holds.
        residual is ||Bx - beta|| and scale ||(q, beta)||.
        """
        x = -q
        x -= self.BT @ (self.B @ x - self.beta)
        mu_S = np.zeros(len(S))
        if S:
            G_S = G[S]
            R = G_S - (G_S @ self.BT) @ self.B
            R -= (R @ self.BT) @ self.B
            M = R @ R.T
            live = M.diagonal() > 1e-24 * np.einsum("ij,ij->i", G_S, G_S)
            if live.any():
                mu_S[live] = _gram_solver(M[np.ix_(live, live)])((G_S @ x - d[S])[live])
                x -= R.T @ mu_S
        gap = self.B @ x - self.beta
        return x, mu_S, math.sqrt(gap @ gap), math.sqrt(q @ q + self.beta @ self.beta), gap


def _unit_kernel(E, e):
    """The :class:`_UnitHessian` of the rows Ex = e.

    An SVD E = U S V' with r singular values above 1e-10 relative (the
    cutoff of :func:`_null_space`) gives B = V_r' and beta = S_r^-1 U_r' e.
    Raises :class:`InfeasibleError` when e has a component outside the range
    of E above 1e-8 (1 + |e|).
    """
    U, s, vh = np.linalg.svd(E, full_matrices=False)
    r = _rank(s)
    e_r = U[:, :r].T @ e
    if np.linalg.norm(e - U[:, :r] @ e_r) > 1e-8 * (1.0 + np.linalg.norm(e)):
        raise InfeasibleError("the equality rows are inconsistent")
    B = vh[:r]
    return _UnitHessian(B, np.ascontiguousarray(B.T), e_r / s[:r])


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
    the search's arguments, which are the same.
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

    def face(self, q, G, d, S):
        """(x, mu[S], residual, scale, Ax - b) of the face on the k rows
        R = [A; G_S].

        The multipliers nu_R solve the Gram block, M_RR nu_R = h_R
        (:func:`_gram_solver`), and x = x0 - Y_R nu_R. One step of iterative
        refinement on the face's KKT system, with the same factors, then
        corrects (x, nu_R) by its residual (stationarity s = Qx + C_R' nu_R + q
        and the gap g = C_R x - r_R): M_RR dnu = g - Y_R' s and
        dx = -Q^-1 s - Y_R dnu. residual is the 2-norm of the refined KKT
        residual, and scale ||(q, r_R)|| + ||Q||_2 ||x|| the size of its terms.
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
        scale = math.sqrt(self.q @ self.q + r_R @ r_R) + self.norm * math.sqrt(x @ x)
        return x, nu[self.m1:][S], residual, scale, gap[:self.m1]

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
    (Frank & Wolfe 1956), so two projections onto a :class:`Polyhedron`
    decide it, and neither factors a matrix. Projecting 0 onto
    {Ax = b, Gx <= d} raises :class:`InfeasibleError` when that set is
    empty. With N an orthonormal basis of null(Q) and c = N'q scaled to a
    norm of at most 1 (the cone below is closed under scaling, the search's
    tolerances are not), a projection z of -c onto the recession cone
    {z : ANz = 0, GNz <= 0} with ||z|| > 1e-8 (1 + ||c||) makes Nz a
    feasible descent ray and raises :class:`UnboundedError`.
    """
    Polyhedron(A, b, ineq_mat=G, ineq_rhs=d).project(np.zeros(Q.shape[0]))
    N = _null_space(Q)
    c = N.T @ q
    c /= max(1.0, float(np.linalg.norm(c)))
    z = Polyhedron(A @ N, np.zeros(A.shape[0]), ineq_mat=G @ N, ineq_rhs=np.zeros(G.shape[0])).project(-c)[0]
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
    solve, and raises :class:`InfeasibleError`. Q is a kernel,
    :class:`_DefiniteHessian` or :class:`_UnitHessian` (Q = I, A an
    orthonormal row basis), whose ``face`` solves each face on the kernel's
    own A and b, duplicated rows included; :func:`_test_kkt_point` tests it,
    and the first face that passes is returned as
    (x, mu, W), mu holding the multipliers of all rows of G. More than
    _SEARCH_CAP * (m2 + 1) face solves raise :class:`EnumerationLimitError`.
    """
    m1, m2 = A.shape[0], G.shape[0]
    feas_tol, mu_tol = _tolerances(q, b, d)
    cap = _SEARCH_CAP * (m2 + 1)
    W = []
    x, mu, consistent = _test_kkt_point(*Q.face(q, G, d, W), G, d, W, feas_tol, mu_tol)
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
            x_new, mu_new, consistent = _test_kkt_point(*Q.face(q, G, d, S), G, d, S, feas_tol, mu_tol)
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
                    raise InfeasibleError(f"the feasible set is empty: inequality row {p} cannot hold "
                                          "together with the active rows")
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
class Polyhedron:
    """{z : eq_mat z = eq_rhs, z_i = 0 (i in zero_idx), z_j >= 0 (j in nonneg_idx),
    ineq_mat z <= ineq_rhs}.

    P* pins and sign-constrains coordinates, X* has general rows
    (ineq_mat, none by default), and the solvability check's two sets have
    both kinds of rows. The arrays are copied read-only and the index lists
    frozen to tuples at construction, so the row basis and the projections
    it keeps cannot go stale.
    """

    eq_mat: np.ndarray
    eq_rhs: np.ndarray
    zero_idx: tuple = ()
    nonneg_idx: tuple = ()
    ineq_mat: np.ndarray = ()
    ineq_rhs: np.ndarray = ()
    # p.tobytes() -> project(p), for every point projected so far
    _projections: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("eq_mat", "eq_rhs", "ineq_mat", "ineq_rhs"):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape == (0,) and name == "ineq_mat":  # no general rows: () by default, [] from a file
                a = a.reshape(0, self.m)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        for name in ("zero_idx", "nonneg_idx"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.eq_mat.shape[1]

    def contains(self, p, tol=1e-9) -> bool:
        p = as_vector(p, self.m, "p")
        return (np.linalg.norm(self.eq_mat @ p - self.eq_rhs) <= tol
                and all(abs(p[i]) <= tol for i in self.zero_idx)
                and all(p[j] >= -tol for j in self.nonneg_idx)
                and not (self.ineq_mat @ p - self.ineq_rhs > tol).any())

    @cached_property
    def _reduced(self):
        """(keep, H, G, d, signs) for the projection QP, built on first use.

        keep lists the coordinates not pinned to zero, and signs the
        positions in keep of the sign-constrained ones. H is the
        :class:`_UnitHessian` of the equality rows on keep,
        eq_mat[:, keep] z = eq_rhs, holding their orthonormal row basis B and
        right side beta (:func:`_unit_kernel`, which raises
        :class:`InfeasibleError` when the rows are inconsistent). The
        inequality rows G z <= d are -z_j <= 0 on the signs, then
        ineq_mat[:, keep] z <= ineq_rhs.
        """
        zero = set(self.zero_idx)
        keep = [i for i in range(self.m) if i not in zero]
        H = _unit_kernel(self.eq_mat[:, keep], self.eq_rhs)
        signs = np.array([keep.index(j) for j in self.nonneg_idx], dtype=np.intp)
        G = np.vstack([-np.eye(len(keep))[signs], self.ineq_mat[:, keep]])
        d = np.concatenate([np.zeros(signs.size), self.ineq_rhs])
        return np.array(keep, dtype=np.intp), H, G, d, signs

    def project(self, p):
        """(z, ||z - p||) for the Euclidean projection z of p.

        The projection minimizes 0.5||z - p||^2 over the coordinates not
        pinned to zero, subject to the row basis of the equality rows and
        the inequality rows of :attr:`_reduced`: a QP with Q = I, solved
        exactly by :func:`_dual_active_set_face`, whose faces
        :meth:`_UnitHessian.face` solves in closed form on the row basis.
        The sign-constrained entries (signs of :attr:`_reduced`) are clipped
        at zero, so roundoff cannot leave them negative. The result is kept:
        projecting the same p again returns the same tuple, whose z is
        read-only.
        """
        p = as_vector(p, self.m, "p")
        key = p.tobytes()
        if key in self._projections:
            return self._projections[key]
        keep, H, G, d, signs = self._reduced
        x = _dual_active_set_face(H, -p[keep], H.B, H.beta, G, d)[0]
        x[signs] = np.maximum(x[signs], 0.0)
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
            "ineq_mat": self.ineq_mat.tolist(),
            "ineq_rhs": self.ineq_rhs.tolist(),
        }

    @classmethod
    def from_dict(cls, d, name, m=None):
        """Read as_dict's form, with m columns (any number when None);
        raises :class:`ProblemFormatError` naming the first malformed field
        (as ``<name>.<field>``). A file written before the general rows has
        no ineq_mat and ineq_rhs, and reads as having none."""
        if not isinstance(d, dict):
            raise ProblemFormatError(name, "expected an object")
        d = {"ineq_mat": [], "ineq_rhs": [], **d}
        rhs = _get_vector(d, "eq_rhs", parent=name)
        mat = _get_matrix(d, "eq_mat", rhs.size, m, parent=name)
        zero, nonneg = (_get_indices(d, f, mat.shape[1], name) for f in ("zero_idx", "nonneg_idx"))
        both = set(zero) & set(nonneg)
        if both:
            raise ProblemFormatError(f"{name}.nonneg_idx", f"repeats zero_idx entries {sorted(both)}")
        ineq_rhs = _get_vector(d, "ineq_rhs", parent=name)
        # JSON keeps no column count for a 0-row matrix: [] has none to check
        ineq_mat = (_get_matrix(d, "ineq_mat", ineq_rhs.size, mat.shape[1], parent=name) if ineq_rhs.size
                    else _get_vector(d, "ineq_mat", 0, parent=name))
        return cls(mat, rhs, zero, nonneg, ineq_mat, ineq_rhs)


def _get_indices(d, field, m, parent):
    """d[field] as a tuple of distinct integers in [0, m)."""
    name = f"{parent}.{field}"
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

    X* is the :class:`Polyhedron` primal, or the single point primal_point
    when primal is None, as it is for a positive definite Q. P* is the
    polyhedron dual.

    The file form holds primal_point, primal (null or a polyhedron in the
    dual's field layout), dual and fingerprint. A file written when X* was
    primal_point + span(primal_basis) still reads when that basis has no
    columns, as X* = {primal_point}; one with columns is refused.
    """

    primal_point: np.ndarray
    primal: Polyhedron | None
    dual: Polyhedron
    fingerprint: str = ""

    def to_json(self, path=None):
        doc = {
            "primal_point": self.primal_point.tolist(),
            "primal": None if self.primal is None else self.primal.as_dict(),
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
        if "primal_basis" in doc and _get_matrix(doc, "primal_basis", point.size, None).shape[1]:
            raise ProblemFormatError("primal_basis", "X* as x* + span(primal_basis) is no longer read")
        # a file of the affine layout has no primal, and X* = {primal_point}
        primal = doc.get("primal", None if "primal_basis" in doc else ())
        if primal is not None:
            primal = Polyhedron.from_dict(primal, "primal", point.size)
        dual = Polyhedron.from_dict(doc.get("dual"), "dual")
        if dual.eq_rhs.size != point.size:
            raise ProblemFormatError("dual.eq_rhs", f"expected length {point.size}, got {dual.eq_rhs.size}")
        return cls(point, primal, dual, _get_string(doc, "fingerprint"))


def solve_qp_exact(prog: ConvexProgram) -> SolutionSetOracle:
    """Exact solution sets of an affine-constrained QP.

    x* comes from the dual active-set search (:func:`_dual_active_set_face`)
    on Q factored once when the program's cached spectrum certifies Q
    positive definite, and X* is then {x*}. Any other PSD Q takes
    :func:`_proximal_point`, and X* is the polyhedron
    {Ax = b, Gx <= d, Qx = Qx*, q'x = q'x*} (Mangasarian 1988), its
    equality rows scaled to unit norm (a zero row stays zero) so that no
    row's size swamps the others in the SVD of their row basis. Raises
    :class:`ProblemFormatError` naming a Q, q, A, b, G or d that is not
    finite or whose norm overflows, or a Q that is not symmetric
    (max |Q - Q'| > 1e-10 max(1, max |Q|)) or not PSD (least eigenvalue
    below -2e-10 max(1, largest)); :class:`InfeasibleError`
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
    # a norm that overflows would make the proximal step 1e5 / (||Q||_2 + ||q||) zero
    with np.errstate(over="ignore"):
        for name, arr in (("Q", Q), ("q", q), ("A", A), ("b", b), ("G", G), ("d", d)):
            if not math.isfinite(np.linalg.norm(arr)):
                raise ProblemFormatError(name, "must be finite, with a finite norm")
    prog.check_convex()
    ev = prog.q_spectrum
    norm = float(max(-ev[0], ev[-1]))  # ||Q||_2

    # For orthonormal N the spectrum of N'QN lies inside that of Q, so a
    # positive definite Q leaves no face a flat direction: the program is
    # strictly convex, X* is the single point x*, and the dual active-set
    # search needs no solvability check.
    if ev[0] >= 2e-10 * max(1.0, float(ev[-1])):
        H = _DefiniteHessian.factor(Q, q, A, b, G, d, norm)
        x_star = _dual_active_set_face(H, q, A, b, G, d)[0]
        primal = None
    else:
        x_star = _proximal_point(Q, q, A, b, G, d, norm)
        E = np.vstack([A, Q, q])
        e = np.concatenate([b, Q @ x_star, [q @ x_star]])
        scale = np.linalg.norm(E, axis=1)
        scale[scale == 0.0] = 1.0
        primal = Polyhedron(E / scale[:, None], e / scale, ineq_mat=G, ineq_rhs=d)

    grad_at_star = Q @ x_star + q
    g_star = G @ x_star - d if m2 else np.zeros(0)
    active = [i for i in range(m2) if g_star[i] >= -_ACTIVE_TOL]
    inactive = [i for i in range(m2) if i not in active]
    E = np.hstack([A.T, G.T]) if (m1 + m2) else np.zeros((n, 0))
    dual = Polyhedron(
        eq_mat=E,
        eq_rhs=-grad_at_star,
        zero_idx=tuple(m1 + i for i in inactive),
        nonneg_idx=tuple(m1 + i for i in active),
    )
    return SolutionSetOracle(
        primal_point=x_star,
        primal=primal,
        dual=dual,
        fingerprint=prog.fingerprint(),
    )


def project_primal(oracle: SolutionSetOracle, x):
    """Projection of x onto the primal solution set and its distance."""
    x = as_vector(x, oracle.primal_point.shape[0], "x")
    if oracle.primal is not None:
        return oracle.primal.project(x)
    return oracle.primal_point, float(np.linalg.norm(x - oracle.primal_point))


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
    """Empirical lower estimate of the error-bound modulus kappa: the
    largest observed ratio dist((x, p), solution sets) over ||(y, u)||."""

    kappa_hat: float


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
    for rec in records[-count:]:
        resid = rec.residual()
        if resid < 1e-13:
            continue
        dist = joint_distance(oracle, rec.x, rec.p.as_vector())
        ratios.append(dist / resid)
    if not ratios:
        raise NoValidSamplesError("all tail iterations have negligible residual")
    return ErrorBoundEstimate(kappa_hat=float(max(ratios)))
