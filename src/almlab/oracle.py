"""Exact primal/dual solution sets for affine-constrained QPs.

Ground truth comes from active-set enumeration: subsets of the inequality
constraints are tried as the active set in subset-index order, each
equality-constrained KKT linear system is solved, and the search stops at
the first candidate passing primal feasibility and multiplier sign checks.
Each face is first tested for a feasible descent ray, unless Q is positive
definite and no face can carry one. The worst case is still 2^m2 faces.
The dual solution set is the polyhedron

    { p = (lam, mu) : A' lam + G' mu = -grad s(x*),
      mu_i = 0 for inactive i, mu_j >= 0 for active j }

whose Euclidean projection is computed exactly by enumerating its faces.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .driver import RunHistory
from .errors import (
    EnumerationLimitError,
    InfeasibleError,
    NoValidSamplesError,
    UnboundedError,
)
from .problem import ConvexProgram, as_vector

_ENUM_CAP = 20


def _null_space(M, rtol=1e-10):
    """Orthonormal basis of the null space of M (n columns); n x k array."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M)
    cutoff = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T


@dataclass
class DualPolyhedron:
    """{p : eq_mat p = eq_rhs, p_i = 0 (i in zero_idx), p_j >= 0 (j in nonneg_idx)}."""

    eq_mat: np.ndarray
    eq_rhs: np.ndarray
    zero_idx: tuple
    nonneg_idx: tuple

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

    def project(self, p):
        """Euclidean projection by face enumeration; exact at desk scale.

        Each face pins a subset of the sign-constrained coordinates to zero;
        the projection onto the face's affine hull is kept when it satisfies
        the remaining sign constraints, and the nearest feasible candidate
        over all faces is the projection onto the polyhedron.
        """
        p = as_vector(p, self.m, "p")
        signs = list(self.nonneg_idx)
        if len(signs) > _ENUM_CAP:
            raise EnumerationLimitError(f"{len(signs)} sign constraints exceed the face enumeration cap")
        base_rows = [self.eq_mat] if self.eq_mat.shape[0] else []
        base_rhs = [self.eq_rhs] if self.eq_mat.shape[0] else []
        for i in self.zero_idx:
            e = np.zeros(self.m)
            e[i] = 1.0
            base_rows.append(e.reshape(1, -1))
            base_rhs.append(np.zeros(1))
        best = None
        for mask in range(1 << len(signs)):
            pinned = [signs[j] for j in range(len(signs)) if mask >> j & 1]
            rows = list(base_rows)
            rhs = list(base_rhs)
            for i in pinned:
                e = np.zeros(self.m)
                e[i] = 1.0
                rows.append(e.reshape(1, -1))
                rhs.append(np.zeros(1))
            if rows:
                C = np.vstack(rows)
                gvec = np.concatenate(rhs)
                nu = np.linalg.lstsq(C @ C.T, C @ p - gvec, rcond=None)[0]
                z = p - C.T @ nu
                if np.linalg.norm(C @ z - gvec) > 1e-8 * (1.0 + np.linalg.norm(gvec)):
                    continue  # inconsistent pin pattern: empty face
            else:
                z = p.copy()
            free = [i for i in signs if i not in pinned]
            if any(z[i] < -1e-12 for i in free):
                continue
            # snap constrained coordinates so returned members are exactly
            # feasible (lstsq leaves ulp-level residue on pinned entries)
            for i in self.zero_idx:
                z[i] = 0.0
            for i in pinned:
                z[i] = 0.0
            for i in free:
                z[i] = max(z[i], 0.0)
            dist = float(np.linalg.norm(z - p))
            if best is None or dist < best[1]:
                best = (z, dist)
        if best is None:
            raise InfeasibleError("dual polyhedron is empty")
        return best

    def as_dict(self):
        return {
            "eq_mat": self.eq_mat.tolist(),
            "eq_rhs": self.eq_rhs.tolist(),
            "zero_idx": list(self.zero_idx),
            "nonneg_idx": list(self.nonneg_idx),
        }

    @classmethod
    def from_dict(cls, d):
        rhs = np.array(d["eq_rhs"], dtype=float)
        mat = np.array(d["eq_mat"], dtype=float).reshape(rhs.shape[0], -1)
        return cls(mat, rhs, tuple(d["zero_idx"]), tuple(d["nonneg_idx"]))


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
                json.dump(doc, fh, indent=1)
        return doc

    @classmethod
    def from_json(cls, source) -> "SolutionSetOracle":
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source) as fh:
                doc = json.load(fh)
        else:
            doc = source
        point = np.array(doc["primal_point"], dtype=float)
        basis = np.array(doc["primal_basis"], dtype=float).reshape(point.shape[0], -1)
        return cls(point, basis, DualPolyhedron.from_dict(doc["dual"]), doc.get("fingerprint", ""))


def solve_qp_exact(
    prog: ConvexProgram,
    feas_tol: float = 1e-10,
    mu_tol: float = 1e-12,
    active_tol: float = 1e-8,
) -> SolutionSetOracle:
    """Exact solution sets of an affine-constrained QP by enumeration.

    Tries the 2^m2 active sets in subset-index order, solving each
    equality-KKT system by least squares (rank-deficient systems from
    duplicated constraint rows are handled), and stops at the first
    candidate passing primal feasibility (<= feas_tol) and mu >= -mu_tol.
    Raises :class:`UnboundedError` when a face visited before it carries a
    feasible descent ray (the test is skipped when Q is finite and positive
    definite, where it cannot fire), :class:`InfeasibleError` when no active
    set passes, and :class:`EnumerationLimitError` for m2 > 20.
    """
    if not prog.is_affine_qp():
        raise ValueError("the oracle requires a quadratic objective with affine constraints")
    if prog.m2 > _ENUM_CAP:
        raise EnumerationLimitError(f"m2 = {prog.m2} exceeds the enumeration cap of {_ENUM_CAP}")
    n, m1, m2 = prog.n, prog.m1, prog.m2
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    G, d = prog.ineq_matrix(), prog.ineq_rhs()

    # For orthonormal N the spectrum of N'QN lies inside that of Q, so a
    # positive definite Q leaves no face a flat direction to test. Finiteness
    # comes first: eigvalsh maps NaN to zeros or fails to converge.
    Qs = 0.5 * (Q + Q.T)
    ev = np.linalg.eigvalsh(Qs) if np.isfinite(Qs).all() else np.zeros(1)
    positive_definite = ev[0] >= 2e-10 * max(1.0, float(ev[-1]))

    for mask in range(1 << m2):
        S = [i for i in range(m2) if mask >> i & 1]
        C = np.vstack([A, G[S]]) if (m1 or S) else np.zeros((0, n))
        rhs_c = np.concatenate([b, d[S]])
        if not positive_definite:
            _check_face_unbounded(Q, q, A, G, C, rhs_c)
        k = C.shape[0]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = Q
        kkt[:n, n:] = C.T
        kkt[n:, :n] = C
        rhs = np.concatenate([-q, rhs_c])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            continue
        x_star = sol[:n]
        mu = np.zeros(m2)
        mu[S] = sol[n + m1:]
        if m1 and np.max(np.abs(A @ x_star - b)) > feas_tol:
            continue
        if m2 and np.max(G @ x_star - d) > feas_tol:
            continue
        if (mu < -mu_tol).any():
            continue
        break  # the first consistent face in subset-index order
    else:
        raise InfeasibleError("no active set yields a KKT-consistent feasible point")

    primal_basis = _null_space(np.vstack([Q, A, G]))
    grad_at_star = Q @ x_star + q
    g_star = G @ x_star - d if m2 else np.zeros(0)
    active = [i for i in range(m2) if g_star[i] >= -active_tol]
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


def _check_face_unbounded(Q, q, A, G, C, rhs_c):
    """Raise UnboundedError when this face carries a feasible descent ray.

    A convex QP is unbounded below over the feasible set iff some direction
    d has Qd = 0, q'd < 0, Ad = 0 and Gd <= 0; such a d shows up as a
    singular direction of the reduced Hessian on a face whose recession cone
    it belongs to.
    """
    N = _null_space(C) if C.shape[0] else np.eye(Q.shape[0])
    if N.shape[1] == 0:
        return
    Hr = N.T @ Q @ N
    evals, evecs = np.linalg.eigh(0.5 * (Hr + Hr.T))
    flat = evals < 1e-10 * max(1.0, float(evals[-1]) if evals.size else 1.0)
    if not flat.any():
        return
    if C.shape[0]:
        x_p = np.linalg.lstsq(C, rhs_c, rcond=None)[0]
        if np.linalg.norm(C @ x_p - rhs_c) > 1e-8 * (1.0 + np.linalg.norm(rhs_c)):
            return  # face itself is empty
    else:
        x_p = np.zeros(Q.shape[0])
    grad_reduced = N.T @ (Q @ x_p + q)
    for idx in np.nonzero(flat)[0]:
        v = evecs[:, idx]
        slope = float(grad_reduced @ v)
        if abs(slope) <= 1e-10:
            continue
        dvec = -math.copysign(1.0, slope) * (N @ v)
        ok_eq = A.shape[0] == 0 or np.max(np.abs(A @ dvec)) <= 1e-10
        ok_in = G.shape[0] == 0 or np.max(G @ dvec) <= 1e-10
        if ok_eq and ok_in:
            raise UnboundedError("feasible descent ray found: the objective is unbounded below")


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
    mode: str
    sample_count: int


def estimate_kappa(history: RunHistory, oracle: SolutionSetOracle, tail_fraction: float = 0.25) -> ErrorBoundEstimate:
    """Estimate kappa from the trailing iterations of a run.

    Iterations with ||(y, u)|| < 1e-13 are skipped (roundoff dominates);
    raises :class:`NoValidSamplesError` when nothing remains.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    records = history.records
    if not records:
        raise NoValidSamplesError("empty run history")
    count = max(1, math.ceil(tail_fraction * len(records)))
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
    return ErrorBoundEstimate(
        kappa_hat=float(max(ratios)),
        epsilon_used=eps_used,
        mode="empirical",
        sample_count=len(ratios),
    )
