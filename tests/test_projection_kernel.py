"""The closed-form face solve of Polyhedron.project against the
equality-KKT least-squares solve it replaced.

A dual projection is the dual active-set search run with Q = I on the
orthonormal row basis B of the equality rows, and G = -I on the
sign-constrained coordinates. ``reference_solve_face`` below is the general
face solve, kept verbatim: it builds the whole (k + r + |S|)-square KKT
matrix and solves it by ``np.linalg.lstsq``. Run in its place, with Q = I,
it must visit the same faces as the closed-form solve and land on the same
z to 1e-12 relative, and no projection may hand lstsq a KKT matrix. The
same kernel (``oracle._unit_kernel``) solves faces of general inequality
rows, dependent ones included, for the projections of the solvability
check, which factors no matrix.
"""
import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from almlab import solve_qp_exact
from almlab import oracle as oracle_mod
from almlab.errors import InfeasibleError, UnboundedError
from almlab.oracle import Polyhedron, _tolerances

from conftest import face_solves

from test_oracle_proximal import PSD_FAMILY
from test_oracle_reference import SOLVABILITY_PROGRAMS
from test_projection_reference import IDS, PROGRAMS, points, reference_project


def reference_solve_face(Q, q, A, b, G, d, S, feas_tol, mu_tol):
    n, m1, m2 = Q.shape[0], A.shape[0], G.shape[0]
    C = np.vstack([A, G[S]]) if (m1 or S) else np.zeros((0, n))
    rhs_c = np.concatenate([b, d[S]])
    k = C.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = Q
    kkt[:n, n:] = C.T
    kkt[n:, :n] = C
    rhs = np.concatenate([-q, rhs_c])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        return None, None, False
    x = sol[:n]
    if m1 and np.max(np.abs(A @ x - b)) > feas_tol:
        return None, None, False
    slack = G @ x - d
    infeasible = m2 and np.max(slack) > feas_tol
    if infeasible and S and np.max(slack[S]) > feas_tol:
        return None, None, False
    mu = np.zeros(m2)
    mu[S] = sol[n + m1:]
    consistent = not (infeasible or (mu < -mu_tol).any())
    return x, mu, consistent


def _unit_as_matrix(H, q, G, d, S, *tols):
    """reference_solve_face with the projection's Q = I as a matrix, on the
    row basis of its kernel H."""
    return reference_solve_face(np.eye(q.size), q, H.B, H.beta, G, d, S, *tols)


@contextmanager
def _lstsq_shapes():
    """The shape of every matrix handed to np.linalg.lstsq in the block."""
    shapes = []
    real = np.linalg.lstsq

    def lstsq(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "lstsq", lstsq):
        yield shapes


def _project(poly, p, reference=None):
    """Project p on a fresh copy of poly, each face solved by ``reference``
    (the production face solve when None; see conftest.face_solves).
    Returns (z, faces, lstsq_shapes): every face solved as (S, has a KKT
    point), and the shape of every matrix handed to np.linalg.lstsq during
    the projection."""
    with face_solves(reference) as faces, _lstsq_shapes() as shapes:
        z, _ = dataclasses.replace(poly).project(p)
    return z, faces, shapes


@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_closed_form_faces_match_the_kkt_solve(index):
    prog = PROGRAMS[index]
    oracle = solve_qp_exact(prog)
    poly = oracle.dual
    keep, H, _, _, _ = poly._reduced
    k, r = keep.size, H.B.shape[0]
    assert np.linalg.norm(H.B @ H.B.T - np.eye(r)) <= 1e-14 * max(1, r)
    for p in points(prog, oracle, index):
        z, faces, shapes = _project(poly, p)
        z_ref, faces_ref, shapes_ref = _project(poly, p, _unit_as_matrix)
        assert faces == faces_ref
        scale = np.linalg.norm(z_ref) + np.linalg.norm(p)
        assert np.linalg.norm(z - z_ref) <= 1e-12 * scale
        # a face's KKT matrix has k + r + |S| > k rows; the closed form
        # hands lstsq only r x r systems, and the dependent-normal branch a
        # k x (r + |W|) basis
        assert all(rows <= k for rows, _ in shapes)
        if r:
            assert any(rows > k for rows, _ in shapes_ref)


def test_pinned_faces_match_the_kkt_solve():
    # the programs above all stop at the face with no pinned coordinate;
    # these small random polyhedra {E z = E z0, z >= 0} (z0 >= 0 with zeros,
    # some with E square) pin coordinates, drop them again and meet faces
    # with no KKT point
    pinned = failed = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 7))
        E = rng.normal(size=(int(rng.integers(1, k + 1)), k))
        poly = Polyhedron(E, E @ np.maximum(rng.normal(size=k), 0.0), (), tuple(range(k)))
        for _ in range(5):
            p = 2.0 * rng.normal(size=k)
            z, faces, shapes = _project(poly, p)
            z_ref, faces_ref, _ = _project(poly, p, _unit_as_matrix)
            assert faces == faces_ref
            assert np.linalg.norm(z - z_ref) <= 1e-12 * (np.linalg.norm(z_ref) + np.linalg.norm(p))
            assert all(rows <= k for rows, _ in shapes)
            pinned += any(S for S, _ in faces)
            failed += any(not solvable for _, solvable in faces)
    assert pinned >= 50 and failed >= 5


def test_square_basis_with_a_pinned_coordinate():
    # E is invertible, so B is square and the polyhedron is the single
    # point (1, 0, 2): the face pinning coordinate 1 has a KKT point, and
    # the pinned row -e_1 lies in span(B), so it moves nothing
    E = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    poly = Polyhedron(E, E @ [1.0, 0.0, 2.0], (), (0, 1, 2))
    _, H, G, d, _ = poly._reduced
    B, beta = H.B, H.beta
    assert B.shape == (3, 3)
    p = np.array([0.5, 2.0, -1.0])
    q = -p
    tols = _tolerances(q, beta, d)
    S = [1]
    with _lstsq_shapes() as shapes:
        x, mu, _ = oracle_mod._test_kkt_point(*H.face(q, G, d, S), G, d, S, *tols)
    x_ref, _, _ = reference_solve_face(np.eye(3), q, B, beta, G, d, S, *tols)
    assert shapes == []
    assert x is not None and x_ref is not None
    assert np.linalg.norm(x - [1.0, 0.0, 2.0]) <= 1e-14
    assert np.linalg.norm(x - x_ref) <= 1e-14
    # ||R_1||^2 is roundoff, below 1e-24 ||G_1||^2: nu_1 = 0
    assert (mu == 0.0).all()


def _row_polyhedron(seed):
    """{Ex = e, Gx <= d} in k = 3..6 coordinates, holding x0: general rows
    of G, some tight at x0, then a row in span(E) and a duplicate of row 0.
    Odd seeds put d below the span row's constant value on {Ex = e}, so
    the set is empty."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    E = rng.normal(size=(int(rng.integers(1, k)), k))
    x0 = rng.normal(size=k)
    G = rng.normal(size=(int(rng.integers(2, 6)), k))
    d = G @ x0 + np.where(rng.uniform(size=G.shape[0]) < 0.5, 0.0, rng.uniform(size=G.shape[0]))
    span_row = rng.normal(size=E.shape[0]) @ E
    G = np.vstack([G, span_row, G[0]])
    d = np.concatenate([d, [span_row @ x0 - (seed % 2)], d[:1]])
    return E, E @ x0, G, d


def _project_rows(E, e, G, d, p, reference=None):
    """Project p onto the Polyhedron {Ex = e, Gx <= d}, each face solved by
    ``reference`` (the production face solve when None; see
    conftest.face_solves). Returns (z or the InfeasibleError raised,
    faces), faces listing every face solved as (S, has a KKT point)."""
    with face_solves(reference) as faces:
        try:
            return Polyhedron(E, e, ineq_mat=G, ineq_rhs=d).project(p)[0], faces
        except InfeasibleError as exc:
            return exc, faces


def test_general_row_faces_match_the_kkt_solve():
    # the closed form with general inequality rows, dependent ones included
    # (a row in span(E), a duplicated row), against the KKT least squares
    active = empty = 0
    for seed in range(20):
        E, e, G, d = _row_polyhedron(seed)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            p = 2.0 * rng.normal(size=E.shape[1])
            z, faces = _project_rows(E, e, G, d, p)
            z_ref, faces_ref = _project_rows(E, e, G, d, p, _unit_as_matrix)
            assert faces == faces_ref
            if isinstance(z_ref, InfeasibleError):
                assert isinstance(z, InfeasibleError)
                empty += 1
                continue
            assert np.linalg.norm(z - z_ref) <= 1e-12 * (np.linalg.norm(z_ref) + np.linalg.norm(p))
            assert np.max(G @ z - d) <= 1e-10 * max(1.0, np.abs(d).max())
            # the last face solved is the one the search returns
            active += bool(faces[-1][0])
    assert active >= 30 and empty >= 30


def _nearly_dependent_polyhedron(seed, off_span):
    """{Ex = e, Gx <= d} in k = 3..6 coordinates holding x0: general rows of
    G, slack at x0, then a row of span(E) plus a part off span(E) of
    off_span times its norm, tight at x0."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    E = rng.normal(size=(int(rng.integers(1, k)), k))
    x0 = rng.normal(size=k)
    G = rng.normal(size=(int(rng.integers(1, 5)), k))
    span_row = rng.normal(size=E.shape[0]) @ E
    u = rng.normal(size=k)
    u -= np.linalg.lstsq(E, E @ u, rcond=None)[0]
    G = np.vstack([G, span_row + off_span * np.linalg.norm(span_row) * u / np.linalg.norm(u)])
    d = G @ x0 + rng.uniform(0.1, 1.0, size=G.shape[0])
    d[-1] = G[-1] @ x0
    return E, E @ x0, G, d


@pytest.mark.parametrize("off_span", [1e-4, 1e-6, 1e-7])
def test_nearly_dependent_row_faces_hold_their_kkt_certificate(off_span):
    # a row close to span(E), yet farther from it than the search's 1e-8
    # dependence test: the faces holding it are solved, and every
    # projection passes its own KKT conditions. The KKT least squares
    # above cannot judge these faces: its matrix has a condition number
    # near off_span^-2, and its residual test turns many of them down
    on_row = 0
    for seed in range(20):
        E, e, G, d = _nearly_dependent_polyhedron(seed, off_span)
        H = oracle_mod._unit_kernel(E, e)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            p = 2.0 * rng.normal(size=E.shape[1])
            x, mu, W = oracle_mod._dual_active_set_face(H, -p, H.B, H.beta, G, d)
            feas_tol, mu_tol = _tolerances(-p, H.beta, d)
            slack = G @ x - d
            assert np.abs(H.B @ x - H.beta).max() <= feas_tol
            assert slack.max() <= feas_tol and np.abs(slack[W]).max(initial=0.0) <= feas_tol
            assert (mu >= -mu_tol).all() and not np.delete(mu, W).any()
            # x - p + G'mu lies in range(E') = range(B')
            r = x - p + G.T @ mu
            r -= H.BT @ (H.B @ r)
            assert np.linalg.norm(r) <= 1e-12 * (1.0 + np.linalg.norm(p) + np.linalg.norm(G.T @ mu))
            on_row += G.shape[0] - 1 in W
    assert on_row >= 45


def test_solvability_check_factors_nothing():
    # both of _check_solvable's projections run on the closed-form kernel;
    # only the proximal point steps factor Q + I/t
    inside, calls = [], []
    real_check, real_factor = oracle_mod._check_solvable, oracle_mod._DefiniteHessian.factor

    def check(*args):
        inside.append(True)
        try:
            return real_check(*args)
        finally:
            inside.pop()

    def factor(*args):
        calls.append(bool(inside))
        return real_factor(*args)

    with mock.patch.object(oracle_mod, "_check_solvable", check), \
            mock.patch.object(oracle_mod._DefiniteHessian, "factor", factor):
        for prog in list(SOLVABILITY_PROGRAMS.values()) + PSD_FAMILY:
            try:
                solve_qp_exact(prog)
            except (InfeasibleError, UnboundedError):
                pass
    assert calls and not any(calls)


def test_projection_through_the_dependent_normal_branch():
    # {z1 - 2 z2 = 1, z >= 0}: pinning z1 leaves z2 = -1/2, and pinning both
    # contradicts the row, so z1's row gives way to z2's
    poly = Polyhedron(np.array([[1.0, -2.0]]), np.array([1.0]), (), (0, 1))
    p = np.array([-1.0, -3.0])
    z, faces, shapes = _project(poly, p)
    assert faces == [([], True), ([0], True), ([0, 1], False), ([1], True)]
    # the dependent-normal branch expands G_1 in the 2 x 2 basis [B; G_0]'
    assert (2, 2) in shapes
    z_ref, _ = reference_project(poly, p)
    assert np.linalg.norm(z - [1.0, 0.0]) <= 1e-14
    assert np.linalg.norm(z - z_ref) <= 1e-14
    z_kkt, faces_kkt, _ = _project(poly, p, _unit_as_matrix)
    assert faces_kkt == faces
    assert np.linalg.norm(z - z_kkt) <= 1e-14

