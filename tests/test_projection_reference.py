"""Cross-check of Polyhedron.project against the nearest-of-all-faces
enumeration it replaced.

The reference below visits every face of the polyhedron (each subset of the
sign-constrained coordinates pinned to zero), projects p onto the face's
affine hull, and keeps the nearest candidate that satisfies the remaining
sign constraints. project solves the same problem as a QP with Q = I and
stops at the first KKT-consistent face; both must agree to 1e-12 relative on
corpus, ladder and degenerate-dual polyhedra, at random points and at the
multipliers of a run. Unlike the reference, project is exact at every data
scale: projecting s*p onto the polyhedron with right side s*eq_rhs gives s
times the unscaled projection.
"""
import numpy as np
import pytest

from almlab import GeneratorSpec, generate, run, solve_qp_exact, standard_corpus
from almlab.errors import InfeasibleError
from almlab.oracle import Polyhedron
from almlab.verify import VERIFY_SIGMA, VERIFY_TOL, _SCHEDULE


def reference_project(poly, p):
    signs = list(poly.nonneg_idx)
    base_rows = [poly.eq_mat] if poly.eq_mat.shape[0] else []
    base_rhs = [poly.eq_rhs] if poly.eq_mat.shape[0] else []
    for i in poly.zero_idx:
        e = np.zeros(poly.m)
        e[i] = 1.0
        base_rows.append(e.reshape(1, -1))
        base_rhs.append(np.zeros(1))
    best = None
    for mask in range(1 << len(signs)):
        pinned = [signs[j] for j in range(len(signs)) if mask >> j & 1]
        rows = list(base_rows)
        rhs = list(base_rhs)
        for i in pinned:
            e = np.zeros(poly.m)
            e[i] = 1.0
            rows.append(e.reshape(1, -1))
            rhs.append(np.zeros(1))
        if rows:
            C = np.vstack(rows)
            gvec = np.concatenate(rhs)
            nu = np.linalg.lstsq(C @ C.T, C @ p - gvec, rcond=None)[0]
            z = p - C.T @ nu
            if np.linalg.norm(C @ z - gvec) > 1e-8 * (1.0 + np.linalg.norm(gvec)):
                continue
        else:
            z = p.copy()
        free = [i for i in signs if i not in pinned]
        if any(z[i] < -1e-12 for i in free):
            continue
        for i in poly.zero_idx:
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


# every sc_qp, reference1d and degenerate_dual_qp (seeds 0-4) of the corpus,
# the oracle ladder, degenerate dual sets at seeds 0-9, and the CLI grid's
# shape (n = 50 equality rows of rank at most 5) at seeds 0-4
PROGRAMS = [prog for prog in standard_corpus() if prog.is_affine_qp()]
PROGRAMS += [generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=m2, seed=s))
             for m2 in (3, 6, 8, 10) for s in range(10)]
PROGRAMS += [generate(GeneratorSpec("degenerate_dual_qp", seed=s)) for s in range(10)]
PROGRAMS += [generate(GeneratorSpec("sc_qp", n=50, seed=s)) for s in range(5)]
IDS = [f"{i}-{prog.name}" for i, prog in enumerate(PROGRAMS)]


def points(prog, oracle, seed):
    """0, seeded points at scales 1e-3, 1 and 1e3, and the multipliers of a
    run at the verify settings."""
    rng = np.random.default_rng(seed)
    m = oracle.dual.m
    pts = [np.zeros(m)] + [scale * rng.normal(size=m) for scale in (1e-3, 1.0, 1e3)]
    hist = run(prog, _SCHEDULE, VERIFY_SIGMA, tol=VERIFY_TOL, max_outer=200)
    return pts + [rec.p.as_vector() for rec in hist.records]


@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_projection_matches_reference(index):
    prog = PROGRAMS[index]
    oracle = solve_qp_exact(prog)
    for p in points(prog, oracle, index):
        z, dist = oracle.dual.project(p)
        z_ref, dist_ref = reference_project(oracle.dual, p)
        scale = np.linalg.norm(z_ref) + np.linalg.norm(p)
        assert np.linalg.norm(z - z_ref) <= 1e-12 * scale
        assert abs(dist - dist_ref) <= 1e-12 * scale
        assert oracle.dual.contains(z, 1e-9)


@pytest.mark.parametrize("s", [1e-8, 1e-4, 1e4, 1e8])
@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_projection_is_homogeneous(index, s):
    prog = PROGRAMS[index]
    poly = solve_qp_exact(prog).dual
    scaled = Polyhedron(poly.eq_mat, s * poly.eq_rhs, poly.zero_idx, poly.nonneg_idx)
    rng = np.random.default_rng(index)
    for p in (np.zeros(poly.m), rng.normal(size=poly.m)):
        z = poly.project(p)[0]
        z_s = scaled.project(s * p)[0]
        assert np.linalg.norm(z_s - s * z) <= 1e-12 * s * np.linalg.norm(z)
