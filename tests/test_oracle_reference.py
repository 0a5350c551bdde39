"""Cross-check of solve_qp_exact against the full active-set enumeration.

The reference below solves every one of the 2^m2 faces, testing each for a
feasible descent ray, and keeps the first KKT-consistent one. solve_qp_exact
stops at that face and skips the descent-ray test for positive definite Q;
every output array must still agree bit for bit.
"""
import numpy as np
import pytest

from almlab import (
    AffineInequality,
    AffineMap,
    ConvexProgram,
    GeneratorSpec,
    QuadraticObjective,
    generate,
    solve_qp_exact,
    standard_corpus,
)
from almlab import oracle as oracle_mod
from almlab.errors import InfeasibleError, ProblemFormatError, UnboundedError
from almlab.oracle import DualPolyhedron, SolutionSetOracle


def reference_oracle(prog):
    n, m1, m2 = prog.n, prog.m1, prog.m2
    Q, q = prog.smooth.Q, prog.smooth.q
    A, b = prog.eq_matrix(), prog.eq_rhs()
    G = np.vstack([g.coeff for g in prog.ineqs]) if m2 else np.zeros((0, n))
    d = np.array([g.offset for g in prog.ineqs]) if m2 else np.zeros(0)
    solutions = []
    for mask in range(1 << m2):
        S = [i for i in range(m2) if mask >> i & 1]
        C = np.vstack([A, G[S]]) if (m1 or S) else np.zeros((0, n))
        rhs_c = np.concatenate([b, d[S]])
        oracle_mod._check_face_unbounded(Q, q, A, G, C, rhs_c)
        k = C.shape[0]
        kkt = np.block([[Q, C.T], [C, np.zeros((k, k))]])
        rhs = np.concatenate([-q, rhs_c])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            continue
        x = sol[:n]
        mu = np.zeros(m2)
        mu[S] = sol[n + m1:]
        if m1 and np.max(np.abs(A @ x - b)) > 1e-10:
            continue
        if m2 and np.max(G @ x - d) > 1e-10:
            continue
        if (mu < -1e-12).any():
            continue
        solutions.append(x)
    if not solutions:
        raise InfeasibleError("no active set yields a KKT-consistent feasible point")
    x_star = solutions[0]
    g_star = G @ x_star - d if m2 else np.zeros(0)
    active = [i for i in range(m2) if g_star[i] >= -1e-8]
    inactive = [i for i in range(m2) if i not in active]
    E = np.hstack([A.T, G.T]) if (m1 + m2) else np.zeros((n, 0))
    dual = DualPolyhedron(E, -(Q @ x_star + q), tuple(m1 + i for i in inactive),
                          tuple(m1 + i for i in active))
    return SolutionSetOracle(x_star, oracle_mod._null_space(np.vstack([Q, A, G])), dual,
                             prog.fingerprint())


def assert_bitwise_equal(got, ref):
    for name in ("primal_point", "primal_basis"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert np.array_equal(got.dual.eq_mat, ref.dual.eq_mat)
    assert np.array_equal(got.dual.eq_rhs, ref.dual.eq_rhs)
    assert got.dual.zero_idx == ref.dual.zero_idx
    assert got.dual.nonneg_idx == ref.dual.nonneg_idx
    assert got.fingerprint == ref.fingerprint


LADDER = [GeneratorSpec("sc_qp", n=20, m1=4, m2=m2, seed=s) for m2 in (3, 6, 8, 10) for s in range(10)]
# every sc_qp, reference1d and degenerate_dual_qp (seeds 0-4) of the corpus
CORPUS_QPS = [prog for prog in standard_corpus() if prog.is_affine_qp()]


@pytest.mark.parametrize("spec", LADDER, ids=GeneratorSpec.label)
def test_ladder_matches_reference(spec):
    prog = generate(spec)
    assert_bitwise_equal(solve_qp_exact(prog), reference_oracle(prog))


@pytest.mark.parametrize("prog", CORPUS_QPS, ids=lambda p: p.name)
def test_corpus_matches_reference(prog):
    assert_bitwise_equal(solve_qp_exact(prog), reference_oracle(prog))


@pytest.fixture
def face_checks(monkeypatch):
    """Count calls of the face unboundedness test made by solve_qp_exact."""
    calls = []
    real = oracle_mod._check_face_unbounded

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle_mod, "_check_face_unbounded", spy)
    return calls


def _qp(Q, q, rows=(), offsets=(), eq=None):
    ineqs = tuple(AffineInequality(np.array(r, dtype=float), o) for r, o in zip(rows, offsets))
    return ConvexProgram(smooth=QuadraticObjective(np.array(Q, dtype=float), np.array(q, dtype=float)),
                         eq=eq, ineqs=ineqs)


class TestCertificateBoundary:
    def test_positive_definite_skips_the_face_test(self, face_checks):
        orc = solve_qp_exact(generate(GeneratorSpec("sc_qp", n=20, m1=4, m2=6, seed=0)))
        assert face_checks == []
        assert orc.primal_is_singleton()

    def test_psd_with_kkt_point_is_face_checked(self, face_checks):
        # min 0.5*x1^2 - x2 s.t. x2 <= 1: flat in x2 but bounded by the row
        prog = _qp(np.diag([1.0, 0.0]), [0.0, -1.0], rows=[[0.0, 1.0]], offsets=[1.0])
        orc = solve_qp_exact(prog)
        assert len(face_checks) == 2
        np.testing.assert_allclose(orc.primal_point, [0.0, 1.0], atol=1e-12)
        assert_bitwise_equal(orc, reference_oracle(prog))

    def test_psd_descent_ray_still_raises(self, face_checks):
        # min 0.5*x1^2 - x2 s.t. x2 >= -1: x2 -> +inf is a feasible descent ray
        prog = _qp(np.diag([1.0, 0.0]), [0.0, -1.0], rows=[[0.0, -1.0]], offsets=[1.0])
        with pytest.raises(UnboundedError):
            solve_qp_exact(prog)
        assert len(face_checks) == 1

    def test_nearly_singular_definite_q_is_face_checked(self, face_checks):
        # lambda_min / lambda_max = 1e-11 lies below the certificate's margin
        prog = _qp(np.diag([1.0, 1e-11]), [0.0, 0.0], rows=[[1.0, 1.0]], offsets=[-1.0])
        orc = solve_qp_exact(prog)
        assert len(face_checks) == 2
        assert_bitwise_equal(orc, reference_oracle(prog))

    @pytest.mark.parametrize("field, prog", [
        ("Q", _qp([[1.0, 0.5, 0.0], [0.5, 1.0, np.nan], [0.0, np.nan, 1.0]], np.zeros(3))),
        ("Q", _qp([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3))),
        ("Q", _qp([[np.inf]], np.zeros(1))),
        ("q", _qp(np.eye(2), [np.nan, 0.0])),
        ("A", _qp(np.eye(2), [0.0, 0.0], eq=AffineMap(np.array([[np.inf, 1.0]]), np.ones(1)))),
        ("b", _qp(np.eye(2), [0.0, 0.0], eq=AffineMap(np.ones((1, 2)), np.array([np.nan])))),
        ("G", _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, np.nan]], offsets=[1.0])),
        ("d", _qp(np.eye(2), [0.0, 0.0], rows=[[1.0, 0.0]], offsets=[-np.inf])),
    ], ids=["Q-nan-off-diagonal", "Q-nan-diagonal", "Q-inf-scalar", "q", "A", "b", "G", "d"])
    def test_non_finite_data_is_refused(self, face_checks, capfd, field, prog):
        # refused before any LAPACK call: nothing is printed (LAPACK's
        # DLASCL complaint on a NaN matrix goes to stdout) and no face is
        # visited
        with pytest.raises(ProblemFormatError, match=f"field '{field}'"):
            solve_qp_exact(prog)
        assert face_checks == []
        assert capfd.readouterr() == ("", "")
