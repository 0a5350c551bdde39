"""Cross-check of the stacked inequality rows against the former per-row
evaluators, kept below verbatim as the reference.

The inner solver's step lengths are set by the bits of g(x) and of its
gradient, so the comparison is exact: the same arrays down to the sign of
each zero, on contiguous, strided and misaligned x.
"""
import numpy as np
import pytest

from almlab import (
    AffineInequality,
    AffineMap,
    ConvexProgram,
    GeneratorSpec,
    QuadraticInequality,
    QuadraticObjective,
    generate,
    standard_corpus,
)
from almlab.inner import smooth_curvature_bound
from almlab.rng import Lcg

from conftest import make_unconstrained_1d


def reference_eval_g(prog, x):
    return np.array([g.value(x) for g in prog.ineqs]) if prog.ineqs else np.zeros(0)


def reference_grad_g(prog, x):
    if not prog.ineqs:
        return np.zeros((prog.n, 0))
    return np.column_stack([g.grad(x) for g in prog.ineqs])


def reference_curvature_bound(prog, c):
    bound = float(np.linalg.eigvalsh(0.5 * (prog.smooth.Q + prog.smooth.Q.T))[-1])
    if prog.m1:
        bound += c * float(np.linalg.norm(prog.eq_matrix(), 2)) ** 2
    if prog.m2:
        bound += c * float(np.linalg.norm(np.vstack([g.coeff for g in prog.ineqs]), 2)) ** 2
    return bound if bound > 0 else None


def interleaved_program():
    """Quadratic rows between and after affine rows, with an equality; pins
    that each row lands at its own position."""
    rng = Lcg(77)
    n = 5
    P = rng.normal(n * n).reshape(n, n)
    ineqs = (
        AffineInequality(rng.normal(n), 0.5),
        QuadraticInequality(P @ P.T, rng.normal(n), -3.0),
        AffineInequality(rng.normal(n), -0.25),
        AffineInequality(np.zeros(n), 0.0),
        QuadraticInequality(np.eye(n), np.zeros(n), -1.0),
    )
    return ConvexProgram(smooth=QuadraticObjective(np.eye(n), rng.normal(n)),
                         eq=AffineMap(rng.normal(2 * n).reshape(2, n), rng.normal(2)),
                         ineqs=ineqs, name="interleaved")


PROGRAMS = (
    standard_corpus()
    + [generate(GeneratorSpec("quad_ineq", seed=s)) for s in range(5)]
    + [generate(GeneratorSpec("sc_qp", n=200, m1=40, m2=80, seed=0)),
       make_unconstrained_1d(),
       interleaved_program()]
)
IDS = [f"{i}-{p.name or 'unnamed'}" for i, p in enumerate(PROGRAMS)]


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def points(prog, seed):
    """Signed zeros, seeded random points of growing scale, and the same
    values strided and at an address that is not 8-byte aligned."""
    rng = Lcg(seed)
    xs = [np.zeros(prog.n), np.full(prog.n, -0.0)]
    xs += [rng.normal(prog.n) * scale for scale in (1e-3, 1.0, 1e3)]
    for x in list(xs[2:]):
        strided = np.zeros(2 * prog.n)
        strided[::2] = x
        xs.append(strided[::2])
        raw = np.zeros(8 * prog.n + 4, dtype=np.uint8)
        misaligned = raw[4:].view(np.float64)
        misaligned[:] = x
        xs.append(misaligned)
    return xs


@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_rows_match_reference_bit_for_bit(index):
    prog = PROGRAMS[index]
    for x in points(prog, 500 + index):
        assert_bits_equal(prog.eval_g(x), reference_eval_g(prog, x))
        assert_bits_equal(prog.grad_g(x), reference_grad_g(prog, x))
        assert prog.grad_g(x).flags.c_contiguous


@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_affine_block_is_read_only(index):
    prog = PROGRAMS[index]
    x = np.ones(prog.n)
    if not prog.ineqs_affine:
        # a fresh copy with the quadratic columns filled in: writing to it
        # leaves the cached block alone
        prog.grad_g(x)[...] = 7.0
        assert_bits_equal(prog.grad_g(x), reference_grad_g(prog, x))
        return
    assert_bits_equal(prog.ineq_matrix(),
                      np.vstack([g.coeff for g in prog.ineqs]) if prog.m2 else np.zeros((0, prog.n)))
    assert_bits_equal(prog.ineq_rhs(), np.array([g.offset for g in prog.ineqs]) if prog.m2 else np.zeros(0))
    for a in (prog.grad_g(x), prog.ineq_matrix(), prog.ineq_rhs()):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 1.0


def test_interleaved_rows_keep_their_positions():
    prog = interleaved_program()
    x = np.arange(1.0, 6.0)
    g = prog.eval_g(x)
    for i, con in enumerate(prog.ineqs):
        assert g[i] == con.value(x)
        assert np.array_equal(prog.grad_g(x)[:, i], con.grad(x))
    assert not prog.ineqs_affine and not prog.is_affine_qp()
    assert smooth_curvature_bound(prog, 1.0) is None


@pytest.mark.parametrize("index", range(len(PROGRAMS)), ids=IDS)
def test_curvature_bound_matches_per_call_formula(index):
    prog = PROGRAMS[index]
    if not prog.ineqs_affine:
        return
    # the second value of c reads the spectrum and norms the first one cached
    for c in (10.0, 1e4):
        assert smooth_curvature_bound(prog, c) == reference_curvature_bound(prog, c)


@pytest.mark.parametrize("Q", [[[2.0, np.nan], [np.nan, 2.0]], [[np.nan, 0.0], [0.0, 2.0]],
                               [[np.inf, 0.0], [0.0, 1.0]]])
def test_non_finite_q_claims_no_curvature_bound(Q):
    prog = ConvexProgram(smooth=QuadraticObjective(np.array(Q), np.zeros(2)),
                         ineqs=(AffineInequality(np.array([1.0, 0.0]), 1.0),))
    assert np.isnan(prog.q_spectrum).all()
    assert smooth_curvature_bound(prog, 10.0) is None
