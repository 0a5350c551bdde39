from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from almlab import oracle as oracle_mod
from almlab import (
    AffineInequality,
    AffineMap,
    ConvexProgram,
    GeneratorSpec,
    QuadraticObjective,
    generate,
)

ACCEPTANCE_RESULTS = []


@contextmanager
def face_solves(reference=None, keep=lambda S, x: (S, x is not None)):
    """Every face the oracle's dual active-set search solves in the block,
    in order, as keep(S, x): S the face's rows of G and x its KKT point, or
    None when it has none.

    The search solves a face by its kernel's ``face`` and tests it by
    ``oracle._test_kkt_point``; a test with no face solved before it is a
    proximal point step's face minimizer, and is not recorded. With
    ``reference``, called as reference(kernel, q, G, d, S, feas_tol, mu_tol)
    and returning (x, mu, consistent), each face is solved and tested by it
    instead.
    """
    faces, pending = [], []
    real_test = oracle_mod._test_kkt_point

    def spy(real):
        def face(self, q, G, d, S):
            pending.append((self, q, G, d, S))
            return (None,) * 5 if reference else real(self, q, G, d, S)
        return face

    def test(*args):
        if not pending:
            return real_test(*args)
        kernel, q, G, d, S = pending.pop()
        result = reference(kernel, q, G, d, S, *args[8:]) if reference else real_test(*args)
        faces.append(keep(list(S), result[0]))
        return result

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(oracle_mod, "_test_kkt_point", test))
        for kernel in (oracle_mod._UnitHessian, oracle_mod._DefiniteHessian):
            stack.enter_context(mock.patch.object(kernel, "face", spy(kernel.face)))
        yield faces


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed unconditionally."""
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num:2d} {name}: {detail}")


@pytest.fixture(scope="session")
def reference1d():
    """min 0.5*x^2 s.t. x - 1 = 0; solution (x*, lam*) = (1, -1)."""
    return generate(GeneratorSpec("reference1d"))


@pytest.fixture(scope="session")
def sc_qp7():
    return generate(GeneratorSpec("sc_qp", seed=7))


def make_unconstrained_1d():
    """min 0.5*x^2, no constraints."""
    return ConvexProgram(smooth=QuadraticObjective(np.array([[1.0]]), np.zeros(1)))


def make_halfspace_qp():
    """min 0.5*||x||^2 over x in R^2 s.t. x_1 <= -1; x* = (-1, 0), mu* = 1."""
    return ConvexProgram(
        smooth=QuadraticObjective(np.eye(2), np.zeros(2)),
        ineqs=(AffineInequality(np.array([1.0, 0.0]), -1.0),),
    )


def make_zero_objective_eq():
    """min 0 s.t. x = 0 in R^1; X* = {0}, P* = {0}."""
    return ConvexProgram(
        smooth=QuadraticObjective(np.array([[0.0]]), np.zeros(1)),
        eq=AffineMap(np.array([[1.0]]), np.zeros(1)),
    )
