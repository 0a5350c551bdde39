import numpy as np
import pytest

from almlab import (
    ConvexProgram,
    GeneratorSpec,
    PenaltySchedule,
    QuadraticObjective,
    feasible_point,
    generate,
    run,
    solve_qp_exact,
)
from almlab.errors import InconsistentSpecError, NotAvailableError
from almlab.problems import standard_corpus
from almlab.rng import Lcg


class TestDeterminism:
    @pytest.mark.parametrize("family", ["sc_qp", "degenerate_dual_qp", "quad_ineq", "box_composite"])
    def test_identical_spec_identical_problem(self, family):
        a = generate(GeneratorSpec(family, seed=7))
        b = generate(GeneratorSpec(family, seed=7))
        assert a.fingerprint() == b.fingerprint()
        np.testing.assert_array_equal(a.smooth.Q, b.smooth.Q)

    def test_different_seeds_differ(self):
        assert generate(GeneratorSpec("sc_qp", seed=1)).fingerprint() != \
            generate(GeneratorSpec("sc_qp", seed=2)).fingerprint()


class TestScQp:
    @pytest.mark.parametrize("seed", range(6))
    def test_family_contract(self, seed):
        prog = generate(GeneratorSpec("sc_qp", seed=seed))
        # strong convexity within the conditioning range
        eigs = np.linalg.eigvalsh(prog.smooth.Q)
        assert eigs[0] >= 1.0 - 1e-9 and eigs[-1] <= 10.0 + 1e-9
        # full row rank equalities
        assert np.linalg.matrix_rank(prog.eq_matrix(), tol=1e-8) == prog.m1
        # recorded point is strictly interior (Slater)
        x = feasible_point(prog)
        assert np.linalg.norm(prog.eval_h(x)) <= 1e-12
        assert prog.eval_g(x).max() <= -1e-3

    def test_unique_kkt_point(self):
        orc = solve_qp_exact(generate(GeneratorSpec("sc_qp", seed=5)))
        assert orc.primal is None
        # dual singleton: stationarity plus pins leave no free directions
        E = orc.dual.eq_mat
        pins = np.zeros((len(orc.dual.zero_idx), E.shape[1]))
        for r, i in enumerate(orc.dual.zero_idx):
            pins[r, i] = 1.0
        assert np.linalg.matrix_rank(np.vstack([E, pins]), tol=1e-9) == E.shape[1]


class TestDegenerateDual:
    @pytest.mark.parametrize("seed", range(5))
    def test_non_singleton_dual(self, seed):
        prog = generate(GeneratorSpec("degenerate_dual_qp", seed=seed))
        # duplicated equality row drops the rank
        assert np.linalg.matrix_rank(prog.eq_matrix(), tol=1e-8) < prog.m1
        orc = solve_qp_exact(prog)
        assert orc.primal is None
        E = orc.dual.eq_mat
        pins = np.zeros((len(orc.dual.zero_idx), E.shape[1]))
        for r, i in enumerate(orc.dual.zero_idx):
            pins[r, i] = 1.0
        rank = np.linalg.matrix_rank(np.vstack([E, pins]), tol=1e-9)
        assert E.shape[1] - rank >= 1


class TestQuadIneq:
    @pytest.mark.parametrize("seed", range(3))
    def test_constraint_active_at_solution(self, seed):
        prog = generate(GeneratorSpec("quad_ineq", seed=seed))
        hist = run(prog, PenaltySchedule.geometric(10.0, 1.5, 1e6), sigma=0.5,
                   tol=1e-9, max_outer=200)
        assert hist.status == "Converged"
        g_final = prog.eval_g(hist.final().x)
        assert abs(g_final[0]) <= 1e-6  # active
        assert hist.final().p.mu[0] > 0.1

    def test_short_target_is_moved_off_the_origin(self):
        # at n = 1 and seed 4 the drawn target has norm 0.137 < 0.5, so it is
        # moved a unit away from the origin; the ball's radius is half its norm
        raw = Lcg(4).normal(1)
        assert np.linalg.norm(raw) < 0.5
        prog = generate(GeneratorSpec("quad_ineq", n=1, seed=4))
        target = raw + np.sign(raw + 1e-3)
        np.testing.assert_array_equal(-prog.smooth.q, target)
        assert prog.ineqs[0].s == -0.5 * (0.5 * abs(target[0])) ** 2

    def test_interior_feasible_point(self):
        prog = generate(GeneratorSpec("quad_ineq", seed=1))
        x = feasible_point(prog)
        assert prog.eval_g(x).max() < 0


class TestBoxComposite:
    @pytest.mark.parametrize("seed", range(5))
    def test_family_contract(self, seed):
        prog = generate(GeneratorSpec("box_composite", seed=seed))
        assert prog.nonsmooth is not None
        x = feasible_point(prog)
        assert np.linalg.norm(prog.eval_h(x)) <= 1e-12
        assert (x > prog.nonsmooth.lo).all() and (x < prog.nonsmooth.hi).all()


class TestFeasiblePoint:
    def test_reference(self, reference1d):
        np.testing.assert_allclose(feasible_point(reference1d), [1.0])

    def test_hand_problem_not_available(self):
        prog = ConvexProgram(smooth=QuadraticObjective(np.eye(1), np.zeros(1)))
        with pytest.raises(NotAvailableError):
            feasible_point(prog)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InconsistentSpecError):
            GeneratorSpec("nonexistent")

    def test_reference_dims_fixed(self):
        with pytest.raises(InconsistentSpecError):
            GeneratorSpec("reference1d", n=2)

    def test_sc_qp_dim_consistency(self):
        with pytest.raises(InconsistentSpecError):
            GeneratorSpec("sc_qp", n=3, m1=3)

    def test_conditioning_range(self):
        with pytest.raises(InconsistentSpecError):
            GeneratorSpec("sc_qp", conditioning=(0.0, 1.0))

    def test_degenerate_needs_rows_to_duplicate(self):
        with pytest.raises(InconsistentSpecError):
            GeneratorSpec("degenerate_dual_qp", m1=1)

    @pytest.mark.parametrize("family, dims, message", [
        ("sc_qp", {"n": 0}, "dimensions must be positive"),
        ("sc_qp", {"m2": -1}, "dimensions must be positive"),
        ("degenerate_dual_qp", {"n": 3, "m1": 4}, "m1 - 1 independent rows < n"),
        ("quad_ineq", {"m1": 1}, "single quadratic inequality"),
        ("quad_ineq", {"m2": 2}, "single quadratic inequality"),
        ("box_composite", {"m2": 1}, "equalities only"),
        ("box_composite", {"m1": 0}, "equalities only"),
    ])
    def test_family_dimensions_refused(self, family, dims, message):
        with pytest.raises(InconsistentSpecError, match=message):
            GeneratorSpec(family, **dims)

    @pytest.mark.parametrize("field, value", [
        ("seed", 2.5), ("n", 6.7), ("m1", 2.0), ("m2", "3"), ("seed", None),
    ])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(InconsistentSpecError, match=f"{field} must be an integer"):
            GeneratorSpec("sc_qp", **{field: value})

    def test_numpy_integers_accepted(self):
        spec = GeneratorSpec("sc_qp", n=np.int64(7), m1=np.int32(2), m2=np.uint8(3), seed=np.int64(4))
        assert (spec.n, spec.m1, spec.m2, spec.seed) == (7, 2, 3, 4)
        assert spec.label() == "sc_qp[n=7,m1=2,m2=3,seed=4]"
        assert generate(spec).fingerprint() == generate(GeneratorSpec("sc_qp", n=7, m1=2, m2=3, seed=4)).fingerprint()


def test_standard_corpus_composition():
    corpus = standard_corpus()
    assert len(corpus) == 31
    names = [p.name for p in corpus]
    assert sum(n.startswith("sc_qp") for n in names) == 20
    assert sum(n.startswith("reference1d") for n in names) == 1
    assert sum(n.startswith("degenerate_dual_qp") for n in names) == 5
    assert sum(n.startswith("box_composite") for n in names) == 5
