import json

import numpy as np
import pytest

from almlab import load_problem, problem_from_dict
from almlab.errors import ProblemFormatError


def _write(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


BASE = {
    "n": 2,
    "Q": [[2.0, 0.0], [0.0, 1.0]],
    "q": [-1.0, 0.5],
    "A": [[1.0, 1.0]],
    "b": [1.0],
    "ineq": [
        {"type": "affine", "G": [1.0, 0.0], "d": 2.0},
        {"type": "quadratic", "P": [[1.0, 0.0], [0.0, 1.0]], "r": [0.0, 0.0], "s": -8.0},
    ],
}


class TestLoadProblem:
    def test_full_document(self, tmp_path):
        prog = load_problem(_write(tmp_path, BASE))
        assert (prog.n, prog.m1, prog.m2) == (2, 1, 2)
        x = np.array([0.25, 0.75])
        np.testing.assert_allclose(prog.eval_h(x), [0.0])
        np.testing.assert_allclose(prog.eval_g(x), [-1.75, 0.5 * (0.25**2 + 0.75**2) - 8.0])

    def test_box_and_l1(self, tmp_path):
        doc = {"n": 1, "Q": [[1.0]], "q": [0.0], "l1_weight": 0.5,
               "box": {"lo": [-1.0], "hi": [1.0]}}
        prog = load_problem(_write(tmp_path, doc))
        assert prog.nonsmooth is not None
        np.testing.assert_allclose(prog.nonsmooth.prox(np.array([3.0]), 1.0), [1.0])

    def test_generator_form(self, tmp_path):
        doc = {"generator": {"family": "sc_qp", "seed": 7}}
        prog = load_problem(_write(tmp_path, doc))
        from almlab import GeneratorSpec, generate

        assert prog.fingerprint() == generate(GeneratorSpec("sc_qp", seed=7)).fingerprint()

    def test_unconstrained_document(self, tmp_path):
        prog = load_problem(_write(tmp_path, {"n": 1, "Q": [[1.0]], "q": [0.0]}))
        assert (prog.m1, prog.m2) == (0, 0)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.pop("Q"), "Q"),
            (lambda d: d.pop("n"), "n"),
            (lambda d: d.update(Q=[[1.0]]), "Q"),
            (lambda d: d.update(q=[1.0]), "q"),
            (lambda d: d.pop("b"), "A"),
            (lambda d: d["ineq"].append({"type": "conic"}), "ineq[2].type"),
            (lambda d: d["ineq"].append({"G": [1.0, 0.0]}), "ineq[2]"),
            (lambda d: d.update(box={"lo": [0.0, 0.0]}), "box"),
        ],
    )
    def test_error_names_offending_field(self, tmp_path, mutate, field):
        doc = json.loads(json.dumps(BASE))
        mutate(doc)
        with pytest.raises(ProblemFormatError) as err:
            load_problem(_write(tmp_path, doc))
        assert err.value.field == field

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.update(b=["x"]), "b"),
            (lambda d: d.update(b=[float("nan")]), "b"),
            (lambda d: d["Q"].__setitem__(0, [2.0, float("nan")]), "Q"),
            (lambda d: d["Q"].__setitem__(1, [0.0, float("inf")]), "Q"),
            (lambda d: d.update(q=[float("-inf"), 0.5]), "q"),
            (lambda d: d.update(A=[[float("nan"), 1.0]]), "A"),
            (lambda d: d.update(const="x"), "const"),
            (lambda d: d.update(const=float("inf")), "const"),
            (lambda d: d.update(l1_weight=float("nan")), "l1_weight"),
            (lambda d: d.update(l1_weight=["x", 1.0]), "l1_weight"),
            (lambda d: d["ineq"][0].update(d=float("nan")), "ineq[0].d"),
            (lambda d: d["ineq"][1].update(r=[0.0, float("inf")]), "ineq[1].r"),
            (lambda d: d.update(box={"lo": [float("nan"), 0.0], "hi": [1.0, 1.0]}), "box.lo"),
            (lambda d: d.update(box={"lo": [0.0, 0.0], "hi": [1.0, float("nan")]}), "box.hi"),
        ],
    )
    def test_non_numeric_or_non_finite_entry_names_field(self, tmp_path, mutate, field):
        doc = json.loads(json.dumps(BASE))
        mutate(doc)
        with pytest.raises(ProblemFormatError) as err:
            load_problem(_write(tmp_path, doc))
        assert err.value.field == field

    def test_box_bounds_may_be_infinite(self, tmp_path):
        doc = {"n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0],
               "box": {"lo": [float("-inf"), -1.0], "hi": [1.0, float("inf")]}}
        prog = load_problem(_write(tmp_path, doc))
        np.testing.assert_array_equal(prog.nonsmooth.lo, [-np.inf, -1.0])
        np.testing.assert_array_equal(prog.nonsmooth.hi, [1.0, np.inf])

    def test_scalar_l1_weight_and_const(self, tmp_path):
        doc = {"n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0], "const": 1.5, "l1_weight": 0.25}
        prog = load_problem(_write(tmp_path, doc))
        assert prog.smooth.const == 1.5
        np.testing.assert_array_equal(prog.nonsmooth.weight, [0.25, 0.25])

    @pytest.mark.parametrize("conditioning", [[1.0, float("inf")], [float("nan"), 2.0], ["x", 2.0], [1.0]])
    def test_bad_conditioning_names_field(self, conditioning):
        with pytest.raises(ProblemFormatError) as err:
            problem_from_dict({"generator": {"family": "sc_qp", "conditioning": conditioning}})
        assert err.value.field == "generator.conditioning"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_box_bounds_crossed(self):
        with pytest.raises(ProblemFormatError) as err:
            problem_from_dict({"n": 1, "Q": [[1.0]], "q": [0.0],
                               "box": {"lo": [1.0], "hi": [-1.0]}})
        assert err.value.field == "box"

    def test_bad_generator_family(self):
        with pytest.raises(ProblemFormatError) as err:
            problem_from_dict({"generator": {"family": "bogus"}})
        assert err.value.field == "generator"
