"""The three document readers: problem files (``io.problem_from_dict``),
run traces (``RunHistory.from_json``) and oracle files
(``SolutionSetOracle.from_json``).

Each reads every JSON object through one ``io.Fields`` view, so a field
that no read asks for is refused by name, as is a malformed one, and every
document the program writes reads back.
"""
import contextlib
import copy
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almlab import (
    AffineInequality,
    ConvexProgram,
    GeneratorSpec,
    InnerOptions,
    PenaltySchedule,
    QuadraticObjective,
    RunHistory,
    SolutionSetOracle,
    generate,
    problem_from_dict,
    run,
    solve_qp_exact,
)
from almlab.cli import main
from almlab.errors import AlmlabError, OracleMismatchError, ProblemFormatError

# every field of the explicit form: a name, a constant, an l1 term, a box
# with an infinite bound, an equality, an affine and a quadratic row
PROBLEM = {
    "name": "every-field", "n": 2, "Q": [[2.0, 0.0], [0.0, 1.0]], "q": [-1.0, 0.5], "const": 0.5,
    "l1_weight": 0.25, "box": {"lo": [-5.0, float("-inf")], "hi": [5.0, 5.0]},
    "A": [[1.0, 1.0]], "b": [1.0],
    "ineq": [{"type": "affine", "G": [1.0, 0.0], "d": 2.0},
             {"type": "quadratic", "P": [[1.0, 0.0], [0.0, 1.0]], "r": [0.0, 0.0], "s": -8.0}],
}
GENERATOR = {"generator": {"family": "sc_qp", "n": 4, "m1": 1, "m2": 2, "seed": 1, "conditioning": [1.0, 5.0]}}
# "eq" and "Ineq" misspell fields the reader knows: read without them, the
# file is min x^2 / 2, where it asks for x* = 5
MISSPELLED = {"n": 1, "Q": [[1.0]], "q": [0.0], "eq": {"A": [[1.0]], "b": [5.0]}, "Ineq": []}
SEGMENT = {"n": 2, "Q": [[1.0, 1.0], [1.0, 1.0]], "q": [-2.0, -2.0],
           "ineq": [{"type": "affine", "G": g, "d": d} for g, d in (([1.0, 1.0], 1.0), ([1.0, 0.0], 5.0))]}


def _cli(argv, action):
    """(exit code, stderr lines) of main(argv), NumPy's RuntimeWarnings
    under the filter action."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter(action, RuntimeWarning)
        code = main(argv)
    return code, err.getvalue().splitlines()


def _assert_refused(argv, out, field, action, rule=None):
    """main(argv) exits 1 with one stderr line naming field (and rule, when
    given), and writes no rates report under out."""
    code, lines = _cli(argv, action)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: field '{field}': "), lines
    if rule is not None:
        assert lines[0] == f"error: field '{field}': {rule}"
    assert not out.exists() or not list(out.glob("*.rates.*"))


@pytest.fixture(scope="module")
def trace_doc():
    """The trace document of reference1d solved at sigma 0 with c = 2."""
    hist = run(generate(GeneratorSpec("reference1d")), PenaltySchedule.fixed(2.0), 0.0, tol=1e-8)
    return json.loads(json.dumps(hist.to_json()))


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


@pytest.mark.parametrize("action", ["error", "default"])
class TestUnknownFields:
    @pytest.mark.parametrize("field, doc", [
        ("eq", MISSPELLED),
        ("generator.bogus", {"generator": {"family": "reference1d", "bogus": 3}}),
        ("n", {"generator": {"family": "reference1d"}, "n": 1}),
        ("Q", {"Q": [[1.0]], "generator": {"family": "reference1d"}}),
        ("box.mid", {**PROBLEM, "box": {"lo": [0.0, 0.0], "mid": [0.5, 0.5], "hi": [1.0, 1.0]}}),
        ("ineq[1].G", {**PROBLEM, "ineq": [PROBLEM["ineq"][0], {**PROBLEM["ineq"][1], "G": [1.0, 0.0]}]}),
    ], ids=["misspelled", "generator-field", "generator-with-n", "generator-with-Q", "box", "ineq-entry"])
    def test_problem_file(self, tmp_path, action, field, doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        _assert_refused(["solve", "--problem", str(path), "--out", str(out)], out, field, action, "unknown field")
        assert not out.exists()

    @pytest.mark.parametrize("field, edit", [
        ("bogus", lambda doc: doc.update(bogus=1)),
        ("config.bogus", lambda doc: doc["config"].update(bogus=1)),
        ("records[2].bogus", lambda doc: doc["records"][2].update(bogus=1)),
        ("records[2].criterion.bogus", lambda doc: doc["records"][2]["criterion"].update(bogus=1)),
        ("records[0].kkt.bogus", lambda doc: doc["records"][0]["kkt"].update(bogus=1)),
    ], ids=["top", "config", "record", "criterion", "kkt"])
    def test_trace(self, trace_doc, tmp_path, action, field, edit):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps(_edited(trace_doc, edit)))
        argv = ["rates", "--trace", str(path), "--generator", "reference1d", "--out", str(tmp_path)]
        _assert_refused(argv, tmp_path, field, action, "unknown field")

    @pytest.mark.parametrize("field, edit", [
        ("bogus", lambda doc: doc.update(bogus=1)),
        ("dual.bogus", lambda doc: doc["dual"].update(bogus=1)),
        ("primal.bogus", lambda doc: doc["primal"].update(bogus=1)),
    ], ids=["top", "dual", "primal"])
    def test_oracle_file(self, trace_doc, tmp_path, action, field, edit):
        # the segment program's X* is a polyhedron, so its file has a primal
        doc = _edited(solve_qp_exact(problem_from_dict(SEGMENT)).to_json(), edit)
        with pytest.raises(ProblemFormatError, match=re.escape(f"field '{field}': unknown field")):
            SolutionSetOracle.from_json(doc)
        if not field.startswith("primal"):  # the reference1d trace and oracle file, through the CLI
            doc = _edited(solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json(), edit)
            (tmp_path / "trace.json").write_text(json.dumps(trace_doc))
            (tmp_path / "oracle.json").write_text(json.dumps(doc))
            argv = ["rates", "--trace", str(tmp_path / "trace.json"), "--oracle", str(tmp_path / "oracle.json"),
                    "--out", str(tmp_path)]
            _assert_refused(argv, tmp_path, field, action, "unknown field")


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, doc", [
    ("q", {"n": 1, "Q": [[1.0]], "q": True}),
    ("q", {"n": 1, "Q": [[1.0]], "q": [True]}),
    ("q", {"n": 1, "Q": [[1.0]], "q": [[0.0]]}),
    ("box.lo", {"n": 1, "Q": [[1.0]], "q": [0.0], "box": {"lo": True, "hi": 2}}),
    ("box.hi", {"n": 1, "Q": [[1.0]], "q": [0.0], "box": {"lo": [0.0], "hi": 2}}),
    ("b", {"n": 1, "Q": [[1.0]], "q": [0.0], "A": [[1.0]], "b": 5.0}),
    ("ineq[0].d", {"n": 1, "Q": [[1.0]], "q": [0.0], "ineq": [{"type": "affine", "G": [1.0], "d": True}]}),
    ("ineq", {"n": 1, "Q": [[1.0]], "q": [0.0], "ineq": 5}),
    ("ineq", {"n": 1, "Q": [[1.0]], "q": [0.0], "ineq": None}),
    ("name", {"n": 1, "Q": [[1.0]], "q": [0.0], "name": [1, 2]}),
], ids=["q-bool", "q-bool-list", "q-matrix", "box-bool", "box-scalar", "b-scalar", "d-bool",
        "ineq-int", "ineq-null", "name-list"])
def test_malformed_problem_field_is_refused(tmp_path, action, field, doc):
    # a vector is a list of numbers, not a boolean, a matrix or a bare
    # number; ineq is a list and name a string
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    _assert_refused(["solve", "--problem", str(path), "--out", str(out)], out, field, action)
    assert not out.exists()


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, edit", [
    ("config.exact", lambda doc: doc["config"].update(exact=1)),
    ("config.max_inner", lambda doc: doc["config"].update(max_inner=-1)),
    ("config.max_inner", lambda doc: doc["config"].update(max_inner=2.5)),
    ("config.w0", lambda doc: doc["config"].update(w0=[0.0, 0.0])),
    ("config.w0", lambda doc: doc["config"].pop("w0")),
    ("config.problem_name", lambda doc: doc["config"].update(problem_name=5)),
    ("failure", lambda doc: doc.update(failure=None)),
    ("status", lambda doc: doc.update(status=True)),
], ids=["int-exact", "negative-max-inner", "float-max-inner", "w0-length", "missing-w0", "int-problem-name",
        "null-failure", "bool-status"])
def test_malformed_trace_config_is_refused(trace_doc, tmp_path, action, field, edit):
    # the writer's config fields that no reader checked before
    path = tmp_path / "bad.trace.json"
    path.write_text(json.dumps(_edited(trace_doc, edit)))
    _assert_refused(["rates", "--trace", str(path), "--generator", "reference1d", "--out", str(tmp_path)],
                    tmp_path, field, action)


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, edit", [
    ("primal_point", lambda doc: doc.update(primal_point=True)),
    ("primal_point", lambda doc: doc.update(primal_point=[True])),
    ("primal_point", lambda doc: doc.update(primal_point=[doc["primal_point"]])),
    ("dual.eq_rhs", lambda doc: doc["dual"].update(eq_rhs=False)),
    # finite entries whose squared norm overflows: rates would square them
    ("primal_point", lambda doc: doc.update(primal_point=[1.7e308])),
    ("dual.eq_mat", lambda doc: doc["dual"].update(eq_mat=[[1e200]])),
], ids=["point-bool", "point-bool-list", "point-matrix", "eq-rhs-bool", "point-overflows", "eq-mat-overflows"])
def test_malformed_oracle_array_is_refused(trace_doc, tmp_path, action, field, edit):
    doc = _edited(solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json(), edit)
    with pytest.raises(ProblemFormatError) as err:
        SolutionSetOracle.from_json(doc)
    assert err.value.field == field
    (tmp_path / "trace.json").write_text(json.dumps(trace_doc))
    (tmp_path / "oracle.json").write_text(json.dumps(doc))
    argv = ["rates", "--trace", str(tmp_path / "trace.json"), "--oracle", str(tmp_path / "oracle.json"),
            "--out", str(tmp_path)]
    _assert_refused(argv, tmp_path, field, action)


@pytest.mark.parametrize("action", ["error", "default"])
def test_oracle_refuses_data_whose_squared_norms_overflow_in_sum(action):
    # min -1e154 x s.t. x <= 1e154: ||q||^2 = ||d||^2 = 1e308 each, and
    # their sum overflows. Unrefused, the proximal point steps overflow in a
    # face solve's scale (a RuntimeWarning under the error filter) or run
    # out of steps
    prog = ConvexProgram(smooth=QuadraticObjective(np.zeros((1, 1)), np.array([-1e154])),
                         ineqs=(AffineInequality(np.array([1.0]), 1e154),))
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ProblemFormatError) as err:
            solve_qp_exact(prog)
    assert str(err.value) == "field 'd': its squared norm overflows when added to those before it"


class TestReadBack:
    @pytest.mark.parametrize("spec, schedule, sigma, inner", [
        (GeneratorSpec("reference1d"), PenaltySchedule.fixed(2.0), 0.0, InnerOptions(exact=True)),
        (GeneratorSpec("sc_qp", n=6, seed=3), PenaltySchedule.geometric(10.0, 1.5, 1e6), 0.5, InnerOptions()),
        (GeneratorSpec("box_composite", seed=1), PenaltySchedule.adaptive(5.0, 2.0), 0.9, InnerOptions()),
        (GeneratorSpec("sc_qp", n=50, m1=10, m2=20, seed=3), PenaltySchedule.fixed(10.0), 0.5,
         InnerOptions(exact=True, max_inner=1)),
    ], ids=["exact", "geometric", "adaptive-nonsmooth", "inner-failure"])
    def test_trace(self, spec, schedule, sigma, inner):
        hist = run(generate(spec), schedule, sigma, max_outer=30, inner=inner)
        doc = json.loads(json.dumps(hist.to_json()))
        assert RunHistory.from_json(doc).to_json() == doc

    @pytest.mark.parametrize("prog", [
        generate(GeneratorSpec("sc_qp", n=6, seed=2)),
        problem_from_dict(SEGMENT),
        ConvexProgram(smooth=QuadraticObjective(np.zeros((1, 1)), np.zeros(1)),
                      ineqs=(AffineInequality(np.array([1.0]), 1.0),)),
    ], ids=["point", "segment", "flat"])
    def test_oracle_file(self, prog):
        orc = solve_qp_exact(prog)
        assert (orc.primal is None) == (prog.n == 6)  # only the sc_qp Q is positive definite
        doc = json.loads(json.dumps(orc.to_json()))
        assert SolutionSetOracle.from_json(doc).to_json() == doc

    @pytest.mark.parametrize("spec", [GeneratorSpec("reference1d"), GeneratorSpec("sc_qp", n=6, seed=4)],
                             ids=["reference1d", "sc_qp"])
    def test_problem_file(self, spec):
        # the layout of the benchmark's explicit problem files
        prog = generate(spec)
        doc = {"name": prog.name, "n": prog.n, "Q": prog.smooth.Q.tolist(), "q": prog.smooth.q.tolist(),
               "const": prog.smooth.const, "A": prog.eq.A.tolist(), "b": prog.eq.b.tolist(),
               "ineq": [{"type": "affine", "G": g.coeff.tolist(), "d": g.offset} for g in prog.ineqs]}
        back = problem_from_dict(json.loads(json.dumps(doc)))
        assert back.fingerprint() == prog.fingerprint() and back.name == prog.name

    def test_every_field_of_a_problem_file(self):
        prog = problem_from_dict(PROBLEM)
        assert (prog.name, prog.n, prog.m1, prog.m2, prog.smooth.const) == ("every-field", 2, 1, 2, 0.5)
        np.testing.assert_array_equal(prog.nonsmooth.lo, [-5.0, -np.inf])


# ---------------------------------------------------------------- fuzzes

# bogus names no field; eq and Ineq are misspellings of fields
_UNKNOWN = ("bogus", "eq", "Ineq")
_MATRICES = st.lists(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2), min_size=2, max_size=2)
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.just(10 ** 400), st.floats(), st.text(max_size=2),
    st.lists(st.floats(), max_size=3), st.lists(st.booleans(), min_size=1, max_size=2), _MATRICES,
    st.lists(st.lists(st.lists(st.just(1.0), max_size=1), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(("lo", "hi", "type", "G", "d", "family", "bogus")),
                    st.lists(st.just(0.0), max_size=2), max_size=2),
)


def _layout_field(exc, layout):
    """True when the ProblemFormatError exc names a field of layout, a set
    of paths with list indices dropped, or an unknown field of one of the
    layout's objects."""
    *parents, last = re.sub(r"\[\d+\]", "", exc.field).split(".")
    if (*parents, last) in layout:
        return True
    return last in _UNKNOWN and str(exc).endswith("unknown field") and (not parents or tuple(parents) in layout)


@st.composite
def _mutated(draw, docs, objects, values):
    """One of docs with one to three fields of its objects dropped, replaced
    or added. objects maps a path of keys (an int picks a random entry of a
    list) to the field names of the object there; values maps a field name
    to the strategy of its replacements, _VALUES by default."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        path, fields = draw(st.sampled_from(sorted(objects.items(), key=repr)))
        target = doc
        for key in path:
            if isinstance(key, int):
                if not isinstance(target, list) or not target:
                    target = None
                    break
                key = draw(st.integers(0, len(target) - 1))
            elif not isinstance(target, dict) or key not in target:
                target = None
                break
            target = target[key]
        if not isinstance(target, dict):
            continue
        name = draw(st.sampled_from(fields + _UNKNOWN))
        if draw(st.booleans()):
            target.pop(name, None)
        else:
            target[name] = draw(values.get(name, _VALUES))
    return doc


_PROBLEM_OBJECTS = {
    (): ("name", "n", "Q", "q", "const", "l1_weight", "box", "A", "b", "ineq", "generator"),
    ("box",): ("lo", "hi"),
    ("ineq", 0): ("type", "G", "d", "P", "r", "s"),
    ("generator",): ("family", "n", "m1", "m2", "seed", "conditioning"),
}
_PROBLEM_LAYOUT = {(f,) for f in _PROBLEM_OBJECTS[()]} | {
    (parent, f) for parent, fields in (("box", ("lo", "hi")), ("ineq", _PROBLEM_OBJECTS[("ineq", 0)]),
                                       ("generator", _PROBLEM_OBJECTS[("generator",)])) for f in fields}
# generated instances stay small: every integer a generator may read is <= 10
_SMALL_INTS = st.one_of(st.integers(-2, 10), st.floats(0.0, 10.0), st.booleans(), st.none())
_PROBLEM_VALUES = {
    # 2 x 2, the size of most documents fuzzed, and often indefinite
    "Q": st.one_of(_MATRICES, _VALUES), "P": st.one_of(_MATRICES, _VALUES),
    "type": st.sampled_from(["affine", "quadratic", "conic", 1]),
    "family": st.sampled_from(["sc_qp", "reference1d", "box_composite", "bogus", 3]),
    "n": _SMALL_INTS, "m1": _SMALL_INTS, "m2": _SMALL_INTS, "seed": _SMALL_INTS,
    "generator": st.dictionaries(st.sampled_from(("family", "n", "m1", "m2", "bogus")),
                                 st.one_of(st.sampled_from(["sc_qp", "reference1d"]), _SMALL_INTS), max_size=3),
    "ineq": st.lists(st.fixed_dictionaries({"type": st.just("affine"), "G": st.just([1.0, 0.0]), "d": _VALUES}),
                     max_size=2),
}


def _clearly_nonconvex(prog):
    """True when Q or a row's P has an eigenvalue well below zero, or is
    far from symmetric."""
    for M in [prog.smooth.Q] + [g.P for g in prog.ineqs if hasattr(g, "P")]:
        scale = max(1.0, float(np.abs(M).max(initial=0.0)))
        if np.abs(M - M.T).max(initial=0.0) > 1e-6 * scale or np.linalg.eigvalsh(M)[0] < -1e-6 * scale:
            return True
    return False


@pytest.mark.parametrize("action", ["error", "default"])
@settings(max_examples=300, deadline=None)
@given(doc=_mutated([PROBLEM, GENERATOR, SEGMENT, MISSPELLED], _PROBLEM_OBJECTS, _PROBLEM_VALUES),
       Q=st.one_of(st.none(), _MATRICES))
def test_problem_reader_accepts_or_names_the_field(action, doc, Q):
    # the reader returns a program, or refuses the document with an
    # AlmlabError that the CLI reports in one line with exit code 1 (a
    # ProblemFormatError naming a field of the layout); a nonconvex program
    # it returns is refused by the solver before its first iteration. Q, when
    # drawn, replaces the Q of a 2-dimensional document
    if Q is not None and doc.get("n") == 2 and "Q" in doc:
        doc["Q"] = Q
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        try:
            prog = problem_from_dict(doc)
        except AlmlabError as exc:
            assert not isinstance(exc, OracleMismatchError)
            if isinstance(exc, ProblemFormatError):
                assert _layout_field(exc, _PROBLEM_LAYOUT), exc
            return
        assert prog.smooth.Q.shape == (prog.n, prog.n) and prog.smooth.q.shape == (prog.n,)
        if _clearly_nonconvex(prog):
            with pytest.raises(ProblemFormatError):
                run(prog, PenaltySchedule.fixed(10.0), 0.5, max_outer=3)


def _trace_documents():
    """Trace documents of a converged exact run, a geometric inexact run
    and a run whose first subproblem failed (no records)."""
    runs = [
        run(generate(GeneratorSpec("reference1d")), PenaltySchedule.fixed(2.0), 0.0, inner=InnerOptions(exact=True)),
        run(generate(GeneratorSpec("sc_qp", n=4, m1=1, m2=2, seed=0)), PenaltySchedule.geometric(10.0, 2.0), 0.5),
        run(generate(GeneratorSpec("sc_qp", n=4, m1=1, m2=2, seed=0)), PenaltySchedule.fixed(10.0), 0.5,
            inner=InnerOptions(max_inner=0)),
    ]
    return [json.loads(json.dumps(hist.to_json())) for hist in runs]


_TRACE_DOCS = _trace_documents()
_TRACE_OBJECTS = {
    (): ("config", "status", "failure", "records"),
    ("config",): ("sigma", "schedule", "tol", "max_outer", "exact", "max_inner", "p0_lam", "p0_mu", "x0", "w0",
                  "problem_fingerprint", "problem_name"),
    ("config", "schedule"): ("kind", "c0", "growth", "c_max", "adapt_ratio"),
    ("records", 0): ("k", "c", "x", "y", "lam", "mu", "w", "u", "delta_p", "criterion", "kkt", "inner_iters",
                     "backtracks", "f_val", "auglag_val"),
    ("records", 0, "criterion"): ("lhs", "rhs_raw", "rhs_rewritten", "satisfied"),
    ("records", 0, "kkt"): ("stationarity", "eq_feas", "ineq_feas", "comp", "mu_neg"),
}
_TRACE_LAYOUT = {tuple(k for k in path if not isinstance(k, int)) + (f,)
                 for path, fields in _TRACE_OBJECTS.items() for f in fields}
_TRACE_VALUES = {
    "records": st.lists(st.dictionaries(st.sampled_from(_TRACE_OBJECTS[("records", 0)]), _VALUES, max_size=3),
                        max_size=2),
    "kind": st.sampled_from(["fixed", "geometric", "adaptive", "cyclic", 2]),
}


@pytest.mark.parametrize("action", ["error", "default"])
@settings(max_examples=300, deadline=None)
@given(doc=_mutated(_TRACE_DOCS, _TRACE_OBJECTS, _TRACE_VALUES))
def test_trace_reader_accepts_or_names_the_field(action, doc):
    # the reader returns a history whose record vectors have the lengths
    # the config implies, or refuses with a ProblemFormatError naming a
    # field of the layout
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        try:
            hist = RunHistory.from_json(doc)
        except AlmlabError as exc:
            assert isinstance(exc, ProblemFormatError), exc
            assert _layout_field(exc, _TRACE_LAYOUT), exc
            return
    n, m = len(hist.config["x0"]), len(hist.config["p0_lam"]) + len(hist.config["p0_mu"])
    for rec in hist.records:
        assert rec.x.shape == rec.w.shape == (n,) and rec.delta_p.shape == rec.u.shape == (m,)
        assert rec.c > 0 and np.isfinite(rec.x).all()


def _set(path, value):
    """An edit that sets the entry at path, a tuple of keys and indices, to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, doc", [
    ("Q", {"n": 1, "Q": [[True]], "q": [0.0]}),
    ("q", {"n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, True]}),
], ids=["Q-entry", "q-entry"])
def test_problem_refuses_a_boolean_inside_a_number(tmp_path, action, field, doc):
    # NumPy reads true and false as 1 and 0, wherever they stand
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    _assert_refused(["solve", "--problem", str(path), "--out", str(out)], out, field, action,
                    f"expected a numeric {'matrix' if field == 'Q' else 'vector'}, not true or false")
    assert not out.exists()


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, edit", [
    ("config.x0", _set(("config", "x0", 0), True)),
    ("records[0].lam", _set(("records", 0, "lam", 0), False)),
    ("records[2].x", _set(("records", 2, "x", 0), True)),
], ids=["x0", "record-lam", "record-x"])
def test_trace_refuses_a_boolean_inside_a_number(tmp_path, action, field, edit):
    # vectors of two or more entries: a list of booleans alone was refused before
    problem = ["--generator", "sc_qp", "--n", "6", "--seed", "3"]
    hist = run(generate(GeneratorSpec("sc_qp", n=6, seed=3)), PenaltySchedule.fixed(10.0), 0.5)
    path = tmp_path / "bad.trace.json"
    path.write_text(json.dumps(_edited(json.loads(json.dumps(hist.to_json())), edit)))
    _assert_refused(["rates", "--trace", str(path), *problem, "--out", str(tmp_path)],
                    tmp_path, field, action, "expected a numeric vector, not true or false")


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, edit, rule", [
    ("dual.eq_mat", _set(("dual", "eq_mat", 0, 0), True), "expected a numeric matrix, not true or false"),
    ("dual.zero_idx", _set(("dual", "zero_idx"), [True]), "expected a list of integers, got [true]"),
    ("dual.nonneg_idx", _set(("dual", "nonneg_idx"), [0.0]), "expected a list of integers, got [0.0]"),
    ("dual.nonneg_idx", _set(("dual", "nonneg_idx"), [1]), "indices must lie in [0, 1), got [1]"),
    ("dual.nonneg_idx", _set(("dual", "nonneg_idx"), [0, 0]), "repeated index in [0, 0]"),
    ("dual.zero_idx", _set(("dual", "zero_idx"), None), "expected a list of integers, got null"),
    ("dual.zero_idx", _set(("dual", "zero_idx"), {"a": 1}), 'expected a list of integers, got {"a": 1}'),
], ids=["eq-mat-entry", "bool-index", "float-index", "index-range", "repeated-index", "null-index", "object-index"])
def test_oracle_refuses_a_boolean_inside_a_number_or_an_index(trace_doc, tmp_path, action, field, edit, rule):
    # an index is read by the rule that reads every integer: never true or false
    doc = _edited(solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json(), edit)
    (tmp_path / "trace.json").write_text(json.dumps(trace_doc))
    (tmp_path / "oracle.json").write_text(json.dumps(doc))
    argv = ["rates", "--trace", str(tmp_path / "trace.json"), "--oracle", str(tmp_path / "oracle.json"),
            "--out", str(tmp_path)]
    _assert_refused(argv, tmp_path, field, action, rule)


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, doc, kind", [
    ("Q", {"n": 1, "Q": [["2"]], "q": ["0.5"], "const": "3"}, "a numeric matrix"),
    ("q", {"n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, "0.5"]}, "a numeric vector"),
    ("const", {"n": 1, "Q": [[1.0]], "q": [0.0], "const": "3"}, "a number"),
    ("ineq[0].d", {"n": 1, "Q": [[1.0]], "q": [0.0], "ineq": [{"type": "affine", "G": [1.0], "d": "1"}]},
     "a number"),
], ids=["Q-entry", "q-entry", "const", "ineq-d"])
def test_problem_refuses_a_string_for_a_number(tmp_path, action, field, doc, kind):
    # NumPy parses "2" as 2.0; a reader does not
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    _assert_refused(["solve", "--problem", str(path), "--out", str(out)], out, field, action,
                    f"expected {kind}, not a string")
    assert not out.exists()


@pytest.mark.parametrize("action", ["error", "default"])
@pytest.mark.parametrize("field, edit, kind", [
    ("config.sigma", _set(("config", "sigma"), "0.5"), "a number"),
    ("config.x0", _set(("config", "x0", 0), "0.0"), "a numeric vector"),
    ("records[1].x", _set(("records", 1, "x", 0), "1.0"), "a numeric vector"),
    ("records[0].kkt.comp", _set(("records", 0, "kkt", "comp"), "0"), "a number"),
], ids=["sigma", "x0", "record-x", "record-kkt"])
def test_trace_refuses_a_string_for_a_number(trace_doc, tmp_path, action, field, edit, kind):
    # a string sigma was kept in config and ended rates in a TypeError
    path = tmp_path / "bad.trace.json"
    path.write_text(json.dumps(_edited(trace_doc, edit)))
    _assert_refused(["rates", "--trace", str(path), "--generator", "reference1d", "--out", str(tmp_path)],
                    tmp_path, field, action, f"expected {kind}, not a string")


@pytest.mark.parametrize("action", ["error", "default"])
def test_oracle_refuses_a_string_for_a_number(trace_doc, tmp_path, action):
    doc = _edited(solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json(),
                  _set(("dual", "eq_mat", 0, 0), "1"))
    (tmp_path / "trace.json").write_text(json.dumps(trace_doc))
    (tmp_path / "oracle.json").write_text(json.dumps(doc))
    argv = ["rates", "--trace", str(tmp_path / "trace.json"), "--oracle", str(tmp_path / "oracle.json"),
            "--out", str(tmp_path)]
    _assert_refused(argv, tmp_path, "dual.eq_mat", action, "expected a numeric matrix, not a string")
