import io
import json
import threading

import numpy as np
import pytest

from almlab import cli as cli_mod
from almlab.cli import main
from almlab.problem import ConvexProgram, QuadraticObjective
from almlab import verify as verify_mod
from almlab.verify import Failure, run_verification


NAN_Q_DOC = {"n": 2, "Q": [[2.0, float("nan")], [float("nan"), 2.0]], "q": [0.0, 0.0]}


class _BrokenGradientObjective(QuadraticObjective):
    def grad(self, x):
        return super().grad(x) + 0.05  # deliberately inconsistent


class TestSolveCommand:
    def test_reference_converges(self, tmp_path):
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
            "--schedule", "fixed", "--tol", "1e-8", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "reference1d__sigma0__fixed.summary.json").read_text())
        assert summary["status"] == "Converged"
        assert summary["final"]["lam"][0] == pytest.approx(-1.0, abs=1e-8)

    def test_exact_mode_keeps_max_inner(self, tmp_path):
        # the first subproblem needs two Newton steps; one is allowed
        code = main([
            "solve", "--generator", "sc_qp", "--n", "50", "--m1", "10", "--m2", "20",
            "--seed", "3", "--exact", "--max-inner", "1", "--out", str(tmp_path),
        ])
        assert code == 3
        (path,) = tmp_path.glob("*.summary.json")
        summary = json.loads(path.read_text())
        assert summary["status"] == "InnerFailure"
        assert summary["config"]["max_inner"] == 1
        assert "did not converge" in summary["failure"]

    def test_exact_kink_chain_past_200_newton_steps(self, tmp_path, capsys):
        # min 0.5 x^2 + 203 x with rows 3^(i/2) (x + 202 - i) <= 0, i = 1..201:
        # from x = 0 every row is active and each Newton step drops one, so
        # the first subproblem takes 202 steps to x = -203
        a = [3 ** (i / 2) for i in range(1, 202)]
        path = tmp_path / "kink.json"
        path.write_text(json.dumps({
            "n": 1, "Q": [[1.0]], "q": [203.0],
            "ineq": [{"type": "affine", "G": [ai], "d": ai * (i - 202)} for i, ai in enumerate(a, start=1)],
        }))
        code = main(["solve", "--problem", str(path), "--exact", "--sigma", "0", "--schedule", "fixed",
                     "--c0", "1", "--out", str(tmp_path)])
        assert code == 0
        assert "Converged after 1 iterations" in capsys.readouterr().out
        summary = json.loads((tmp_path / "problem__sigma0__fixed.summary.json").read_text())
        assert summary["total_inner_iters"] == 202
        assert summary["final"]["f_val"] == pytest.approx(-0.5 * 203 ** 2)

    def test_adaptive_schedule(self, tmp_path):
        code = main(["solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
                     "--schedule", "adaptive", "--adapt-ratio", "0.25", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "reference1d__sigma0__adaptive.summary.json").read_text())
        assert summary["status"] == "Converged"
        schedule = summary["config"]["schedule"]
        assert (schedule["kind"], schedule["c0"], schedule["adapt_ratio"]) == ("adaptive", 2.0, 0.25)

    def test_missing_problem_file(self, tmp_path):
        assert main(["solve", "--problem", str(tmp_path / "nope.json")]) == 1

    def test_sigma_out_of_range(self, tmp_path):
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "1.0",
            "--out", str(tmp_path),
        ])
        assert code == 1

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["solve", "--generator", "sc_qp", "--seed", "3", "--sigma", "0.5",
                "--schedule", "geometric", "--c0", "10", "--growth", "1.5",
                "--cmax", "1e6", "--tol", "1e-8"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        name = "sc_qp_n_6_m1_2_m2_3_seed_3___sigma0.5__geometric.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_grid_writes_one_file_per_pair(self, tmp_path):
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--sigma", "0.5",
            "--schedule", "fixed", "--schedule", "geometric", "--c0", "2",
            "--tol", "1e-8", "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 4

    def test_repeatable_flags_start_empty_on_every_call(self, tmp_path):
        # main reuses one parser; no --sigma of one call carries over into
        # the next, and a call without --sigma keeps its default
        common = ["solve", "--generator", "reference1d", "--c0", "2", "--tol", "1e-8"]
        calls = [(["--sigma", "0", "--sigma", "0.5", "--sigma", "0.9"], 3), (["--sigma", "0.1"], 1), ([], 1)]
        for k, (sigmas, count) in enumerate(calls):
            out = tmp_path / str(k)
            assert main(common + sigmas + ["--out", str(out)]) == 0
            assert len(list(out.glob("*.csv"))) == count
        assert [p.name for p in (tmp_path / "2").glob("*.csv")] == ["reference1d__sigma0.5__fixed.csv"]
        assert cli_mod._build_parser() is cli_mod._build_parser()

    def test_grid_runs_in_order_without_threads(self, tmp_path, monkeypatch, capsys):
        def no_threads(self):
            raise RuntimeError("the solve grid must not start threads")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--sigma", "0.5",
            "--schedule", "fixed", "--schedule", "geometric", "--c0", "2",
            "--tol", "1e-8", "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 4
        keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == [
            "reference1d__sigma0__fixed", "reference1d__sigma0__geometric",
            "reference1d__sigma0.5__fixed", "reference1d__sigma0.5__geometric",
        ]

    @pytest.mark.parametrize("sigma, schedule", [
        ("0", "fixed"), ("0", "geometric"), ("0.5", "fixed"), ("0.5", "geometric"),
    ])
    def test_grid_run_matches_the_run_alone(self, tmp_path, sigma, schedule):
        # no state leaks from one grid run into the next
        common = ["solve", "--generator", "sc_qp", "--seed", "3", "--c0", "10",
                  "--growth", "1.5", "--cmax", "1e6", "--tol", "1e-8"]
        grid, alone = tmp_path / "grid", tmp_path / "alone"
        assert main(common + ["--sigma", "0", "--sigma", "0.5", "--schedule", "fixed",
                              "--schedule", "geometric", "--out", str(grid)]) == 0
        assert main(common + ["--sigma", sigma, "--schedule", schedule,
                              "--out", str(alone)]) == 0
        key = f"sc_qp_n_6_m1_2_m2_3_seed_3___sigma{sigma}__{schedule}"
        for suffix in (".csv", ".trace.json", ".summary.json"):
            assert (grid / (key + suffix)).read_bytes() == (alone / (key + suffix)).read_bytes()

    def test_max_outer_exit_code(self, tmp_path):
        code = main([
            "solve", "--generator", "sc_qp", "--seed", "0", "--sigma", "0.5",
            "--schedule", "fixed", "--c0", "1", "--tol", "1e-12",
            "--max-outer", "2", "--out", str(tmp_path),
        ])
        assert code == 2

    @pytest.mark.parametrize("flag, value, schedule", [
        ("--tol", "nan", "fixed"),
        ("--c0", "nan", "fixed"),
        ("--growth", "inf", "geometric"),
    ])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, value, schedule):
        code = main([
            "solve", "--generator", "reference1d", "--schedule", schedule,
            flag, value, "--out", str(tmp_path),
        ])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_positive_cmax_means_no_cap(self, tmp_path):
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
            "--schedule", "geometric", "--cmax", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "reference1d__sigma0__geometric.summary.json").read_text())
        assert summary["config"]["schedule"]["c_max"] == float("inf")

    @pytest.mark.parametrize("flag, value", [
        ("--max-inner", "-1"),
        ("--cmax", "nan"),
        ("--max-outer", "-3"),
        ("--max-outer", "0"),
        ("--tol", "0"),
        ("--tol", "-1"),
        ("--sigma", "1.5"),
    ])
    def test_invalid_solver_flag_rejected(self, tmp_path, capsys, flag, value):
        # refused before the output directory is made
        out = tmp_path / "out"
        code = main([
            "solve", "--generator", "sc_qp", "--seed", "1", "--schedule", "geometric",
            flag, value, "--out", str(out),
        ])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_cmax_means_no_cap(self, tmp_path):
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
            "--schedule", "geometric", "--cmax", "inf", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "reference1d__sigma0__geometric.summary.json").read_text())
        assert summary["config"]["schedule"]["c_max"] == float("inf")

    def test_problem_and_generator_together_rejected(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"n": 1, "Q": [[1.0]], "q": [0.0]}))
        code = main(["solve", "--problem", str(path), "--generator", "reference1d",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "not both" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_no_problem_source_rejected(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path)]) == 1
        assert "one of --problem or --generator is required" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_nan_in_problem_file_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(NAN_Q_DOC))
        assert main(["solve", "--problem", str(path), "--out", str(tmp_path)]) == 1
        assert "field 'Q'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


    @pytest.mark.parametrize("doc, field, rule", [
        ({"n": 2, "Q": [[1.0, 0.0], [0.0, -1.0]], "q": [0.0, 0.0]}, "Q", "positive semidefinite"),
        ({"n": 2, "Q": [[1.0, 5.0], [-5.0, 1.0]], "q": [0.0, 0.0]}, "Q", "symmetric"),
        ({"n": 2, "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0],
          "ineq": [{"type": "affine", "G": [1.0, 0.0], "d": 1.0},
                   {"type": "quadratic", "P": [[1.0, 0.0], [0.0, -1.0]], "r": [0.0, 0.0], "s": -1.0}]},
         "ineq[1].P", "positive semidefinite"),
    ], ids=["indefinite-Q", "skew-Q", "indefinite-P"])
    def test_non_convex_problem_file_names_the_field(self, tmp_path, capsys, recwarn, doc, field, rule):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"field '{field}': must be {rule}" in err
        assert not recwarn.list
        assert not list(tmp_path.glob("*.csv"))


class TestRatesCommand:
    @pytest.fixture()
    def trace(self, tmp_path):
        main(["solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
              "--schedule", "fixed", "--tol", "1e-8", "--out", str(tmp_path)])
        return tmp_path / "reference1d__sigma0__fixed.trace.json"

    def test_reference_report(self, trace, tmp_path):
        code = main(["rates", "--trace", str(trace), "--generator", "reference1d",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "reference1d__sigma0__fixed.rates.csv").read_text().splitlines()
        # rho_hat column constant 1/3 away from the distance noise floor
        for line in rows[1:6]:
            rho_hat = float(line.split(",")[4])
            assert rho_hat == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("uncertified, expected", [(False, 1), (True, 2)],
                             ids=["moved", "moved-uncertified"])
    def test_moved_final_record_breaks_the_bounds(self, trace, tmp_path, capsys, uncertified, expected):
        # the last record's lam and x are moved a unit away from P* and X*.
        # Its residual ||(y, u)|| ~ 1e-8 makes kappa_hat ~ 1e8, which still
        # leaves the dual ratio ~ 4e7 above both rho bounds. Zeroing (y, u)
        # keeps the record out of kappa_hat's window, and then dist_x also
        # breaks both primal bounds
        doc = json.loads(trace.read_text())
        rec = doc["records"][-1]
        for key in ("lam", "x"):
            rec[key] = [v + 1.0 for v in rec[key]]
        if uncertified:
            rec["y"], rec["u"] = [0.0] * len(rec["y"]), [0.0] * len(rec["u"])
        moved = tmp_path / "moved.trace.json"
        moved.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["rates", "--trace", str(moved), "--generator", "reference1d",
                     "--out", str(tmp_path)])
        assert code == 5
        summary = json.loads((tmp_path / "moved.rates.json").read_text())["summary"]
        assert summary["bound_violations"] == expected
        assert summary["margin_violations"] == expected
        assert f"bound_violations={expected} margin_violations={expected}" in capsys.readouterr().out

    def test_missing_trace(self, tmp_path):
        code = main(["rates", "--trace", str(tmp_path / "missing.trace.json"),
                     "--generator", "reference1d"])
        assert code == 1

    def test_oracle_mismatch(self, trace, tmp_path):
        code = main(["rates", "--trace", str(trace), "--generator", "sc_qp", "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == 4

    def test_no_oracle_source(self, trace, tmp_path, capsys):
        assert main(["rates", "--trace", str(trace), "--out", str(tmp_path)]) == 1
        assert "one of --oracle, --problem or --generator is required" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.rates.*"))

    def test_problem_file_gives_the_oracle(self, trace, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"generator": {"family": "reference1d"}}))
        code = main(["rates", "--trace", str(trace), "--problem", str(path),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reference1d__sigma0__fixed.rates.json").exists()

    def test_oracle_file_and_problem_together_rejected(self, trace, tmp_path, capsys):
        from almlab import GeneratorSpec, generate, solve_qp_exact

        oracle_path = tmp_path / "oracle.json"
        solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json(oracle_path)
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps({"generator": {"family": "reference1d"}}))
        code = main(["rates", "--trace", str(trace), "--oracle", str(oracle_path),
                     "--problem", str(problem_path), "--out", str(tmp_path)])
        assert code == 1
        assert "not both" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.rates.*"))

    def test_problem_oracle_rejects_nan_problem(self, trace, tmp_path, capfd):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(NAN_Q_DOC))
        code = main(["rates", "--trace", str(trace), "--problem", str(path),
                     "--out", str(tmp_path)])
        assert code == 1
        out, err = capfd.readouterr()
        assert "field 'Q'" in err
        assert "DLASCL" not in out + err

    def test_oracle_file_round_trip(self, trace, tmp_path):
        from almlab import GeneratorSpec, generate, solve_qp_exact

        oracle_path = tmp_path / "oracle.json"
        solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json(oracle_path)
        code = main(["rates", "--trace", str(trace), "--oracle", str(oracle_path),
                     "--probe", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "reference1d__sigma0__fixed.rates.json").read_text())
        assert doc["probe"]["ok"] is False  # fixed schedule

    def test_probe_with_too_few_ratios_is_reported(self, tmp_path):
        # at tol 1e-2 the run converges after three outer iterations: three
        # contraction ratios, one short of the probe's four
        assert main(["solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
                     "--schedule", "geometric", "--tol", "1e-2", "--exact",
                     "--out", str(tmp_path)]) == 0
        trace = tmp_path / "reference1d__sigma0__geometric.trace.json"
        code = main(["rates", "--trace", str(trace), "--generator", "reference1d", "--probe",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "reference1d__sigma0__geometric.rates.json").read_text())
        assert doc["probe"] == {"ok": False, "ratios": [],
                                "reason": "only 3 valid contraction ratios; at least 4 required"}

    @pytest.mark.parametrize("field, edit", [
        ("dual.nonneg_idx", lambda doc: doc["dual"].update(nonneg_idx=[99])),
        ("primal_point", lambda doc: doc.pop("primal_point")),
        ("dual.eq_rhs", lambda doc: doc["dual"].update(eq_rhs=[float("nan")])),
        ("dual.nonneg_idx", lambda doc: doc["dual"].update(zero_idx=[0], nonneg_idx=[0])),
        ("dual.zero_idx", lambda doc: doc["dual"].update(zero_idx=[0.5])),
        ("dual.zero_idx", lambda doc: doc["dual"].update(zero_idx=[True])),
        ("dual.eq_mat", lambda doc: doc["dual"].update(eq_mat=[[1.0], [2.0]])),
        ("dual", lambda doc: doc.pop("dual")),
    ], ids=["index-out-of-range", "missing-primal-point", "nan-eq-rhs", "overlapping-indices",
            "non-integer-index", "bool-index", "eq-mat-shape", "missing-dual"])
    def test_malformed_oracle_file_names_the_field(self, trace, tmp_path, capsys, field, edit):
        from almlab import GeneratorSpec, generate, solve_qp_exact

        doc = solve_qp_exact(generate(GeneratorSpec("reference1d"))).to_json()
        edit(doc)
        oracle_path = tmp_path / "oracle.json"
        oracle_path.write_text(json.dumps(doc))
        code = main(["rates", "--trace", str(trace), "--oracle", str(oracle_path),
                     "--out", str(tmp_path)])
        assert code == 1
        assert f"field '{field}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.rates.*"))


    @pytest.mark.parametrize("field, edit", [
        ("config", lambda doc: doc.clear()),
        ("config.sigma", lambda doc: doc["config"].pop("sigma")),
        ("config.sigma", lambda doc: doc["config"].update(sigma=1.5)),
        ("config.x0", lambda doc: doc["config"].update(x0="abc")),
        ("config.schedule", lambda doc: doc["config"].update(schedule="fixed")),
        ("config.schedule", lambda doc: doc["config"]["schedule"].update(growth="2")),
        ("records", lambda doc: doc.update(records={})),
        ("records[3].mu", lambda doc: doc["records"][3].update(mu="abc")),
        ("records[2].x", lambda doc: doc["records"][2].update(x=[1.0, 2.0])),
        ("records[1].lam", lambda doc: doc["records"][1].update(lam=[float("nan")])),
        ("records[4].u", lambda doc: doc["records"][4].pop("u")),
        ("records[0].c", lambda doc: doc["records"][0].update(c="abc")),
        ("records[0].c", lambda doc: doc["records"][0].update(c=-1.0)),
        ("records[5].k", lambda doc: doc["records"][5].update(k=1.5)),
        ("records[2].f_val", lambda doc: doc["records"][2].update(f_val=float("inf"))),
        ("records[6].criterion", lambda doc: doc["records"][6].update(criterion={})),
        ("records[6].criterion.lhs", lambda doc: doc["records"][6]["criterion"].update(lhs="abc")),
        ("records[6].criterion.satisfied",
         lambda doc: doc["records"][6]["criterion"].update(satisfied=1)),
        ("records[1].kkt.comp", lambda doc: doc["records"][1]["kkt"].update(comp=float("nan"))),
    ], ids=["empty-object", "missing-sigma", "sigma-out-of-range", "string-x0", "string-schedule", "string-growth",
            "records-not-a-list", "string-mu", "x-length", "nan-lam", "missing-u", "string-c",
            "negative-c", "float-k", "inf-f_val", "empty-criterion", "string-criterion-lhs",
            "int-satisfied", "nan-kkt"])
    def test_malformed_trace_names_the_field(self, trace, tmp_path, capsys, field, edit):
        doc = json.loads(trace.read_text())
        edit(doc)
        bad = tmp_path / "bad.trace.json"
        bad.write_text(json.dumps(doc))
        code = main(["rates", "--trace", str(bad), "--generator", "reference1d", "--probe",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"field '{field}'" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.rates.*"))

    @pytest.mark.parametrize("unreadable, text", [
        ("trace", "{"), ("trace", "[1, 2]"), ("oracle", "{bad"), ("oracle", "[1, 2]"),
    ], ids=["invalid-json", "not-an-object", "oracle-invalid-json", "oracle-not-an-object"])
    def test_unreadable_trace_names_the_document(self, trace, tmp_path, capsys, unreadable, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        source = ["--trace", str(bad), "--generator", "reference1d"]
        if unreadable == "oracle":
            source = ["--trace", str(trace), "--oracle", str(bad)]
        code = main(["rates", *source, "--out", str(tmp_path)])
        assert code == 1
        assert "field '<document>'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.rates.*"))


def test_json_files_match_json_dump(tmp_path):
    # each JSON file is written in one piece; its bytes are what json.dump
    # with indent=1 writes for the same document
    from almlab import GeneratorSpec, generate, solve_qp_exact

    main(["solve", "--generator", "sc_qp", "--seed", "3", "--sigma", "0.1", "--sigma", "0.5",
          "--schedule", "fixed", "--schedule", "geometric", "--c0", "10", "--tol", "1e-8",
          "--out", str(tmp_path)])
    oracle_path = tmp_path / "oracle.json"
    solve_qp_exact(generate(GeneratorSpec("sc_qp", seed=3))).to_json(oracle_path)
    traces = sorted(tmp_path.glob("*.trace.json"))
    for trace in traces:
        main(["rates", "--trace", str(trace), "--oracle", str(oracle_path), "--probe",
              "--out", str(tmp_path)])
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 1 + 3 * len(traces) and len(traces) == 4
    for path in files:
        text = path.read_text()
        buf = io.StringIO()
        json.dump(json.loads(text), buf, indent=1)
        assert buf.getvalue() == text, path.name


def _problem_document(prog):
    """The problem file of an affine-constrained QP."""
    doc = {"name": prog.name, "n": prog.n, "Q": prog.smooth.Q.tolist(), "q": prog.smooth.q.tolist()}
    if prog.eq is not None:
        doc["A"], doc["b"] = prog.eq.A.tolist(), prog.eq.b.tolist()
    doc["ineq"] = [{"type": "affine", "G": g.coeff.tolist(), "d": g.offset} for g in prog.ineqs]
    return doc


def _grid_and_rates(prog, root):
    """A problem file and an oracle file for prog, an 8-run solve grid on
    the problem file, then rates --oracle on every trace; every exit code
    must be 0. Returns the bytes of each CSV written, by name."""
    from almlab import solve_qp_exact

    root.mkdir()
    problem, oracle, out = root / "problem.json", root / "oracle.json", root / "out"
    problem.write_text(json.dumps(_problem_document(prog)))
    solve_qp_exact(prog).to_json(oracle)
    argv = ["solve", "--problem", str(problem), "--out", str(out), "--schedule", "fixed", "--schedule", "geometric"]
    for sigma in ("0.01", "0.1", "0.5", "0.9"):
        argv += ["--sigma", sigma]
    assert main(argv) == 0, prog.name
    traces = sorted(out.glob("*.trace.json"))
    assert len(traces) == 8
    for trace in traces:
        assert main(["rates", "--trace", str(trace), "--oracle", str(oracle), "--out", str(out)]) == 0, trace.name
    return {path.name: path.read_bytes() for path in out.glob("*.csv")}


def test_benchmark_grid_exits_0_and_repeats_byte_for_byte(tmp_path, capsys):
    # the shape of the benchmark's cli-grid workload, on sc_qp n=50 seeds 0-3;
    # a rerun of seed 0 writes the same bytes
    from almlab import GeneratorSpec, generate

    progs = [generate(GeneratorSpec("sc_qp", n=50, seed=seed)) for seed in range(4)]
    first = [_grid_and_rates(prog, tmp_path / f"seed{seed}") for seed, prog in enumerate(progs)]
    assert len(first[0]) == 16
    assert _grid_and_rates(progs[0], tmp_path / "rerun") == first[0]


def test_rates_on_a_psd_program_with_24_rows(tmp_path, capsys):
    # Q = diag(1, 0), q = (0, -1) and 24 rows (cos t_i, sin t_i) x <= 1 with
    # t_i = pi (i + 1/2) / 24. X* is the single vertex (0, 1 / cos(pi / 48))
    # of rows 11 and 12.
    theta = np.pi * (np.arange(24) + 0.5) / 24
    path = tmp_path / "psd24.json"
    path.write_text(json.dumps({"n": 2, "Q": [[1.0, 0.0], [0.0, 0.0]], "q": [0.0, -1.0],
                                "ineq": [{"type": "affine", "G": [c, s], "d": 1.0}
                                         for c, s in zip(np.cos(theta), np.sin(theta))]}))
    assert main(["solve", "--problem", str(path), "--sigma", "0.5", "--schedule", "fixed", "--c0", "1",
                 "--out", str(tmp_path)]) == 0
    assert main(["rates", "--trace", str(tmp_path / "problem__sigma0.5__fixed.trace.json"),
                 "--problem", str(path), "--out", str(tmp_path)]) == 0
    assert "bound_violations=0" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--generator", "reference1d", "--bogus", "1"],
        ["solve", "--sigma", "abc"],
        ["rates"],
        ["solve", "--generator", "reference1d", "--armijo-factor", "0.4"],
        ["rates", "--trace", "run.trace.json", "--with-oracle", "--generator", "reference1d"],
        ["rates", "--trace", "run.trace.json", "--generator", "reference1d", "--tail", "0.5"],
        [],
    ], ids=["unknown-flag", "non-numeric-sigma", "rates-without-trace", "armijo-factor",
            "with-oracle", "tail", "no-command"])
    def test_usage_error_exits_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "usage: almlab" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["rates", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert "usage: almlab" in capsys.readouterr().out


class TestVerifyCommand:
    def test_full_battery_passes(self, capsys):
        code = main(["verify"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == []
        assert "ppa-equivalence" in doc["checks"]

    def test_filtered_check_passes(self, capsys):
        code = main(["verify", "--only", "criterion-identity", "--only", "yp2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == []

    def test_failure_is_printed_and_exits_1(self, capsys, monkeypatch):
        def failing(ctx):
            yield Failure("yp2", "planted", "k=3: ||y||=1.000e+00 > 5.000e-01")

        monkeypatch.setitem(verify_mod.CHECKS, "yp2", failing)
        code = main(["verify", "--only", "yp2"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"failures": [{"check": "yp2", "problem": "planted",
                                     "message": "k=3: ||y||=1.000e+00 > 5.000e-01"}],
                       "checks": ["yp2"]}

    def test_unknown_check_rejected(self):
        assert main(["verify", "--only", "not-a-check"]) == 1

    def test_fault_injection_names_the_invariant(self):
        broken = ConvexProgram(
            smooth=_BrokenGradientObjective(np.eye(2), np.zeros(2)),
            name="broken-gradient",
        )
        failures = run_verification(problems=[broken], only=["gradient-consistency"])
        assert failures
        assert failures[0].check == "gradient-consistency"
        assert failures[0].problem == "broken-gradient"
