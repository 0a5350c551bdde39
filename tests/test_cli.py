import json

import numpy as np
import pytest

from almlab.cli import ExperimentConfig, main
from almlab.driver import InnerOptions, PenaltySchedule
from almlab.problem import ConvexProgram, QuadraticObjective
from almlab.verify import run_verification


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

    def test_grid_respects_thread_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALMLAB_THREADS", "1")
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--sigma", "0.5",
            "--schedule", "fixed", "--c0", "2", "--tol", "1e-8", "--out", str(tmp_path),
        ])
        assert code == 0
        assert len(list(tmp_path.glob("*.csv"))) == 2

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
        ("--armijo-factor", "nan"),
        ("--armijo-factor", "2"),
        ("--max-inner", "-1"),
        ("--armijo-decrease", "nan"),
        ("--cmax", "nan"),
    ])
    def test_invalid_solver_flag_rejected(self, tmp_path, capsys, flag, value):
        code = main([
            "solve", "--generator", "sc_qp", "--seed", "1", "--schedule", "geometric",
            flag, value, "--out", str(tmp_path),
        ])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_infinite_cmax_means_no_cap(self, tmp_path):
        code = main([
            "solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
            "--schedule", "geometric", "--cmax", "inf", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "reference1d__sigma0__geometric.summary.json").read_text())
        assert summary["config"]["schedule"]["c_max"] == float("inf")

    def test_nan_in_problem_file_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(NAN_Q_DOC))
        assert main(["solve", "--problem", str(path), "--out", str(tmp_path)]) == 1
        assert "field 'Q'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_experiment_config_rejects_non_finite_tol(self, tmp_path):
        with pytest.raises(ValueError, match="tol"):
            ExperimentConfig(None, "reference1d", 0, [0.5], [PenaltySchedule.fixed(1.0)],
                             float("nan"), 10, tmp_path, InnerOptions())


class TestRatesCommand:
    @pytest.fixture()
    def trace(self, tmp_path):
        main(["solve", "--generator", "reference1d", "--sigma", "0", "--c0", "2",
              "--schedule", "fixed", "--tol", "1e-8", "--out", str(tmp_path)])
        return tmp_path / "reference1d__sigma0__fixed.trace.json"

    def test_reference_report(self, trace, tmp_path):
        code = main(["rates", "--trace", str(trace), "--with-oracle",
                     "--generator", "reference1d", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "reference1d__sigma0__fixed.rates.csv").read_text().splitlines()
        # rho_hat column constant 1/3 away from the distance noise floor
        for line in rows[1:6]:
            rho_hat = float(line.split(",")[4])
            assert rho_hat == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_missing_trace(self, tmp_path):
        code = main(["rates", "--trace", str(tmp_path / "missing.trace.json"),
                     "--with-oracle", "--generator", "reference1d"])
        assert code == 1

    def test_oracle_mismatch(self, trace, tmp_path):
        code = main(["rates", "--trace", str(trace), "--with-oracle",
                     "--generator", "sc_qp", "--seed", "0", "--out", str(tmp_path)])
        assert code == 4

    def test_no_oracle_source(self, trace):
        assert main(["rates", "--trace", str(trace)]) == 1

    def test_with_oracle_rejects_nan_problem(self, trace, tmp_path, capfd):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(NAN_Q_DOC))
        code = main(["rates", "--trace", str(trace), "--with-oracle", "--problem", str(path),
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
