"""Command-line interface: exit codes, report structure, determinism,
field outputs."""

import json

import numpy as np
import pytest

from cosserat_weyl import read_field
import cosserat_weyl.spinor as spinor_module
import cosserat_weyl.weyl as weyl_module
from cosserat_weyl.cli import main


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    out.unlink(missing_ok=True)
    return code, report


SMALL = ["--grid", "8,8,8"]


class TestExitCodes:
    def test_verify_pass(self, tmp_path):
        code, report = _run(tmp_path, "verify", "fierz", "--cases", "3", *SMALL)
        assert code == 0
        assert report["verdict"] == "pass"

    def test_verify_fail_on_impossible_tolerance(self, tmp_path):
        code, report = _run(tmp_path, "verify", "factorization",
                            "--cases", "2", "--tol", "1e-30", *SMALL)
        assert code == 1
        assert report["verdict"] == "fail"
        # --tol reaches every suite; conformal runs one case and takes no --cases
        for argv in (*(["verify", what, "--cases", "2"]
                       for what in ("fierz", "u1", "scaling", "correspondence")),
                     ["verify", "conformal"]):
            code, report = _run(tmp_path, *argv, "--tol", "1e-30", *SMALL)
            assert code == 1, argv
            assert report["verdict"] == "fail", argv

    def test_config_errors_exit_2(self, tmp_path, capsys):
        for argv in (
            ["verify", "fierz", "--grid", "15,16,16"],
            ["verify", "fierz", "--metric", "diag:1,2"],
            ["verify", "fierz", "--metric", "full:1,2,3"],
            ["verify", "fierz", "--metric", "bogus"],
            ["verify", "fierz", "--tol", "-1", *SMALL],
            ["verify", "conformal", "--h", "tan(x1)", *SMALL],
            ["planewave", "--k", "0,0,0", *SMALL],
            ["planewave", "--k", "1,2", *SMALL],
        ):
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err
        # inputs that would check nothing, or write NaN into the report
        for argv, option in (
            (["verify", "fierz", "--cases", "0", *SMALL], "--cases"),
            (["verify", "fierz", "--cases", "-3", *SMALL], "--cases"),
            (["theorem", "--n", "0", *SMALL], "--n"),
            (["verify", "fierz", "--tol", "inf", *SMALL], "--tol"),
            (["verify", "fierz", "--tol", "nan", *SMALL], "--tol"),
            (["theorem", "--n", "1", "--perturb", "nan", *SMALL], "--perturb"),
            (["verify", "fierz", "--box", "nan,1,1", *SMALL], "box"),
            (["verify", "fierz", "--box", "inf,1,1", *SMALL], "box"),
            (["verify", "conformal", "--h", "1e999", *SMALL], "finite"),
        ):
            assert main(argv) == 2, argv
            assert option in capsys.readouterr().err, argv
        # options the suite does not use are rejected, not ignored
        for argv, option in (
            *((["verify", what, "--h", "1.0", *SMALL], "--h")
              for what in ("fierz", "u1", "factorization", "correspondence")),
            (["verify", "conformal", "--cases", "3", *SMALL], "--cases"),
            (["verify", "conformal", "--seed", "4", *SMALL], "--seed"),
        ):
            assert main(argv) == 2, argv
            assert option in capsys.readouterr().err, argv

    def test_verify_rejects_metric(self, capsys):
        # every suite draws its own metrics, so a given one would be ignored
        for argv in (["verify", "fierz", "--metric", "diag:1,4,9", *SMALL],
                     ["verify", "conformal", "--metric", "identity", *SMALL]):
            assert main(argv) == 2, argv
            assert "--metric" in capsys.readouterr().err

    def test_removed_threads_option_rejected(self, capsys):
        for argv in (["verify", "fierz", "--threads", "2", *SMALL],
                     ["theorem", "--n", "1", "--threads", "1", *SMALL]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "--threads" in capsys.readouterr().err
        # planewave draws nothing at random, so it parses no --seed
        with pytest.raises(SystemExit) as exc:
            main(["planewave", "--k", "1,0,0", "--seed", "3", *SMALL])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestVerifyReports:
    def test_report_embeds_config_and_sign(self, tmp_path):
        code, report = _run(tmp_path, "verify", "u1", "--cases", "2",
                            "--seed", "7", *SMALL)
        assert code == 0
        assert report["factorization_sign"] == -1
        cfg = report["config"]
        assert cfg["seed"] == 7
        assert cfg["grid"] == [8, 8, 8]
        assert "metric" not in cfg  # suites draw their own metrics
        assert "timestamp" in report

    def test_determinism_modulo_timestamp(self, tmp_path):
        reports = []
        for _ in range(2):
            _, report = _run(tmp_path, "verify", "scaling", "--cases", "2",
                             "--seed", "42", *SMALL)
            report.pop("timestamp")
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_scaling_with_expression_field(self, tmp_path):
        code, report = _run(tmp_path, "verify", "scaling", "--cases", "4",
                            "--h", "0.3*cos(x2)", "--grid", "24,24,24")
        assert code == 0
        assert report["result"]["max_residual"] <= 1e-10

    def test_conformal_with_custom_scale(self, tmp_path):
        code, report = _run(tmp_path, "verify", "conformal",
                            "--h", "2.0+cos(x1)", *SMALL)
        assert code == 0

    def test_conformal_rejects_nonpositive_scale(self, tmp_path):
        assert main(["verify", "conformal", "--h", "0.5*cos(x1)", *SMALL]) == 2

    def test_correspondence_suite(self, tmp_path):
        code, report = _run(tmp_path, "verify", "correspondence",
                            "--cases", "3", *SMALL)
        assert code == 0
        assert report["result"]["max_orthonormality"] <= 1e-12


class TestPlanewave:
    def test_report_and_field_outputs(self, tmp_path):
        eta_path = tmp_path / "eta.cwf"
        csv_path = tmp_path / "density.csv"
        code, report = _run(tmp_path, "planewave", "--k", "0,0,1",
                            "--metric", "diag:1,1,4",
                            "--eta-out", str(eta_path),
                            "--density-csv", str(csv_path), *SMALL)
        assert code == 0
        assert report["p0"] == pytest.approx(0.5, abs=1e-14)
        assert report["weyl_residual"] <= 1e-12
        assert report["L_max"] <= 1e-12

        kind, eta, grid = read_field(eta_path)
        assert kind == "spinor"
        assert eta.shape == (8, 8, 8, 2)
        # unit plane wave: |eta| = 1 pointwise
        s = np.einsum("...a,...a->...", eta.conj(), eta).real
        assert np.abs(s - 1.0).max() <= 1e-13

        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,value"
        assert len(lines) == 1 + 8**3

    def test_negative_branch(self, tmp_path):
        code, report = _run(tmp_path, "planewave", "--k", "1,1,0",
                            "--branch", "-", *SMALL)
        assert code == 0
        assert report["p0"] == pytest.approx(-np.sqrt(2.0), abs=1e-13)
        # every plane wave solves the sign-+1 equation at its signed p0
        assert report["weyl_sign"] == 1

    def test_one_spectral_gradient_per_job(self, tmp_path, count_calls):
        # sigma^a d_a is applied once to the plane wave, and that result
        # serves every residual of the report and the density dump; the
        # closed-form EL gradient applies it once more, to G eta.
        dirac = count_calls("_dirac", spinor_module, weyl_module)
        code, report = _run(tmp_path, "planewave", "--k", "1,2,0",
                            "--metric", "full:1.3,0.2,-0.1,0.9,0.15,1.1",
                            "--density-csv", str(tmp_path / "density.csv"), *SMALL)
        assert code == 0 and report["verdict"] == "pass"
        assert len(dirac) == 2


class TestTheorem:
    def test_small_run_passes(self, tmp_path):
        code, report = _run(tmp_path, "theorem", "--n", "1", "--seed", "5", *SMALL)
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["factorization_sign"] == -1
        cfg = report["config"]
        assert cfg["fd_probes"] == 16 and cfg["max_mode"] == 3
        assert "threads" not in cfg
