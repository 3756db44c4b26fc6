"""Command-line interface: report structure, determinism, field
outputs, and the exits that a row of tools/sweep.py's job list cannot
state: the argument parser's errors, and inputs that need a
monkeypatch or a symlink. Every other input's exit and error text is a
row of that list, which tests/test_sweep.py runs; the few tests here
that run such a row by hand also check what the row does not state,
such as the report's fields or that no NaN reaches stdout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cosserat_weyl
from cosserat_weyl import read_field
import cosserat_weyl.cli as cli_module
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

    @pytest.mark.parametrize("argv", [["verify", "fierz", "--out"]])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out"
        assert main(argv + [str(path), *SMALL]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not path.parent.exists()

    def test_missing_output_directory_rejected_before_work(self, tmp_path, capsys,
                                                           monkeypatch):
        # each output's directory is checked before the job runs, so a
        # missing one wastes no work and leaves no other output behind
        def never(*args, **kwargs):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli_module, "planewave_solution", never)
        monkeypatch.setattr(cli_module, "theorem_witness_suite", never)
        monkeypatch.setitem(cli_module.VERIFIERS, "fierz", never)
        eta, missing = tmp_path / "e.cwf", tmp_path / "missing"
        for argv, option in (
            (["planewave", "--k", "1,0,0", "--eta-out", str(eta),
              "--density-csv", str(missing / "d.csv")], "--density-csv"),
            (["planewave", "--k", "1,0,0", "--eta-out", str(missing / "e.cwf")], "--eta-out"),
            (["theorem", "--n", "1", "--out", str(missing / "r.json")], "--out"),
            (["verify", "fierz", "--out", str(missing / "r.json")], "--out"),
        ):
            assert main(argv + SMALL) == 2, argv
            assert f"error: {option} " in capsys.readouterr().err, argv
        assert not eta.exists() and not missing.exists()

    def test_colliding_output_paths_exit_2(self, tmp_path, capsys, monkeypatch):
        # two outputs that resolve to one file are rejected before the
        # job runs, so neither is written
        def never(*args, **kwargs):
            raise AssertionError("the job ran")

        monkeypatch.setattr(cli_module, "planewave_solution", never)
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "x"
        (tmp_path / "link").symlink_to(target)
        for first, second in ((["--eta-out", str(target)], ["--density-csv", str(target)]),
                              (["--out", str(target)], ["--eta-out", "x"]),
                              (["--out", "x"], ["--density-csv", str(tmp_path / "link")]),
                              (["--density-csv", "./x"], ["--out", str(target)])):
            argv = ["planewave", "--k", "1,0,0", *first, *second, *SMALL]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "the same file as" in err, argv
            assert f"{first[0]} {first[1]}" in err and f"{second[0]} {second[1]}" in err, argv
            assert not target.exists(), argv

    def test_verify_rejects_metric(self, capsys):
        # every suite draws its own metrics, so verify parses no --metric
        for argv in (["verify", "fierz", "--metric", "diag:1,4,9", *SMALL],
                     ["verify", "conformal", "--metric", "identity", *SMALL],
                     ["verify", "fierz", "--metric", "diag:1,2"],
                     ["verify", "fierz", "--metric", "full:1,2,3"],
                     ["verify", "fierz", "--metric", "bogus"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "--metric" in capsys.readouterr().err, argv

    def test_removed_threads_option_rejected(self, capsys):
        # removed options exit 2 naming the option; --tol and --perturb
        # went when every gate and witness knob became fixed
        for argv, option in (
            (["verify", "fierz", "--threads", "2", *SMALL], "--threads"),
            (["theorem", "--n", "1", "--threads", "1", *SMALL], "--threads"),
            (["verify", "fierz", "--tol", "1e-3", *SMALL], "--tol"),
            (["theorem", "--n", "1", "--perturb", "0.2", *SMALL], "--perturb"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert option in capsys.readouterr().err, argv
        # planewave draws nothing at random, so it parses no --seed
        with pytest.raises(SystemExit) as exc:
            main(["planewave", "--k", "1,0,0", "--seed", "3", *SMALL])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


    def test_value_with_a_leading_minus(self, tmp_path, capsys):
        # "--k -1,0,2" reads as "--k=-1,0,2", and so does a signed --h
        # expression; a missing value still exits 2
        spaced = _run(tmp_path, "planewave", "--k", "-1,0,2", *SMALL)
        joined = _run(tmp_path, "planewave", "--k=-1,0,2", *SMALL)
        assert spaced[0] == joined[0] == 0
        assert spaced[1]["config"]["k"] == "-1,0,2"
        for report in (spaced[1], joined[1]):
            report.pop("timestamp")
        assert spaced[1] == joined[1]
        code, report = _run(tmp_path, "verify", "scaling", "--cases", "1",
                            "--h", "-0.1*cos(x2)", "--grid", "16,16,16")
        assert code == 0 and report["config"]["h"] == "-0.1*cos(x2)"
        for argv in (["planewave", "--k"], ["planewave", *SMALL, "--k"],
                     ["planewave", "--k", "--grid", "8,8,8"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "--k" in capsys.readouterr().err, argv


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

    def test_config_records_the_default_case_count(self, tmp_path):
        # with no --cases, config.cases is the count the suite ran
        code, report = _run(tmp_path, "verify", "fierz", *SMALL)
        assert code == 0
        assert report["config"]["cases"] == 50 == len(report["result"]["cases"])
        assert report["config"]["seed"] == 0
        _, report = _run(tmp_path, "verify", "conformal", *SMALL)
        assert "cases" not in report["config"]  # conformal takes no case count

    def test_factorization_sign_is_recorded_once(self, tmp_path):
        code, report = _run(tmp_path, "verify", "factorization", "--cases", "2", *SMALL)
        assert code == 0 and report["factorization_sign"] == -1
        result = report["result"]
        assert "factorization_sign" not in result and "single_sign" not in result
        assert all("sign" not in case for case in result["cases"])

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


class TestOutOfRangeInputs:
    # a squared frequency g^ab k_a k_b or a scale e^(2h) out of range
    # raises a typed error: exit 2 with no NaN or Infinity written, and
    # no RuntimeWarning (the test settings make one an error)
    @pytest.mark.parametrize("argv, message", [
        (["planewave", "--k", "1,0,0", "--box", "1e-200,1,1", *SMALL], "squared frequency"),
        (["theorem", "--n", "1", "--box", "1e-300,1,1", *SMALL], "squared frequency"),
        (["planewave", "--k", "1,0,0", "--box", "1e300,1,1", *SMALL], "squared frequency"),
        (["verify", "scaling", "--cases", "1", "--h", "800*cos(x1)", *SMALL], "e^(2h)"),
        (["verify", "scaling", "--cases", "1", "--h", "400*cos(x1)", *SMALL], "e^(2h)"),
        # residuals whose largest product would overflow
        (["planewave", "--k", "1,0,0", "--box", "1e-152,1,1", *SMALL], "squared frequency"),
        (["theorem", "--n", "1", "--box", "1e-152,1,1", *SMALL], "squared frequency"),
        # a wave whose perturbed twin would overflow: the twin's modes reach
        # 2 on the short axis, where the wave's k = (0, 0, 2) has none
        (["theorem", "--n", "1", "--grid", "32,32,32", "--seed", "1", "--box", "1e-152,1,1"],
         "perturbation's modes"),
    ])
    def test_exit_2_with_no_non_finite_value(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "RuntimeWarning" not in captured.err
        assert "NaN" not in captured.out and "Infinity" not in captured.out

    @pytest.mark.parametrize("box", ["1e150,1e150,1e150", "1e-140,1e-140,1e-140"])
    def test_fd_probes_do_not_form_the_cell_volume(self, tmp_path, box):
        # the cell volume of these boxes over- or underflows; the probes'
        # central differences do not form it, so they stay finite
        code, report = _run(tmp_path, "theorem", "--n", "1", "--box", box, *SMALL)
        assert code in (0, 1)
        solutions = [c for c in report["cases"] if c["kind"] == "solution"]
        assert solutions and all(np.isfinite(c["el_residual_fd"]) for c in solutions)

    def test_a_non_finite_report_value_is_not_written(self, tmp_path, monkeypatch, capsys):
        # strict JSON has no NaN: a report holding one exits 2, unwritten
        monkeypatch.setattr(cli_module, "theorem_witness_suite",
                            lambda *args, **kwargs: {"config": {}, "worst": float("nan")})
        out = tmp_path / "report.json"
        assert main(["theorem", "--n", "1", *SMALL, "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err and not out.exists()


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert cli_module.build_parser() is cli_module.build_parser()

    @pytest.mark.parametrize("argv", [
        ["verify", "fierz", "--cases", "2", *SMALL],
        ["verify", "scaling", "--cases", "1", "--h", "0.1*cos(x2)", "--grid", "16,16,16"],
        ["verify", "conformal", *SMALL],
        ["planewave", "--k", "1,0,-1", "--metric", "diag:1,4,9", *SMALL],
        ["theorem", "--n", "1", "--seed", "3", *SMALL],
    ], ids=["fierz", "scaling", "conformal", "planewave", "theorem"])
    def test_consecutive_calls_give_one_report(self, capsys, argv):
        reports = []
        for _ in range(2):
            main(list(argv))
            report = json.loads(capsys.readouterr().out)
            report.pop("timestamp")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_options_of_one_call_do_not_reach_the_next(self, capsys):
        main(["verify", "fierz", "--seed", "3", "--cases", "2", *SMALL])
        capsys.readouterr()
        main(["verify", "fierz", *SMALL])
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["seed"] == 0 and config["cases"] == 50

    def test_a_suite_patched_after_the_first_call_runs(self, capsys, monkeypatch):
        assert main(["verify", "fierz", "--cases", "1", *SMALL]) == 0
        capsys.readouterr()
        failing = lambda grid, seed, n_cases: {"cases": [], "pass": False}
        monkeypatch.setitem(cli_module.VERIFIERS, "fierz", failing)
        assert main(["verify", "fierz", "--cases", "1", *SMALL]) == 1
        assert json.loads(capsys.readouterr().out)["result"] == {"cases": [], "pass": False}


# Two identical jobs in one fresh interpreter; prints the minor page
# faults of the second.
_REPEATED_JOB = """\
import contextlib, io, resource
from cosserat_weyl.cli import main
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "u1", "--cases", "1", "--grid", "32,32,32"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestFreedMemoryStaysMapped:
    @pytest.mark.skipif(not _on_glibc(), reason="pins glibc's malloc thresholds")
    def test_repeated_job_faults_in_few_pages(self):
        # with glibc's dynamic thresholds the second job faults in ~2000
        # pages that the first handed back to the OS
        src = str(Path(cosserat_weyl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _REPEATED_JOB], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        assert int(proc.stdout) < 100

    @pytest.mark.parametrize("libc", ["raise", "musl 1.2.4", None])
    def test_other_libc_left_alone(self, monkeypatch, tmp_path, libc):
        def confstr(name):
            if libc == "raise":
                raise ValueError("unrecognized configuration name")
            return libc

        def no_cdll(*args):
            raise AssertionError("mallopt looked up off glibc")

        monkeypatch.setattr(cli_module.os, "confstr", confstr)
        monkeypatch.setattr(cli_module.ctypes, "CDLL", no_cdll)
        keep = cli_module._keep_freed_memory_mapped
        keep.cache_clear()  # an earlier main() in this process has run it
        try:
            code, report = _run(tmp_path, "verify", "fierz", "--cases", "1", *SMALL)
        finally:
            keep.cache_clear()
        assert code == 0 and report["verdict"] == "pass"
