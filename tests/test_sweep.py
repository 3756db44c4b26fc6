"""The standing report sweep (tools/sweep.py): its job list parses with
the CLI's parser, so it cannot rot, and its comparison sorts each kind
of difference into its outcome. The sweep itself needs git and two
checkouts, and is not run here."""

import importlib.util
import json
from pathlib import Path

import pytest

from cosserat_weyl import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_every_job_parses():
    parser = cli.build_parser()
    jobs = sweep.jobs()
    for argv in jobs:
        try:
            args = parser.parse_args(cli._attach_signed_values(list(argv)))
        except SystemExit:
            pytest.fail(f"the parser rejects job {sweep.job_name(argv)!r}")
        assert args.command == argv[0]
    names = [sweep.job_name(argv) for argv in jobs]
    assert len(set(names)) == len(names), "--allow names a job by its argv"


def _side(code=0, report=None, stderr="", files=None):
    stdout = json.dumps({"timestamp": "t", **report}) if report is not None else ""
    return {"code": code, "stdout": stdout, "stderr": stderr, "files": files or {}}


@pytest.mark.parametrize("base, change, outcome", [
    (_side(report={"verdict": "pass", "r": 1.0}),
     _side(report={"verdict": "pass", "r": 1.0}), "identical"),
    (_side(report={"verdict": "pass", "r": [1.0, 2.0]}),
     _side(report={"verdict": "pass", "r": [1.0, 2.0 + 4e-16]}), "floats moved"),
    (_side(files={"eta.cwf": b"a"}), _side(files={"eta.cwf": b"b"}), "floats moved"),
    (_side(code=2, stderr="error: a\n"), _side(code=2, stderr="error: b\n"), "message changed"),
    (_side(code=0), _side(code=1), "verdict/exit changed"),
    (_side(report={"verdict": "pass"}), _side(report={"verdict": "fail"}),
     "verdict/exit changed"),
    (_side(report={"verdict": "fail", "ok": True}),
     _side(report={"verdict": "fail", "ok": False}), "report changed"),
    (_side(report={"verdict": "pass"}),
     _side(report={"verdict": "pass", "new": 1}), "report changed"),
    (_side(), _side(files={"eta.cwf": b"a"}), "report changed"),
    (_side(), _side(stderr="x.py:1: RuntimeWarning: overflow\n"), "warned"),
    (_side(), _side(stderr="Traceback (most recent call last):\nKeyError: 1\n"), "crashed"),
])
def test_compare(base, change, outcome):
    assert sweep.compare(base, change)[0] == outcome
