"""The library calls of the benchmark's own workload
(``perfbench/workload.py``), made at 8^3: the claim-6 job's
`workload._claim6`, and the read-back residual a ``planewave`` job's
check recomputes. perfbench is imported as ``tools/abbench.py`` imports
it, so a change of signature that breaks the benchmark fails here."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cosserat_weyl import (
    Metric3,
    TorusGrid,
    build_pauli,
    cli,
    read_field,
    sampling,
    weyl_residual_norm,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workload  # noqa: E402  the benchmark's job draws and checks

GRID = TorusGrid((8, 8, 8), (2.0 * math.pi,) * 3)


@pytest.mark.parametrize("seed", [0, 1])
def test_claim6_job(seed):
    # drawn as workload.make_job draws a claim-6 job, on 8^3
    rng = np.random.default_rng(seed)
    p0 = workload.P0_CHOICES[seed]
    metric = sampling.random_spd_metric(rng)
    eta = sampling.random_nonvanishing_spinor(GRID, rng, amplitude=0.1, max_mode=1)
    pauli = build_pauli(metric)
    lag_frame, lag_spinor = workload._claim6(eta, p0, pauli, metric, GRID)
    # the job's pass flag needs 64^3 (the gap reads about 4e-5 here), so
    # only the calls and their shapes are checked
    assert lag_frame.shape == lag_spinor.shape == GRID.shape
    assert np.isfinite(lag_frame).all() and np.isfinite(lag_spinor).all()


def test_planewave_read_back(tmp_path):
    # the check of a planewave job: the written field, read back, gives
    # the reported Weyl residual on the Pauli set of the reported metric
    eta_path = tmp_path / "eta.cwf"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["planewave", "--k=1,1,0", "--branch=-", "--metric", "diag:1,4,9",
                         "--grid", "8,8,8", "--eta-out", str(eta_path)])
    assert code == 0
    report = json.loads(out.getvalue())
    kind, eta, grid = read_field(str(eta_path))
    assert kind == "spinor" and grid == GRID
    pauli = build_pauli(Metric3.from_matrix(report["config"]["metric"]))
    residual = weyl_residual_norm(eta, report["p0"], report["weyl_sign"], pauli, grid)
    assert residual == report["weyl_residual"]
