"""The benchmark's traced run can still read every layer it measures.

``perfbench/worker.py --mode trace`` wraps named module attributes
(``perfbench/tracing.py`` ``LAYERS``) and takes notes from their arguments
and results. A renamed attribute or a changed result type does not break
the run: the worker reports it under ``missing`` and gives ``null`` for
every metric that reads it, and a benchmark result with a ``null`` metric
is unusable. These tests run the worker as the benchmark does and fail on
any such gap. ``score-sdm-b1``, not one of the benchmark's workloads,
covers ragged grids (41/61/41/41/31 values).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("workload", ["score-ackley10-b1", "score-ackley200-b10",
                                      "bo-ackley10", "score-sdm-b1"])
def test_traced_run_reads_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0",
         "--mode", "trace"],
        cwd=ROOT, env={**os.environ, **BLAS_ONE_THREAD}, text=True,
        capture_output=True, timeout=300, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["missing"] == {}
    not_finite = {name: value for name, value in result["layers"].items()
                  if isinstance(value, bool) or not isinstance(value, (int, float))
                  or not math.isfinite(value)}
    assert not_finite == {}
