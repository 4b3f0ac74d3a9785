"""Digests of every objective call and every trace row of fixed runs.

A script, not a test: pytest does not collect it. It runs seeds 0-4 of the
benchmark's configurations (read from ``perfbench/workloads.py``) through
``scorebo.cli.run_experiment`` and prints one line per run:

    <workload> seed=<s> calls=<n> rows=<m> <sha256 of the calls and rows>

The digest covers each call's point and returned value, in call order, the
bytes of the mean and std of every ``GpModel.predict`` (only the joint-GP
baseline calls it), of every projection score table
(``ScoreOptimizer._projection_scores``), of every array of every derived
line posterior (``ScoreOptimizer._line_posterior``) and shared profile
(``ScoreOptimizer._shared_profile``), and each trace row's
iteration, evals and best value; the timing columns are left out. A change
that keeps every decision but alters last bits of a surrogate shows too. Two trees that print the same lines made the same
objective calls, predictions and traces, so a change that must keep every
trajectory is checked by running this at both and diffing the output:

    python tests/trajectories.py > after.txt

Run both under the same BLAS thread count: the predict bytes depend on it.

About 12 s on one core.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

from scorebo import cli, engine, gp  # noqa: E402

RUNS = ("score-ackley10-b1", "score-ackley200-b10", "bo-ackley10", "score-sdm-b1")
SEEDS = range(5)


def digest_run(config: dict, seed: int) -> tuple[int, int, str]:
    """Objective calls, trace rows and the digest of both for one run."""
    h = hashlib.sha256()
    calls = 0
    build = cli._build_problem

    def recording_build(cfg):
        space, objective = build(cfg)

        def recorded(point):
            nonlocal calls
            value = objective(point)
            calls += 1
            h.update(repr((list(map(float, point)), float(value))).encode())
            return value

        return space, recorded

    def hashed(method):
        def wrapper(*args, **kwargs):
            result = method(*args, **kwargs)
            for array in (result if isinstance(result, tuple) else (result,)):
                h.update(array.tobytes())
            return result
        return wrapper

    wrapped = ((gp.GpModel, "predict"), (engine.ScoreOptimizer, "_projection_scores"),
               (engine.ScoreOptimizer, "_line_posterior"),
               (engine.ScoreOptimizer, "_shared_profile"))
    originals = [getattr(owner, name) for owner, name in wrapped]
    cli._build_problem = recording_build
    for (owner, name), method in zip(wrapped, originals):
        setattr(owner, name, hashed(method))
    try:
        trace = cli.run_experiment(cli.RunConfig(**config, seed=seed))
    finally:
        cli._build_problem = build
        for (owner, name), method in zip(wrapped, originals):
            setattr(owner, name, method)
    for row in trace.rows:
        h.update(repr((row.iteration, row.evals, row.best_value)).encode())
    return calls, len(trace.rows), h.hexdigest()


def main() -> None:
    for name in RUNS:
        for seed in SEEDS:
            calls, rows, digest = digest_run(WORKLOADS[name].config, seed)
            print(f"{name} seed={seed} calls={calls} rows={rows} {digest}", flush=True)


if __name__ == "__main__":
    main()
