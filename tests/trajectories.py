"""Digests of the decisions and the surrogates of fixed runs.

A script, not a test: pytest does not collect it. It runs seeds 0-9 of the
benchmark's configurations (read from ``perfbench/workloads.py``) through
``scorebo.cli.run_experiment`` and prints one line per run:

    <workload> seed=<s> calls=<n> rows=<m> decisions=<sha256> surrogates=<sha256>

``decisions`` covers each objective call's point and returned value, in call
order, and each trace row's iteration, evals and best value; the timing
columns are left out. ``surrogates`` covers the bytes of the mean and std
of every ``GpModel.predict`` (only the joint-GP baseline calls it), of
every projection score table (``ScoreOptimizer._projection_scores``) and of
every array of every derived line posterior
(``ScoreOptimizer._line_posterior``) and shared profile
(``ScoreOptimizer._shared_profile``). Two trees that print the same
``decisions`` made the same objective calls and traces; the same
``surrogates`` means the same models to the bit as well, so a change that
moves only last bits of a surrogate shows there and not in ``decisions``
unless it changes a call. Check a change by running this at both trees and
diffing the output:

    python tests/trajectories.py > after.txt

Run both under the same BLAS thread count: the predict bytes depend on it.

About 30 s on one core.
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
SEEDS = range(10)


def digest_run(config: dict, seed: int) -> tuple[int, int, str, str]:
    """Objective calls, trace rows and the decision and surrogate digests."""
    decisions, surrogates = hashlib.sha256(), hashlib.sha256()
    calls = 0
    build = cli._build_problem

    def recording_build(cfg):
        space, objective = build(cfg)

        def recorded(point):
            nonlocal calls
            value = objective(point)
            calls += 1
            decisions.update(repr((list(map(float, point)), float(value))).encode())
            return value

        return space, recorded

    def hashed(method):
        def wrapper(*args, **kwargs):
            result = method(*args, **kwargs)
            for array in (result if isinstance(result, tuple) else (result,)):
                surrogates.update(array.tobytes())
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
        decisions.update(repr((row.iteration, row.evals, row.best_value)).encode())
    return calls, len(trace.rows), decisions.hexdigest(), surrogates.hexdigest()


def main() -> None:
    for name in RUNS:
        for seed in SEEDS:
            calls, rows, decisions, surrogates = digest_run(WORKLOADS[name].config, seed)
            print(f"{name} seed={seed} calls={calls} rows={rows} "
                  f"decisions={decisions} surrogates={surrogates}", flush=True)


if __name__ == "__main__":
    main()
