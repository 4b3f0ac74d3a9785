"""Digests of the decisions and the surrogates of fixed runs.

A script, not a test: pytest does not collect it. It runs seeds 0-9 of the
benchmark's configurations (read from ``perfbench/workloads.py``) through
``scorebo.cli.run_experiment`` and prints one line per run:

    <workload> seed=<s> calls=<n> rows=<m> decisions=<sha256> surrogates=<sha256>

``decisions`` covers each objective call's point and returned value, in call
order, and each trace row's iteration, evals and best value; the timing
columns are left out. ``surrogates`` covers the bytes of the mean and std
of every ``GpModel.predict`` (only the joint-GP baseline calls it), of
every projection score table (``ScoreOptimizer._projection_scores``), of
the first five arrays (mean, std, scale, supported, share) of every derived
line posterior (``ScoreOptimizer._line_posterior``; its sixth array,
``predicted``, holds the shared profile's differences and is left out so
that digests stay comparable with trees that did not return it) and of
every shared profile (``ScoreOptimizer._shared_profile``). Two trees that
print the same ``decisions`` made the same objective calls and traces; the
same ``surrogates`` means the same models to the bit as well, so a change that
moves only last bits of a surrogate shows there and not in ``decisions``
unless it changes a call. Check a change by saving this output at one tree
and comparing the other tree's runs against it:

    python tests/trajectories.py > before.txt        # at the first tree
    python tests/trajectories.py --compare before.txt

``--compare FILE`` prints each run as usual and then names every run whose
line differs from FILE's (or that FILE lacks), and exits 1 if any does.

Run both under the same BLAS thread count: the predict bytes depend on it.

About 30 s on one core.
"""

from __future__ import annotations

import argparse
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

    def hashed(method, count=None):
        def wrapper(*args, **kwargs):
            result = method(*args, **kwargs)
            for array in (result if isinstance(result, tuple) else (result,))[:count]:
                surrogates.update(array.tobytes())
            return result
        return wrapper

    wrapped = ((gp.GpModel, "predict"), (engine.ScoreOptimizer, "_projection_scores"),
               (engine.ScoreOptimizer, "_line_posterior"),
               (engine.ScoreOptimizer, "_shared_profile"))
    originals = [getattr(owner, name) for owner, name in wrapped]
    cli._build_problem = recording_build
    for (owner, name), method in zip(wrapped, originals):
        setattr(owner, name, hashed(method, 5 if name == "_line_posterior" else None))
    try:
        trace = cli.run_experiment(cli.RunConfig(**config, seed=seed))
    finally:
        cli._build_problem = build
        for (owner, name), method in zip(wrapped, originals):
            setattr(owner, name, method)
    for row in trace.rows:
        decisions.update(repr((row.iteration, row.evals, row.best_value)).encode())
    return calls, len(trace.rows), decisions.hexdigest(), surrogates.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="a saved output to compare every run against")
    args = parser.parse_args(argv)
    saved = {}                              # "<workload> seed=<s>" -> its line
    if args.compare:
        for line in Path(args.compare).read_text().splitlines():
            saved[" ".join(line.split()[:2])] = line
    differing = []
    for name in RUNS:
        for seed in SEEDS:
            calls, rows, decisions, surrogates = digest_run(WORKLOADS[name].config, seed)
            run = f"{name} seed={seed}"
            line = (f"{run} calls={calls} rows={rows} "
                    f"decisions={decisions} surrogates={surrogates}")
            print(line, flush=True)
            if args.compare and saved.get(run) != line:
                differing.append(run)
    if not args.compare:
        return 0
    for run in differing:
        print(f"differs: {run}")
    print(f"compare: {len(differing)} of {len(RUNS) * len(SEEDS)} runs differ "
          f"from {args.compare}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
