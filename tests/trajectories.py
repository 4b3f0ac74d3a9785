"""Digests of the decisions and the surrogates of fixed runs.

A script, not a test: pytest does not collect it. It runs seeds 0-9 of the
benchmark's configurations (read from ``perfbench/workloads.py``) through
``scorebo.cli.run_experiment`` and prints one line per run:

    <workload> seed=<s> calls=<n> rows=<m> target=<k> pre_target=<sha256> \
        decisions=<sha256> surrogates=<sha256>

``target`` is the objective call (1-based, as perfbench's
``evals_to_target`` counts it) whose value first reached the workload's
target (``WORKLOADS[name].target``), or ``none``; ``pre_target`` covers
each objective call's point and returned value up to and including that
call (every call when the target is never reached). ``decisions`` covers
each objective call's point and returned value, in call order, and each
trace row's iteration, evals and best value; the timing columns are left
out. ``surrogates`` covers the bytes of the mean and std
of every ``GpModel.predict`` (only the joint-GP baseline calls it), of
the projection score table scored from every projection fit
(``ScoreOptimizer._fit_projections``; the script scores it whether or not
the step's selection reads it), of the first five arrays (mean, std, scale, supported, share) of every derived
line posterior (``ScoreOptimizer._line_posterior``; its sixth array,
``predicted``, holds the shared profile's differences and is left out so
that digests stay comparable with trees that did not return it), of
every shared profile (``ScoreOptimizer._shared_profile``) and of the
projection table's kept ``inverse`` and ``std`` after every
``ProjectionTable.refresh``, the zero cells off each GP's block included.
Two trees that print the same ``decisions`` made the same objective calls
and traces; the same ``surrogates`` means the same models to the bit as
well, so a change that moves only last bits of a surrogate shows there and
not in ``decisions`` unless it changes a call. Check a change by saving
this output at one tree and comparing the other tree's runs against it:

    python tests/trajectories.py > before.txt        # at the first tree
    python tests/trajectories.py --compare before.txt

``--compare FILE`` prints each run as usual and then names every run whose
line differs from FILE's (or that FILE lacks), and exits 1 if any does.
Each differing run is marked ``same up to target`` when its ``target`` and
``pre_target`` equal FILE's, so no call up to the one that reached the
target differs, and ``differs up to target`` otherwise.

The predict bytes depend on the BLAS thread count, so the script pins one
thread: it sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 before numpy is imported, unless already set. Two
trees thus compare without setting a variable; one set by the caller wins,
and must then be the same for both.

About 30 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")          # one BLAS thread, set before numpy loads

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

from scorebo import cli, engine, gp  # noqa: E402

RUNS = ("score-ackley10-b1", "score-ackley200-b10", "bo-ackley10", "score-sdm-b1")
SEEDS = range(10)


def digest_run(config: dict, target: float, seed: int) -> dict:
    """Objective calls, trace rows, the target call and the three digests."""
    decisions, surrogates = hashlib.sha256(), hashlib.sha256()
    pre_target = hashlib.sha256()
    calls = 0
    target_call = None
    build = cli._build_problem

    def recording_build(cfg):
        space, objective = build(cfg)

        def recorded(point):
            nonlocal calls, target_call
            value = objective(point)
            calls += 1
            call = repr((list(map(float, point)), float(value))).encode()
            decisions.update(call)
            if target_call is None:
                pre_target.update(call)
                if value <= target:
                    target_call = calls
            return value

        return space, recorded

    def hashed(method, count=None):
        def wrapper(*args, **kwargs):
            result = method(*args, **kwargs)
            for array in (result if isinstance(result, tuple) else (result,))[:count]:
                surrogates.update(array.tobytes())
            return result
        return wrapper

    def hashed_table(refresh):
        def wrapper(table, *args, **kwargs):
            refresh(table, *args, **kwargs)
            surrogates.update(table.inverse.tobytes())
            surrogates.update(table.std.tobytes())
        return wrapper

    def scored_fit(fit):
        def wrapper(opt):
            result = fit(opt)
            surrogates.update(opt._score_projections(*result).tobytes())
            return result
        return wrapper

    wrappers = {(gp.GpModel, "predict"): hashed,
                (engine.ScoreOptimizer, "_fit_projections"): scored_fit,
                (engine.ScoreOptimizer, "_line_posterior"): lambda m: hashed(m, 5),
                (engine.ScoreOptimizer, "_shared_profile"): hashed,
                (engine.ProjectionTable, "refresh"): hashed_table}
    originals = {(owner, name): getattr(owner, name) for owner, name in wrappers}
    cli._build_problem = recording_build
    for (owner, name), wrap in wrappers.items():
        setattr(owner, name, wrap(originals[owner, name]))
    try:
        trace = cli.run_experiment(cli.RunConfig(**config, seed=seed))
    finally:
        cli._build_problem = build
        for (owner, name), method in originals.items():
            setattr(owner, name, method)
    for row in trace.rows:
        decisions.update(repr((row.iteration, row.evals, row.best_value)).encode())
    return {"calls": calls, "rows": len(trace.rows),
            "target": "none" if target_call is None else target_call,
            "pre_target": pre_target.hexdigest(), "decisions": decisions.hexdigest(),
            "surrogates": surrogates.hexdigest()}


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
        workload = WORKLOADS[name]
        for seed in SEEDS:
            fields = digest_run(workload.config, workload.target, seed)
            run = f"{name} seed={seed}"
            line = " ".join([run, *(f"{key}={value}" for key, value in fields.items())])
            print(line, flush=True)
            if args.compare and saved.get(run) != line:
                differing.append((run, f"target={fields['target']} "
                                       f"pre_target={fields['pre_target']} "))
    if not args.compare:
        return 0
    for run, up_to_target in differing:
        same = up_to_target in saved.get(run, "")
        print(f"differs: {run} ({'same' if same else 'differs'} up to target)")
    print(f"compare: {len(differing)} of {len(RUNS) * len(SEEDS)} runs differ "
          f"from {args.compare}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
