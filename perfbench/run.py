"""scorebo benchmark: one workload, one seed; prints a JSON result last.

    python3 perfbench/run.py --workload score-ackley10-b1 --seed 0 \
        --seconds 25 --trace 0

Every optimizer seed-run is a fresh child process (``worker.py``), one at a
time, with a single BLAS thread. ``--trace 0`` reports every ``end_to_end``
metric named in ``BENCHMARK.json``; ``--trace 1`` runs each seed untraced
and then traced and reports every ``per_layer`` metric. The full record,
with the environment and every seed-run, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import MIN_SETUP_SAMPLES, WORKLOADS, optimizer_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
TIME_LIMIT_S = 170.0
# The workloads are single-threaded apart from BLAS; pin BLAS to one thread.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Children:
    """Runs worker processes one at a time within one overall deadline.

    Every child is one attempt; a child that crashes, runs out of time or
    fails the correctness check is one failure.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {**os.environ, **CHILD_ENV}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seed: int, mode: str, spans: Path | None = None):
        """The worker's result, or None after recording why it failed."""
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--seed", str(seed), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return self.fail(seed, mode, "out of time")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=timeout,
                                  stdin=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return self.fail(seed, mode, "out of time")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return self.fail(seed, mode, f"exit {proc.returncode}: {tail[0]}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.fail(seed, mode, "no result line")
        if result.get("problems"):
            return self.fail(seed, mode, "; ".join(result["problems"]))
        return result

    def fail(self, seed: int, mode: str, why: str) -> None:
        self.failures.append(f"seed {seed} ({mode}): {why}")
        return None


def loop_rate(runs) -> float:
    """Objective evaluations per second of optimization-loop wall time."""
    return sum(r["loop_evals"] for r in runs) / sum(r["loop_s"] for r in runs)


def end_to_end(runs, setups) -> dict:
    steps = [ms for r in runs for ms in r["step_ms"]]
    return {
        "evals_per_s": loop_rate(runs),
        "iter_ms_p50": percentile(steps, 50),
        "iter_ms_p90": percentile(steps, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "evals_to_target": statistics.median(r["evals_to_target"] for r in runs),
        "iter_samples": len(steps),
    }


def per_layer(pairs, children: Children) -> dict:
    """Means over the traced seed-runs, plus tracing overhead and quality."""
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    out = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        out[name] = None if None in values else sum(values) / len(values)
    out["trace.overhead_frac"] = 1.0 - loop_rate(traced) / loop_rate(untraced)
    # Self times inside the traced steps against the untraced step time.
    out["trace.step_time_ratio"] = out["trace.step_s"] and (
        out["trace.step_s"] * len(traced) * 1e3
        / sum(sum(u["step_ms"]) for u in untraced))
    out["best_value"] = statistics.median(u["best_value"] for u in untraced)
    out["runs_failed"] = len(children.failures) / children.attempted
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps
    # the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "scorebo" / "__init__.py").is_file():
        print(f"run.py: no scorebo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    n = workload.seeds_per_run(args.seconds)
    seeds = optimizer_seeds(args.seed, n + MIN_SETUP_SAMPLES)
    children = Children(args.workload)
    OUT.mkdir(exist_ok=True)
    runs, pairs = [], []
    for k, seed in enumerate(seeds[:n]):
        run = children.run(seed, "run")
        if run is not None:
            runs.append(run)
        if args.trace:
            spans = OUT / f"{args.workload}_run{k}.spans.csv.gz"
            traced = children.run(seed, "trace", spans)
            if run is None or traced is None:
                continue
            same = all(run[key] == traced[key]
                       for key in ("best_value", "evals_to_target"))
            if same:
                pairs.append((run, traced))
            else:
                children.fail(seed, "trace", "tracing changed the result")
    setups = [r["setup_s"] for r in runs]
    if not args.trace:
        for seed in seeds[n:n + MIN_SETUP_SAMPLES - len(setups)]:
            setup = children.run(seed, "setup")
            if setup is not None:
                setups.append(setup["setup_s"])

    # Failed seed-runs are left out of the metrics and make the run incorrect.
    ok = bool(pairs if args.trace else runs)
    correct = ok and not children.failures
    values = {}
    if ok:
        values = per_layer(pairs, children) if args.trace else end_to_end(runs, setups)
    record = {
        "workload": args.workload,
        "config": workload.config,
        "target": workload.target,
        "bench_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "optimizer_seeds": seeds[:n],
        "env": {**(runs[0]["env"] if runs else {}), "git_commit": git_commit()},
        "attempted": children.attempted,
        "failures": children.failures,
        "metrics": values,
        "seed_runs": runs,
        "traced_runs": [t for _, t in pairs],
        "setup_s_samples": setups,
    }
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in children.failures:
        print(f"FAILED {failure}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if ok}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"seeds {seeds[:n]}; record {path.relative_to(ROOT)}")
    if ok and not args.trace:
        print(f"iter_ms samples: {values['iter_samples']}")
    print(json.dumps({"correct": correct, "attempted": children.attempted,
                      "failed": len(children.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
