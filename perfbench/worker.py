"""One seed-run of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|setup|trace

``run`` times set-up and every ``step()``, wrapping nothing else but the
objective and space factories; ``setup`` stops at the first ``step()``;
``trace`` also records spans around every layer. The run goes through
``scorebo.cli.run_experiment``, the call behind ``scorebo run``. Every
time reported is scaled by the process's speed kernel (``speed.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

from check import check_run
from speed import SpeedReference
from tracing import Tracer, layer_metrics, rejected_note, replace
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# Kernel timings a set-up-only run takes to scale its set-up time.
SETUP_SAMPLES = 10


class SetupDone(Exception):
    """Raised at the first step() of a set-up-only run."""


class Probe:
    """What every run observes from outside: objective calls, the search
    space and step times. It relies only on the optimizers' public
    ``step()`` and the problem factories."""

    def __init__(self, speed: SpeedReference, stop_at_first_step: bool,
                 wrap_objective=None):
        self.speed = speed
        self.stop_at_first_step = stop_at_first_step
        self.wrap_objective = wrap_objective or (lambda fn: fn)
        self.calls: list[tuple[tuple[float, ...], float]] = []
        self.spaces: list = []
        self.steps: list[tuple[float, float]] = []  # (start, seconds)
        self.first_step: float | None = None
        self.calls_before_loop = 0
        self.optimizer = None

    def record(self, objective):
        calls = self.calls

        def recorded(point):
            value = objective(point)
            calls.append((tuple(point.tolist()), float(value)))
            return value

        return self.wrap_objective(recorded)

    def timed_step(self, step):
        clock, steps = time.perf_counter, self.steps

        def timed(opt, *args, **kwargs):
            if self.first_step is None:
                self.first_step = clock()
                self.calls_before_loop = len(self.calls)
                self.optimizer = opt
                if self.stop_at_first_step:
                    raise SetupDone
            self.speed.maybe_sample()
            start = clock()
            result = step(opt, *args, **kwargs)
            steps.append((start, clock() - start))
            return result

        return timed

    def keep_space(self, factory):
        def kept(*args, **kwargs):
            space = factory(*args, **kwargs)
            self.spaces.append(space)
            return space

        return kept

    def install(self) -> None:
        replace("scorebo:ScoreOptimizer.step", self.timed_step)
        replace("scorebo:BoOptimizer.step", self.timed_step)
        replace("scorebo.problems:ackley", self.record)
        replace("scorebo.problems:sdm_objective",
                lambda factory: lambda *a, **k: self.record(factory(*a, **k)))
        replace("scorebo.problems:ackley_space", self.keep_space)
        replace("scorebo.problems:sdm_space", self.keep_space)


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked through its own API."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "scorebo" / "__init__.py").is_file():
        print(f"worker: no scorebo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    speed = SpeedReference()
    t0 = time.perf_counter()
    import scorebo
    from scorebo import cli
    if not Path(scorebo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: imported scorebo from {scorebo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # The tracer goes on first so the probe's step timer, and the speed
    # kernel it runs between steps, stay outside every span.
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
        tracer.installed.update(("problems.objective", "cli.run_experiment"))
        # A span of its own keeps the kernel out of run_experiment's self time.
        speed.sample = tracer.wrap("bench.speed", speed.sample)
    probe = Probe(speed, stop_at_first_step=args.mode == "setup",
                  wrap_objective=tracer and (lambda fn: tracer.wrap(
                      "problems.objective", fn, rejected_note)))
    probe.install()
    run_experiment = cli.run_experiment
    if tracer is not None:
        run_experiment = tracer.wrap("cli.run_experiment", run_experiment)

    config = cli.RunConfig(seed=args.seed, **workload.config)
    try:
        trace = run_experiment(config)
    except SetupDone:
        setup_raw = probe.first_step - t0
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        print(json.dumps({"seed": args.seed, "setup_s": setup_raw * speed.scale(),
                          "setup_s_raw": setup_raw, "speed": 1 / speed.scale()}))
        return 0
    t_end = time.perf_counter()
    speed.sample()
    if probe.first_step is None:
        print("worker: the run made no step() call", file=sys.stderr)
        return 1

    scale = speed.scale()
    setup_raw = probe.first_step - t0
    loop_raw = t_end - probe.first_step - sum(
        d for t, d in zip(speed.times, speed.durations) if t < t_end)
    step_ms = [dt * 1e3 * scale for _, dt in probe.steps]
    rows = [(row.evals, row.best_value) for row in trace.rows]
    grids = [grid.values.tolist() for grid in probe.spaces[-1].grids]
    reached = [k + 1 for k, (_, value) in enumerate(probe.calls)
               if value <= workload.target]
    result = {
        "seed": args.seed,
        "setup_s": setup_raw * scale,
        "loop_s": loop_raw * scale,
        "loop_evals": len(probe.calls) - probe.calls_before_loop,
        "step_ms": step_ms,
        "speed": 1 / scale,
        "setup_s_raw": setup_raw,
        "loop_s_raw": loop_raw,
        "step_ms_raw": [dt * 1e3 for _, dt in probe.steps],
        "speed_samples": len(speed.durations),
        "peak_rss_mb": peak_rss_mb(),
        "best_value": rows[-1][1],
        "evals_to_target": reached[0] if reached else config.max_evals,
        "problems": check_run(probe.calls, grids, rows, config.max_evals),
        "env": environment(),
    }
    if tracer is not None:
        line_fits = (getattr(probe.optimizer, "refinement_fit_count", None)
                     if config.method == "score" else 0)
        layers = layer_metrics(tracer, line_fits)
        # Layer seconds are scaled like every other time; counts are not.
        result["layers"] = {
            name: value * scale if value is not None
            and name.endswith((".s", "_s")) else value
            for name, value in layers.items()}
        result["missing"] = {**tracer.missing, **tracer.broken_notes}
        result["spans"] = len(tracer.names)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
