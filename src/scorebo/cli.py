"""Command-line benchmark harness.

Subcommands:
  run     one experiment (method x problem x seed), CSV + SVG output
  sweep   the same experiment over a list of seeds, plus a median aggregate
  report  re-render SVG plots from existing trace CSVs

Configuration is a flat JSON document; every field has a default and any
CLI flag overrides the file value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import statistics
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

from .baseline import BoOptimizer
from .engine import ScoreOptimizer
from .errors import ConfigurationError, ObjectiveError, SpaceExhausted, SurrogateError
from .problems import (ackley, ackley_space, load_datasheet,
                       make_synthetic_datasheet, sdm_objective, sdm_space)
from .report import (ConvergenceTrace, TraceRow, read_trace_csv, render_svg,
                     write_trace_csv)

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    method: str = "score"            # "score" or "bo"
    problem: str = "ackley"          # "ackley" or "sdm"
    dims: int = 10                   # ackley only; sdm is always 5-parameter
    grid_points: int = 61
    n_init: int | None = None        # unset: twice the built space's dimensions
    batch_size: int = 1
    max_evals: int = 300
    seed: int = 0
    datasheet: str | None = None     # path to a fixture; default is synthesized
    out_dir: str = "runs"

    def validate(self) -> None:
        if self.method not in ("score", "bo"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.problem not in ("ackley", "sdm"):
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.dims < 1:
            raise ConfigurationError(f"dims must be >= 1, got {self.dims}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_init is not None and self.n_init < 1:
            raise ConfigurationError(f"n_init must be >= 1, got {self.n_init}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then JSON file values (type-checked), then explicit CLI
    overrides; ``run_experiment`` validates the result."""
    values = {}
    if path is not None:
        try:
            values = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}")
        if not isinstance(values, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        unknown = set(values) - set(fields)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(RunConfig)
        for key, value in values.items():
            # bool is an int subclass, and no field takes one
            if isinstance(value, bool) or not isinstance(value, hints[key]):
                raise ConfigurationError(
                    f"config key {key!r} must be {fields[key].type}, got {value!r}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _build_problem(config: RunConfig):
    if config.problem == "ackley":
        return ackley_space(config.dims, config.grid_points), ackley
    targets = (load_datasheet(config.datasheet) if config.datasheet
               else make_synthetic_datasheet())
    return sdm_space(targets), sdm_objective(targets)


def run_experiment(config: RunConfig) -> ConvergenceTrace:
    """Validate ``config``, then execute one optimizer to budget or space
    exhaustion. An unset ``n_init`` is twice the built space's dimensions.

    An exception from the objective ends the run with ``ObjectiveError``,
    whose ``trace`` holds the rows of the steps completed before it.
    """
    config.validate()
    space, objective = _build_problem(config)
    n_init = config.n_init if config.n_init is not None else 2 * space.dims
    if config.max_evals < n_init:
        raise ConfigurationError(
            f"max_evals={config.max_evals} is below n_init={n_init}")

    def guarded(point):
        try:
            return objective(point)
        except Exception as exc:
            failure = ObjectiveError(f"the objective raised {type(exc).__name__}: {exc}")
            failure.trace = trace            # the steps completed so far
            raise failure from exc

    if config.method == "score":
        opt = ScoreOptimizer(space=space, objective=guarded,
                             batch_size=config.batch_size, seed=config.seed)
    else:
        opt = BoOptimizer(space=space, objective=guarded, seed=config.seed)
    history = opt.history

    trace = ConvergenceTrace(method=config.method, seed=config.seed)
    t0 = time.perf_counter()
    opt.initialize(n_init)
    cum_ms = (time.perf_counter() - t0) * 1000.0
    trace.append(TraceRow(iteration=0, evals=history.n_evaluations,
                          best_value=history.best.value, iter_time_ms=cum_ms,
                          cum_time_ms=cum_ms))
    while history.n_evaluations < config.max_evals:
        t0 = time.perf_counter()
        try:
            opt.step(max_batch=config.max_evals - history.n_evaluations)
        except SpaceExhausted:
            break
        iter_ms = (time.perf_counter() - t0) * 1000.0
        cum_ms += iter_ms
        trace.append(TraceRow(iteration=len(trace.rows), evals=history.n_evaluations,
                              best_value=history.best.value,
                              iter_time_ms=iter_ms, cum_time_ms=cum_ms))
    if history.n_rejected:
        log.warning("dropped %d of %d evaluations: the objective returned a "
                    "non-finite value", history.n_rejected, history.n_evaluations)
    return trace


def aggregate_median(traces: list[ConvergenceTrace]) -> ConvergenceTrace:
    """Row-wise medians across seeds of the same configuration."""
    if not traces:
        raise ValueError("no traces to aggregate")
    n_rows = min(len(t.rows) for t in traces)
    agg = ConvergenceTrace(method=f"{traces[0].method}-median", seed=-1)
    for i in range(n_rows):
        rows = [t.rows[i] for t in traces]
        agg.append(TraceRow(
            iteration=rows[0].iteration,
            evals=rows[0].evals,
            best_value=statistics.median(r.best_value for r in rows),
            iter_time_ms=statistics.median(r.iter_time_ms for r in rows),
            cum_time_ms=statistics.median(r.cum_time_ms for r in rows),
        ))
    return agg


def _trace_stem(config: RunConfig) -> str:
    return f"{config.method}_{config.problem}"


def _print_summary(config: RunConfig, trace: ConvergenceTrace) -> None:
    print(f"{config.method} on {config.problem} (seed {config.seed}): "
          f"best={trace.best_value:.6g} evals={trace.total_evals} "
          f"time={trace.total_time_ms / 1000.0:.2f}s")


def _write_traces(config: RunConfig, traces: list[ConvergenceTrace]) -> Path:
    """One trace CSV per seed in the config's output directory, returned."""
    out = Path(config.out_dir)
    for trace in traces:
        write_trace_csv(trace, out / f"{_trace_stem(config)}_seed{trace.seed}.csv")
    return out


def _run_seeds(config: RunConfig, seeds: list[int]) -> list[ConvergenceTrace]:
    """One run of ``config`` per seed, each summary printed as it ends.

    If the objective raises, the traces of the seeds completed so far and
    the failed seed's partial trace are written before the error propagates.
    """
    traces = []
    for seed in seeds:
        run = dataclasses.replace(config, seed=seed)
        try:
            trace = run_experiment(run)
        except ObjectiveError as exc:
            _write_traces(config, traces + [exc.trace])
            raise
        traces.append(trace)
        _print_summary(run, trace)
    return traces


def _cmd_run(args) -> int:
    config = load_config(args.config, _overrides(args))
    traces = _run_seeds(config, [config.seed])
    out = _write_traces(config, traces)
    stem = f"{_trace_stem(config)}_seed{config.seed}"
    render_svg(traces, "convergence", out / f"{stem}_convergence.svg")
    render_svg(traces, "timing", out / f"{stem}_timing.svg")
    return 0


def _cmd_sweep(args) -> int:
    seeds = []
    for entry in filter(str.strip, args.seeds.split(",")):
        try:
            seeds.append(int(entry))
        except ValueError:
            raise ConfigurationError(f"--seeds: {entry!r} is not an integer") from None
        if seeds[-1] < 0:
            raise ConfigurationError(f"--seeds: {entry!r} is negative")
    if not seeds:
        raise ConfigurationError("--seeds must list at least one seed")
    config = load_config(args.config, _overrides(args))
    traces = _run_seeds(config, seeds)
    out = _write_traces(config, traces)
    stem = _trace_stem(config)
    write_trace_csv(aggregate_median(traces), out / f"{stem}_median.csv")
    render_svg(traces, "convergence", out / f"{stem}_convergence.svg")
    render_svg(traces, "timing", out / f"{stem}_timing.svg")
    return 0


def _cmd_report(args) -> int:
    traces = [read_trace_csv(p) for p in args.csv]
    out = Path(args.out or ".")
    render_svg(traces, args.kind, out / f"report_{args.kind}.svg")
    return 0


def _overrides(args) -> dict:
    """Each ``RunConfig`` field's flag value, None where unset (every field
    is the dest of a flag)."""
    return {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--method", choices=("score", "bo"))
    p.add_argument("--problem", choices=("ackley", "sdm"))
    p.add_argument("--dims", type=int)
    p.add_argument("--max-evals", dest="max_evals", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--n-init", dest="n_init", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--datasheet", help="key=value IV datasheet fixture")
    p.add_argument("--out", dest="out_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorebo",
        description="Benchmark dimension-decomposed vs classical Bayesian "
                    "optimization on discrete grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_run_flags(p_run)
    p_run.add_argument("--seed", type=int)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per seed")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--seeds", required=True,
                         help="comma-separated seed list")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("report", help="re-render plots from trace CSVs")
    p_rep.add_argument("csv", nargs="+", help="trace CSV files")
    p_rep.add_argument("--kind", choices=("convergence", "timing"),
                       default="convergence")
    p_rep.add_argument("--out", help="output directory")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ObjectiveError, SurrogateError, OSError) as exc:
        log.debug("runtime error", exc_info=exc)      # with the objective's traceback
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
