"""Spans around calls into scorebo's modules, recorded from outside.

The benchmark wraps module attributes (functions and methods) after
import; nothing under ``src/`` is edited. Each call into a wrapped
attribute becomes a span: name, start, end and the index of the enclosing
span. Spans stay in memory and are written out when the run ends.

A wrapped attribute that no longer exists (internals get renamed) is
reported as missing, and every metric that reads its span is ``None``.

This module must not import numpy: the worker imports it before it starts
the set-up clock.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time
from collections import defaultdict


def _count(args, result):
    return len(result)


def _clip_active(args, result):
    return bool((result != args[0]).any())


def _fit_note(args, result):
    jitter = getattr(result, "_jitter", None)
    escalations = (None if jitter is None
                   else round(math.log10(jitter / result.kernel.jitter)))
    return len(result.train_targets), escalations


def _predict_note(args, result):
    return len(result[0])


def rejected_note(args, result):
    return not math.isfinite(result)


# (span name, "module:attribute path", note taken from the call's result)
LAYERS = (
    ("engine.step", "scorebo.engine:ScoreOptimizer.step", None),
    ("engine.score_dimension", "scorebo.engine:ScoreOptimizer.score_dimension", None),
    ("engine.select_batch", "scorebo.engine:ScoreOptimizer.select_batch", _count),
    ("engine.projection.update", "scorebo.engine:ProjectionTable.update", None),
    ("engine.projection.observed", "scorebo.engine:ProjectionTable.observed", None),
    ("engine.clip", "scorebo.engine:clip_targets", _clip_active),
    ("gp.fit", "scorebo.gp:gp_fit", _fit_note),
    ("gp.predict", "scorebo.gp:GpModel.predict", _predict_note),
    ("acquisition.score_grid", "scorebo.acquisition:score_grid", None),
    ("sampling.draw", "scorebo.sampling:draw_unevaluated", _count),
    ("space.record", "scorebo.space:History.record_evaluation", None),
    ("baseline.step", "scorebo.baseline:BoOptimizer.step", None),
    ("problems.build", "scorebo.problems:ackley_space", None),
    ("problems.build", "scorebo.problems:sdm_space", None),
    ("problems.build", "scorebo.problems:make_synthetic_datasheet", None),
    ("problems.build", "scorebo.problems:sdm_objective", None),
)
STEP_SPANS = ("engine.step", "baseline.step")
REFINE_CHILDREN = ("gp.fit", "gp.predict", "acquisition.score_grid", "engine.clip")


def resolve(path: str):
    """``(owner, attribute name, current value)`` for ``module:a.b``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def replace(path: str, make_wrapper) -> None:
    """Swap the attribute at ``path`` for ``make_wrapper(original)``.

    A module-level function is replaced at every binding in the package's
    loaded modules, since ``from .gp import gp_fit`` copies the name.
    Raises ``ImportError`` or ``AttributeError`` when ``path`` is gone.
    """
    owner, attr, original = resolve(path)
    wrapper = make_wrapper(original)
    if not isinstance(owner, type):
        package = path.split(".", 1)[0]
        for name, module in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    setattr(owner, attr, wrapper)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self.failed: set[int] = set()
        self.installed: set[str] = set()
        self.missing: dict[str, list[str]] = defaultdict(list)
        self.broken_notes: dict[str, str] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, notes, failed = self.parents, self.notes, self.failed
        broken = self.broken_notes
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            notes.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                failed.add(i)
                raise
            ends[i] = clock()
            stack.pop()
            if note is not None:
                try:
                    notes[i] = note(args, result)
                except (IndexError, AttributeError, TypeError) as exc:
                    # A changed signature or result type: the note's
                    # metrics become missing, the program runs on.
                    broken.setdefault(name, repr(exc))
            return result

        return traced

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer that exists; record the others as missing."""
        for name, path, note in layers:
            try:
                replace(path, lambda fn, n=name, o=note: self.wrap(n, fn, o))
            except (ImportError, AttributeError):
                self.missing[name].append(path)
            else:
                self.installed.add(name)
        for name in self.missing:
            self.installed.discard(name)

    def write(self, path) -> None:
        """Write the spans as gzip CSV: name, start_s, end_s, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s,%r,%r,%d\n" % row)


class Missing(Exception):
    """A metric reads a span whose attribute could not be wrapped."""


class Spans:
    """Durations, self times and per-name lookups over a tracer's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls nest strictly in one thread, so that is the part of its
    interval no child covers.
    """

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0.0] * len(self.dur)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
            self.by_name[name].append(i)
            if parent >= 0:
                child[parent] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def ids(self, names, parent: str | None = None) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        for name in names + ((parent,) if parent else ()):
            if name not in self.t.installed:
                raise Missing(name)
        out = [i for name in names for i in self.by_name[name]]
        if parent is not None:
            tnames, tparents = self.t.names, self.t.parents
            out = [i for i in out
                   if tparents[i] >= 0 and tnames[tparents[i]] == parent]
        return out

    def calls(self, names, parent=None) -> int:
        return len(self.ids(names, parent))

    def total_s(self, names, parent=None) -> float:
        return sum(self.dur[i] for i in self.ids(names, parent))

    def self_s(self, names) -> float:
        return sum(self.self_time[i] for i in self.ids(names))

    def note_values(self, name, parent=None, item=None) -> list:
        if name in self.t.broken_notes:
            raise Missing(f"{name} note")
        values = [self.t.notes[i] for i in self.ids(name, parent)]
        values = [v for v in values if v is not None]
        if item is not None:
            values = [v[item] for v in values]
        if any(v is None for v in values):
            raise Missing(f"{name} note")
        return values

    def note_sum(self, name, parent=None, item=None) -> float:
        return sum(self.note_values(name, parent, item))

    def note_mean(self, name, parent=None, item=None) -> float:
        values = self.note_values(name, parent, item)
        return sum(values) / len(values) if values else 0.0

    def top_level_s(self, name) -> float:
        """Total duration of ``name`` spans not nested in another ``name`` span."""
        tnames, tparents = self.t.names, self.t.parents
        return sum(self.dur[i] for i in self.ids(name)
                   if tparents[i] < 0 or tnames[tparents[i]] != name)

    def inside_s(self, roots) -> float:
        """Sum of self times of every span within a ``roots`` span, roots included.

        Self times telescope, so this equals the roots' total duration; a
        mismatch means a span escaped its parent.
        """
        self.ids(roots)
        inside = []
        for name, parent in zip(self.t.names, self.t.parents):
            inside.append(name in roots or (parent >= 0 and inside[parent]))
        return sum(s for s, flag in zip(self.self_time, inside) if flag)


def layer_metrics(tracer: Tracer, line_fits) -> dict:
    """Per-layer metrics of one traced seed-run; ``None`` where missing."""
    q = Spans(tracer)
    sd, sb = "engine.score_dimension", "engine.select_batch"

    def fits_per_tuple():
        tuples = q.note_sum(sb)
        if line_fits is None:
            raise Missing("refinement_fit_count")
        return line_fits / tuples if tuples else 0.0

    def refine_line_fits():
        if line_fits is None:
            raise Missing("refinement_fit_count")
        return line_fits

    table = {
        "engine.score_dimension.calls": lambda: q.calls(sd),
        "engine.score_dimension.self_s": lambda: q.self_s(sd),
        "gp.fit.projection_s": lambda: q.total_s("gp.fit", sd),
        "gp.predict.projection_s": lambda: q.total_s("gp.predict", sd),
        "engine.clip.calls": lambda: q.calls("engine.clip"),
        "engine.clip.s": lambda: q.total_s("engine.clip"),
        "engine.clip.active_frac": lambda: q.note_mean("engine.clip"),
        "engine.projection.update_s": lambda: q.total_s("engine.projection.update"),
        "engine.projection.observed_s": lambda: q.total_s("engine.projection.observed"),
        "engine.projection.train_points_mean":
            lambda: q.note_mean("gp.fit", sd, item=0),
        "engine.select_batch.calls": lambda: q.calls(sb),
        "engine.select_batch.self_s": lambda: q.self_s(sb),
        "engine.refine.line_fits": refine_line_fits,
        "engine.refine.fit_s": lambda: q.total_s(REFINE_CHILDREN, sb),
        "engine.refine.fits_per_tuple": fits_per_tuple,
        "engine.step.calls": lambda: q.calls("engine.step"),
        "engine.step.self_s": lambda: q.self_s("engine.step"),
        "gp.fit.calls": lambda: q.calls("gp.fit"),
        "gp.fit.s": lambda: q.total_s("gp.fit"),
        "gp.fit.train_points_mean": lambda: q.note_mean("gp.fit", item=0),
        "gp.fit.jitter_escalations": lambda: q.note_sum("gp.fit", item=1),
        "gp.fit.failures": lambda: len(set(q.ids("gp.fit")) & tracer.failed),
        "gp.fit.joint_s": lambda: q.total_s("gp.fit", "baseline.step"),
        "gp.predict.calls": lambda: q.calls("gp.predict"),
        "gp.predict.s": lambda: q.total_s("gp.predict"),
        "gp.predict.query_points": lambda: q.note_sum("gp.predict"),
        "gp.predict.joint_s": lambda: q.total_s("gp.predict", "baseline.step"),
        "acquisition.score_grid.calls": lambda: q.calls("acquisition.score_grid"),
        "acquisition.score_grid.s": lambda: q.total_s("acquisition.score_grid"),
        "sampling.draw.calls": lambda: q.calls("sampling.draw"),
        "sampling.draw.s": lambda: q.total_s("sampling.draw"),
        "sampling.draw.tuples": lambda: q.note_sum("sampling.draw"),
        "problems.objective.calls": lambda: q.calls("problems.objective"),
        "problems.objective.s": lambda: q.total_s("problems.objective"),
        "problems.objective.rejected": lambda: q.note_sum("problems.objective"),
        "problems.build_s": lambda: q.top_level_s("problems.build"),
        "space.record.calls": lambda: q.calls("space.record"),
        "space.record.s": lambda: q.total_s("space.record"),
        "baseline.step.calls": lambda: q.calls("baseline.step"),
        "baseline.step.self_s": lambda: q.self_s("baseline.step"),
        "cli.run_experiment.self_s": lambda: q.self_s("cli.run_experiment"),
        "trace.step_s": lambda: q.inside_s(STEP_SPANS),
    }
    out = {}
    for name, compute in table.items():
        try:
            out[name] = compute()
        except Missing:
            out[name] = None
    return out
