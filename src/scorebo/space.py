"""Discrete search spaces, evaluation records and run history.

Both optimizers operate on the same objects defined here: a ``SearchSpace``
made of per-dimension value grids, a ``History`` that calls the objective,
draws the initial design and is the single source of truth for which
combinations were evaluated and for best-so-far tracking, and the
``StepResult`` that every optimizer's ``step()`` returns.
"""

from __future__ import annotations

import logging
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SurrogateError
from .sampling import draw_unevaluated

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParameterGrid:
    """Ordered mesh of admissible values for one parameter."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) < 2:
            raise ConfigurationError(f"{self.name}: grid needs at least 2 values")
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"{self.name}: grid values must be finite")
        if np.any(np.diff(values) <= 0):
            raise ConfigurationError(f"{self.name}: grid values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


def make_grid(lo: float, hi: float, count: int, scale: str = "linear",
              name: str = "x") -> ParameterGrid:
    """Build a uniformly spaced grid, inclusive of both endpoints.

    ``scale="linear"`` spaces values uniformly in the raw units;
    ``scale="log"`` spaces them uniformly in log10 (requires ``lo > 0``).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ConfigurationError(f"{name}: invalid bounds lo={lo}, hi={hi}")
    if count < 2:
        raise ConfigurationError(f"{name}: count must be >= 2, got {count}")
    if scale == "linear":
        values = np.linspace(lo, hi, count)
    elif scale == "log":
        if lo <= 0:
            raise ConfigurationError(f"{name}: log scale requires lo > 0, got {lo}")
        values = np.logspace(math.log10(lo), math.log10(hi), count)
    else:
        raise ConfigurationError(f"{name}: unknown scale {scale!r}")
    return ParameterGrid(name=name, values=values)


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian product of per-dimension grids."""

    grids: tuple[ParameterGrid, ...]
    lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # values[d, i] is grid d's value at index i, NaN past the grid's end
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grids = tuple(self.grids)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "lengths", tuple(len(g) for g in grids))
        if len(grids) < 1:
            raise ConfigurationError("search space needs at least one dimension")
        values = np.full((len(grids), max(self.lengths)), np.nan)
        for row, g in zip(values, grids):
            row[:len(g)] = g.values
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> int:
        return len(self.grids)

    @property
    def combination_count(self) -> int:
        # Python int: 61**200 and the like must not overflow.
        return math.prod(self.lengths)

    def point(self, indices) -> np.ndarray:
        """Map in-range grid indices to the corresponding parameter values."""
        return self.values[np.arange(self.dims), np.fromiter(indices, np.intp, self.dims)]

    def nearest_indices(self, point) -> tuple[int, ...]:
        """Map a point back to the nearest grid index in each dimension."""
        return tuple(int(np.argmin(np.abs(g.values - x)))
                     for g, x in zip(self.grids, point))

    def validate_indices(self, indices) -> tuple[int, ...]:
        if len(indices) != self.dims:
            raise ConfigurationError(
                f"expected {self.dims} indices, got {len(indices)}")
        out = tuple(map(int, indices))
        if min(out) >= 0 and all(map(operator.lt, out, self.lengths)):
            return out
        d, i, n = next((d, i, n) for d, (i, n) in enumerate(zip(out, self.lengths))
                       if not 0 <= i < n)
        raise ConfigurationError(
            f"{self.grids[d].name}: index {i} out of range [0, {n - 1}] (dim {d})")


@dataclass(frozen=True)
class EvaluationRecord:
    """One objective evaluation: its grid indices and what it returned."""

    indices: tuple[int, ...]
    value: float
    eval_id: int


@dataclass
class History:
    """The evaluation record both optimizers share.

    ``evaluate`` calls the objective and records the result;
    ``initialize`` evaluates the initial design. ``evaluated`` holds every
    tuple ever recorded, rejected ones included, so no tuple is tried twice.
    Non-finite objective values are rejected (counted, not stored) so a
    pointwise objective failure does not abort the run. ``on_record`` is
    called with each stored record.
    """

    space: SearchSpace
    objective: Callable[[np.ndarray], float] | None = None
    on_record: Callable[[EvaluationRecord], None] | None = None
    records: list[EvaluationRecord] = field(default_factory=list)
    evaluated: set[tuple[int, ...]] = field(default_factory=set)
    best_index: int | None = None
    n_rejected: int = 0

    @property
    def best(self) -> EvaluationRecord:
        if self.best_index is None:
            raise ValueError("history is empty")
        return self.records[self.best_index]

    @property
    def n_evaluations(self) -> int:
        """Objective calls so far, including rejected non-finite results."""
        return len(self.records) + self.n_rejected

    def __len__(self) -> int:
        return len(self.records)

    def record_evaluation(self, indices, value: float) -> EvaluationRecord | None:
        """Append an evaluation; returns the record, or None if rejected.

        Ties on the best value keep the earlier record.
        """
        indices = self.space.validate_indices(indices)
        self.evaluated.add(indices)
        if not math.isfinite(value):
            self.n_rejected += 1
            log.debug("dropping non-finite objective value %r at indices %s",
                      value, indices)
            return None
        record = EvaluationRecord(indices=indices, value=float(value),
                                  eval_id=len(self.records))
        self.records.append(record)
        if self.best_index is None or record.value < self.records[self.best_index].value:
            self.best_index = record.eval_id
        return record

    def evaluate(self, indices: tuple[int, ...]) -> EvaluationRecord | None:
        """Call the objective at ``indices`` and record the value."""
        value = float(self.objective(self.space.point(indices)))
        record = self.record_evaluation(indices, value)
        if record is not None and self.on_record is not None:
            self.on_record(record)
        return record

    def initialize(self, rng: np.random.Generator, n_init: int) -> None:
        """Evaluate ``n_init`` distinct uniform-random tuples drawn with ``rng``.

        The caller sizes the design (the CLI's default is twice the number
        of dimensions). Raises ``SurrogateError`` when no value of the design
        is finite, since then no surrogate can be fitted.
        """
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        design = draw_unevaluated(self.space, rng, self.evaluated, n_init)
        for indices in map(tuple, design.tolist()):
            self.evaluate(indices)
        if not self.records:
            raise SurrogateError(f"all {self.n_rejected} evaluations of the initial "
                                 "design returned non-finite values")


@dataclass
class StepResult:
    """What one optimizer step evaluated, and its surrogate-fit wall time."""

    batch: list[tuple[int, ...]]
    gp_fit_seconds: float
