"""Discrete search spaces, evaluation records and run history.

Both optimizers operate on the same objects defined here: a ``SearchSpace``
made of per-dimension value grids, a ``History`` that calls the objective,
draws the initial design and is the single source of truth for which
combinations were evaluated and for best-so-far tracking, and the
``StepResult`` that every optimizer's ``step()`` returns.

A ``SearchSpace`` keeps what depends on its grids alone (the lengths, the
padded value table, the combination count), computed once when it is built.
``History.evaluate_batch`` evaluates a step's batch, or the initial design,
as one ``(B, D)`` index block: one range check of the whole block before
any objective call, one gather of its points, and one call of
``on_record`` with the stored records and their index rows, so that an
optimizer folds them in without turning each tuple into an array again.
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
    # Python int: 61**200 and the like must not overflow
    combination_count: int = field(init=False, repr=False, compare=False)
    # lengths as an unsigned array, for the range check of ``index_block``,
    # and the dimension numbers, for the gather of points
    _length_array: np.ndarray = field(init=False, repr=False, compare=False)
    _dim_range: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "combination_count", math.prod(self.lengths))
        object.__setattr__(self, "_length_array", np.array(self.lengths, dtype=np.uintp))
        object.__setattr__(self, "_dim_range", np.arange(len(grids)))

    @property
    def dims(self) -> int:
        return len(self.grids)

    def index_block(self, batch) -> np.ndarray:
        """The index tuples of ``batch`` as one checked ``(n, D)`` block.

        ``batch`` is a sequence of tuples or an ``(n, D)`` array. A wrong
        count or an index out of range in any tuple raises the
        ``ConfigurationError`` of ``validate_indices`` for the first such
        tuple, before the caller reads any value.
        """
        try:
            rows = np.array(batch, dtype=np.intp)
        except (TypeError, ValueError, OverflowError):   # ragged or not integral
            rows = None
        # a negative index read as unsigned is past every length
        if (rows is None or rows.ndim != 2 or rows.shape[1] != self.dims
                or np.count_nonzero(rows.view(np.uintp) < self._length_array) < rows.size):
            # raises at the first bad tuple, naming its bad index
            rows = np.array([self.validate_indices(t) for t in batch],
                            dtype=np.intp).reshape(len(batch), self.dims)
        return rows

    def points(self, rows: np.ndarray) -> np.ndarray:
        """Parameter values of the checked ``(n, D)`` index block ``rows``."""
        return self.values[self._dim_range, rows]

    def point(self, indices) -> np.ndarray:
        """Map grid indices to the corresponding parameter values.

        The indices are checked before any value is read: a wrong count or an
        index out of range raises ``validate_indices``' ``ConfigurationError``.
        """
        return self.points(self.index_block([indices]))[0]

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

    ``evaluate_batch`` calls the objective on a batch of tuples and records
    each result; ``evaluate`` does so for one tuple and ``initialize`` for
    the initial design. ``evaluated`` holds every tuple ever recorded,
    rejected ones included, so no tuple is tried twice. Non-finite
    objective values are rejected (counted, not stored) so a pointwise
    objective failure does not abort the run. ``on_record`` is called once
    per evaluated batch that stored a record, with the stored records, in
    order, and their ``(k, D)`` block of index rows.
    """

    space: SearchSpace
    objective: Callable[[np.ndarray], float] | None = None
    on_record: Callable[[list[EvaluationRecord], np.ndarray], None] | None = None
    # written by record_evaluation alone
    records: list[EvaluationRecord] = field(init=False, default_factory=list)
    evaluated: set[tuple[int, ...]] = field(init=False, default_factory=set)
    best_index: int | None = field(init=False, default=None)
    n_rejected: int = field(init=False, default=0)

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

        Checks ``indices`` (``SearchSpace.validate_indices``) itself, for
        callers that record values they computed. Ties on the best value
        keep the earlier record.
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

    def evaluate(self, indices) -> EvaluationRecord | None:
        """Evaluate one index tuple: ``evaluate_batch`` of a batch of one."""
        return self.evaluate_batch([indices])[0]

    def evaluate_batch(self, batch) -> list[EvaluationRecord | None]:
        """Call the objective on each tuple of ``batch``, in order, and record it.

        The batch is checked as one block (``SearchSpace.index_block``)
        before any objective call, so a bad tuple anywhere in it leaves the
        objective, the evaluated set and the rejection count untouched; its
        points are gathered at once. Every value goes through
        ``record_evaluation``. The stored records reach ``on_record`` once,
        after the last call or when the objective raises, so those recorded
        before an objective error are absorbed too. Returns each tuple's
        record, None where the value was rejected.
        """
        rows = self.space.index_block(batch)
        points = self.space.points(rows)
        records, stored = [], []
        try:
            for k, (indices, point) in enumerate(zip(rows.tolist(), points)):
                record = self.record_evaluation(indices, float(self.objective(point)))
                records.append(record)
                if record is not None:
                    stored.append(k)
        finally:
            if stored and self.on_record is not None:
                # rows[:n] while no value was rejected: a view, not a gather
                self.on_record([records[k] for k in stored],
                               rows[:len(stored)] if len(stored) == len(records) else rows[stored])
        return records

    def initialize(self, rng: np.random.Generator, n_init: int) -> None:
        """Evaluate ``n_init`` distinct uniform-random tuples drawn with ``rng``.

        The caller sizes the design (the CLI's default is twice the number
        of dimensions); it is evaluated as one batch. Raises
        ``SurrogateError`` when no value of the design is finite, since then
        no surrogate can be fitted.
        """
        if n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {n_init}")
        self.evaluate_batch(draw_unevaluated(self.space, rng, self.evaluated, n_init))
        if not self.records:
            raise SurrogateError(f"all {self.n_rejected} evaluations of the initial "
                                 "design returned non-finite values")


@dataclass
class StepResult:
    """What one optimizer step evaluated, and its surrogate-fit wall time:
    for SCORE the D projection fits alone, not the EI table its selection
    may score from them; for BO the joint fit."""

    batch: list[tuple[int, ...]]
    gp_fit_seconds: float
