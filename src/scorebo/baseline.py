"""Classical full-dimensional Bayesian optimization baseline.

One joint GP over all evaluated points, expected improvement maximized over
a random candidate pool plus the grid neighbors of the incumbent. The pool
is scored from the index block ``sampling.draw_unevaluated`` draws, the
training rows are kept as arrays that grow by one row per stored record,
and predict writes its (N, pool) kernel into a work area the optimizer
keeps, so no step maps and zeroes two such arrays again. Most of a step's
time is still the GP's predict on the pool, even though its variance solve
takes only the pool rows near an evaluated tuple: 53 % of step time in
three traced 10D Ackley runs (300 evaluations each, one BLAS thread),
against 21 % for the fit and 16 % for drawing the pool. The GP
is refit on the whole history every iteration, one Cholesky factor and two
triangular solves, so per-iteration cost grows with the number of
evaluations N (Cholesky is O(N^3)); this is the comparison arm for the
bounded-cost decomposed optimizer. It shares the evaluation record (``History``) and the ``step()``
protocol (returning a ``StepResult``) with the decomposed optimizer; each
step evaluates one tuple.

This is a clean-room standard BO loop, not a re-implementation of any
specific package; it exists for the convergence and time-scaling contrast.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .acquisition import ZETA, score_grid
from .errors import SurrogateError
from .gp import KernelConfig, gp_fit
from .sampling import draw_unevaluated
from .space import EvaluationRecord, History, SearchSpace, StepResult

log = logging.getLogger(__name__)

JOINT_LENGTHSCALE = 0.08   # joint-GP lengthscale, on [0, 1]-rescaled inputs
CANDIDATE_POOL_SIZE = 1000  # random unevaluated tuples scored per step
TRAIN_ROWS = 64            # first capacity of the kept training rows; doubles


@dataclass
class BoOptimizer:
    """Joint-space GP + EI over a discrete search space.

    Inputs are rescaled to [0,1] per dimension (index / (grid length - 1))
    so the isotropic lengthscale is dimension-comparable.
    """

    space: SearchSpace
    objective: object
    seed: int = 0

    def __post_init__(self):
        # gp imports scipy.linalg inside the joint-GP functions, so that a
        # decomposed run never loads it; load it here, at set-up, so that
        # its import (40-75 ms) does not land in the first timed step
        import scipy.linalg  # noqa: F401
        self.rng = np.random.default_rng(self.seed)
        self.history = History(self.space, self.objective, on_record=self._keep)
        self.kernel = KernelConfig(lengthscale=JOINT_LENGTHSCALE)
        self.gp_fit_count = 0
        self._scale = np.array(self.space.lengths, dtype=float) - 1.0
        # rescaled inputs and values of the stored records, in record order;
        # rows past len(history.records) are unused capacity
        self._train_inputs = np.empty((TRAIN_ROWS, self.space.dims))
        self._train_targets = np.empty(TRAIN_ROWS)
        # predict's work area, as many rows as the training arrays; it is
        # scratch, so it grows with them without a copy
        self._kernel_work = self._work_area(TRAIN_ROWS)

    def _keep(self, record: EvaluationRecord) -> None:
        """Append a stored record to the training rows and targets."""
        n = record.eval_id
        if n == len(self._train_targets):
            self._train_inputs = np.concatenate([self._train_inputs,
                                                 np.empty_like(self._train_inputs)])
            self._train_targets = np.concatenate([self._train_targets,
                                                  np.empty_like(self._train_targets)])
            self._kernel_work = self._work_area(2 * n)
        self._train_inputs[n] = np.asarray(record.indices) / self._scale
        self._train_targets[n] = record.value

    def _work_area(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """A work area for the kernel of ``rows`` training rows and the
        widest pool: the draw and at most two neighbors per dimension."""
        size = rows * (CANDIDATE_POOL_SIZE + 2 * self.space.dims)
        # two arrays, not one (2, size) array: numpy advises huge pages for
        # an array of 4 MiB or more, and those map the partly used area in
        # 2 MiB pages (at 10D, one array read 3 MiB more peak RSS per run;
        # each of two stays under 4 MiB up to 512 rows)
        return np.empty(size), np.empty(size)

    def initialize(self, n_init: int) -> None:
        """Evaluate the initial design (see ``History.initialize``)."""
        self.history.initialize(self.rng, n_init)

    def _incumbent_neighbors(self) -> list[tuple[int, ...]]:
        best = self.history.best.indices
        neighbors = []
        for d, g in enumerate(self.space.grids):
            for delta in (-1, 1):
                i = best[d] + delta
                if 0 <= i < len(g):
                    t = best[:d] + (i,) + best[d + 1:]
                    if t not in self.history.evaluated:
                        neighbors.append(t)
        return neighbors

    def step(self, max_batch: int | None = None) -> StepResult:
        """One iteration: joint fit, EI over the pool, evaluate the argmax.

        The batch is always one tuple, so any ``max_batch`` of at least 1
        gives the same step.
        """
        if not self.history.records:
            raise ValueError("initialize() must run before step()")
        # capped at the unevaluated count; SpaceExhausted when there is none
        pool = draw_unevaluated(self.space, self.rng, self.history.evaluated,
                                CANDIDATE_POOL_SIZE)
        # a neighbor differs from the incumbent in one coordinate, so only
        # the drawn rows that do can equal one
        near = pool[np.count_nonzero(pool != self.history.best.indices, axis=1) == 1]
        drawn = set(map(tuple, near.tolist()))
        neighbors = [t for t in self._incumbent_neighbors() if t not in drawn]
        if neighbors:
            pool = np.concatenate([pool, neighbors])

        n = len(self.history.records)
        t0 = time.perf_counter()
        try:
            self.gp_fit_count += 1
            model = gp_fit(self._train_inputs[:n], self._train_targets[:n], self.kernel)
        except SurrogateError:
            log.warning("joint GP fit failed; falling back to a random suggestion")
            model = None
        gp_seconds = time.perf_counter() - t0

        row = 0
        if model is not None:
            # the pool holds only unevaluated tuples, so predict finds no
            # query equal to a training input and solves none for one
            mu, sigma = model.predict(pool / self._scale, standardized=True,
                                      work=self._kernel_work)
            z_best = (self.history.best.value - model.target_mean) / model.target_std
            scores = score_grid(mu, sigma, z_best, ZETA)
            row = int(np.argmax(scores))
        choice = tuple(pool[row].tolist())
        self.history.evaluate(choice)
        return StepResult(batch=[choice], gp_fit_seconds=gp_seconds)
