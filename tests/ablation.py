"""Ablation of the projection scores on the configs of criteria 4, 7 and 8.

A report, not a test: pytest does not collect it, and it asserts nothing.
It runs each criterion's configuration on a range of seeds in two arms:

- ``as-is``: the optimizer unchanged;
- ``flat``: ``ScoreOptimizer._score_projections`` still runs in full
  whenever a selection reads the projection-score table, but the table
  it returns is replaced by zeros on every grid cell (-inf past each
  grid's end stays), patched from outside. So the projection-score move
  no longer sees the projection GPs. It is the table's only reader (the
  fill draws uniformly from observed cells), so the two arms differ only
  at that move.

For each criterion and arm it prints the hits (the criterion's own gate on
the final best value), the median evals-to-target over the seeds that
reached the target, and the per-seed evals-to-target (None where never
reached). Evals-to-target is the evaluation count after the step that
first brought the best value to the target, as criterion 8 counts it;
criterion 4 gates hits at best < 2.0 and counts evals to 1.0.

    python tests/ablation.py [first_seed last_seed]     (default 0 29)

About 40 s per arm for 30 seeds on one core. To make two trees compare,
it pins one BLAS thread: it sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before numpy is imported,
unless already set; one set by the caller wins.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")          # one BLAS thread, set before numpy loads

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scorebo.engine import ScoreOptimizer  # noqa: E402
from scorebo.problems import (ackley, ackley_space, make_synthetic_datasheet,  # noqa: E402
                              sdm_objective, sdm_space)


def _sdm():
    sheet = make_synthetic_datasheet()
    return sdm_space(sheet), sdm_objective(sheet)


# criterion: (space and objective, n_init, batch, max_evals, hit gate, target)
CRITERIA = {
    4: (lambda: (ackley_space(10), ackley), 20, 1, 300, lambda v: v < 2.0, 1.0),
    7: (lambda: (ackley_space(200), ackley), 50, 10, 500, lambda v: v <= 1.0, 1.0),
    8: (_sdm, 150, 1, 500, lambda v: v <= 0.02, 0.02),
}


def run(space, objective, n_init, batch, max_evals, target, seed):
    """Final best value and evals-to-target (None if never reached)."""
    opt = ScoreOptimizer(space=space, objective=objective, batch_size=batch, seed=seed)
    opt.initialize(n_init)
    hit = opt.history.n_evaluations if opt.history.best.value <= target else None
    while opt.history.n_evaluations < max_evals:
        opt.step(max_batch=max_evals - opt.history.n_evaluations)
        if hit is None and opt.history.best.value <= target:
            hit = opt.history.n_evaluations
    return opt.history.best.value, hit


def flat_scores(original):
    """``_score_projections`` run in full, returning zeros on the grid cells."""
    def flat(self, *fit):
        original(self, *fit)
        return np.where(self._grid_cells, 0.0, -np.inf)
    return flat


def main() -> None:
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 29)
    seeds = range(first, last + 1)
    original = ScoreOptimizer._score_projections
    for arm in ("as-is", "flat"):
        ScoreOptimizer._score_projections = original if arm == "as-is" else flat_scores(original)
        try:
            for criterion, (problem, n_init, batch, max_evals, gate, target) in CRITERIA.items():
                space, objective = problem()
                runs = [run(space, objective, n_init, batch, max_evals, target, s)
                        for s in seeds]
                hits = sum(gate(best) for best, _ in runs)
                evals = [hit for _, hit in runs]
                reached = [e for e in evals if e is not None]
                median = statistics.median(reached) if reached else None
                print(f"{arm} criterion {criterion} seeds {first}-{last}: "
                      f"hits {hits}/{len(runs)}, median evals-to-target {median}, "
                      f"per-seed {evals}", flush=True)
        finally:
            ScoreOptimizer._score_projections = original


if __name__ == "__main__":
    main()
