"""Every cache of the decomposed optimizer gives the run a cache-free one gives.

The optimizer keeps these caches across steps: the projection table's
observed mask and per-dimension counts, maintained by its updates, and the
projection inverses it reuses while a dimension's count of observed values
is unchanged, kept in grid coordinates with each GP's posterior std and
each dimension's observed cells in order (the fill's draw table); and the
line tables kept while ``LineEvidence.version`` is unchanged. Each run here
is made twice on the same drawn case: once as is, and once cache-free:
before every step the projection table is a fresh one on the same minima,
its mask and counts derived again from them, and the kept line tables are
marked stale; every refresh of the table is followed by a derivation of the
std and the fill's order from scratch (each GP's explained variance from a
stack of its own, the order from the mask), so that all of them are
computed again. Both runs must score the grids to the same bits, evaluate the same
batches and record the same values; when the objective raises on a drawn
call, both must stop on that call.

The kept tables are marked stale rather than dropped: their line posterior
is also what re-anchoring reads when the incumbent moves (a level the new
incumbent has no observation of is shifted by its prediction), so dropping
them would change the run, not only its cost.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebo.engine import ProjectionTable, ScoreOptimizer
from scorebo.errors import SpaceExhausted, SurrogateError
from scorebo.gp import stack_inverse
from scorebo.space import SearchSpace, make_grid

from oracles import set_minima


@st.composite
def cases(draw):
    """A ragged search space, a batch size, a step count, an objective seed and
    the call, if any, on which the objective raises.

    Each dimension takes one of a few grid specs, so dimensions that draw
    the same spec have identical grids and pool their line evidence.
    """
    specs = draw(st.lists(st.tuples(st.integers(2, 15), st.sampled_from([1.0, 2.0, 5.0])),
                          min_size=1, max_size=3))
    dims = draw(st.integers(2, 8))
    picks = draw(st.lists(st.integers(0, len(specs) - 1), min_size=dims, max_size=dims))
    grids = tuple(make_grid(0.0, specs[k][1], specs[k][0], name=f"x{d}")
                  for d, k in enumerate(picks))
    return dict(space=SearchSpace(grids), batch=draw(st.integers(1, 4)),
                n_init=draw(st.integers(1, 6)), steps=draw(st.integers(1, 25)),
                seed=draw(st.integers(0, 2**16)),
                bad=draw(st.sampled_from([0.0, 0.1, 0.3])),
                raise_at=draw(st.none() | st.integers(1, 40)))


class Raised(Exception):
    """What the objective raises on its ``raise_at``-th call."""


def make_objective(space, seed, bad, raise_at, calls):
    """A smooth objective with one coupling term, NaN or inf at a share ``bad``
    of the points; a pure function of the point, so both runs see the same
    values, except that call ``raise_at`` (counted in the list ``calls``)
    raises ``Raised``."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(0.0, 2.0, space.dims)
    weight = rng.uniform(0.5, 2.0, space.dims)

    def objective(point):
        calls.append(point)
        if len(calls) == raise_at:
            raise Raised(f"call {raise_at}")
        x = np.asarray(point)
        value = float(np.sum(weight * (x - centre) ** 2) + 0.3 * math.sin(5.0 * x.sum()))
        key = int(abs(value) * 1e9) % 1000
        if key < 1000 * bad:
            return math.nan if key % 2 else math.inf
        return value

    return objective


def rederiving_table(minima):
    """A fresh ``ProjectionTable`` on ``minima`` whose every refresh is
    followed by a derivation of the std and the fill's order from scratch."""
    table = ProjectionTable(*minima.shape)
    set_minima(table, minima)
    refresh = table.refresh

    def rederived(kern, noise):
        refresh(kern, noise)
        mask = table.mask
        explained = np.concatenate([stack_inverse(kern, np.flatnonzero(row)[None], noise)[2]
                                    for row in mask])
        var = np.where(mask, noise * (1.0 - noise * np.diagonal(table.inverse, 0, 1, 2)),
                       1.0 - explained)
        table.std = np.sqrt(np.maximum(var, 0.0))
        table.order = np.argsort(~mask, axis=1, kind="stable")   # observed first

    table.refresh = rederived
    return table


def run(case, cache_free):
    """Batches, projection score tables, records, rejections and objective
    calls of one run. A table is scored from every step's projection fit,
    read by the selection or not."""
    space, calls = case["space"], []
    objective = make_objective(space, case["seed"], case["bad"], case["raise_at"], calls)
    opt = ScoreOptimizer(space=space, objective=objective,
                         batch_size=case["batch"], seed=case["seed"])
    batches, scores = [], []
    fit_projections = opt._fit_projections

    def scored_fit():
        fit = fit_projections()
        scores.append(opt._score_projections(*fit).tobytes())
        return fit

    opt._fit_projections = scored_fit
    try:
        opt.initialize(case["n_init"])
        for _ in range(case["steps"]):
            if cache_free:
                opt.projections = rederiving_table(opt.projections.minima)
                kept = opt._line_tables_kept
                if kept is not None:
                    opt._line_tables_kept = dataclasses.replace(kept, version=-1)
            batches.append(opt.step().batch)
    except (SpaceExhausted, SurrogateError, Raised) as exc:
        batches.append(type(exc).__name__)
    records = [(r.indices, r.value) for r in opt.history.records]
    return batches, scores, records, opt.history.n_rejected, len(calls)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_cached_run_equals_cache_free_run(case):
    assert run(case, cache_free=False) == run(case, cache_free=True)
