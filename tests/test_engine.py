"""Decomposed optimizer: projections, scoring, batch assembly, full loop."""

import statistics
import time

import numpy as np
import pytest

from scorebo import engine, gp
from scorebo.acquisition import ZETA, score_grid
from scorebo.engine import (CLIP_FACTOR, LENGTHSCALE_STEPS, LINE_LENGTHSCALE,
                            LINE_NOISE, STALENESS_RATE, TRUST_WINDOW,
                            ProjectionTable, ScoreOptimizer, clip_targets)
from scorebo.errors import SpaceExhausted
from scorebo.gp import NOISE_VARIANCE
from scorebo.problems import ackley, ackley_space, sdm_objective, sdm_space
from scorebo.space import SearchSpace, make_grid

from oracles import (brute_force_projection, dense_gp_predict, dense_layout,
                     difference_profile_posterior, set_minima)

# The shared profile against its covariance-form oracle: 7e-14 (mean) and
# 7e-15 (covariance) on the test's case, at most 1.4e-12 over 200 random ones
PROFILE_ATOL = 1e-10


def grid_space(*lengths):
    return SearchSpace(tuple(make_grid(0.0, 1.0, n, name=f"d{i}")
                             for i, n in enumerate(lengths)))


def table_objective(space, values, default=10.0):
    """Objective keyed by grid indices, for hand-built histories."""
    def objective(point):
        return values.get(space.nearest_indices(point), default)
    return objective


class FakeRecord:
    def __init__(self, indices, value):
        self.indices = indices
        self.value = value


def update(table, records):
    """Fold ``records`` into a ``ProjectionTable`` as index rows and values."""
    table.update([rec.indices for rec in records], [rec.value for rec in records])


def record_fill_draws(opt):
    """Spy on the fill tier of ``opt``'s selections.

    The tier draws one uniform per dimension with ``opt.rng.random`` and
    then asks ``_fresh`` about the tuple of cells they index; nothing else
    in a selection calls ``rng.random``. Returns a list that gains one
    ``(tuple, taken, on_observed_cells)`` per draw, the last read from the
    projections at that selection.
    """
    draws, armed = [], []
    rng, fresh = opt.rng, opt._fresh

    class Rng:
        def random(self, size):
            armed.append(True)
            return rng.random(size)

        def __getattr__(self, name):
            return getattr(rng, name)

    def spy(t, taken):
        is_fresh = fresh(t, taken)
        if armed:
            armed.clear()
            minima = opt.projections.minima[np.arange(len(t)), list(t)]
            draws.append((t, is_fresh, bool(np.isfinite(minima).all())))
        return is_fresh

    opt.rng, opt._fresh = Rng(), spy
    return draws


def record_score_reads(opt, eager=False):
    """Spy on the projection-score table of each of ``opt``'s selections.

    Returns a list that gains one ``(calls, all_supported)`` per selection:
    how often the selection called its scorer, and whether its line tables
    gave every dimension line evidence. Each time the scorer is called, the
    table it returns must be byte-equal to an eager ``_projection_scores()``
    at that point. With ``eager``, the selection is instead handed that
    eager table, computed before it starts, whether it reads it or not.
    """
    selections, select_batch = [], opt.select_batch

    def spy(scores, max_batch=None):
        calls = []
        planted = opt._projection_scores() if eager else None

        def scorer():
            table = scores() if planted is None else planted
            calls.append(1)
            assert table.tobytes() == opt._projection_scores().tobytes()
            return table

        batch = select_batch(scorer, max_batch=max_batch)
        selections.append((len(calls), bool(opt._line_tables_kept.posterior[3].all())))
        return batch

    opt.select_batch = spy
    return selections


def observed_matches(table, brute):
    """``observed(d)`` is each dimension's sorted brute-force keys and minima,
    and the kept mask and count mark and count those keys."""
    for d, cells in enumerate(brute):
        keys = sorted(cells)
        idx, best = table.observed(d)
        if not (np.array_equal(idx, keys)
                and np.array_equal(best, [cells[k][0] for k in keys])
                and np.array_equal(np.flatnonzero(table.mask[d]), keys)
                and table.counts[d] == len(keys)):
            return False
    return True


class TestProjectionTable:
    def test_single_record_projects_itself(self):
        records = [FakeRecord((1, 2), 5.0)]
        table = ProjectionTable(2, 4)
        update(table, records)
        assert table.minima[0, 1] == table.minima[1, 2] == 5.0
        assert observed_matches(table, brute_force_projection(records, 2))

    def test_min_update(self):
        records = [FakeRecord((1, 2), 5.0), FakeRecord((1, 3), 4.0)]
        table = ProjectionTable(2, 4)
        update(table, records)
        assert table.minima[0, 1] == 4.0
        assert table.minima[1, 2:].tolist() == [5.0, 4.0]
        assert observed_matches(table, brute_force_projection(records, 2))

    def test_matches_brute_force_on_random_records(self):
        rng = np.random.default_rng(0)
        records = [FakeRecord(tuple(rng.integers(0, 8, 4)),
                              float(rng.normal()))
                   for _ in range(200)]
        table = ProjectionTable(4, 8)
        update(table, records)
        brute = brute_force_projection(records, 4)
        minima, _ = dense_layout(brute, 8)
        np.testing.assert_array_equal(table.minima, minima)
        assert observed_matches(table, brute)

    def test_order_independence(self):
        rng = np.random.default_rng(1)
        records = [FakeRecord(tuple(rng.integers(0, 5, 3)),
                              float(rng.normal()))
                   for _ in range(60)]
        table_fwd, table_rev = ProjectionTable(3, 5), ProjectionTable(3, 5)
        update(table_fwd, records)
        for rec in reversed(records):
            update(table_rev, [rec])
        np.testing.assert_array_equal(table_fwd.minima, table_rev.minima)
        assert observed_matches(table_rev, brute_force_projection(records, 3))

    def test_observed_returns_sorted_indices(self):
        table = ProjectionTable(1, 6)
        update(table, [FakeRecord((4,), 2.0), FakeRecord((1,), 3.0),
                       FakeRecord((4,), 1.0)])
        idx, best = table.observed(0)
        assert list(idx) == [1.0, 4.0]
        assert list(best) == [3.0, 1.0]


class TestClipTargets:
    def test_cap_uses_numpy_upper_quartile(self):
        rng = np.random.default_rng(4)
        for n in range(1, 70):
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            values[rng.integers(n)] = 1e300
            lo = values.min()
            cap = lo + 20.0 * (np.percentile(values, 75) - lo)
            expected = np.minimum(values, cap) if cap > lo else values
            np.testing.assert_array_equal(clip_targets(values), expected)

    def test_noop_on_well_scaled_targets(self):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(clip_targets(values), values)

    def test_caps_extreme_outliers(self):
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1e300])
        clipped = clip_targets(values)
        assert clipped[-1] < 1e3
        np.testing.assert_array_equal(clipped[:8], values[:8])

    def test_preserves_minimum_and_ordering_below_cap(self):
        values = np.array([5.0, 0.5, 3.0, 1e9])
        clipped = clip_targets(values)
        assert clipped.min() == 0.5
        assert np.argmin(clipped) == 1

    def test_constant_targets_unchanged(self):
        values = np.full(5, 2.0)
        np.testing.assert_array_equal(clip_targets(values), values)

    def test_rows_are_clipped_each_on_its_own(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 5, 12):
            rows = rng.normal(size=(7, n))
            rows[1, 0] = 1e300
            rows[2] = 3.0
            expected = np.array([clip_targets(row) for row in rows])
            np.testing.assert_array_equal(clip_targets(rows), expected)

    def test_inf_padded_rows_clip_as_their_finite_cells(self):
        rng = np.random.default_rng(8)
        rows = [np.array([-4.0]),                         # one finite cell
                np.full(6, 2.5),                          # constant
                np.append(rng.normal(size=8), 1e300),     # one outlier
                rng.normal(size=11) * 1e3,
                rng.normal(size=3)]
        width = 13
        table = np.full((len(rows), width), np.inf)
        cells = []
        for r, row in enumerate(rows):
            idx = np.sort(rng.choice(width, size=len(row), replace=False))
            table[r, idx] = row
            cells.append(idx)
        clipped = clip_targets(table)
        for r, (row, idx) in enumerate(zip(rows, cells, strict=True)):
            assert clip_targets(row).tobytes() == clipped[r, idx].tobytes()
            assert np.isposinf(np.delete(clipped[r], idx)).all()
            lo = row.min()
            cap = lo + 20.0 * (np.percentile(row, 75) - lo)
            np.testing.assert_array_equal(clipped[r, idx],
                                          np.minimum(row, cap) if cap > lo else row)
        assert clipped[2, cells[2][-1]] < 1e300           # the outlier was capped


class TestScoreDimension:
    def test_single_best_observation_favors_far_grid_points(self):
        space = grid_space(5, 5)
        opt = ScoreOptimizer(space=space,
                             objective=table_objective(space, {(0, 0): 1.0}))
        opt.history.evaluate((0, 0))
        scores = opt.score_dimension(0)
        assert scores[0] <= scores[4]

    def test_identical_projected_values_give_identical_scores(self):
        space = grid_space(5, 5)
        values = {(i, 0): 1.0 for i in range(5)}
        opt = ScoreOptimizer(space=space,
                             objective=table_objective(space, values))
        for i in range(5):
            opt.history.evaluate((i, 0))
        scores = opt.score_dimension(0)
        assert np.ptp(scores) <= 1e-12

    def test_two_observations_match_hand_assembled_pipeline(self):
        space = grid_space(5, 5)
        values = {(1, 0): 2.0, (3, 2): 5.0}
        opt = ScoreOptimizer(space=space,
                             objective=table_objective(space, values))
        opt.history.evaluate((1, 0))
        opt.history.evaluate((3, 2))
        scores = opt.score_dimension(0)

        mu, sigma = dense_gp_predict(
            [1.0, 3.0], [2.0, 5.0], np.arange(5, dtype=float),
            lengthscale=opt.kernel.lengthscale,
            signal_variance=1.0,
            noise_variance=opt.kernel.noise_variance,
            jitter=opt.kernel.jitter, standardized_out=True)
        z_best = (2.0 - 3.5) / np.std([2.0, 5.0])
        oracle = [score_grid(m, s, z_best, ZETA)
                  for m, s in zip(mu, sigma)]
        np.testing.assert_allclose(scores, oracle, atol=1e-8, rtol=0)

    def test_grid_cells_and_rows_follow_the_space_lengths(self):
        space = grid_space(3, 7, 2, 5)
        opt = ScoreOptimizer(space=space, objective=lambda p: float(p.sum()))
        opt.history.evaluate((0, 0, 0, 0))
        assert opt._grid_cells.sum(axis=1).tolist() == list(space.lengths)
        assert [len(opt.score_dimension(d)) for d in range(space.dims)] == list(space.lengths)

    def test_unobserved_dimension_raises(self):
        space = grid_space(3, 3)
        opt = ScoreOptimizer(space=space, objective=lambda p: 0.0)
        with pytest.raises(ValueError):
            opt.score_dimension(0)

    @staticmethod
    def _oracle_scores(row, n_grid, best):
        """Clip, dense-inversion GP and closed-form EI of one projection row."""
        idx = np.flatnonzero(np.isfinite(row))
        y = row[idx]
        lo = y.min()
        cap = lo + CLIP_FACTOR * (np.percentile(y, 75) - lo)
        if cap > lo:
            y = np.minimum(y, cap)
        mu, sigma = dense_gp_predict(idx, y, np.arange(n_grid), LENGTHSCALE_STEPS,
                                     1.0, NOISE_VARIANCE, standardized_out=True)
        z_best = (best - np.mean(y)) / (np.std(y) or 1.0)
        return score_grid(mu, sigma, z_best, ZETA)

    def test_stacked_scores_match_dense_oracle(self, monkeypatch):
        # Ragged grids as in SDM; 36 dimensions share one count (35, and one
        # with its whole 31-value grid observed) and so one stack, past the
        # 31 rows that 16 * 61 * 61 working-set cells once bounded a stack
        # to at that count; every grid value is queried, training points too.
        rng = np.random.default_rng(11)
        lengths = [31, 41, 61] * 14
        shared = 31                                # the count of the big stack
        stack = 35
        space = grid_space(*lengths)
        opt = ScoreOptimizer(space=space, objective=lambda p: -0.7)
        opt.history.evaluate((0,) * len(lengths))
        minima = np.full(opt.projections.minima.shape, np.inf)
        for d, n_grid in enumerate(lengths):
            if d < stack:
                count = shared
            elif d == stack:
                count = 1                          # a single observation
            elif d == stack + 1:
                count = n_grid                     # the whole grid observed
            else:
                count = int(rng.integers(1, n_grid + 1))
            idx = rng.choice(n_grid, size=count, replace=False)
            minima[d, idx] = rng.normal(size=count) * 10.0 ** rng.uniform(-2, 2)
        constant, outlier = stack + 2, stack + 3
        assert outlier < len(lengths)
        minima[constant, np.isfinite(minima[constant])] = 2.0
        minima[outlier] = np.inf
        cells = rng.choice(lengths[outlier], size=8, replace=False)
        minima[outlier, cells] = rng.normal(size=8)
        minima[outlier, cells[3]] = 1e300
        assert clip_targets(minima[outlier, cells]).max() < 1e300
        set_minima(opt.projections, minima)

        inverted, inverse = [], gp.stack_inverse

        def spy(kern, idx, *args):
            inverted.append(idx.shape)
            return inverse(kern, idx, *args)

        with monkeypatch.context() as m:
            m.setattr(engine, "stack_inverse", spy)
            stacked = opt._projection_scores()
        counts = np.isfinite(minima).sum(axis=1)
        assert sorted(n for _, n in inverted) == sorted(set(counts.tolist()))
        assert (stack + 1, shared) in inverted
        assert opt.gp_fit_count == len(lengths)
        best = opt.history.best.value
        for d, n_grid in enumerate(lengths):
            oracle = self._oracle_scores(minima[d], n_grid, best)
            np.testing.assert_allclose(stacked[d, :n_grid], oracle, rtol=0, atol=1e-8)
            np.testing.assert_allclose(opt.score_dimension(d), oracle, rtol=0, atol=1e-8)
        # score_dimension is row d of a full pass, which fits every dimension
        assert opt.gp_fit_count == (1 + len(lengths)) * len(lengths)

    def test_random_tables_match_dense_oracle(self):
        # The fixed table above, drawn at random: every dimension's count
        # from 1 to its grid length, each row on its own scale. Each table
        # gets a fresh optimizer, so every inverse is computed for it.
        lengths = [31, 41, 61] * 14
        space = grid_space(*lengths)
        for table in range(20):
            rng = np.random.default_rng(1000 + table)
            opt = ScoreOptimizer(space=space, objective=lambda p: -0.7)
            opt.history.evaluate((0,) * len(lengths))
            minima = np.full(opt.projections.minima.shape, np.inf)
            for d, n_grid in enumerate(lengths):
                count = int(rng.integers(1, n_grid + 1))
                idx = rng.choice(n_grid, size=count, replace=False)
                minima[d, idx] = rng.normal(size=count) * 10.0 ** rng.uniform(-2, 2)
            set_minima(opt.projections, minima)
            scores = opt._projection_scores()
            best = opt.history.best.value
            for d, n_grid in enumerate(lengths):
                oracle = self._oracle_scores(minima[d], n_grid, best)
                np.testing.assert_allclose(scores[d, :n_grid], oracle, rtol=0, atol=1e-8,
                                           err_msg=f"table {table}, dimension {d}")

    def test_scores_match_dense_oracle_as_projections_grow(self):
        # Ragged grids; cells are added a random batch at a time, as steps
        # add them, and observed minima may fall. Every batch is checked
        # against the oracle, so kept and new inverses are both exercised.
        rng = np.random.default_rng(12)
        lengths = [31, 41, 61] * 4
        space = grid_space(*lengths)
        opt = ScoreOptimizer(space=space, objective=lambda p: -0.7)
        opt.history.evaluate((0,) * len(lengths))
        single, whole, constant, outlier = 0, 1, 2, 5
        minima = np.full(opt.projections.minima.shape, np.inf)
        for d, n_grid in enumerate(lengths):
            cells = 8 if d == outlier else 1
            minima[d, rng.choice(n_grid, size=cells, replace=False)] = rng.normal(size=cells)
        set_minima(opt.projections, minima)
        best = opt.history.best.value
        for batch in range(8):
            for d, n_grid in enumerate(lengths):
                free = np.flatnonzero(np.isinf(minima[d, :n_grid]))
                if d == single or not len(free):
                    continue
                new = free if d == whole and batch == 7 else rng.choice(
                    free, size=min(len(free), int(rng.integers(0, 4))), replace=False)
                minima[d, new] = rng.normal(size=len(new)) * 10.0 ** rng.uniform(-2, 2)
                seen = np.flatnonzero(np.isfinite(minima[d]))
                minima[d, seen[:1]] -= rng.uniform(0, 1)        # a minimum falls
            minima[constant, np.isfinite(minima[constant])] = 2.0
            if batch >= 2:
                minima[outlier, np.flatnonzero(np.isfinite(minima[outlier]))[-1]] = 1e300
            set_minima(opt.projections, minima)
            clipped = clip_targets(minima)
            assert batch < 2 or clipped[outlier, np.isfinite(minima[outlier])].max() < 1e300
            for row, out in zip(minima, clipped):
                observed = np.isfinite(row)
                assert np.array_equal(out[observed], clip_targets(row[observed]))
                assert np.isinf(out[~observed]).all()
            scores = opt._projection_scores()
            for d, n_grid in enumerate(lengths):
                oracle = self._oracle_scores(minima[d], n_grid, best)
                np.testing.assert_allclose(scores[d, :n_grid], oracle, rtol=0, atol=1e-8)
        assert np.isfinite(minima[whole, :lengths[whole]]).all()
        assert np.isfinite(minima[single]).sum() == 1
        assert opt.gp_fit_count == 8 * len(lengths)


class TestInverseReuse:
    @staticmethod
    def _check_every_step(opt, steps):
        """Scores with the kept inverses equal scores with a fresh table, each step.

        Returns how many rows were reused and how many inverted in all.
        """
        reused = inverted = 0
        for _ in range(steps):
            kept = opt.projections
            counts = np.isfinite(kept.minima).sum(axis=1)
            hit = kept.inverted == counts
            reused, inverted = reused + hit.sum(), inverted + (~hit).sum()
            scores = opt._projection_scores()
            fresh = opt.projections = ProjectionTable(*kept.minima.shape)
            set_minima(fresh, kept.minima.copy())
            assert np.array_equal(scores, opt._projection_scores())
            assert np.array_equal(kept.inverse, fresh.inverse)
            opt.projections = kept
            opt.step()
        return reused, inverted

    @pytest.mark.parametrize("dims,batch,n_init,steps", [(10, 1, 20, 40),
                                                         (200, 10, 50, 4)])
    def test_reuse_is_exact_on_ackley(self, dims, batch, n_init, steps):
        opt = ScoreOptimizer(space=ackley_space(dims), objective=ackley,
                             batch_size=batch, seed=0)
        opt.initialize(n_init)
        reused, solved = self._check_every_step(opt, steps)
        assert reused > 0 and solved > 0

    def test_reuse_is_exact_on_ragged_sdm_grids(self, datasheet):
        space = sdm_space(datasheet)
        assert len(set(space.lengths)) > 1
        opt = ScoreOptimizer(space=space, objective=sdm_objective(datasheet), seed=0)
        opt.initialize(30)
        reused, solved = self._check_every_step(opt, 30)
        assert reused > 0 and solved > 0

    def test_step_without_new_grid_values_inverts_no_projection(self, monkeypatch):
        opt = ScoreOptimizer(space=ackley_space(6), objective=ackley,
                             batch_size=2, seed=0)
        opt.initialize(12)
        opt._projection_scores()
        inverted = []
        original = gp.stack_inverse

        def spy(kern, i, *args, **kwargs):
            inverted.append(len(i))
            return original(kern, i, *args, **kwargs)

        monkeypatch.setattr(engine, "stack_inverse", spy)
        # a tuple made only of grid values already observed in each dimension
        first, second = opt.history.records[:2]
        mixed = first.indices[:3] + second.indices[3:]
        assert mixed not in opt.history.evaluated
        opt.history.evaluate(mixed)
        opt.step()
        assert inverted == []
        assert opt.gp_fit_count == 2 * 6          # still one fit per dimension
        # one dimension gains a value: only it is inverted again
        opt._projection_scores()                  # absorbs the step's batch
        inverted.clear()
        observed = np.isfinite(opt.projections.minima[0])
        v = int(np.flatnonzero(~observed[:opt.space.lengths[0]])[0])
        opt.history.evaluate((v,) + opt.history.best.indices[1:])
        opt._projection_scores()
        assert inverted == [1]

    def test_step_filled_by_the_fill_tier_inverts_no_projection(self, monkeypatch):
        opt = ScoreOptimizer(space=ackley_space(6), objective=ackley,
                             batch_size=2, seed=0)
        opt.initialize(12)
        draws = record_fill_draws(opt)
        for _ in range(100):
            before = len(draws)
            batch = opt.step().batch
            if sum(taken for _, taken, _ in draws[before:]) == len(batch):
                break
        else:
            pytest.fail("no step's batch came wholly from the fill tier")
        inverted = []
        original = gp.stack_inverse

        def spy(kern, i, *args, **kwargs):
            inverted.append(len(i))
            return original(kern, i, *args, **kwargs)

        monkeypatch.setattr(engine, "stack_inverse", spy)
        opt._projection_scores()
        assert inverted == []

    @pytest.mark.parametrize("dims,batch,n_init,warm", [(10, 1, 20, 65), (200, 10, 50, 2)])
    def test_each_step_refreshes_the_store_once(self, dims, batch, n_init, warm,
                                                monkeypatch):
        # The projection pass is the table's only refresh. After ``warm``
        # steps, the next 20 hold both line steps and steps whose batch came
        # from the fill, which reads the kept order that pass left.
        opt = ScoreOptimizer(space=ackley_space(dims), objective=ackley,
                             batch_size=batch, seed=0)
        opt.initialize(n_init)
        for _ in range(warm):
            opt.step()
        refreshed, refresh = [], ProjectionTable.refresh

        def spy(table, *args, **kwargs):
            refreshed.append(table)
            refresh(table, *args, **kwargs)

        monkeypatch.setattr(ProjectionTable, "refresh", spy)
        draws = record_fill_draws(opt)
        filled = 0
        for step in range(20):
            before = len(draws)
            opt.step()
            assert len(refreshed) == step + 1
            filled += any(taken for _, taken, _ in draws[before:])
        assert 0 < filled < 20
        assert all(table is opt.projections for table in refreshed)


class TestSelectBatch:
    def test_evaluated_top_tuple_is_not_returned(self):
        # On a constant objective no line is supported (its one move
        # changed nothing), so the projection score leads; its top tuple
        # (1, 0) is the incumbent's evaluated line move.
        opt = ScoreOptimizer(space=grid_space(2, 2), objective=lambda p: 0.0)
        opt.history.evaluate((0, 0))
        opt.history.evaluate((1, 0))
        opt._projection_scores()
        scores = np.array([[0.1, 0.9], [0.3, 0.2]])
        batch = opt.select_batch(lambda: scores)
        assert len(batch) == 1
        assert batch[0] != (1, 0)

    def test_large_batch_high_dims_distinct_and_deterministic(self):
        space = ackley_space(200)
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, (200, 61))
        batches = []
        for _ in range(2):
            opt = ScoreOptimizer(space=space, objective=ackley,
                                 batch_size=10, seed=5)
            opt.initialize(20)
            opt._projection_scores()
            batches.append(opt.select_batch(lambda: scores.copy()))
        assert batches[0] == batches[1]
        assert len(batches[0]) == 10
        assert len(set(batches[0])) == 10

    def test_exhausted_space_raises(self):
        space = grid_space(2, 2)
        opt = ScoreOptimizer(space=space, objective=lambda p: 0.0)
        opt.history.evaluated = {(i, j) for i in range(2) for j in range(2)}
        with pytest.raises(SpaceExhausted):
            opt.select_batch(lambda: np.ones((2, 2)))

    def test_batch_truncated_to_remaining_combinations(self):
        space = grid_space(2, 2)
        opt = ScoreOptimizer(space=space, objective=lambda p: 0.0,
                             batch_size=10)
        opt.history.evaluate((0, 0))
        opt.history.evaluate((0, 1))
        scores = opt._projection_scores()
        batch = opt.select_batch(lambda: scores)
        assert sorted(batch) == [(1, 0), (1, 1)]

    @staticmethod
    def _fill_only(batch_size, seed):
        """An optimizer on ragged grids whose selections reach the fill at once.

        Its records, on a constant objective, differ pairwise in more than
        one coordinate, so no line has evidence, and the score table it
        returns is -inf on every cell, so the projection-score move finds no
        value. They observe cells 1 and 3 of the 4-value grid, 0, 2 and 4 of
        the 5-value grid and 0, 2 and 5 of the 6-value grid, and a
        projection pass has refreshed the table for them. Returns it, the
        table for ``select_batch`` and each dimension's observed cells.
        """
        opt = ScoreOptimizer(space=grid_space(4, 5, 6), objective=lambda p: 0.0,
                             batch_size=batch_size, seed=seed)
        for indices in [(1, 0, 0), (3, 2, 2), (1, 4, 5)]:
            opt.history.evaluate(indices)
        opt._projection_scores()
        return opt, np.full((3, 6), -np.inf), [[1, 3], [0, 2, 4], [0, 2, 5]]

    def test_fill_draws_observed_cells_by_index(self):
        opt, table, cells = self._fill_only(batch_size=8, seed=3)
        batch = opt.select_batch(lambda: table)

        ref = np.random.default_rng(3)
        expected = []
        while len(expected) < 8:
            u = ref.random(len(cells))
            t = tuple(c[int(x * len(c))] for x, c in zip(u, cells))
            if t not in expected and t not in opt.history.evaluated:
                expected.append(t)
        assert batch == expected
        assert (np.array(batch) < np.array(opt.space.lengths)).all()

    def test_fill_draw_at_the_largest_uniform_takes_each_last_cell(self):
        opt, table, cells = self._fill_only(batch_size=1, seed=0)

        class Rng:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        opt.rng = Rng()
        assert opt.select_batch(lambda: table) == [tuple(c[-1] for c in cells)]

    def test_fill_tier_draws_only_observed_cells(self):
        opt = ScoreOptimizer(space=ackley_space(200), objective=ackley,
                             batch_size=10, seed=0)
        opt.initialize(50)
        draws = record_fill_draws(opt)
        for _ in range(20):
            opt.step()
        assert sum(taken for _, taken, _ in draws) >= 10
        assert all(observed for _, _, observed in draws)

    def test_random_fill_reads_the_evaluated_set_uncopied(self, monkeypatch):
        # One record on 2-D Ackley at B=5: the projection-score moves give
        # a tuple or two, the fill tier can draw only the evaluated tuple
        # (each dimension has observed one cell), and the random fill draws
        # the rest. It is given the
        # history's set itself and the batch's tuples apart, so that no
        # step copies the evaluated set.
        opt = ScoreOptimizer(space=ackley_space(2), objective=ackley,
                             batch_size=5, seed=0)
        opt.initialize(1)
        draw, fills = engine.draw_unevaluated, []

        def spy(space, rng, excluded, count, **kwargs):
            fills.append((excluded is opt.history.evaluated, count,
                          set(kwargs.get("pending", ()))))
            return draw(space, rng, excluded, count, **kwargs)

        monkeypatch.setattr(engine, "draw_unevaluated", spy)
        batch = opt.step().batch
        assert len(set(batch)) == 5 and len(opt.history) == 6
        [(uncopied, count, pending)] = fills
        assert uncopied and 1 <= len(pending) <= 2
        assert count == 5 - len(pending) and pending == set(batch[:len(pending)])

    def test_ragged_grids_score_and_select_only_grid_values(self):
        space = grid_space(3, 7, 2, 5)
        lengths = np.array(space.lengths)
        opt = ScoreOptimizer(space=space, objective=lambda p: float(np.sum((p - 0.3) ** 2)),
                             batch_size=8, seed=0)
        opt.initialize(4)
        for _ in range(10):
            scores = opt._projection_scores()
            assert np.array_equal(np.isneginf(scores), ~opt._grid_cells)
            batch = opt.select_batch(lambda: scores)
            assert len(batch) == 8
            assert (np.array(batch) < lengths).all(), batch
            for indices in batch:
                opt.history.evaluate(indices)


# (space, objective, batch size, initial design, evaluations, seeds) of
# perfbench's score workloads
LAZY_RUNS = {
    "ackley10-b1": (lambda: (ackley_space(10), ackley), 1, 20, 300, range(5)),
    "ackley200-b10": (lambda: (ackley_space(200), ackley), 10, 50, 500, range(3)),
}


def lazy_run(name, seed, eager=False):
    """Batches of one run of ``LAZY_RUNS[name]`` and its selections' reads."""
    problem, batch_size, n_init, evals, _ = LAZY_RUNS[name]
    space, objective = problem()
    opt = ScoreOptimizer(space=space, objective=objective, batch_size=batch_size,
                         seed=seed)
    opt.initialize(n_init)
    selections = record_score_reads(opt, eager)
    batches = []
    while opt.history.n_evaluations < evals:
        batches.append(opt.step(max_batch=evals - opt.history.n_evaluations).batch)
    return batches, selections


class TestLazyProjectionScores:
    """A step fits the projection GPs; its selection scores their EI table
    from that fit only when the projection-score move reads a row."""

    @pytest.mark.parametrize("name", list(LAZY_RUNS))
    def test_table_is_scored_once_and_only_where_read(self, name):
        selections = []
        for seed in LAZY_RUNS[name][-1]:
            selections += lazy_run(name, seed)[1]
        assert {calls for calls, _ in selections} == {0, 1}
        assert all(calls == 0 for calls, supported in selections if supported)
        # a dimension without line evidence, but the line tiers filled the batch
        assert any(calls == 0 and not supported for calls, supported in selections)

    def test_tier_reading_many_rows_scores_the_table_once(self):
        # On a constant objective no line is supported, so the projection-
        # score move reads a row for each tuple of the batch.
        opt = ScoreOptimizer(space=grid_space(5, 5, 5, 5), objective=lambda p: 0.0,
                             batch_size=3, seed=0)
        opt.initialize(2)
        selections = record_score_reads(opt)
        batch = opt.step().batch
        assert selections == [(1, False)]
        assert sorted(opt.lines.moved_dim(t) for t in batch) == [0, 1, 2]

    def test_scores_read_equal_the_eager_table(self):
        # record_score_reads checks every read; the reads must include
        # selections after the first, scored from a fit other than the
        # design's
        later = 0
        for name, (*_, seeds) in LAZY_RUNS.items():
            for seed in seeds:
                selections = lazy_run(name, seed)[1]
                later += sum(calls for calls, _ in selections[1:])
        assert later > 0

    @pytest.mark.parametrize("name", list(LAZY_RUNS))
    def test_runs_handed_the_eager_table_pick_the_same_batches(self, name):
        for seed in LAZY_RUNS[name][-1]:
            lazy, selections = lazy_run(name, seed)
            assert sum(calls for calls, _ in selections) > 0
            assert lazy_run(name, seed, eager=True)[0] == lazy


class TestLineEvidence:
    @staticmethod
    def _proposal(values):
        """First tuple of a B=1 batch after evaluating ``values`` in order."""
        space = grid_space(61, 61)
        opt = ScoreOptimizer(space=space,
                             objective=table_objective(space, values))
        for indices in values:
            opt.history.evaluate(indices)
        scores = opt._projection_scores()
        return opt.select_batch(lambda: scores)[0]

    def test_empty_line_follows_the_projection_evidence(self):
        # Dimension 0 has only the incumbent (30, 30) on its line; the other
        # records on dimension 0 are good at its low end and bad at its high
        # end, or the other way round.
        good_low = {(30, 30): 1.0}
        good_high = {(30, 30): 1.0}
        for k, i in enumerate(range(0, 13, 2)):
            good_low[(i, 40 + k)] = good_high[(60 - i, 40 + k)] = 1.1
            good_low[(60 - i, 5 + k)] = good_high[(i, 5 + k)] = 9.0
        low = self._proposal(good_low)
        high = self._proposal(good_high)
        assert low[1] == high[1] == 30          # moves along dimension 0
        assert low != high
        assert low[0] < 30 < high[0]

    def test_line_move_survives_incumbent_move_on_another_dimension(self):
        # From the incumbent (30, 30) a move on dimension 0 improves a little
        # and a move on dimension 1 improves more, so the incumbent moves on
        # dimension 1. The improving move on dimension 0 must still be used.
        values = {(30, 30): 1.0, (36, 30): 0.8, (30, 40): 0.5}
        assert self._proposal(values) == (36, 40)

    def test_one_entry_per_dimension_and_grid_value(self):
        space = grid_space(5, 5)
        opt = ScoreOptimizer(space=space, objective=lambda p: float(sum(p)))
        opt.history.evaluate((2, 2))
        opt.history.evaluate((4, 2))
        opt.history.evaluate((2, 0))
        assert opt.lines.levels.shape == (2, 5)
        assert opt.lines.levels[0, 4] == pytest.approx(0.5)
        assert opt.lines.levels[1, 0] == pytest.approx(-0.5)
        assert np.sum(~np.isnan(opt.lines.levels)) == 4   # two anchors, two moves

    def test_moved_dim_names_the_one_changed_coordinate(self):
        space = grid_space(5, 5, 5, 5)
        opt = ScoreOptimizer(space=space, objective=table_objective(
            space, {(1, 2, 3, 4): 1.0, (1, 0, 3, 4): 0.0}))
        lines = opt.lines
        opt.history.evaluate((1, 2, 3, 4))             # the first record anchors
        assert lines.moved_dim((1, 2, 3, 4)) is None
        assert lines.moved_dim((1, 0, 3, 4)) == 1
        assert lines.moved_dim((0, 2, 3, 0)) is None
        opt.history.evaluate((1, 0, 3, 4))
        opt._line_tables()                             # re-anchors to the new incumbent
        assert lines.anchor_array.tolist() == [1, 0, 3, 4]
        assert lines.drift == 0.25
        assert lines.moved_dim((1, 2, 3, 4)) == 1

    def test_line_posterior_matches_dense_oracle(self):
        # Distinct grids share nothing; every level is fresh, so each line
        # is a plain GP on its own levels with noise LINE_NOISE * variance.
        space = SearchSpace((make_grid(0.0, 1.0, 7, name="a"),
                             make_grid(0.0, 2.0, 9, name="b"),
                             make_grid(0.0, 3.0, 11, name="c"),
                             make_grid(0.0, 4.0, 12, name="d")))
        anchor = (3, 4, 5, 6)
        moves = {0: [], 1: [0], 2: [1, 9], 3: [0, 2, 9, 11]}
        values = {anchor: 0.0}
        for d, targets in moves.items():
            for k, v in enumerate(targets):
                values[anchor[:d] + (v,) + anchor[d + 1:]] = 0.5 + 0.7 * k + 0.1 * d
        opt = ScoreOptimizer(space=space,
                             objective=table_objective(space, values))
        for indices in values:
            opt.history.evaluate(indices)
        mean, std, scale, supported, share, predicted = opt._line_posterior()
        assert list(supported) == [False, True, True, True]
        assert not share.any()
        assert np.isnan(predicted).all()                # no group has a profile
        for d, targets in moves.items():
            if not targets:
                continue
            x = [anchor[d]] + targets
            y = [0.0] + [values[anchor[:d] + (v,) + anchor[d + 1:]] for v in targets]
            amp2 = float(np.mean(np.square(y[1:])))
            n = len(space.grids[d])
            mu, sigma = dense_gp_predict(
                x, y, np.arange(n), LINE_LENGTHSCALE, amp2,
                LINE_NOISE * amp2, jitter=0.0, standardize=False)
            np.testing.assert_allclose(mean[d, :n], mu, rtol=0, atol=1e-9)
            np.testing.assert_allclose(std[d, :n], sigma, rtol=0, atol=1e-7)
            assert scale[d] == pytest.approx(np.sqrt(amp2))

    def test_shared_profile_matches_dense_oracle(self, monkeypatch):
        # Three dimensions on one 9-value grid pool their levels into one
        # profile. After the incumbent moves on dimension 2 the older levels
        # are a third stale, so the levels weigh unequally.
        space = grid_space(9, 9, 9)
        values = {(4, 4, 4): 0.0, (1, 4, 4): 0.9, (7, 4, 4): 0.4, (4, 2, 4): 0.5,
                  (4, 8, 4): 1.1, (4, 4, 6): -0.3}
        later = {(2, 4, 6): 0.2, (4, 5, 6): -0.1, (4, 4, 8): 0.6, (8, 4, 6): 0.3}
        opt = ScoreOptimizer(space=space,
                             objective=table_objective(space, {**values, **later}))
        for indices in values:
            opt.history.evaluate(indices)
        opt._line_tables()                              # re-anchors to (4, 4, 6)
        for indices in later:
            opt.history.evaluate(indices)
        fits = []
        shared_profile = opt._shared_profile
        monkeypatch.setattr(opt, "_shared_profile",
                            lambda *args: fits.append(shared_profile(*args)) or fits[-1])
        predicted = opt._line_posterior()[5]
        (mean, cov), = fits

        lines = opt.lines
        noise = LINE_NOISE * np.exp(STALENESS_RATE * lines.staleness())
        moved = ~np.isnan(lines.levels)
        moved[np.arange(3), lines.anchor_array] = False
        d, b = np.nonzero(moved)
        y = lines.levels[d, b]
        assert np.array_equal(clip_targets(y), y)       # no level is clipped
        assert len(set(noise[d, b].round(12))) == 2     # fresh and stale levels
        o_mean, o_cov = difference_profile_posterior(
            lines.anchor_array[d], b, y, noise[d, b], 9, LINE_LENGTHSCALE, 1e-8)
        weight = 1.0 / noise[d, b]
        scale2 = np.sum(weight * y**2) / np.sum(weight)
        np.testing.assert_allclose(mean, o_mean, rtol=0, atol=PROFILE_ATOL)
        np.testing.assert_allclose(cov, scale2 * o_cov, rtol=0, atol=PROFILE_ATOL)
        o_change = o_mean[None, :] - o_mean[lines.anchor_array][:, None]
        np.testing.assert_allclose(predicted, o_change, rtol=0, atol=2 * PROFILE_ATOL)

    @staticmethod
    def _trust_after(profiles, steps=12):
        """Sharing weight after a run on a sum of smooth 1D profiles.

        Dimension d follows ``profiles[d % len(profiles)]``: one profile
        means every dimension agrees, six mean every dimension differs.
        """
        rng = np.random.default_rng(1)
        steps_x = np.arange(21)
        tables = [sum(rng.normal() * np.cos(2 * np.pi * k * steps_x / 40
                                            + rng.uniform(0, 2 * np.pi))
                      for k in range(1, 4))
                  for _ in range(profiles)]
        space = grid_space(*[21] * 6)

        def objective(point):
            idx = space.nearest_indices(point)
            return float(sum(tables[d % profiles][i] for d, i in enumerate(idx)))

        opt = ScoreOptimizer(space=space, objective=objective,
                             batch_size=4, seed=0)
        opt.initialize(8)
        for _ in range(steps):
            opt.step()
        return opt._trust(opt._groups[0])

    def test_shared_profile_is_trusted_when_dimensions_agree(self):
        slope, explained = self._trust_after(profiles=1)
        assert slope > 0.5
        assert explained > 0.5

    def test_shared_profile_is_not_trusted_when_dimensions_disagree(self):
        _, explained = self._trust_after(profiles=6)
        assert explained < 0.1

    def test_only_identical_grids_share(self):
        space = SearchSpace((make_grid(0.0, 1.0, 9, name="a"),
                             make_grid(0.0, 1.0, 9, name="b"),
                             make_grid(0.0, 2.0, 9, name="c")))
        opt = ScoreOptimizer(space=space, objective=lambda p: 0.0)
        groups = sorted(g.dims.tolist() for g in opt._groups)
        assert groups == [[0, 1], [2]]

    def test_outcomes_pair_line_move_predictions_with_recorded_levels(self, monkeypatch):
        # Three dimensions on one 7-value grid share a profile. Before each
        # selection the projections of dimensions 1 and 2 are made to
        # observe only the incumbent's cell, so every tuple the fill tier
        # draws is the incumbent or a single-coordinate move of dimension
        # 0; the random fill is made to return the incumbent's unevaluated
        # line moves. Both tiers then give moves the profile predicts, and
        # neither may record an outcome.
        space = grid_space(7, 7, 7)
        opt = ScoreOptimizer(space=space,
                             objective=lambda p: float(np.sum((p - 0.3) ** 2)),
                             batch_size=8, seed=0)
        opt.initialize(6)
        group = opt._groups[0]
        profile, asked, start = {}, [], {}
        line_posterior, shared_profile, fresh = (opt._line_posterior, opt._shared_profile,
                                                 opt._fresh)

        def posterior():
            profile.clear()                 # a derivation without a profile keeps none
            return line_posterior()

        def fit(*args):
            profile["mean"], cov = shared_profile(*args)
            return profile["mean"], cov

        def spy(t, taken):
            # the line tiers draw no random numbers, so a tuple asked about
            # before the generator moved is a line-tier candidate
            asked.append((t, opt.rng.bit_generator.state == start["state"]))
            return fresh(t, taken)

        def line_fill(space, rng, excluded, count, pending=frozenset()):
            a = opt.lines.anchor
            moves = [a[:d] + (v,) + a[d + 1:] for d in range(3) for v in range(7)]
            fresh = [t for t in moves if t not in excluded and t not in pending]
            random_fill.update(fresh[:count])
            return np.array(fresh[:count], dtype=int)

        opt._line_posterior, opt._shared_profile, opt._fresh = posterior, fit, spy
        monkeypatch.setattr(engine, "draw_unevaluated", line_fill)
        line_moves = fill_moves = fill_tier_moves = 0
        for _ in range(6):
            anchor = opt.history.best.indices
            at_anchor = np.arange(7) == np.array(anchor)[:, None]
            scores = np.where(at_anchor, 0.0, -50.0)
            minima = opt.projections.minima.copy()
            minima[1:] = np.where(at_anchor[1:], 0.0, np.inf)
            # the table's cells shrank, which no update does: start the
            # table, which keeps the fill's cells, afresh, and refresh it
            # as a step's projection pass does
            opt.projections = ProjectionTable(*minima.shape)
            set_minima(opt.projections, minima)
            opt._projection_scores()
            asked.clear()
            random_fill = set()
            start["state"] = opt.rng.bit_generator.state
            batch = opt.select_batch(lambda: scores)
            line_tier = {t for t, first in asked if first}
            for t in batch:
                d = opt.lines.moved_dim(t)
                before = list(group.outcomes)
                opt.history.evaluate(t)
                if d is None or "mean" not in profile:
                    assert list(group.outcomes) == before
                elif t in line_tier:
                    mean = profile["mean"]
                    prediction = mean[t[d]] - mean[anchor[d]]
                    assert list(group.outcomes) == before + [(prediction,
                                                              opt.lines.levels[d, t[d]])]
                    line_moves += 1
                else:
                    assert list(group.outcomes) == before
                    fill_moves += 1
                    fill_tier_moves += t not in random_fill
        assert line_moves > 0 and fill_moves > 0 and fill_tier_moves > 0
        assert len(group.outcomes) < TRUST_WINDOW     # none has been pushed out


class TestLineTableReuse:
    @staticmethod
    def _check_every_selection(opt, steps):
        """Kept line tables equal freshly derived ones at every selection.

        Returns how many selections reused the kept tables and how many
        derived them.
        """
        counts = {"reused": 0, "derived": 0}
        line_tables = opt._line_tables

        def checked():
            before = opt._line_tables_kept
            kept = line_tables()
            counts["reused" if kept is before else "derived"] += 1
            fresh = opt._derive_line_tables()
            for a, b in zip(kept.posterior, fresh.posterior, strict=True):
                assert np.array_equal(a, b, equal_nan=True)
            assert kept.merged == fresh.merged
            assert np.array_equal(kept.ei, fresh.ei)
            return kept

        opt._line_tables = checked
        for _ in range(steps):
            opt.step()
        return counts["reused"], counts["derived"]

    @pytest.mark.parametrize("dims,batch,n_init,steps", [(10, 1, 20, 280),
                                                         (200, 10, 50, 8)])
    def test_kept_tables_are_exact_on_ackley(self, dims, batch, n_init, steps):
        opt = ScoreOptimizer(space=ackley_space(dims), objective=ackley,
                             batch_size=batch, seed=0)
        opt.initialize(n_init)
        reused, derived = self._check_every_selection(opt, steps)
        assert reused + derived == steps and derived > 0

    def test_kept_tables_are_exact_on_sdm(self, datasheet):
        opt = ScoreOptimizer(space=sdm_space(datasheet),
                             objective=sdm_objective(datasheet), seed=0)
        opt.initialize(30)
        reused, derived = self._check_every_selection(opt, 60)
        assert reused + derived == 60 and derived > 0

    @staticmethod
    def _spy(opt):
        """Log of line-evidence writes and line posteriors, as they happen."""
        log = []
        for name in ("reset", "record", "reanchor"):
            def write(*args, _method=getattr(opt.lines, name), _name=name):
                log.append(_name)
                return _method(*args)
            setattr(opt.lines, name, write)
        line_posterior = opt._line_posterior

        def posterior():
            log.append("posterior")
            return line_posterior()
        opt._line_posterior = posterior
        return log

    def test_posterior_is_recomputed_once_per_write_and_never_without(self):
        opt = ScoreOptimizer(space=ackley_space(10), objective=ackley, seed=0)
        log = self._spy(opt)
        line_tables = opt._line_tables
        per_selection = []

        def selection():
            mark = len(log)
            out = line_tables()
            writes = [e for e in log[:mark] if e != "posterior"]
            computed = log[mark:].count("posterior")
            # this selection's own re-anchoring comes before its posterior
            writes += [e for e in log[mark:] if e == "reanchor"]
            per_selection.append((writes, computed))
            log.clear()
            return out

        opt._line_tables = selection
        opt.initialize(20)
        while opt.history.n_evaluations < 300:
            opt.step()
        assert per_selection[0][0][0] == "reset"
        for writes, computed in per_selection:
            assert computed == (1 if writes else 0), (writes, computed)
        reused = sum(not writes for writes, _ in per_selection)
        assert 0 < reused < len(per_selection)
        assert opt.refinement_fit_count == 10 * (len(per_selection) - reused)

    def test_record_and_reanchor_each_force_one_recomputation(self):
        opt = ScoreOptimizer(space=grid_space(9, 9, 9),
                             objective=lambda p: float(np.sum(p)), seed=0)
        log = self._spy(opt)
        scores = np.zeros((3, 9))

        def posteriors_of_a_selection():
            log.clear()
            opt.select_batch(lambda: scores)
            return log.count("posterior")

        opt.history.evaluate((4, 4, 4))
        assert posteriors_of_a_selection() == 1
        assert posteriors_of_a_selection() == 0
        opt.history.evaluate((4, 4, 8))           # worse line move: record only
        assert posteriors_of_a_selection() == 1
        assert posteriors_of_a_selection() == 0
        opt.history.evaluate((2, 2, 4))           # better, two coordinates: reanchor only
        log.clear()
        opt.select_batch(lambda: scores)
        assert log == ["reanchor", "posterior"]
        assert posteriors_of_a_selection() == 0

    def test_kept_arrays_are_read_only(self):
        space = grid_space(21, 21, 21, 21)
        opt = ScoreOptimizer(space=space, objective=lambda p: float(np.sum(p ** 2)),
                             batch_size=4, seed=0)
        opt.initialize(8)
        for _ in range(6):
            opt.step()
        kept = opt._line_tables()
        assert not np.isnan(kept.posterior[5]).all()    # a shared profile's changes
        for array in (*kept.posterior, kept.ei):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


class TestFullLoop:
    def test_batch_accounting_b10(self):
        opt = ScoreOptimizer(space=ackley_space(10), objective=ackley,
                             batch_size=10, seed=0)
        opt.initialize(20)
        for _ in range(10):
            opt.step()
        assert opt.history.n_evaluations == 120     # 20 init + 10 batches of 10
        assert opt.gp_fit_count == 10 * 10  # one fit per dimension per iteration

    def test_b1_evaluations_equal_iterations(self):
        opt = ScoreOptimizer(space=ackley_space(5), objective=ackley, seed=1)
        opt.initialize(10)
        for _ in range(25):
            opt.step()
        assert opt.history.n_evaluations == 10 + 25
        assert opt.gp_fit_count == 25 * 5

    def test_determinism_under_fixed_seed(self):
        def run():
            opt = ScoreOptimizer(space=ackley_space(5), objective=ackley,
                                 batch_size=3, seed=3)
            opt.initialize(10)
            for _ in range(15):
                opt.step()
            return [(r.indices, r.value) for r in opt.history.records]
        assert run() == run()

    def test_no_combination_evaluated_twice(self):
        opt = ScoreOptimizer(space=ackley_space(4), objective=ackley,
                             batch_size=2, seed=7)
        opt.initialize(8)
        for _ in range(30):
            opt.step()
        indices = [r.indices for r in opt.history.records]
        assert len(indices) == len(set(indices))

    def test_best_so_far_nonincreasing(self):
        opt = ScoreOptimizer(space=ackley_space(3), objective=ackley, seed=2)
        opt.initialize(6)
        bests = [opt.history.best.value]
        for _ in range(40):
            opt.step()
            bests.append(opt.history.best.value)
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_max_batch_caps_evaluations(self):
        opt = ScoreOptimizer(space=ackley_space(5), objective=ackley,
                             batch_size=10, seed=0)
        opt.initialize(10)
        result = opt.step(max_batch=3)
        assert len(result.batch) <= 3
        assert opt.history.n_evaluations <= 13

    def test_small_space_runs_to_exhaustion(self):
        space = grid_space(2, 2)
        opt = ScoreOptimizer(space=space, objective=lambda p: float(sum(p)),
                             seed=0)
        opt.initialize(1)
        for _ in range(3):
            opt.step()
        assert opt.history.n_evaluations == 4
        with pytest.raises(SpaceExhausted):
            opt.step()

    def test_nonfinite_objective_values_are_dropped_not_fatal(self):
        space = ackley_space(2, points=9)

        def sometimes_nan(point):
            value = ackley(point)
            return float("nan") if value > 10.0 else value

        opt = ScoreOptimizer(space=space, objective=sometimes_nan, seed=0)
        opt.initialize(6)
        for _ in range(20):
            opt.step()
        assert opt.history.n_rejected > 0
        assert opt.history.n_evaluations == len(opt.history) + opt.history.n_rejected
        assert np.isfinite(opt.history.best.value)

    def test_2d_ackley_convergence_smoke(self):
        opt = ScoreOptimizer(space=ackley_space(2), objective=ackley, seed=0)
        opt.initialize(4)
        while opt.history.n_evaluations < 80:
            opt.step()
        assert opt.history.best.value < 1.0

    def test_refinement_fits_are_counted_separately(self):
        opt = ScoreOptimizer(space=ackley_space(3), objective=ackley, seed=0)
        opt.initialize(6)
        for _ in range(10):
            opt.step()
        assert opt.refinement_fit_count > 0
        assert opt.gp_fit_count == 10 * 3

    def test_step_time_is_linear_in_dims(self):
        # The method's cost is linear in D. Steps at D=50 and D=400 from
        # N=300 on are interleaved, so host drift hits both sizes alike. An
        # O(D^2) term that dominates the step would read up to 8.
        opts = {}
        for dims in (50, 400):
            opt = ScoreOptimizer(space=ackley_space(dims), objective=ackley,
                                 batch_size=10, seed=0)
            opt.initialize(250)
            while opt.history.n_evaluations < 300:
                opt.step()
            opts[dims] = opt
        per_dim = {dims: [] for dims in opts}
        for _ in range(10):
            for dims, opt in opts.items():
                t0 = time.perf_counter()
                opt.step()
                per_dim[dims].append((time.perf_counter() - t0) / dims)
        ratio = statistics.median(per_dim[400]) / statistics.median(per_dim[50])
        assert ratio <= 2.0, f"per-dimension step time D=400 / D=50 = {ratio:.2f}"

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ScoreOptimizer(space=ackley_space(2), objective=ackley,
                           batch_size=0)
        opt = ScoreOptimizer(space=ackley_space(2), objective=ackley)
        with pytest.raises(ValueError):
            opt.initialize(0)
