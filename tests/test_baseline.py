"""Classical joint-GP BO baseline: contracts and the 2D sanity floor."""

import tracemalloc

import numpy as np
import pytest

from scorebo import baseline
from scorebo.baseline import BoOptimizer
from scorebo.errors import SpaceExhausted
from scorebo.gp import GpModel
from scorebo.problems import ackley, ackley_space
from scorebo.sampling import ENUMERATION_LIMIT
from scorebo.space import SearchSpace, make_grid

from oracles import full_solve_predict


def nan_every(k):
    """Ackley, except that every k-th call returns NaN."""
    calls = {"n": 0}

    def objective(point):
        calls["n"] += 1
        return float("nan") if calls["n"] % k == 0 else ackley(point)

    return objective


def rescale(opt, index_tuples):
    """The former ``BoOptimizer._rescale``: index tuples to [0, 1] rows."""
    return np.asarray(index_tuples, dtype=float) / opt._scale


class TestContracts:
    def test_single_record_smoke(self):
        opt = BoOptimizer(space=ackley_space(2), objective=ackley, seed=0)
        opt.initialize(1)
        opt.step()
        assert len(opt.history) == 2
        assert opt.gp_fit_count == 1

    def test_step_before_initialize_raises(self):
        opt = BoOptimizer(space=ackley_space(2), objective=ackley)
        with pytest.raises(ValueError):
            opt.step()

    def test_determinism_under_fixed_seed(self):
        def run():
            opt = BoOptimizer(space=ackley_space(3), objective=ackley, seed=4)
            opt.initialize(6)
            for _ in range(20):
                opt.step()
            return [(r.indices, r.value) for r in opt.history.records]
        assert run() == run()

    def test_suggestions_never_repeat(self):
        opt = BoOptimizer(space=ackley_space(2), objective=ackley, seed=1)
        opt.initialize(4)
        for _ in range(40):
            opt.step()
        indices = [r.indices for r in opt.history.records]
        assert len(indices) == len(set(indices))

    def test_best_so_far_nonincreasing(self):
        opt = BoOptimizer(space=ackley_space(2), objective=ackley, seed=2)
        opt.initialize(4)
        bests = [opt.history.best.value]
        for _ in range(30):
            opt.step()
            bests.append(opt.history.best.value)
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_exhausts_small_space(self):
        space = SearchSpace((make_grid(0, 1, 2, name="a"),
                             make_grid(0, 1, 2, name="b")))
        opt = BoOptimizer(space=space, objective=lambda p: float(sum(p)),
                          seed=0)
        opt.initialize(1)
        for _ in range(3):
            opt.step()
        assert len(opt.history) == 4
        with pytest.raises(SpaceExhausted):
            opt.step()

    def test_incumbent_neighbors_enter_the_pool(self):
        opt = BoOptimizer(space=ackley_space(2), objective=ackley, seed=3)
        opt.initialize(4)
        neighbors = opt._incumbent_neighbors()
        best = opt.history.best.indices
        for t in neighbors:
            assert t not in opt.history.evaluated
            assert sum(abs(a - b) for a, b in zip(t, best)) == 1

    def test_rejected_values_counted(self):
        opt = BoOptimizer(space=ackley_space(2), objective=nan_every(7), seed=0)
        opt.initialize(10)
        for _ in range(10):
            opt.step()
        assert opt.history.n_rejected > 0
        assert opt.history.n_evaluations == len(opt.history) + opt.history.n_rejected


class TestStepInputs:
    """The GP's inputs at each step: what lets the step skip work."""

    @pytest.mark.parametrize("dims", [2, 10])
    def test_pool_holds_no_evaluated_tuple(self, dims, monkeypatch):
        # 2 dimensions: an enumerated pool; 10: a rejection-sampled one
        space = ackley_space(dims)
        assert (space.combination_count <= ENUMERATION_LIMIT) == (dims == 2)
        opt = BoOptimizer(space=space, objective=nan_every(5), seed=dims)
        predict, pools = GpModel.predict, []

        def checked(model, query, standardized=False, **kwargs):
            assert kwargs.keys() == {"work"}
            pool = set(map(tuple, np.rint(query * opt._scale).astype(int).tolist()))
            assert len(pool) == len(query)
            assert not pool & opt.history.evaluated
            allocating = predict(model, query, standardized)
            in_work_area = predict(model, query, standardized, **kwargs)
            for a, b in zip(allocating, in_work_area):
                assert a.tobytes() == b.tobytes()
            pools.append(len(query))
            return in_work_area

        monkeypatch.setattr(GpModel, "predict", checked)
        opt.initialize(2 * dims)
        for _ in range(30):
            opt.step()
        assert len(pools) == 30
        assert opt.history.n_rejected > 0

    @pytest.mark.parametrize("dims", [2, 10])
    def test_pool_rows_are_the_rescaled_candidate_tuples(self, dims, monkeypatch):
        # the former pool: the drawn tuples as a list, the incumbent's
        # neighbors not drawn appended, rescaled from the tuples; the
        # evaluated tuple is the one at the best score
        opt = BoOptimizer(space=ackley_space(dims), objective=nan_every(5), seed=dims)
        draw, predict, score = baseline.draw_unevaluated, GpModel.predict, baseline.score_grid
        evaluate = opt.history.evaluate
        steps = {"draws": [], "pools": [], "scores": [], "choices": [], "deduped": 0}

        def spy_draw(*args):
            block = draw(*args)
            steps["draws"].append(list(map(tuple, block.tolist())))
            return block

        def spy_predict(model, query, *args, **kwargs):
            candidates = steps["draws"][-1]
            drawn, neighbors = set(candidates), opt._incumbent_neighbors()
            candidates = candidates + [t for t in neighbors if t not in drawn]
            steps["deduped"] += sum(t in drawn for t in neighbors)
            expected = rescale(opt, candidates)
            assert query.shape == expected.shape
            assert query.tobytes() == expected.tobytes()
            steps["pools"].append(candidates)
            return predict(model, query, *args, **kwargs)

        def spy_score(*args):
            steps["scores"].append(score(*args))
            return steps["scores"][-1]

        def spy_evaluate(indices):
            steps["choices"].append(indices)
            return evaluate(indices)

        monkeypatch.setattr(baseline, "draw_unevaluated", spy_draw)
        monkeypatch.setattr(GpModel, "predict", spy_predict)
        monkeypatch.setattr(baseline, "score_grid", spy_score)
        opt.initialize(2 * dims)
        monkeypatch.setattr(opt.history, "evaluate", spy_evaluate)
        for _ in range(30):
            opt.step()

        assert len(steps["pools"]) == len(steps["choices"]) == 30
        for pool, scores, choice in zip(steps["pools"], steps["scores"], steps["choices"]):
            assert choice == pool[int(np.argmax(scores))]
            assert all(type(i) is int for i in choice)
        assert any(len(p) > len(d) for p, d in zip(steps["pools"], steps["draws"]))
        # an enumerated pool of 1 000 of 3 721 tuples draws some neighbors
        assert (steps["deduped"] > 0) == (dims == 2)
        assert opt.history.n_rejected > 0

    def test_predict_solves_fewer_columns_than_the_pool(self, monkeypatch):
        # at lengthscale 0.08 on [0, 1]^10 most pool tuples are too far from
        # every evaluated one for the solve to change their variance; the
        # run that solves every column evaluates the same tuples
        import scipy.linalg
        solve, predict = scipy.linalg.solve_triangular, GpModel.predict
        pools, solved = [], []

        def spy_solve(a, b, *args, **kwargs):
            if b.ndim == 2:   # the fit solves for one vector
                solved.append(b.shape[1])
            return solve(a, b, *args, **kwargs)

        def spy_predict(model, query, *args, **kwargs):
            pools.append(len(query))
            return predict(model, query, *args, **kwargs)

        def run():
            opt = BoOptimizer(space=ackley_space(10), objective=ackley, seed=3)
            opt.initialize(20)
            for _ in range(80):
                opt.step()
            return [(r.indices, r.value) for r in opt.history.records]

        monkeypatch.setattr(scipy.linalg, "solve_triangular", spy_solve)
        monkeypatch.setattr(GpModel, "predict", spy_predict)
        cut = run()
        monkeypatch.undo()
        monkeypatch.setattr(GpModel, "predict", full_solve_predict)
        assert run() == cut
        assert len(solved) == len(pools) == 80
        assert sum(s < p for s, p in zip(solved, pools)) > 60

    def test_training_rows_follow_the_stored_records(self):
        opt = BoOptimizer(space=ackley_space(2), objective=nan_every(6), seed=5)
        opt.initialize(4)
        while len(opt.history) <= 2 * baseline.TRAIN_ROWS:   # grows twice
            opt.step()
            records = opt.history.records
            n = len(records)
            assert np.array_equal(opt._train_inputs[:n],
                                  rescale(opt, [r.indices for r in records]))
            assert opt._train_targets[:n].tolist() == [r.value for r in records]
        assert opt.history.n_rejected > 0
        assert len(opt._train_targets) > 2 * baseline.TRAIN_ROWS


class TestKernelWorkArea:
    """The step's predict writes the pool kernel into the optimizer's buffers."""

    def test_predicts_equal_allocating_ones_across_growths(self, monkeypatch):
        # 300 evaluations grow the training rows, and the work area with
        # them, at 64, 128 and 256 rows; the pool's width varies with the
        # incumbent's neighbors
        opt = BoOptimizer(space=ackley_space(10), objective=ackley, seed=3)
        predict, widths, areas = GpModel.predict, set(), set()

        def checked(model, query, *args, work=None, **kwargs):
            assert work is opt._kernel_work
            kept = predict(model, query, *args, work=work, **kwargs)
            fresh = predict(model, query, *args, **kwargs)
            for got, expected in zip(kept, fresh):
                assert got.tobytes() == expected.tobytes()
                assert not any(np.shares_memory(got, w) for w in work)
            widths.add(len(query))
            areas.add(len(work[0]))
            return kept

        monkeypatch.setattr(GpModel, "predict", checked)
        opt.initialize(20)
        while opt.history.n_evaluations < 300:
            opt.step()
        assert len(areas) == 4 and len(widths) > 1

    def test_step_allocates_less_than_one_pool_kernel(self):
        # the (N, pool) kernel and its GEMM product live in the work area,
        # so what a step allocates anew (the fit's (N, N) arrays, the pool
        # and the solved block) stays under one (N, pool) float64 array
        opt = BoOptimizer(space=ackley_space(10), objective=ackley, seed=3)
        opt.initialize(20)
        while len(opt.history) < 200:
            opt.step()
        ratios = []
        tracemalloc.start()
        try:
            for _ in range(10):     # no growth: the work area holds 256 rows
                kernel_bytes = len(opt.history) * baseline.CANDIDATE_POOL_SIZE * 8
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                opt.step()
                ratios.append((tracemalloc.get_traced_memory()[1] - before) / kernel_bytes)
        finally:
            tracemalloc.stop()
        assert max(ratios) < 1.0, ratios


class TestSanityFloor:
    def test_2d_ackley_under_one_within_100_evals_for_most_seeds(self):
        hits = 0
        for seed in range(10):
            opt = BoOptimizer(space=ackley_space(2), objective=ackley,
                              seed=seed)
            opt.initialize(4)
            while opt.history.n_evaluations < 100:
                opt.step()
            if opt.history.best.value < 1.0:
                hits += 1
        assert hits >= 7, f"only {hits}/10 seeds reached best < 1.0"
