"""Classical joint-GP BO baseline: contracts and the 2D sanity floor."""

import numpy as np
import pytest

from scorebo.baseline import BoOptimizer
from scorebo.errors import SpaceExhausted
from scorebo.problems import ackley, ackley_space
from scorebo.space import SearchSpace, make_grid


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
        calls = {"n": 0}

        def flaky(point):
            calls["n"] += 1
            return float("nan") if calls["n"] % 7 == 0 else ackley(point)

        opt = BoOptimizer(space=ackley_space(2), objective=flaky, seed=0)
        opt.initialize(10)
        for _ in range(10):
            opt.step()
        assert opt.history.n_rejected > 0
        assert opt.history.n_evaluations == len(opt.history) + opt.history.n_rejected


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
