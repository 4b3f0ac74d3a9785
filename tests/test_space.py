"""Grid construction, search-space indexing and history bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebo.engine import ScoreOptimizer
from scorebo.errors import ConfigurationError
from scorebo.space import History, ParameterGrid, SearchSpace, make_grid


def small_space(*lengths):
    return SearchSpace(tuple(make_grid(0.0, 1.0, n, name=f"d{i}")
                             for i, n in enumerate(lengths)))


class TestMakeGrid:
    def test_ackley_mesh_includes_zero_exactly(self):
        g = make_grid(-5.0, 10.0, 61, "linear")
        assert len(g) == 61
        steps = np.diff(g.values)
        assert np.allclose(steps, 0.25)
        assert g.values[20] == 0.0

    def test_two_point_linear_grid_is_endpoints(self):
        g = make_grid(0.0, 1.0, 2, "linear")
        assert list(g.values) == [0.0, 1.0]

    def test_log_grid_hits_exact_decades(self):
        g = make_grid(1e-12, 1e-6, 7, "log")
        assert list(g.values) == [1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]

    @pytest.mark.parametrize("lo,hi,count,scale", [
        (1.0, 1.0, 5, "linear"),      # lo == hi
        (2.0, 1.0, 5, "linear"),      # reversed bounds
        (0.0, 1.0, 1, "linear"),      # too few points
        (0.0, 1.0, 5, "log"),         # log needs lo > 0
        (-1.0, 1.0, 5, "log"),
        (float("nan"), 1.0, 5, "linear"),
        (0.0, float("inf"), 5, "linear"),
    ])
    def test_invalid_arguments_raise_configuration_error(self, lo, hi, count, scale):
        with pytest.raises(ConfigurationError):
            make_grid(lo, hi, count, scale)

    def test_error_message_names_the_parameter(self):
        with pytest.raises(ConfigurationError, match="r_sh"):
            make_grid(5.0, 1.0, 10, "linear", name="r_sh")


class TestParameterGrid:
    def test_rejects_nonincreasing_values(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid(name="x", values=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            ParameterGrid(name="x", values=np.array([0.0, 2.0, 1.0]))

    def test_rejects_single_value_and_nonfinite(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid(name="x", values=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            ParameterGrid(name="x", values=np.array([0.0, np.inf]))


class TestSearchSpace:
    def test_combination_count_is_exact_python_int(self):
        space = SearchSpace(tuple(make_grid(-5, 10, 61, name=f"x{d}")
                                  for d in range(200)))
        assert space.combination_count == 61**200

    def test_point_and_nearest_indices_round_trip(self):
        space = small_space(5, 7, 3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx = tuple(int(rng.integers(len(g))) for g in space.grids)
            assert space.nearest_indices(space.point(idx)) == idx

    def test_validate_indices_bounds(self):
        space = small_space(5, 7)
        assert space.validate_indices((0, 6)) == (0, 6)
        with pytest.raises(ConfigurationError):
            space.validate_indices((0, 7))
        with pytest.raises(ConfigurationError):
            space.validate_indices((-1, 0))
        with pytest.raises(ConfigurationError):
            space.validate_indices((0,))

    def test_validate_indices_names_the_first_bad_dimension(self):
        space = small_space(5, 7, 3)
        with pytest.raises(ConfigurationError,
                           match=r"^d1: index 7 out of range \[0, 6\] \(dim 1\)$"):
            space.validate_indices((0, 7, -1))
        assert space.validate_indices(np.array([4, 0, 2])) == (4, 0, 2)

    def test_requires_at_least_one_dimension(self):
        with pytest.raises(ConfigurationError):
            SearchSpace(())


class TestHistory:
    @pytest.mark.parametrize("name, value", [
        ("records", []), ("evaluated", set()), ("best_index", 0), ("n_rejected", 0)],
        ids=["records", "evaluated", "best_index", "n_rejected"])
    def test_kept_state_is_not_a_constructor_argument(self, name, value):
        # only record_evaluation writes them, so a history never starts
        # from records it did not check
        with pytest.raises(TypeError):
            History(small_space(4, 4), **{name: value})

    def test_first_record_is_best(self):
        h = History(small_space(4, 4))
        h.record_evaluation((0, 0), 5.0)
        assert h.best.value == 5.0
        assert h.best.eval_id == 0

    def test_tie_keeps_earlier_record(self):
        h = History(small_space(4, 4))
        h.record_evaluation((0, 0), 4.0)
        h.record_evaluation((1, 1), 4.0)
        assert h.best.eval_id == 0

    def test_strict_improvement_moves_best(self):
        h = History(small_space(4, 4))
        h.record_evaluation((0, 0), 4.0)
        h.record_evaluation((1, 1), 3.9)
        assert h.best.eval_id == 1
        assert h.best.value == 3.9

    def test_nonfinite_values_rejected_and_counted(self):
        h = History(small_space(4, 4))
        assert h.record_evaluation((0, 0), float("nan")) is None
        assert h.record_evaluation((0, 1), float("inf")) is None
        assert len(h) == 0
        assert h.n_rejected == 2
        h.record_evaluation((1, 1), 1.0)
        assert h.best.value == 1.0

    def test_objective_sees_exact_grid_values(self):
        space = small_space(5, 9)
        seen = []
        h = History(space, objective=lambda point: seen.append(point) or 0.5)
        h.evaluate((2, 7))
        assert seen[0].tolist() == [space.grids[0].values[2],
                                    space.grids[1].values[7]]

    @pytest.mark.parametrize("indices", [(-1, 0), (3, 0), (0, 0, 0), (0, 5), (0,)],
                             ids=["negative", "past-dim-0", "too-many", "past-dim-1",
                                  "too-few"])
    def test_evaluate_checks_indices_before_the_objective(self, indices):
        space = small_space(3, 5)
        seen = []
        h = History(space, objective=lambda point: seen.append(point) or 0.5)
        h.evaluate((1, 1))
        with pytest.raises(ConfigurationError) as expected:
            space.validate_indices(indices)
        with pytest.raises(ConfigurationError) as raised:
            h.evaluate(indices)
        assert str(raised.value) == str(expected.value)
        assert len(seen) == 1
        assert h.evaluated == {(1, 1)} and h.n_rejected == 0

    def test_eval_ids_contiguous_from_zero(self):
        h = History(small_space(6, 6))
        for i in range(5):
            h.record_evaluation((i, i), float(i))
        assert [r.eval_id for r in h.records] == list(range(5))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.floats(-100, 100)), min_size=1, max_size=60))
    def test_best_equals_min_over_all_records(self, entries):
        h = History(small_space(6, 6))
        for i, j, v in entries:
            h.record_evaluation((i, j), v)
        assert h.best.value == min(r.value for r in h.records)
        first_min = min(range(len(h.records)), key=lambda k: h.records[k].value)
        assert h.best_index == first_min


BAD_TUPLES = [(-1, 0), (3, 0), (0, 0, 0), (0, 5), (0,), (2**70, 0)]
BAD_IDS = ["negative", "past-dim-0", "too-many", "past-dim-1", "too-few", "huge"]


class TestEvaluateBatch:
    """A batch is checked as one block, then evaluated tuple by tuple."""

    @pytest.mark.parametrize("bad", BAD_TUPLES, ids=BAD_IDS)
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_bad_tuple_at_k_raises_before_any_call(self, bad, k):
        space = small_space(3, 5)
        seen = []
        h = History(space, objective=lambda point: seen.append(point) or 0.5)
        h.evaluate((1, 1))
        batch = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
        batch[k] = bad
        if k < 4:
            batch[4] = (9, 9)                  # a later bad tuple is not the one named
        with pytest.raises(ConfigurationError) as expected:
            space.validate_indices(bad)
        with pytest.raises(ConfigurationError) as raised:
            h.evaluate_batch(batch)
        assert str(raised.value) == str(expected.value)
        assert len(seen) == 1
        assert h.evaluated == {(1, 1)} and h.n_rejected == 0 and len(h) == 1

    def test_array_block_is_evaluated_as_its_tuples(self):
        space = small_space(3, 5)
        block = np.array([[2, 4], [0, 1], [1, 3]])
        seen, kept = [], []
        h = History(space, objective=lambda point: seen.append(point) or float(point.sum()),
                    on_record=lambda records, rows: kept.append((records, rows)))
        records = h.evaluate_batch(block)
        assert [r.indices for r in records] == [(2, 4), (0, 1), (1, 3)]
        assert all(type(i) is int for r in records for i in r.indices)
        assert [p.tolist() for p in seen] == [space.point(t).tolist() for t in block.tolist()]
        [(stored, rows)] = kept
        assert stored == records and rows.tolist() == block.tolist()

    def test_non_finite_values_mid_batch_are_counted_not_stored(self):
        space = small_space(4, 4)
        values = iter([3.0, math.nan, 2.0, math.inf, 0.5])
        kept = []
        h = History(space, objective=lambda point: next(values),
                    on_record=lambda records, rows: kept.append((records, rows)))
        batch = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3)]
        records = h.evaluate_batch(batch)
        assert [r is None for r in records] == [False, True, False, True, False]
        assert h.n_rejected == 2 and h.n_evaluations == 5
        assert [(r.indices, r.value, r.eval_id) for r in h.records] == [
            ((0, 0), 3.0, 0), ((2, 2), 2.0, 1), ((0, 3), 0.5, 2)]
        assert h.evaluated == set(batch)
        assert h.best.value == 0.5
        [(stored, rows)] = kept                 # once, with the stored rows only
        assert stored == h.records
        assert rows.tolist() == [[0, 0], [2, 2], [0, 3]]

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_objective_error_at_call_k_keeps_earlier_records_absorbed(self, k):
        # the first record anchors the line evidence and the next two are
        # line moves, so each absorbed record leaves a level
        space = small_space(5, 5, 5)
        batch = [(2, 2, 2), (2, 2, 4), (0, 2, 2), (1, 1, 1)]

        def value(point):
            return float(np.sum(point ** 2))

        def objective(point):
            calls.append(point)
            if len(calls) == k + 1:
                raise RuntimeError("objective failed")
            return value(point)

        calls = []
        opt = ScoreOptimizer(space=space, objective=objective)
        with pytest.raises(RuntimeError):
            opt.history.evaluate_batch(batch)
        assert [r.indices for r in opt.history.records] == batch[:k]
        assert opt.history.evaluated == set(batch[:k])

        # the same records evaluated one at a time, with no error
        ref = ScoreOptimizer(space=space, objective=value)
        for t in batch[:k]:
            ref.history.evaluate(t)
        for name in ("minima", "mask", "counts"):
            assert getattr(opt.projections, name).tobytes() == \
                getattr(ref.projections, name).tobytes()
        assert opt.lines.levels.tobytes() == ref.lines.levels.tobytes()
        assert opt.lines.anchor == ref.lines.anchor
        assert opt.lines.version == ref.lines.version == k
