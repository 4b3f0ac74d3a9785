"""Grid construction, search-space indexing and history bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
