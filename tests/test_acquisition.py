"""Expected improvement against a Monte Carlo oracle, plus EI properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorebo.acquisition import score_grid

from oracles import antithetic_normals, ei_expression, mc_expected_improvement

_SAMPLES = antithetic_normals(np.random.default_rng(2024), 1_000_000)


class TestReferenceValues:
    def test_symmetric_case_equals_normal_pdf_at_zero(self):
        assert score_grid(0.0, 1.0, 0.0, 0.0) == pytest.approx(
            0.3989422804014327, abs=1e-12)

    def test_deterministic_improvement_limit(self):
        assert score_grid(0.0, 0.0, 0.5, 0.0) == 0.5
        assert score_grid(0.0, 1e-15, 0.5, 0.0) == 0.5
        assert score_grid(1.0, 0.0, 0.5, 0.0) == 0.0

    def test_monte_carlo_tagged_example(self):
        ei = score_grid(1.0, 2.0, 0.5, 0.1)
        samples = antithetic_normals(np.random.default_rng(7), 10_000_000)
        oracle = mc_expected_improvement(1.0, 2.0, 0.5, 0.1, samples)
        assert ei == pytest.approx(oracle, abs=2e-3)
        assert ei == pytest.approx(0.5335, abs=2e-3)

    def test_monte_carlo_random_tuples(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mean = float(rng.uniform(-2, 2))
            std = float(rng.uniform(0.0, 2.0))
            best = float(rng.uniform(-2, 2))
            zeta = float(rng.uniform(0.0, 0.5))
            ei = score_grid(mean, std, best, zeta)
            oracle = mc_expected_improvement(mean, std, best, zeta, _SAMPLES)
            assert ei == pytest.approx(oracle, abs=5e-3)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10, 10), st.floats(0, 10), st.floats(-10, 10),
           st.floats(0, 2))
    def test_lower_bounds(self, mean, std, best, zeta):
        ei = score_grid(mean, std, best, zeta)
        assert ei >= 0.0
        assert ei >= max(best - mean - zeta, 0.0) - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(1e-6, 10), st.floats(-5, 5),
           st.floats(0, 1), st.floats(-5, 5))
    def test_nonincreasing_in_mean(self, mean, std, best, zeta, bump):
        lo, hi = sorted((mean, mean + abs(bump)))
        assert (score_grid(hi, std, best, zeta)
                <= score_grid(lo, std, best, zeta) + 1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(1e-6, 5), st.floats(-5, 5),
           st.floats(0, 1), st.floats(0, 5))
    def test_nondecreasing_in_std(self, mean, std, best, zeta, bump):
        assert (score_grid(mean, std + bump, best, zeta)
                >= score_grid(mean, std, best, zeta) - 1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(0, 3), st.floats(-3, 3),
           st.floats(0, 1), st.floats(-3, 3))
    def test_translation_invariance(self, mean, std, best, zeta, c):
        a = score_grid(mean, std, best, zeta)
        b = score_grid(mean + c, std, best + c, zeta)
        assert a == pytest.approx(b, abs=1e-12)

    def test_argmax_invariant_under_positive_affine_rescaling(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            means = rng.normal(size=61)
            stds = rng.uniform(0.01, 2.0, 61)
            best = float(rng.normal())
            zeta = float(rng.uniform(0, 0.3))
            s = float(rng.uniform(0.1, 50.0))
            base = score_grid(means, stds, best, zeta)
            scaled = score_grid(s * means, s * stds, s * best, s * zeta)
            assert int(np.argmax(base)) == int(np.argmax(scaled))


class TestScoreGrid:
    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(17)
        means = rng.normal(size=61)
        stds = rng.uniform(0, 2, 61)
        scores = score_grid(means, stds, 0.3, 0.05)
        for i in range(61):
            assert scores[i] == score_grid(means[i], stds[i], 0.3, 0.05)

    def test_identical_posteriors_give_identical_scores(self):
        scores = score_grid(np.full(10, 0.5), np.full(10, 1.5), 0.2, 0.01)
        assert np.all(scores == scores[0])

    @pytest.mark.parametrize("shape", [(10, 61), (200, 61), (1000,)])
    def test_matches_the_expression_byte_for_byte(self, shape):
        # as the engine calls it: a 2-D table with one incumbent per row;
        # and a 1-D pool with one scalar incumbent, as the baseline does.
        # Stds span the degenerate threshold, exact zeros and wide tails.
        rng = np.random.default_rng(sum(shape))
        means = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
        stds = rng.uniform(0, 2, shape) * 10.0 ** rng.uniform(-14, 2, shape)
        flat = stds.reshape(-1)
        flat[::7] = 0.0
        flat[1::7] = 1e-12
        flat[2::7] = np.nextafter(1e-12, 0.0)
        best = rng.normal(size=(shape[0], 1)) if len(shape) == 2 else 0.3
        for zeta in (0.0, 0.01):
            scores = score_grid(means, stds, best, zeta)
            expected = ei_expression(means, stds, best, zeta)
            assert scores.shape == expected.shape
            assert scores.tobytes() == expected.tobytes()

    def test_zero_dimensional_input_gives_a_float(self):
        score = score_grid(np.float64(0.2), np.array(0.7), 0.5, 0.01)
        assert type(score) is float
        assert score == float(ei_expression(0.2, 0.7, 0.5, 0.01))

    def test_single_element_equals_scalar_call(self):
        assert score_grid([0.1], [0.9], 0.4, 0.0)[0] == \
            score_grid(0.1, 0.9, 0.4, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            score_grid([], [], 0.0)
        with pytest.raises(ValueError):
            score_grid([0.0, 1.0], [1.0], 0.0)
