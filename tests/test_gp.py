"""GP regression against a dense-inversion oracle, plus contract properties."""

import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import scorebo.gp as gp_mod
from scorebo import baseline, engine
from scorebo.errors import SurrogateError
from scorebo.gp import KernelConfig, gp_fit, kernel_matrix
from scorebo.problems import ackley, ackley_space

from oracles import (dense_gp_predict, dense_noisy_posterior, full_solve_predict,
                     se_kernel_expression)


def random_dataset(rng, max_points=20, noise_lo=1e-4, noise_hi=1e-1):
    n = int(rng.integers(2, max_points + 1))
    x = np.sort(rng.uniform(0.0, 60.0, n))
    y = rng.normal(0.0, 3.0, n)
    cfg = KernelConfig(lengthscale=float(rng.uniform(1.0, 10.0)),
                       noise_variance=float(rng.uniform(noise_lo, noise_hi)))
    return x, y, cfg


class TestDenseOracle:
    def test_matches_dense_inversion_on_random_datasets(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x, y, cfg = random_dataset(rng)
            query = np.concatenate([x[:3], rng.uniform(-5.0, 65.0, 20)])
            model = gp_fit(x[:, None], y, cfg)
            mean, std = model.predict(query[:, None])
            o_mean, o_std = dense_gp_predict(
                x, y, query, cfg.lengthscale, 1.0, cfg.noise_variance, cfg.jitter)
            np.testing.assert_allclose(mean, o_mean, atol=1e-8, rtol=0)
            np.testing.assert_allclose(std, o_std, atol=1e-8, rtol=0)

    def test_three_pairs_match_explicit_inverse(self):
        x = np.array([0.0, 2.0, 5.0])
        y = np.array([1.0, -0.5, 0.25])
        cfg = KernelConfig(lengthscale=2.0, noise_variance=1e-3)
        model = gp_fit(x[:, None], y, cfg)
        query = np.linspace(-1.0, 6.0, 15)
        mean, std = model.predict(query[:, None])
        o_mean, o_std = dense_gp_predict(x, y, query, cfg.lengthscale, 1.0,
                                         cfg.noise_variance, cfg.jitter)
        np.testing.assert_allclose(mean, o_mean, atol=1e-8, rtol=0)
        np.testing.assert_allclose(std, o_std, atol=1e-8, rtol=0)


def kernel_inputs():
    """(id, a, b, cfg): every kind of input the package passes the kernel."""
    rng = np.random.default_rng(11)
    joint = KernelConfig(lengthscale=baseline.JOINT_LENGTHSCALE)
    train = rng.integers(0, 61, size=(300, 10)) / 60.0
    pool = rng.integers(0, 61, size=(baseline.CANDIDATE_POOL_SIZE + 20, 10)) / 60.0
    steps = np.arange(61, dtype=float)[:, None]
    yield "bo-train-vs-pool", train, pool, joint
    yield "bo-self", train, train, joint          # numpy's symmetric product
    yield "bo-self-copy", train, train.copy(), joint
    yield "projection-steps", steps, steps, KernelConfig(
        lengthscale=engine.LENGTHSCALE_STEPS)
    yield "line-steps", steps, steps, KernelConfig(lengthscale=engine.LINE_LENGTHSCALE)
    for k in range(10):
        x, _, cfg = random_dataset(rng)
        query = rng.uniform(-5.0, 65.0, 20)[:, None]
        yield f"raw-1d-{k}", x[:, None], query, cfg
        yield f"raw-1d-self-{k}", x[:, None], x[:, None], cfg


KERNEL_CASES = list(kernel_inputs())


class TestKernelMatrix:
    @pytest.mark.parametrize("name, a, b, cfg", KERNEL_CASES,
                             ids=[case[0] for case in KERNEL_CASES])
    def test_bit_identical_to_the_array_expression(self, name, a, b, cfg):
        a_before, b_before = a.copy(), b.copy()
        k = kernel_matrix(a, b, cfg)
        assert np.array_equal(k, se_kernel_expression(a, b, cfg))
        assert not np.shares_memory(k, a) and not np.shares_memory(k, b)
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    @pytest.mark.parametrize("name, a, b, cfg", KERNEL_CASES,
                             ids=[case[0] for case in KERNEL_CASES])
    def test_work_area_gives_the_same_bytes(self, name, a, b, cfg):
        # a larger work area than the kernel needs, filled with NaN, as the
        # baseline's is larger and holds the previous step's values
        size = len(a) * len(b) + 7
        work = (np.full(size, np.nan), np.full(size, np.nan))
        k = kernel_matrix(a, b, cfg, work)
        assert k.tobytes() == kernel_matrix(a, b, cfg).tobytes()
        assert k.flags.c_contiguous and np.shares_memory(k, work[0])
        assert not np.shares_memory(k, a) and not np.shares_memory(k, b)


class TestInterpolation:
    def test_one_noiseless_pair_interpolates_exactly(self):
        cfg = KernelConfig(noise_variance=0.0)
        model = gp_fit([[0.0]], [1.0], cfg)
        mean, std = model.predict([[0.0]])
        assert mean[0] == pytest.approx(1.0, abs=1e-9)
        assert std[0] <= 1e-6

    def test_noiseless_training_targets_reproduced(self):
        cfg = KernelConfig(lengthscale=2.0, noise_variance=0.0)
        x = np.array([0.0, 3.0, 7.0, 12.0])
        y = np.array([4.0, -1.0, 0.5, 2.0])
        model = gp_fit(x[:, None], y, cfg)
        mean, std = model.predict(x[:, None])
        np.testing.assert_allclose(mean, y, atol=1e-6, rtol=0)
        assert np.all(std <= 1e-5)

    def test_prior_recovery_far_from_data(self):
        cfg = KernelConfig(lengthscale=2.0)
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([5.0, 7.0, 6.0])
        model = gp_fit(x[:, None], y, cfg)
        mean, std = model.predict([[500.0]])
        target_std = np.std(y)
        assert mean[0] == pytest.approx(np.mean(y), abs=1e-3)
        assert std[0] == pytest.approx(target_std, abs=1e-3)


class TestProperties:
    def test_batch_query_equals_single_queries(self):
        rng = np.random.default_rng(3)
        x, y, cfg = random_dataset(rng)
        model = gp_fit(x[:, None], y, cfg)
        query = np.linspace(0.0, 60.0, 61)
        mean_b, std_b = model.predict(query[:, None])
        for i, q in enumerate(query):
            mean_1, std_1 = model.predict([[q]])
            assert abs(mean_b[i] - mean_1[0]) <= 1e-12
            assert abs(std_b[i] - std_1[0]) <= 1e-12

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y, cfg = random_dataset(rng)
            model = gp_fit(x[:, None], y, cfg)
            _, std = model.predict(rng.uniform(-10.0, 70.0, 50)[:, None],
                                   standardized=True)
            bound = 1.0 + cfg.noise_variance + 10 * cfg.jitter
            assert np.all(std**2 <= bound + 1e-12)

    def test_duplicate_training_point_never_increases_std(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y, cfg = random_dataset(rng)
            i = int(rng.integers(len(x)))
            x2 = np.append(x, x[i])
            y2 = np.append(y, y[i])
            query = rng.uniform(-5.0, 65.0, 30)[:, None]
            # in standardized units the posterior std depends on the inputs
            # only, so the duplicate's shift of the standardization constants
            # does not enter
            _, std_before = gp_fit(x[:, None], y, cfg).predict(query, standardized=True)
            _, std_after = gp_fit(x2[:, None], y2, cfg).predict(query, standardized=True)
            assert np.all(std_after <= std_before + 1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-100, 100)),
                    min_size=1, max_size=15),
           st.floats(0.5, 10.0))
    def test_predictions_always_finite_with_nonnegative_std(self, pairs, ls):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        cfg = KernelConfig(lengthscale=ls, noise_variance=1e-4)
        try:
            model = gp_fit(x[:, None], y, cfg)
        except SurrogateError:
            return  # pathological conditioning is an allowed, signaled outcome
        mean, std = model.predict(np.linspace(-60, 60, 25)[:, None])
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert np.all(std >= 0.0)


class TestTrainingPointVariance:
    """Predict finds the queries equal to training inputs as the equality
    scan of ``full_solve_predict`` does, and gives its digits."""

    @staticmethod
    def assert_scan_bits(model, query, name=""):
        got = model.predict(query, standardized=True)
        want = full_solve_predict(model, query, standardized=True)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("dims", [1, 2, 10])
    def test_variance_matches_equality_scan_bit_for_bit(self, dims):
        rng = np.random.default_rng(dims)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 5, size=(n, dims)) / 4.0   # coarse grid: repeats
            x = np.vstack([x, x[rng.integers(n, size=3)]])  # duplicated inputs
            y = rng.normal(size=len(x))
            at_train = x[rng.integers(len(x), size=25)]     # repeated queries
            pools = {
                "mixed": np.vstack([at_train, rng.integers(0, 5, size=(25, dims)) / 4.0,
                                    -x[:2] * 0.0,           # -0.0 equals 0.0
                                    x[:2] + 2.0**-30]),     # near, not equal
                "all training": at_train,
                "no match": rng.integers(0, 5, size=(30, dims)) / 4.0 + 0.125,
            }
            # and the same pools on a grid up to 1e6, at lengthscale 1
            for scale, ls in [(1.0, 0.3), (1e6, 1.0)]:
                model = gp_fit(x * scale, y, KernelConfig(lengthscale=ls))
                for name, query in pools.items():
                    self.assert_scan_bits(model, query * scale, f"{name} x{scale:g}")
        if dims == 10:
            # as a BO step sees it: grid indices / 60 at the baseline's
            # lengthscale, a pool with the incumbent's grid neighbours (one
            # step off a training input) and some training rows themselves
            for n in (20, 150):
                x, y, pool = bo_like_data(rng, n)
                query = np.vstack([pool, x[rng.integers(n, size=5)]])
                cfg = KernelConfig(lengthscale=baseline.JOINT_LENGTHSCALE)
                self.assert_scan_bits(gp_fit(x, y, cfg), query[rng.permutation(len(query))])

    def test_duplicate_training_rows_keep_the_last_match(self):
        x = np.array([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        model = gp_fit(x, [1.0, 2.0, 3.0, 4.0, 5.0],
                       KernelConfig(lengthscale=0.4))
        query = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]])
        self.assert_scan_bits(model, query)


def bo_like_data(rng, n, dims=10):
    """n [0, 1]-scaled grid rows clustered as a BO run's, and a pool to score.

    Past 20 random rows, each row moves a few coordinates of an earlier one
    by a few grid steps; the pool is 1 000 random rows and the 20 grid
    neighbors of the last row.
    """
    x = rng.integers(0, 61, size=(n, dims))
    for i in range(min(n, 20), n):
        x[i] = x[rng.integers(i)]
        moved = rng.choice(dims, size=rng.integers(1, 4), replace=False)
        x[i, moved] = np.clip(x[i, moved] + rng.integers(-3, 4, len(moved)), 0, 60)
    neighbors = np.repeat(x[-1:], 2 * dims, axis=0)
    neighbors[np.arange(2 * dims), np.arange(2 * dims) // 2] += np.tile([-1, 1], dims)
    pool = np.vstack([rng.integers(0, 61, size=(1000, dims)), np.clip(neighbors, 0, 60)])
    return x / 60.0, rng.normal(size=n), pool / 60.0


def floor(model):
    """The |k|^2 below which predict leaves a query out of its solve."""
    return 2.0**-56 * (model.kernel.noise_variance + model._jitter)


def squared_norms(model, query):
    k = kernel_matrix(model.train_inputs, query, model.kernel)
    return np.sum(k * k, axis=0)


def near_floor(model):
    """1D queries past the data whose |k|^2 lies within 2^±8 of the floor."""
    top = float(np.max(model.train_inputs))
    query = top + np.linspace(0.0, 60.0 * model.kernel.lengthscale, 20_000)[:, None]
    with np.errstate(divide="ignore"):
        octaves = np.log2(squared_norms(model, query) / floor(model))
    return query[np.abs(octaves) <= 8.0]


# the kernel's prior variance, which is 1: the floor and the variance of a
# far query are in its units
SIGNALS = [1.0]


class TestFarColumns:
    """Predict solves only the queries near some training input, same bits.

    A query whose |k|^2 is below floor() keeps the prior variance: the
    full solve could not change it by a bit, since k^T K^-1 k is at most
    |k|^2 / (noise + jitter).
    """

    @staticmethod
    def solved_columns(model, query, monkeypatch):
        """Predict against the full solve bit for bit; the columns it solved."""
        solve, widths = scipy.linalg.solve_triangular, []

        def spy(a, b, *args, **kwargs):
            widths.append(b.shape[1])
            return solve(a, b, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "solve_triangular", spy)
            got = model.predict(query)
        want = full_solve_predict(model, query)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        near = np.count_nonzero(squared_norms(model, query) >= floor(model))
        # one near column is solved with a second, as a block; a later solve
        # is the one for queries equal to training inputs
        assert widths[0] == (2 if near == 1 < len(query) else near)
        return widths[0]

    @pytest.mark.parametrize("signal", SIGNALS)
    @pytest.mark.parametrize("n", [20, 60, 140, 300])
    def test_bo_like_pools_skip_most_columns(self, n, signal, monkeypatch):
        rng = np.random.default_rng(n)
        x, y, pool = bo_like_data(rng, n)
        query = np.vstack([pool, x[:3]])   # training inputs: stabilized, solved
        cfg = KernelConfig(lengthscale=baseline.JOINT_LENGTHSCALE)
        solved = self.solved_columns(gp_fit(x, y, cfg), query, monkeypatch)
        assert 3 <= solved < len(query) / 2

    @pytest.mark.parametrize("signal", SIGNALS)
    def test_every_column_near(self, signal, monkeypatch):
        x, y, pool = bo_like_data(np.random.default_rng(7), 100)
        model = gp_fit(x, y, KernelConfig(lengthscale=3.0))
        assert self.solved_columns(model, pool, monkeypatch) == len(pool)

    @pytest.mark.parametrize("signal", SIGNALS)
    def test_no_column_near_solves_an_empty_block(self, signal, monkeypatch):
        x, y, pool = bo_like_data(np.random.default_rng(8), 100)
        model = gp_fit(x, y, KernelConfig(lengthscale=baseline.JOINT_LENGTHSCALE))
        assert self.solved_columns(model, pool + 10.0, monkeypatch) == 0
        _, std = model.predict(pool + 10.0, standardized=True)
        assert np.all(std == np.sqrt(signal))

    @pytest.mark.parametrize("signal", SIGNALS)
    def test_one_near_column(self, signal, monkeypatch):
        # near several training inputs at once, where a one-column solve
        # mostly differs from the block solve in the last bit
        x, y, pool = bo_like_data(np.random.default_rng(11), 100)
        model = gp_fit(x, y, KernelConfig(lengthscale=0.3))
        for i, at in enumerate((0, 1, 500, 1020)):
            query = np.insert(pool + 10.0, at, x[i] + 0.01, axis=0)
            assert self.solved_columns(model, query, monkeypatch) == 2
        assert self.solved_columns(model, x[-1:] + 0.01, monkeypatch) == 1

    @pytest.mark.parametrize("signal", SIGNALS)
    @pytest.mark.parametrize("noise", [0.0, 1e-6, 1.0])
    def test_queries_within_2_to_the_8_of_the_floor(self, noise, signal, monkeypatch):
        # with noise 1 the bound is within a small factor of k^T K^-1 k, so
        # columns a few octaves above the floor already move the variance
        rng = np.random.default_rng(9)
        x = np.array([0.0, 2.0, 4.0, 7.0])
        model = gp_fit(x[:, None], rng.normal(size=4),
                       KernelConfig(lengthscale=3.0, noise_variance=noise))
        query = near_floor(model)
        solved = self.solved_columns(model, query, monkeypatch)
        assert 0 < solved < len(query)

    def test_escalated_jitter_sets_the_floor(self, monkeypatch):
        real_cholesky = np.linalg.cholesky

        def picky_cholesky(k):
            if k[0, 0] - 1.0 < 0.9e-3:  # reject until jitter reaches 1e-3
                raise np.linalg.LinAlgError("not positive definite")
            return real_cholesky(k)

        with monkeypatch.context() as m:
            m.setattr(gp_mod.np.linalg, "cholesky", picky_cholesky)
            model = gp_fit([[0.0], [2.0], [4.0], [7.0]], [0.5, -1.0, 0.25, 2.0],
                           KernelConfig(lengthscale=3.0, noise_variance=0.0))
        assert model._jitter > 1e-4
        query = near_floor(model)
        solved = self.solved_columns(model, query, monkeypatch)
        assert 0 < solved < len(query)
        # the configured jitter's floor would solve more of them
        configured = floor(model) * model.kernel.jitter / model._jitter
        assert solved < np.count_nonzero(squared_norms(model, query) >= configured)

    def test_a_column_subset_solves_as_in_the_full_solve(self):
        # the LAPACK property the rule relies on: the solve of two or more
        # columns of K* gives their columns of the full solve, and so do the
        # sums of their squares, for an F-ordered block as predict passes.
        # One column goes through BLAS's single-vector solve instead
        rng = np.random.default_rng(10)
        for n in (1, 2, 20, 300):
            x, y, pool = bo_like_data(rng, n)
            model = gp_fit(x, y, KernelConfig(lengthscale=0.5))
            k = kernel_matrix(model.train_inputs, pool, model.kernel)
            full = solve_triangular(model.chol, k, lower=True, check_finite=False)
            for width in (0, 2, 3, 8, 51, 510, 1019, 1020):
                near = np.zeros(len(pool), dtype=bool)
                near[rng.choice(len(pool), size=width, replace=False)] = True
                part = solve_triangular(model.chol, k.T[near].T, lower=True,
                                        check_finite=False)
                assert part.tobytes() == full[:, near].tobytes()
                assert (np.sum(part * part, axis=0).tobytes()
                        == np.sum(full * full, axis=0)[near].tobytes())


def dense_system(model):
    """The fitted system K + (noise + jitter) I, built with an identity matrix."""
    n = len(model.train_targets)
    j = model.kernel.noise_variance + model._jitter
    return kernel_matrix(model.train_inputs, model.train_inputs, model.kernel) + j * np.eye(n)


def fit_cases():
    """(x, y, cfg): the random 1D datasets and BO's [0, 1]-scaled 300 x 10 rows."""
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y, cfg = random_dataset(rng)
        yield x[:, None], y, cfg
    joint = KernelConfig(lengthscale=baseline.JOINT_LENGTHSCALE)
    for _ in range(3):
        yield rng.integers(0, 61, size=(300, 10)) / 60.0, rng.normal(size=300), joint


class TestCholeskyFit:
    """The fit's factor and weights against dense LAPACK references."""

    def test_alpha_solves_the_dense_system(self):
        eps = np.finfo(float).eps
        for x, y, cfg in fit_cases():
            model = gp_fit(x, y, cfg)
            k = dense_system(model)
            dense = np.linalg.solve(k, model.train_targets)
            # the forward-error bound of a backward-stable solve,
            # n * eps * cond(K), with a factor 10 of margin
            tol = 10 * len(k) * eps * np.linalg.cond(k)
            err = np.max(np.abs(model.alpha - dense)) / np.max(np.abs(dense))
            assert err <= tol, (len(k), err, tol)

    def test_chol_is_the_dense_systems_factor_bit_for_bit(self):
        for x, y, cfg in fit_cases():
            model = gp_fit(x, y, cfg)
            assert model.chol.tobytes() == np.linalg.cholesky(dense_system(model)).tobytes()

    def test_escalated_jitter_is_added_once_to_the_kernel_diagonal(self, monkeypatch):
        real_cholesky = np.linalg.cholesky
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.0, 60.0, 12), rng.normal(size=12)

        def picky_cholesky(k):
            if k[0, 0] - 1.0 < 1e-6:  # reject until jitter reaches 1e-6
                raise np.linalg.LinAlgError("not positive definite")
            return real_cholesky(k)

        monkeypatch.setattr(gp_mod.np.linalg, "cholesky", picky_cholesky)
        model = gp_fit(x[:, None], y, KernelConfig(noise_variance=0.0))
        monkeypatch.undo()
        assert model._jitter >= 1e-6
        assert model.chol.tobytes() == np.linalg.cholesky(dense_system(model)).tobytes()

    def test_bo_steps_need_no_dense_solve_or_inverse(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("dense solve or inverse called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        monkeypatch.setattr(np.linalg, "inv", refused)
        opt = baseline.BoOptimizer(space=ackley_space(10), objective=ackley, seed=0)
        opt.initialize(20)
        for _ in range(10):
            opt.step()
        assert opt.gp_fit_count == 10 and len(opt.history) == 30


def spy_inversions(monkeypatch):
    """The training-index count of each stack ``gp._inverse`` inverts, in call order."""
    inverted, inverse = [], gp_mod._inverse

    def spy(kern, idx, noise):
        inverted.append(idx.shape[1])
        return inverse(kern, idx, noise)

    monkeypatch.setattr(gp_mod, "_inverse", spy)
    return inverted


def line_stack(seed, ragged, full, grid=61, window=16):
    """Lines as the line posterior builds them, on a ``grid``-value grid.

    ``ragged`` lines of 1 to ``window`` points, then ``full`` lines of
    ``window``: distinct training indices, per-entry noise up to e^10 times
    the freshest (stale levels), and power-of-two widths in which a line
    with fewer points repeats its first one with noise 1e12 and target 0.
    Returns ``(kern, idx, noise, targets, widths, counts)``.
    """
    rng = np.random.default_rng(seed)
    steps = np.arange(grid, dtype=float)[:, None]
    kern = kernel_matrix(steps, steps, KernelConfig(lengthscale=engine.LINE_LENGTHSCALE))
    counts = np.concatenate([rng.integers(1, window + 1, ragged), np.full(full, window)])
    widths = 1 << np.ceil(np.log2(counts)).astype(int)
    idx = np.array([rng.permutation(grid)[:window] for _ in counts])
    noise = engine.LINE_NOISE * np.exp(engine.STALENESS_RATE * rng.uniform(0, 1, idx.shape))
    targets = rng.normal(0.0, 2.0, idx.shape)
    pad = np.arange(window) >= counts[:, None]
    idx[pad] = np.broadcast_to(idx[:, :1], idx.shape)[pad]
    noise[pad], targets[pad] = 1e12, 0.0
    return kern, idx, noise, targets, widths, counts


PARTS = ["bounded-stacks", "one-gp-per-call", "random-parts"]


def parts_of(how, widths, grid):
    """Row index arrays that hold every row once, to solve call by call.

    ``bounded-stacks`` takes the rows of each width in runs whose (rows, n,
    G) working set holds at most 16 * 61 * 61 cells, the bound at which
    stacks were once split; ``random-parts`` shuffles the rows into seven
    parts, each in shuffled order.
    """
    if how == "bounded-stacks":
        parts = []
        for n in sorted(set(widths.tolist())):
            rows = np.flatnonzero(widths == n)
            size = max(1, 16 * 61 * 61 // (n * grid))
            parts += [rows[lo:lo + size] for lo in range(0, len(rows), size)]
        assert len(parts) > len(set(widths.tolist()))     # some width is split
        return parts
    if how == "one-gp-per-call":
        return [np.array([r]) for r in range(len(widths))]
    return np.array_split(np.random.default_rng(0).permutation(len(widths)), 7)


class TestGridInverses:
    """The projection store keeps, by growth alone, what a fresh one computes."""

    @pytest.mark.parametrize("seed", range(3))
    def test_growth_one_cell_at_a_time_keeps_fresh_bits(self, seed):
        # Ragged masks on a 20-value grid grow one cell at a time until full,
        # each growth refreshed through the whole store.
        rng = np.random.default_rng(seed)
        gps, grid = 10, 20
        steps = np.arange(grid, dtype=float)[:, None]
        kern = kernel_matrix(steps, steps, KernelConfig(lengthscale=3.0))
        noise = 1e-6 + 1e-12
        lengths = rng.integers(2, grid + 1, gps)
        observed = np.zeros((gps, grid), dtype=bool)
        observed[np.arange(gps), rng.integers(0, lengths)] = True
        kept = gp_mod.GridInverses(gps, grid)
        kept.refresh(kern, observed, noise)
        while (free := np.argwhere(~observed & (np.arange(grid) < lengths[:, None]))).size:
            r, v = free[rng.integers(len(free))]
            observed[r, v] = True
            kept.refresh(kern, observed, noise)
            fresh = gp_mod.GridInverses(gps, grid)
            fresh.refresh(kern, observed, noise)
            assert kept.inverse.tobytes() == fresh.inverse.tobytes()
            assert kept.explained.tobytes() == fresh.explained.tobytes()
            assert np.array_equal(kept.count, observed.sum(axis=1))
            never = ~(observed[:, :, None] & observed[:, None, :])
            assert np.all(kept.inverse[never] == 0.0)
            assert not np.signbit(kept.inverse[never]).any()
            # and the block of the grown GP is its training kernel's inverse
            block = np.ix_(observed[r], observed[r])
            k_oo = kern[block] + noise * np.eye(observed[r].sum())
            assert kept.inverse[r][block].tobytes() == np.linalg.inv(k_oo).tobytes()


    @pytest.mark.parametrize("gps, grid, lo, hi, stacks", [
        (2, 300, 300, 300, 1), (200, 61, 30, 45, 16),
    ], ids=["2-gps-300-of-300", "200-gps-in-16-stacks"])
    def test_one_refresh_writes_each_gp_its_own_inverse(self, gps, grid, lo, hi, stacks,
                                                        monkeypatch):
        # Two GPs on all 300 values share one stack of 180 000 working-set
        # cells; 200 GPs with 30-45 of 61 values observed take one stack
        # per count. Every inverse is bitwise asymmetric, so a transposed
        # scatter fails too.
        inverted = spy_inversions(monkeypatch)
        rng = np.random.default_rng(0)
        steps = np.arange(grid, dtype=float)[:, None]
        kern = kernel_matrix(steps, steps, KernelConfig(lengthscale=3.0))
        noise = 1e-6
        observed = np.zeros((gps, grid), dtype=bool)
        for r, n in enumerate(rng.integers(lo, hi + 1, gps)):
            observed[r, rng.permutation(grid)[:n]] = True
        counts = observed.sum(axis=1)
        store = gp_mod.GridInverses(gps, grid)
        store.refresh(kern, observed, noise)
        assert sorted(inverted) == sorted(set(counts.tolist()))
        assert len(inverted) == stacks
        expected = np.zeros_like(store.inverse)      # +0.0 off every block
        for r in range(gps):
            block = np.ix_(observed[r], observed[r])
            k_inv = np.linalg.inv(kern[block] + noise * np.eye(counts[r]))
            assert not np.array_equal(k_inv, k_inv.T)
            expected[r][block] = k_inv
        assert store.inverse.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("how", PARTS)
    def test_one_refresh_equals_refreshes_in_parts(self, how):
        # 200 GPs on a 61-value grid, 100 of them on 40 values each, each
        # GP on values of its own: refreshed at once, each count is one
        # stack; in parts, each refresh inverts only the GPs its mask adds.
        # Both stores hold the same bytes.
        rng = np.random.default_rng(1)
        gps, grid, noise = 200, 61, 1e-6 + 1e-12
        steps = np.arange(grid, dtype=float)[:, None]
        kern = kernel_matrix(steps, steps, KernelConfig(lengthscale=engine.LENGTHSCALE_STEPS))
        counts = rng.permutation(np.concatenate([rng.integers(1, grid + 1, 100),
                                                 np.full(100, 40)]))
        observed = np.zeros((gps, grid), dtype=bool)
        for r, n in enumerate(counts):
            observed[r, rng.permutation(grid)[:n]] = True
        whole = gp_mod.GridInverses(gps, grid)
        whole.refresh(kern, observed, noise)
        store, mask = gp_mod.GridInverses(gps, grid), np.zeros_like(observed)
        for part in parts_of(how, counts, grid):
            mask[part] = observed[part]
            store.refresh(kern, mask, noise)
        assert store.inverse.tobytes() == whole.inverse.tobytes()
        assert store.explained.tobytes() == whole.explained.tobytes()
        assert np.array_equal(store.count, whole.count)


class TestStackedPosterior:
    """The 1D stack solve against a dense inverse per GP, noise per point."""

    def test_matches_dense_oracle(self, monkeypatch):
        # The 104 rows of width 16 (the 70 full lines and the ragged ones
        # of 9-16 points) take one stack on a 61-value grid, as every
        # width's rows do.
        inverted = spy_inversions(monkeypatch)
        kern, idx, noise, targets, widths, counts = line_stack(4, 60, 70)
        grid = kern.shape[1]
        assert np.count_nonzero(widths == 16) == 104
        assert set(widths.tolist()) == {1, 2, 4, 8, 16}
        mean, explained = gp_mod.stacked_posterior(kern, idx, noise, targets, widths)
        assert sorted(inverted) == [1, 2, 4, 8, 16]
        assert mean.shape == explained.shape == (len(counts), grid)
        for r, n in enumerate(counts):
            # the oracle sees the real points only; over seeds 0-7 of this
            # draw the worst gaps were 9.1e-15 without padding, and 6.6e-12
            # with it (a 1e12 noise voids a point to about 1e-12)
            atol = 1e-10 if widths[r] > n else 1e-13
            o_mean, o_explained = dense_noisy_posterior(
                idx[r, :n], targets[r, :n], noise[r, :n], np.arange(grid),
                engine.LINE_LENGTHSCALE)
            np.testing.assert_allclose(mean[r], o_mean, rtol=0, atol=atol)
            np.testing.assert_allclose(explained[r], o_explained, rtol=0, atol=atol)

    @pytest.mark.parametrize("how", PARTS)
    def test_one_call_equals_calls_in_parts(self, how):
        # 200 lines, 146 of width 16: one call solves each width in
        # one stack, and gives the bytes of calls on parts of the rows
        kern, idx, noise, targets, widths, _ = line_stack(5, 100, 100)
        whole = gp_mod.stacked_posterior(kern, idx, noise, targets, widths)
        mean, explained = np.full((2, len(idx), kern.shape[1]), np.nan)
        for part in parts_of(how, widths, kern.shape[1]):
            mean[part], explained[part] = gp_mod.stacked_posterior(
                kern, idx[part], noise[part], targets[part], widths[part])
        assert mean.tobytes() == whole[0].tobytes()
        assert explained.tobytes() == whole[1].tobytes()


class TestFitMechanics:
    def test_constant_targets_use_unit_std(self):
        model = gp_fit([[0.0], [1.0], [2.0]], [3.0, 3.0, 3.0], KernelConfig())
        assert model.target_std == 1.0
        mean, _ = model.predict([[1.0]])
        assert mean[0] == pytest.approx(3.0, abs=1e-6)

    def test_duplicate_noiseless_inputs_still_fit(self):
        cfg = KernelConfig(noise_variance=0.0)
        model = gp_fit([[1.0], [1.0]], [0.0, 1.0], cfg)
        mean, std = model.predict([[1.0]])
        assert np.isfinite(mean[0]) and std[0] >= 0.0

    def test_jitter_escalates_until_cholesky_succeeds(self, monkeypatch):
        import scorebo.gp as gp_mod
        real_cholesky = np.linalg.cholesky

        def picky_cholesky(k):
            if k[0, 0] - 1.0 < 1e-8:  # reject until jitter reaches 1e-8
                raise np.linalg.LinAlgError("not positive definite")
            return real_cholesky(k)

        monkeypatch.setattr(gp_mod.np.linalg, "cholesky", picky_cholesky)
        model = gp_fit([[0.0], [5.0]], [0.0, 1.0], KernelConfig(noise_variance=0.0))
        assert 1e-8 <= model._jitter <= 1e-6  # escalated from the 1e-12 default

    def test_surrogate_error_when_jitter_cap_exhausted(self, monkeypatch):
        import scorebo.gp as gp_mod

        def failing_cholesky(k):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp_mod.np.linalg, "cholesky", failing_cholesky)
        with pytest.raises(SurrogateError):
            gp_fit([[0.0], [5.0]], [0.0, 1.0], KernelConfig())

    def test_fit_of_61_points_under_10ms(self):
        rng = np.random.default_rng(6)
        x = np.arange(61, dtype=float)[:, None]
        y = rng.normal(size=61)
        cfg = KernelConfig()
        gp_fit(x, y, cfg)  # warm-up
        best = min(_timed_fit(x, y, cfg) for _ in range(5))
        assert best < 0.010, f"61-point fit took {best * 1e3:.2f} ms"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gp_fit([[0.0], [1.0]], [1.0], KernelConfig())
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 1)), [], KernelConfig())
        with pytest.raises(ValueError):
            gp_fit([[0.0], [np.nan]], [1.0, 2.0], KernelConfig())
        with pytest.raises(ValueError):
            gp_fit([[0.0], [1.0]], [1.0, np.inf], KernelConfig())

    def test_inputs_other_than_rows_raise(self):
        # gp_fit and predict take (n, d) only: a 1-D input is ambiguous
        # between n scalar points and one d-dim point
        with pytest.raises(ValueError, match="got shape"):
            gp_fit([0.0, 1.0], [1.0, 2.0], KernelConfig())
        with pytest.raises(ValueError, match="got shape"):
            gp_fit(0.0, [1.0], KernelConfig())
        model = gp_fit([[0.0], [1.0]], [1.0, 2.0], KernelConfig())
        for query in ([0.5], 0.5, np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match="got shape"):
                model.predict(query)

    def test_query_dimensionality_mismatch_raises(self):
        model = gp_fit(np.zeros((3, 2)), [1.0, 2.0, 3.0], KernelConfig())
        with pytest.raises(ValueError):
            model.predict(np.zeros((4, 3)))

    @pytest.mark.parametrize("kwargs", [
        {"lengthscale": 0.0},
        {"lengthscale": -1.0},
        {"noise_variance": -1e-9},
    ])
    def test_kernel_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            KernelConfig(**kwargs)

    def test_jitter_is_a_constant_not_a_setting(self):
        assert KernelConfig().jitter == 1e-12
        with pytest.raises(TypeError):
            KernelConfig(jitter=1e-6)


def _timed_fit(x, y, cfg):
    t0 = time.perf_counter()
    gp_fit(x, y, cfg)
    return time.perf_counter() - t0
