"""Independent reference implementations used to cross-check the package.

Everything here is deliberately coded differently from the production path:
the GP oracle inverts one kernel per dataset, built from the inputs'
differences, where production uses Cholesky solves (the joint GP) or stacked
inverses of slices of one precomputed grid kernel (the 1D GPs); the shared
line profile is solved in covariance form over its observations, where
production inverts its precision over the grid; the EI oracle is a Monte
Carlo expectation instead of the closed form, and the projection oracle is
a from-scratch recomputation instead of incremental updates. The exceptions are bit-level references: ``se_kernel_expression``,
the kernel as one array expression, kept verbatim for ``gp.kernel_matrix``,
which performs the same operations halved on one buffer;
``ei_expression``, expected improvement as one array expression, for
``acquisition.score_grid``, which performs the same operations in place; and
``full_solve_predict``, the joint GP's predict with the triangular solve
over every query and an equality scan of every (training row, query) pair,
for ``GpModel.predict``, which leaves out the queries too far from the
training inputs for the solve to change their variance and compares with the
training inputs only the queries whose kernel column could hold an equal one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular


# ---------------------------------------------------------------------------
# Dense-inversion GP oracle


def _se_kernel(a: np.ndarray, b: np.ndarray, lengthscale: float,
               signal_variance: float) -> np.ndarray:
    d2 = (a[:, None] - b[None, :]) ** 2
    return signal_variance * np.exp(-0.5 * d2 / lengthscale**2)


def se_kernel_expression(a: np.ndarray, b: np.ndarray, cfg) -> np.ndarray:
    """The squared-exponential kernel between rows, one temporary per operation.

    Its prior variance is 1, as the package's kernels have.
    """
    a2 = np.sum(a * a, axis=1)
    b2 = np.sum(b * b, axis=1)
    sq = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-0.5 * sq / cfg.lengthscale**2)


def ei_expression(means, stds, best_value, zeta):
    """Expected improvement, one temporary per operation; std < 1e-12 is
    degenerate and gives max(best - mean - zeta, 0)."""
    from scipy.special import ndtr
    improvement = best_value - means - zeta
    degenerate = stds < 1e-12
    safe_std = np.where(degenerate, 1.0, stds)
    z = improvement / safe_std
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    ei = improvement * ndtr(z) + safe_std * pdf
    ei = np.where(degenerate, np.maximum(improvement, 0.0), ei)
    return np.maximum(ei, 0.0)


def full_solve_predict(model, query_points, standardized=False, *, work=None):
    """``GpModel.predict`` with the solve over all queries, rows of a 2-D array.

    At each query equal to a training input, found by an N x queries x d
    equality scan, the variance takes the cancellation-free form
    j * (1 - j * (K^-1)_ii), j = noise + jitter; a query equal to several
    training rows takes the last row's value. ``work`` is accepted and not
    used: a work area changes no value.
    """
    query = np.asarray(query_points, dtype=float)
    k_star = se_kernel_expression(model.train_inputs, query, model.kernel)
    mean = k_star.T @ model.alpha
    v = solve_triangular(model.chol, k_star, lower=True, check_finite=False)
    v *= v
    var = 1.0 - np.sum(v, axis=0)
    matches = np.all(model.train_inputs[:, None, :] == query[None, :, :], axis=2)
    rows, cols = np.nonzero(matches)
    if len(rows):
        j = model.kernel.noise_variance + model._jitter
        unit = np.zeros((len(model.train_inputs), len(rows)))
        unit[rows, np.arange(len(rows))] = 1.0
        z = solve_triangular(model.chol, unit, lower=True, check_finite=False)
        var[cols] = j * (1.0 - j * np.sum(z * z, axis=0))
    std = np.sqrt(np.maximum(var, 0.0))
    if standardized:
        return mean, std
    return model.target_mean + model.target_std * mean, model.target_std * std


def dense_gp_predict(train_x, train_y, query, lengthscale, signal_variance,
                     noise_variance, jitter=1e-12, standardize=True,
                     standardized_out=False):
    """Posterior mean/std of a 1D squared-exponential GP via explicit K^-1.

    At query points exactly equal to a training input the variance uses the
    cancellation-free identity var = j * (1 - j * (K^-1)_ii); the direct
    quadratic-form expression has no significant digits left when the true
    variance is of order (noise + jitter).
    """
    x = np.asarray(train_x, dtype=float).ravel()
    y = np.asarray(train_y, dtype=float).ravel()
    q = np.asarray(query, dtype=float).ravel()
    if standardize:
        mean_y = float(np.mean(y))
        std_y = float(np.std(y))
        if std_y == 0.0:
            std_y = 1.0
    else:
        mean_y, std_y = 0.0, 1.0
    z = (y - mean_y) / std_y

    j = noise_variance + jitter
    k = _se_kernel(x, x, lengthscale, signal_variance) + j * np.eye(len(x))
    k_inv = np.linalg.inv(k)
    ks = _se_kernel(x, q, lengthscale, signal_variance)
    mu = ks.T @ k_inv @ z
    var = signal_variance - np.sum(ks * (k_inv @ ks), axis=0)
    for qi, qv in enumerate(q):
        hits = np.nonzero(x == qv)[0]
        if len(hits):
            i = hits[0]
            var[qi] = j * (1.0 - j * k_inv[i, i])
    std = np.sqrt(np.maximum(var, 0.0))
    if standardized_out:
        return mu, std
    return mean_y + std_y * mu, std_y * std


def dense_noisy_posterior(train_x, train_y, noise, query, lengthscale):
    """Posterior mean and explained variance of a unit 1D SE GP, via explicit K^-1.

    Each training point has its own noise variance ``noise[i]``. Returns
    k_q^T (K + diag(noise))^-1 y and k_q^T (K + diag(noise))^-1 k_q at each
    query q, with K the unit squared-exponential kernel over the inputs.
    """
    x = np.asarray(train_x, dtype=float)
    q = np.asarray(query, dtype=float)
    k_inv = np.linalg.inv(_se_kernel(x, x, lengthscale, 1.0)
                          + np.diag(np.asarray(noise, dtype=float)))
    ks = _se_kernel(x, q, lengthscale, 1.0)
    return ks.T @ k_inv @ np.asarray(train_y, dtype=float), np.sum(ks * (k_inv @ ks), axis=0)


def difference_profile_posterior(a, b, y, noise, grid, lengthscale, prior_jitter):
    """Posterior of a 1D profile s from noisy differences, in covariance form.

    s on the grid indices 0..grid-1 has the prior N(0, K + prior_jitter * I),
    K the unit squared-exponential kernel over index steps. Observation i is
    y[i] = s(b[i]) - s(a[i]) plus noise of variance noise[i]. Returns the
    posterior mean and covariance from one dense solve of the (m, m) system
    of the observations, S = A P A^T + N: mean P A^T S^-1 y and covariance
    P - P A^T S^-1 A P, with A the difference rows and P the prior.
    """
    steps = np.arange(grid, dtype=float)
    prior = _se_kernel(steps, steps, lengthscale, 1.0) + prior_jitter * np.eye(grid)
    rows = np.arange(len(y))
    diff = np.zeros((len(y), grid))
    diff[rows, np.asarray(b)] += 1.0
    diff[rows, np.asarray(a)] -= 1.0
    system = diff @ prior @ diff.T + np.diag(np.asarray(noise, dtype=float))
    gain = prior @ diff.T @ np.linalg.inv(system)
    return gain @ np.asarray(y, dtype=float), prior - gain @ diff @ prior


# ---------------------------------------------------------------------------
# Monte Carlo expected-improvement oracle


def mc_expected_improvement(mean, std, best_value, zeta, normal_samples):
    """E[max(best - zeta - Y, 0)], Y ~ Normal(mean, std^2), by sample mean.

    ``normal_samples`` are standard-normal draws (callers should include the
    antithetic mirror for variance reduction).
    """
    y = mean + std * normal_samples
    return float(np.mean(np.maximum(best_value - zeta - y, 0.0)))


def antithetic_normals(rng: np.random.Generator, total: int) -> np.ndarray:
    """``total`` standard-normal samples, half of them sign-mirrored."""
    half = rng.standard_normal(total // 2)
    return np.concatenate([half, -half])


# ---------------------------------------------------------------------------
# Brute-force min-projection oracle


def brute_force_projection(records, dims):
    """Recompute the per-dimension projection table from scratch.

    Returns a list of dicts: grid index -> (best value, count), one per
    dimension; ``dense_layout`` lays it out like ProjectionTable's arrays.
    """
    table = [{} for _ in range(dims)]
    for rec in records:
        for d, idx in enumerate(rec.indices):
            best, count = table[d].get(idx, (math.inf, 0))
            table[d][idx] = (min(best, rec.value), count + 1)
    return table


def set_minima(table, minima):
    """Give a ``ProjectionTable`` these minima, and the observed mask and
    counts derived from them from scratch, as updates to them would keep."""
    table.minima = minima
    table.mask = np.isfinite(minima)
    table.counts = table.mask.sum(axis=1)


def dense_layout(table, max_grid):
    """``(minima, counts)`` arrays of a brute-force table: inf and 0 where unseen."""
    minima = np.full((len(table), max_grid), math.inf)
    counts = np.zeros((len(table), max_grid), dtype=int)
    for d, cells in enumerate(table):
        for idx, (best, count) in cells.items():
            minima[d, idx], counts[d, idx] = best, count
    return minima, counts
