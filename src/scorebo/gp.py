"""Exact Gaussian-process regression with a squared-exponential kernel.

``gp_fit`` and ``GpModel`` back only the joint D-dimensional surrogate of
the classical baseline (and the tests). Targets are standardized inside the
model, and the kernel's prior variance is 1 in those units: the sample
variance of the targets. The 1D GPs of the decomposed optimizer standardize
their targets too and have the same prior variance. It is not a setting.

``gp_fit`` and ``GpModel.predict`` need ``scipy.linalg`` (its triangular
solve against the Cholesky factor) and import it inside the function: the
decomposed optimizer never calls them, and importing ``scipy.linalg`` at
module scope would cost every decomposed run about 6 MiB resident and
40-75 ms of start-up. ``BoOptimizer`` imports it when constructed, so that
its first step does not pay for it.

``GpModel.predict`` solves only the queries near some training input. A
query's variance is 1 - k^T K^-1 k, and k^T K^-1 k <= |k|^2 /
(noise + jitter), since the kernel part of K is positive semi-definite.
Where |k|^2 < 2^-56 * (noise + jitter), that is under a quarter of half an
ulp of 1, so the full solve would return 1 to the bit; the variance is set
to 1 without it. At the baseline's lengthscale
0.08 on [0, 1]^10 that leaves 5-6 % of the pool in the solve at 20
evaluations and 25 % at 300. The same column norms pick out the queries
that may equal a training input: only a column with an entry near 1 can
hold one, and the baseline's pool has none.

A fitted ``GpModel`` is never modified, so concurrent predicts are safe
unless two of them share one work area: ``predict`` can write its
(training, query) kernel into a caller-owned buffer, which the baseline
keeps across steps so that its two (N, pool) arrays are not mapped and
zeroed again on every step.

The decomposed optimizer's 1D GPs all take integer grid indices, so their
training and cross covariances are slices of one precomputed kernel over
grid steps. ``stack_inverse`` gathers a stack of such GPs' training
kernels by indexing, adds the noise to them and inverts them in one
stacked call; ``stacked_posterior`` solves a stack of GPs with it, all of
one training-index count at a time, and the engine's projection table
keeps the inverses it returns. The rows of a count are grouped without
sorting them, so one GP is a stack of one. A stack needs no bound: its
(rows, n, G) working set holds one (n, G) cross covariance per GP, and
with rows <= D and n <= G it never exceeds the (D, G, G) inverses that the
projection table keeps anyway.
The GPs are solved in unit scale: scaling a GP's kernel and noise by one
factor keeps its posterior mean and scales its explained variance by it
(Rasmussen & Williams 2006, eq. 2.25-2.26), so a caller applies an
amplitude to the variance alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import SurrogateError

MAX_JITTER = 1e-2
NOISE_VARIANCE = 1e-6      # observation noise of both optimizers' surrogates


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel hyperparameters (standardized target units).

    The prior variance is 1, the targets' sample variance, and not a field.
    ``jitter``, added to the noise, is the constant 1e-12, not a field.
    """

    lengthscale: float = 3.0
    noise_variance: float = NOISE_VARIANCE
    jitter: ClassVar[float] = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not (np.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ValueError(f"noise_variance must be >= 0, got {self.noise_variance}")


def kernel_matrix(a: np.ndarray, b: np.ndarray, cfg: KernelConfig,
                  work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Squared-exponential kernel between the rows of ``a`` and of ``b``.

    ``work``, if given, is a caller-owned pair of contiguous 1-D float64
    arrays, each of at least ``len(a) * len(b)`` elements. The kernel and
    the product ``a @ b.T`` are then written into them instead of into two
    new arrays, and the result is a view of ``work[0]`` that the next call
    with the same work area overwrites. Its values are the same to the bit.
    """
    # exp(-0.5 * (a2 + b2 - 2 a.b) / l^2) on one (n, m) buffer,
    # with every term of the squared distance halved: halving a normal
    # float is exact, so each rounding is the expression's own halved and
    # (a2/2 + b2/2 - a.b) / -l^2 has its bits. The product stays a @ b.T,
    # which numpy computes as a symmetric product when b is a, as it does
    # in the expression. A work area's arrays are used as C-contiguous
    # (n, m) blocks, the layout of a new array, so BLAS sees the same call
    a2 = 0.5 * np.sum(a * a, axis=1)
    b2 = 0.5 * np.sum(b * b, axis=1)
    n, m = len(a), len(b)
    out = prod = None
    if work is not None:
        out, prod = (w[:n * m].reshape(n, m) for w in work)
    out = np.add(a2[:, None], b2[None, :], out=out)
    out -= np.matmul(a, b.T, out=prod)
    np.maximum(out, 0.0, out=out)
    out /= -(cfg.lengthscale**2)
    return np.exp(out, out=out)


@dataclass(frozen=True)
class GpModel:
    """Fitted GP, immutable after construction.

    Concurrent predicts are safe as long as no two of them are given the
    same work area (see ``predict``).
    """

    train_inputs: np.ndarray     # (n, d)
    train_targets: np.ndarray    # (n,), standardized
    target_mean: float
    target_std: float
    chol: np.ndarray             # lower Cholesky of K + (noise + jitter) I
    alpha: np.ndarray            # (K + (noise + jitter) I)^-1 y, from chol
    kernel: KernelConfig
    _jitter: float = 1e-12       # jitter actually used (after any escalation)

    def predict(self, query_points, standardized: bool = False, *,
                work: tuple[np.ndarray, np.ndarray] | None = None):
        """Posterior mean and std at each query point, a row of an (n, d) array.

        Returns ``(mean, std)`` arrays. With ``standardized=True`` the values
        stay in the model's internal target scale; otherwise they are mapped
        back to objective units. Variances are clamped at 0 before sqrt.

        The triangular solve for the variance takes only the queries whose
        |k|^2 reaches 2^-56 * (noise + jitter), with the jitter the fit
        used. The others get the prior variance 1, which is what the full
        solve gives them bit for bit: their k^T K^-1 k is at most
        |k|^2 / (noise + jitter), under a quarter of half an ulp of 1.

        At a query equal to a training input the variance is computed in a
        cancellation-free form. Such a query's column holds that input's
        entry, 1 up to the rounding of their squared distance, so only
        columns with an entry of at least 1 - 2^-10 are compared
        with the inputs. This finds every equal pair while each input's
        squared distance to itself rounds below 2^-11 * lengthscale^2: for
        every x with |x|^2 <= 2^41 * lengthscale^2 / d in d dimensions, and
        for integer-valued x with |x|^2 < 2^53, where nothing rounds.

        ``work`` is a caller-owned work area for the (training, query)
        kernel, as ``kernel_matrix`` takes it. It saves two such arrays per
        call and changes no value; the returned arrays never share its
        memory, so it may be reused as soon as the call returns, but not by
        a concurrent call.
        """
        query = np.asarray(query_points, dtype=float)
        if query.ndim != 2:
            raise ValueError(f"query points must be (n, d), got shape {query.shape}")
        if query.shape[1] != self.train_inputs.shape[1]:
            raise ValueError(
                f"query dimensionality {query.shape[1]} does not match "
                f"training dimensionality {self.train_inputs.shape[1]}")
        from scipy.linalg import solve_triangular   # only the joint GP needs it
        k_star = kernel_matrix(self.train_inputs, query, self.kernel, work)
        mean = k_star.T @ self.alpha
        # below the floor 1 - sum(v^2) is 1 (see the docstring); the factor
        # 4 under half an ulp covers the solve's rounding, and a NaN column
        # stays in the solve
        floor = 2.0**-56 * (self.kernel.noise_variance + self._jitter)
        norms = np.einsum("ij,ij->j", k_star, k_star)
        near = ~(norms < floor)
        if np.count_nonzero(near) == 1:
            # one column takes BLAS's single-vector solve, whose bits differ
            # from the block solve's: solve a second one along
            near[np.argmin(near)] = True
        var = np.ones(len(query))
        # the solve of two or more columns gives their columns of the full
        # solve; an F-ordered block reaches LAPACK uncopied
        v = solve_triangular(self.chol, k_star.T[near].T, lower=True,
                             check_finite=False)
        v *= v
        var[near] = 1.0 - np.sum(v, axis=0)
        self._stabilize_at_training_inputs(query, var, k_star, norms)
        std = np.sqrt(np.maximum(var, 0.0))
        if standardized:
            return mean, std
        return self.target_mean + self.target_std * mean, self.target_std * std

    def _stabilize_at_training_inputs(self, query: np.ndarray, var: np.ndarray,
                                      k_star: np.ndarray, norms: np.ndarray) -> None:
        """Set the variance at queries equal to training inputs, in place.

        There 1 - sum(v^2) has no significant digits left, as the
        variance is ~(noise + jitter); j * (1 - j * (K^-1)_ii), with
        j = noise + jitter and i the equal input, is the same without the
        cancellation. ``norms`` are the squared column norms of ``k_star``.
        """
        # an equal input's entry is near 1 (see predict), and a column
        # holding an entry e has a squared norm of at least e^2
        top = 1.0 - 2.0**-10
        cand = np.flatnonzero(norms >= top * top)
        # (training row, query) pairs sorted by row, then query: a query
        # equal to several training rows takes the last row's value
        rows, cols = np.nonzero(k_star[:, cand] >= top)
        cols = cand[cols]
        equal = np.all(self.train_inputs[rows] == query[cols], axis=1)
        rows, cols = rows[equal], cols[equal]
        if not len(rows):
            return
        from scipy.linalg import solve_triangular   # only the joint GP needs it
        j = self.kernel.noise_variance + self._jitter
        unit = np.zeros((len(self.train_inputs), len(rows)))
        unit[rows, np.arange(len(rows))] = 1.0
        z = solve_triangular(self.chol, unit, lower=True, check_finite=False)
        inv_diag = np.sum(z * z, axis=0)
        var[cols] = j * (1.0 - j * inv_diag)


def gp_fit(inputs, targets, kernel: KernelConfig = KernelConfig()) -> GpModel:
    """Fit an exact GP, escalating jitter (x10, up to 1e-2) on Cholesky failure.

    One Cholesky factor and two triangular solves for ``alpha`` (Rasmussen
    & Williams 2006, Alg. 2.1); the whole factor is computed again on every
    fit, so a fit costs O(N^3). ``inputs`` is (n, d), one row per point.
    Targets are standardized to zero mean and unit variance, using std=1
    when they are constant.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"inputs must be (n, d), got shape {x.shape}")
    y = np.asarray(targets, dtype=float).ravel()
    if len(y) != x.shape[0]:
        raise ValueError(f"{x.shape[0]} inputs but {len(y)} targets")
    if len(y) < 1:
        raise ValueError("need at least one training pair")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("training data must be finite")

    target_mean = float(np.mean(y))
    target_std = float(np.std(y))
    if target_std == 0.0:
        target_std = 1.0
    z = (y - target_mean) / target_std

    k = kernel_matrix(x, x, kernel)
    prior = k.diagonal().copy()
    jitter = kernel.jitter
    while True:
        # each attempt sets the diagonal from the kernel's own, so k is
        # the kernel plus (noise + jitter) I for this attempt's jitter
        np.fill_diagonal(k, prior + (kernel.noise_variance + jitter))
        try:
            chol = np.linalg.cholesky(k)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > MAX_JITTER:
                raise SurrogateError(
                    f"Cholesky failed for {len(z)} points even at jitter {MAX_JITTER}")
    from scipy.linalg import solve_triangular   # only the joint GP needs it
    alpha = solve_triangular(chol, z, lower=True, check_finite=False)
    alpha = solve_triangular(chol, alpha, lower=True, trans="T", check_finite=False)
    return GpModel(train_inputs=x, train_targets=z, target_mean=target_mean,
                   target_std=target_std, chol=chol, alpha=alpha, kernel=kernel,
                   _jitter=jitter)


def stacked_posterior(kern: np.ndarray, idx: np.ndarray, noise: np.ndarray,
                      targets: np.ndarray, widths: np.ndarray):
    """Posterior of a stack of 1D GPs whose inputs are grid indices.

    Row r is a GP with kernel ``kern`` (over grid steps), training indices
    ``idx[r, :widths[r]]`` and targets and noise variances in the same
    columns of ``targets`` and ``noise``. The rows of each width are solved
    in one stack, with one stacked inverse of their training kernels; its
    (rows, n, G) working set holds one (n, G) cross covariance per row, so
    it needs no bound. Returns ``(mean, explained)``, both ``(rows, G)``:
    the posterior mean on every grid value and the prior variance the data
    explain there. For a GP whose kernel and noise are both scaled by a,
    the mean is the same and the explained variance a times this one.
    """
    grid = kern.shape[1]
    mean, explained = np.empty((2, len(idx), grid))
    for n in set(widths.tolist()):
        rows = np.flatnonzero(widths == n)
        k_so, k_inv, explained[rows] = stack_inverse(kern, idx[rows, :n], noise[rows, :n])
        alpha = np.einsum("dnm,dm->dn", k_inv, targets[rows, :n])
        mean[rows] = np.einsum("dng,dn->dg", k_so, alpha)
    return mean, explained


def stack_inverse(kern, idx, noise):
    """Gather, add the noise to and invert the training kernels of a stack.

    Row r is a 1D GP trained at the grid indices ``idx[r]`` with kernel
    ``kern`` (over grid steps) and noise variance ``noise`` (a scalar, or
    one per training index). Returns the cross covariances (rows, n, G),
    the inverses of the training kernels plus noise (rows, n, n) and the
    prior variance explained (rows, G).
    """
    rows, n = idx.shape
    k_so = kern[idx]
    k_oo = kern[idx[:, :, None], idx[:, None, :]]
    k_oo.reshape(rows, n * n)[:, ::n + 1] += noise     # the diagonals
    # an inverse per GP, not np.linalg.solve: on these stacks the solve
    # costs several times more
    k_inv = np.linalg.inv(k_oo)
    return k_so, k_inv, np.einsum("dng,dng->dg", k_so, k_inv @ k_so)
