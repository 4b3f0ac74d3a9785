"""Dimension-decomposed batch optimizer.

Instead of one joint surrogate over the full D-dimensional space, each
dimension gets its own 1D GP fitted to that parameter's min-projection of
the history (for each grid value, the best objective ever observed with
that value, the other parameters marginalized out by minimum). Every grid
value is then scored with expected improvement. Each projection GP keeps
its inverse training kernel in grid coordinates (``gp.GridInverses``),
inverted again only when the dimension gains a grid value, so all D GPs are
scored in one batched pass over the (D, G) table, not one fit each.

Candidate assembly is led by incumbent-line refinement. Every evaluated
tuple that differs from the incumbent in one coordinate is kept as line
evidence: its change in value from that incumbent, one entry per
(dimension, grid value). When the incumbent moves, the evidence is
re-anchored to it, not discarded. A line model per dimension predicts the
change from moving the incumbent's coordinate to each grid value.

Dimensions with identical grids also pool their evidence into one shared
1D profile (multi-task sharing in the sense of Swersky, Snoek & Adams,
2013). Before each line move in such a group is evaluated, the shared
profile's prediction of it is recorded; the profile enters a dimension's
line model only as far as those predictions have explained the outcomes
(regression slope and explained variance). When they explain nothing, every
dimension keeps its own independent line.

One routine, ``select_batch``, assembles a batch, tier by tier: one merged
move (every coordinate moved to the value whose change is confidently
negative, which merges the line moves that improved); single-coordinate
line moves ranked by line EI; for dimensions with no line evidence, a move
to the argmax of the dimension's projection score; then the fill, tuples
that draw each coordinate uniformly, by index, from the grid values that
dimension has already seen; and last, uniform-random unevaluated tuples.
The fill so recombines observed values, unweighted, and never gives a
dimension a new one: new grid values come from the line tiers, the
projection-score move and the random fill, and a step whose batch came
from the fill alone inverts no projection GP at the next step.

The line posterior (with each shared profile's predicted change of every
move), the merged moves and the line-EI table depend on the line evidence
alone. They are kept, read-only, with the evidence's version and derived
again only at a selection where the evidence has changed (a line move
recorded or the incumbent moved); a selection that follows only non-line,
non-improving evaluations reuses them bit for bit. Deriving them writes no
optimizer state other than the fit count.

Per-dimension GP training sets never exceed the grid length, and the line
evidence holds at most one entry per (dimension, grid value), so the cost of
one iteration is bounded by a constant independent of how many evaluations
have accumulated.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .acquisition import ZETA, score_grid
from .errors import SpaceExhausted
from .gp import GridInverses, KernelConfig, kernel_matrix, stacked_posterior
from .sampling import draw_unevaluated
from .space import EvaluationRecord, History, SearchSpace, StepResult

LENGTHSCALE_STEPS = 3.0    # projection-GP lengthscale, in grid steps
LINE_LENGTHSCALE = 1.5     # line-model lengthscale, in grid steps
LINE_EI_MIN = 0.01         # line EI (in line scales) a line move must clear
LINE_NOISE = 0.01          # line-model noise, as a fraction of the line variance
# Evidence from a state that has since changed is systematically off, and
# pooling many such levels does not average that out; so a level's noise
# grows exponentially with its staleness. A level is dropped once the
# incumbent has changed by a full state since it was measured (staleness 1),
# when its weight has fallen to e^-STALENESS_RATE of a fresh one.
STALENESS_RATE = 10.0
MERGE_CONFIDENCE = 1.0     # the confident merged move needs mean + this * std < 0
MIN_TRUST_OUTCOMES = 5     # predicted line moves before a shared profile can count
TRUST_WINDOW = 60          # most recent predicted line moves that trust is measured on
MIN_OWN_SHARE = 0.05       # line variance left to a dimension's own evidence
LINE_WINDOW = 16           # freshest levels of a line used in its own model
CLIP_FACTOR = 20.0         # 1D targets are capped at min + this * (p75 - min)


class ProjectionTable:
    """Per-dimension min-projection of the history on a dense (D, G_max) table.

    ``minima[d, i]`` is the best value seen with coordinate d at grid index i,
    inf where never seen. Recorded values are always finite, so the finite
    cells are exactly the observed ones.
    """

    def __init__(self, dims: int, max_grid: int):
        self.minima = np.full((dims, max_grid), np.inf)

    def update(self, records) -> None:
        rows = np.arange(len(self.minima))
        for rec in records:
            cells = (rows, np.asarray(rec.indices))
            self.minima[cells] = np.minimum(self.minima[cells], rec.value)

    def observed(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted observed indices of dimension d and their projected minima."""
        idx = np.flatnonzero(np.isfinite(self.minima[d]))
        return idx.astype(float), self.minima[d, idx]


def clip_targets(values: np.ndarray) -> np.ndarray:
    """Winsorize targets for 1D surrogate fits, each row on its own.

    Objectives with penalty regions can span many orders of magnitude; a
    single huge value would dominate standardization and flatten the
    posterior everywhere else. Values are capped at
    ``min + CLIP_FACTOR * (p75 - min)`` of their row (last axis), which
    preserves ordering near the minimum — the only region the acquisition
    cares about. Rows may be padded with inf: those cells are not part of
    the row and stay inf. p75 is ``np.percentile(row[finite], 75)``; it
    and min are read from one sort of the rows, which must hold no NaN.
    """
    values = np.asarray(values, dtype=float)
    finite = values < np.inf
    n = finite.sum(axis=-1, keepdims=True)
    pos = 0.75 * (n - 1)
    below = pos.astype(int)
    flat = np.sort(values, axis=-1).ravel()      # infs sort past each row's values
    first = np.arange(0, flat.size, values.shape[-1]).reshape(n.shape)
    lo = flat[first]
    a = flat[first + below]
    b = flat[first + np.minimum(below + 1, n - 1)]
    gamma = pos - below
    p75 = np.where(gamma >= 0.5, b - (b - a) * (1.0 - gamma), a + (b - a) * gamma)
    cap = lo + CLIP_FACTOR * (p75 - lo)
    return np.where((cap > lo) & finite, np.minimum(values, cap), values)


class LineEvidence:
    """Changes in value of single-coordinate moves from the incumbent.

    ``levels[d, v]`` is the change of moving the incumbent's coordinate d to
    grid index v (NaN where nothing is known); the incumbent's own index
    holds 0. A newer move to the same (d, v) replaces the older one, so the
    store never holds more than one entry per (dimension, grid value).

    ``version`` rises with every write. ``reset``, ``record`` and
    ``reanchor`` are the only writers of the levels, their birth drifts,
    the drift and the anchor, so anything derived from those alone is
    current while the version is unchanged.
    """

    def __init__(self, dims: int, max_grid: int):
        self.version = 0
        self.levels = np.full((dims, max_grid), np.nan)
        self.born = np.zeros((dims, max_grid))       # drift when each level was set
        self.drift = 0.0      # coordinates the anchor has changed, over dims, summed
        self.anchor: tuple[int, ...] | None = None   # tuple the levels refer to
        self.anchor_array: np.ndarray | None = None  # the same, as an array
        self.anchor_value = 0.0

    def reset(self, anchor: tuple[int, ...], value: float) -> None:
        self.version += 1
        self.levels[:] = np.nan
        self.levels[np.arange(len(anchor)), anchor] = 0.0
        self.born[:] = self.drift
        self.anchor, self.anchor_array, self.anchor_value = anchor, np.array(anchor), value

    def staleness(self) -> np.ndarray:
        """Share of the incumbent's coordinates changed since each level was set."""
        return self.drift - self.born

    def moved_dim(self, indices: tuple[int, ...]) -> int | None:
        """The one coordinate in which ``indices`` differs from the anchor."""
        if self.anchor is None:
            return None
        diff = np.flatnonzero(self.anchor_array != np.fromiter(indices, int))
        return int(diff[0]) if len(diff) == 1 else None

    def record(self, d: int, v: int, value: float) -> float:
        self.version += 1
        level = value - self.anchor_value
        self.levels[d, v] = level
        self.born[d, v] = self.drift
        return level

    def reanchor(self, anchor: tuple[int, ...], value: float,
                 predicted: np.ndarray | None) -> None:
        """Refer every level to a new incumbent.

        A dimension whose index changed is shifted by its level at the new
        index: the observed one, else the line model's prediction, else 0.
        Dimensions whose index is unchanged keep their levels as they are.
        Levels measured a full state ago (staleness 1) are dropped.
        """
        self.version += 1
        new = np.array(anchor)
        changed = np.flatnonzero(self.anchor_array != new)
        self.drift += len(changed) / len(anchor)
        for d in changed.tolist():
            b = anchor[d]
            shift = self.levels[d, b]
            if np.isnan(shift):
                shift = predicted[d, b] if predicted is not None else 0.0
            self.levels[d] -= shift
        self.levels[self.staleness() >= 1.0] = np.nan
        rows = np.arange(len(anchor))
        self.levels[rows, new] = 0.0             # exact by definition, never stale
        self.born[rows, new] = self.drift
        self.anchor, self.anchor_array, self.anchor_value = anchor, new, value


@dataclass
class _GridGroup:
    """Dimensions whose grids hold identical values."""

    dims: np.ndarray
    n_grid: int
    prior_precision: np.ndarray | None = None   # inverse kernel of the shared profile
    # (shared prediction, observed change) of recent line moves, in order
    outcomes: deque = field(default_factory=lambda: deque(maxlen=TRUST_WINDOW))


@dataclass(frozen=True)
class _LineTables:
    """What a selection derives from the line evidence alone; arrays read-only."""

    version: int                  # ``LineEvidence.version`` they were derived at
    posterior: tuple              # ``_line_posterior()``: mean, std, scale, supported,
                                  # share, predicted
    merged: tuple                 # merged moves that move some coordinate, in order
    ei: np.ndarray                # (D, G) line EI before any move is taken


@dataclass
class ScoreOptimizer:
    """Batch optimizer over a discrete search space.

    The GP input coordinate for every dimension is the grid *index*, so the
    lengthscale is expressed in grid steps and applies uniformly to linear
    and log meshes.
    """

    space: SearchSpace
    objective: object                      # callable: point array -> float
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.rng = np.random.default_rng(self.seed)
        self.history = History(self.space, self.objective, on_record=self._absorb)
        self.kernel = KernelConfig(lengthscale=LENGTHSCALE_STEPS)
        self.gp_fit_count = 0                # per-dimension projection surrogates
        self.refinement_fit_count = 0        # line posteriors computed at selections
        self._refine_dim = 0
        self._n_grid = np.array(self.space.lengths)
        max_grid = int(self._n_grid.max())
        self._grid_cells = np.arange(max_grid)[None, :] < self._n_grid[:, None]
        self.projections = ProjectionTable(self.space.dims, max_grid)
        steps = np.arange(max_grid, dtype=float)[:, None]
        self._projection_kernel = kernel_matrix(steps, steps, self.kernel)
        self._projection_inverses = GridInverses(self.space.dims, max_grid)
        self._line_kernel = kernel_matrix(steps, steps,
                                          KernelConfig(lengthscale=LINE_LENGTHSCALE))
        self.lines = LineEvidence(self.space.dims, max_grid)
        self._line_tables_kept: _LineTables | None = None   # of the last selection
        self._pending: dict[tuple[int, int], float] = {}
        by_grid: dict[bytes, list[int]] = {}
        for d, g in enumerate(self.space.grids):
            by_grid.setdefault(g.values.tobytes(), []).append(d)
        self._groups = []
        self._group_of = np.empty(self.space.dims, dtype=int)
        for dims in by_grid.values():
            group = _GridGroup(dims=np.array(dims), n_grid=len(self.space.grids[dims[0]]))
            if len(dims) > 1:
                n = group.n_grid
                group.prior_precision = np.linalg.inv(self._line_kernel[:n, :n]
                                                      + 1e-8 * np.eye(n))
            self._group_of[dims] = len(self._groups)
            self._groups.append(group)

    def _absorb(self, record: EvaluationRecord) -> None:
        """Add a new record to the projections and the line evidence."""
        self.projections.update([record])
        if self.lines.anchor is None:
            self.lines.reset(record.indices, record.value)
            return
        d = self.lines.moved_dim(record.indices)
        if d is not None:
            v = record.indices[d]
            level = self.lines.record(d, v, record.value)
            # outcomes grow only here, right after a record, so the line
            # evidence's version covers what _trust reads from them too
            pred = self._pending.pop((d, v), None)
            if pred is not None:
                self._groups[self._group_of[d]].outcomes.append((pred, level))

    def initialize(self, n_init: int) -> None:
        """Evaluate the initial design (see ``History.initialize``)."""
        self.history.initialize(self.rng, n_init)

    # -- one iteration ----------------------------------------------------

    def score_dimension(self, d: int) -> np.ndarray:
        """EI score for every grid value of dimension d: row d of a full pass."""
        return self._projection_scores()[d, :self._n_grid[d]]

    def _projection_scores(self) -> np.ndarray:
        """EI scores of every dimension, (D, G), -inf past each grid's end.

        One GP per dimension on its min-projection, all scored in one pass
        over the inf-padded minima: clip, standardize the observed cells,
        ``alpha = K^-1 z`` as one batched mat-vec with the inverses kept in
        grid coordinates, and the mean ``alpha @ kern`` as one product.
        Projection cells never become unobserved, so a dimension whose count
        is unchanged keeps its inverse; only the others are inverted again
        (distinct indices and the 1e-6 noise keep each training kernel well
        conditioned). Every dimension is solved for its new targets, so each
        call counts one fit per dimension.
        """
        minima = self.projections.minima
        finite = np.isfinite(minima)
        counts = finite.sum(axis=1, keepdims=True)
        if not counts.all():
            raise ValueError(f"no observations project onto dimension {np.argmin(counts)}")
        j = self.kernel.noise_variance + self.kernel.jitter
        store = self._projection_inverses
        store.refresh(self._projection_kernel, finite, j)
        y = clip_targets(minima)
        y_mean = np.sum(y, axis=1, keepdims=True, where=finite) / counts
        dev = np.where(finite, y - y_mean, 0.0)
        y_std = np.sqrt(np.sum(dev * dev, axis=1, keepdims=True) / counts)
        y_std[y_std == 0.0] = 1.0
        alpha = np.matmul(store.inverse, (dev / y_std)[:, :, None])[:, :, 0]
        mean = alpha @ self._projection_kernel
        # at training points 1 - explained has no digits left; use the
        # cancellation-free j * (1 - j * (K^-1)_ii), as GpModel does
        var = np.where(finite, j * (1.0 - j * np.diagonal(store.inverse, 0, 1, 2)),
                       1.0 - store.explained)
        self.gp_fit_count += len(minima)
        scores = score_grid(mean, np.sqrt(np.maximum(var, 0.0)),
                            (self.history.best.value - y_mean) / y_std, ZETA)
        return np.where(self._grid_cells, scores, -np.inf)

    def _shared_profile(self, group: _GridGroup, a: np.ndarray, b: np.ndarray,
                        y: np.ndarray, wt: np.ndarray, scale2: float):
        """Posterior mean and covariance of the group's shared 1D profile.

        Level i of a dimension in the group, ``y[i]`` with weight ``wt[i]``
        (its inverse noise), is read as the profile difference
        s(b[i]) - s(a[i]), where a[i] is that dimension's anchor index. The
        fit is done in precision form on the G grid values, so it costs
        O(G^3) however many levels are kept.
        """
        n = group.n_grid
        an, bn, neg = a * n, b * n, -wt
        # A^T W A and A^T W y for the difference rows e_b - e_a of A
        gram = np.bincount(np.concatenate([an + a, bn + b, an + b, bn + a]),
                           np.concatenate([wt, wt, neg, neg]), n * n).reshape(n, n)
        wy = wt * y
        rhs = np.bincount(np.concatenate([b, a]), np.concatenate([wy, -wy]), n)
        cov = np.linalg.inv(group.prior_precision + gram)
        return cov @ rhs, scale2 * cov

    def _trust(self, group: _GridGroup) -> tuple[float, float]:
        """Slope and explained variance of observed changes on predicted ones."""
        if len(group.outcomes) < MIN_TRUST_OUTCOMES:
            return 0.0, 0.0
        # the C-ordered (k, 2) block np.array(outcomes) would give, read by
        # column: a dot product's bits depend on the stride it reads
        pred, obs = np.fromiter(chain.from_iterable(group.outcomes), float,
                                2 * len(group.outcomes)).reshape(-1, 2).T
        obs = clip_targets(obs)
        spp = float(pred @ pred)
        soo = float(obs @ obs)
        if spp == 0.0 or soo == 0.0:
            return 0.0, 0.0
        slope = float(pred @ obs) / spp
        if slope <= 0.0:
            return 0.0, 0.0
        explained = 1.0 - float(np.sum((obs - slope * pred) ** 2)) / soo
        return slope, max(explained, 0.0)

    def _line_posterior(self):
        """Predicted change of every single-coordinate move from the incumbent.

        Returns ``(mean, std, scale, supported, share, predicted)``: (D, G)
        arrays of the predicted change and its standard deviation, the line
        scale of each dimension, which dimensions have any evidence behind
        their line, the weight each dimension's group gives its shared
        profile (0 for dimensions that share with no other), and the (D, G)
        change each move's group profile predicts, trusted or not (NaN
        where the group has no profile).
        """
        dims, max_grid = self.lines.levels.shape
        anchor = self.lines.anchor_array
        line_rows = np.arange(dims)[:, None]
        levels = self.lines.levels.copy()
        known = ~np.isnan(levels)
        moved = known.copy()                  # kept levels other than the anchors
        moved[line_rows[:, 0], anchor] = False
        noise = LINE_NOISE * np.exp(STALENESS_RATE * self.lines.staleness())
        prior_mean, prior_var = np.zeros((2, dims, max_grid))
        predicted = np.full((dims, max_grid), np.nan)
        amp2, scale2 = np.ones((2, dims))
        supported = np.zeros(dims, dtype=bool)
        share = np.zeros(dims)
        for group in self._groups:
            g = group.dims
            rows, b = np.nonzero(moved[g])     # the moved levels, row by row
            if not len(rows):
                continue
            block, mask = levels[g], known[g]
            block[mask] = clip_targets(block[mask])
            levels[g] = block
            y, d = block[rows, b], g[rows]
            wt = 1.0 / noise[d, b]
            s2 = float(np.sum(wt * y ** 2) / np.sum(wt))
            if s2 == 0.0:
                continue                      # no move has changed the value yet
            scale2[g] = amp2[g] = s2
            supported[d] = True
            if group.prior_precision is None:
                continue
            mean, cov = self._shared_profile(group, anchor[d], b, y, wt, s2)
            n = group.n_grid
            c = anchor[g]
            predicted[g, :n] = mean[None, :] - mean[c][:, None]
            slope, explained = self._trust(group)
            if explained <= 0.0:
                continue
            var = np.diag(cov)
            prior_mean[g, :n] = slope * predicted[g, :n]
            prior_var[g, :n] = slope**2 * np.maximum(
                var[None, :] + var[c][:, None] - 2.0 * cov[c], 0.0)
            amp2[g] = s2 * max(1.0 - explained, MIN_OWN_SHARE)
            supported[g] = True
            share[g] = explained

        # Residual GP per dimension on its freshest own levels, all in one
        # call: each line is solved at a power-of-two width, lines of one
        # width together, from tables of LINE_WINDOW columns in which a line
        # with fewer levels repeats its freshest one with a noise that voids it.
        counts = np.minimum(known.sum(axis=1), LINE_WINDOW)
        widths = 1 << np.ceil(np.log2(counts)).astype(int)
        order = np.argsort(np.where(known, noise, np.inf), axis=1, kind="stable")
        slots = np.arange(LINE_WINDOW)
        pad = slots >= counts[:, None]
        idx = order[line_rows, np.where(pad, 0, slots)]
        resid = levels - prior_mean
        # solved in unit scale: the amplitude amp2 scales only the variance
        line_mean, explained = stacked_posterior(
            self._line_kernel, idx, np.where(pad, 1e12, noise[line_rows, idx]),
            np.where(pad, 0.0, resid[line_rows, idx]), widths)
        std = np.sqrt(np.maximum(prior_var + amp2[:, None] * (1.0 - explained), 0.0))
        self.refinement_fit_count += dims
        return prior_mean + line_mean, std, np.sqrt(scale2), supported, share, predicted

    def _line_tables(self) -> _LineTables:
        """Re-anchor the line evidence to the incumbent, then its line tables.

        A dimension whose coordinate changed is shifted by the kept line
        mean when it has no level at the new index. The tables depend on
        the line evidence alone, so they are derived again only when
        ``lines.version`` has moved since the last selection; otherwise the
        kept ones are returned.
        """
        best, kept = self.history.best, self._line_tables_kept
        if best.indices != self.lines.anchor:
            self.lines.reanchor(best.indices, best.value,
                                kept.posterior[0] if kept is not None else None)
        if kept is None or kept.version != self.lines.version:
            kept = self._line_tables_kept = self._derive_line_tables()
        return kept

    def _derive_line_tables(self) -> _LineTables:
        """Line posterior, merged moves and line EI, all read-only."""
        posterior = self._line_posterior()
        mean, std, scale, supported, _, _ = posterior
        line_rows = np.arange(len(mean))
        anchor = self.lines.anchor_array
        valid = self._grid_cells.copy()
        valid[line_rows, anchor] = False
        open_lines = valid & supported[:, None]

        # merged moves: each coordinate to its confidently best value, then
        # to its best predicted value; a move must gain LINE_EI_MIN line
        # scales
        merged = []
        for kappa in (MERGE_CONFIDENCE, 0.0):
            bound = np.where(open_lines, mean + kappa * std, np.inf)
            best_v = np.argmin(bound, axis=1)
            move = bound[line_rows, best_v] < -LINE_EI_MIN * scale
            if move.any():
                merged.append(tuple(np.where(move, best_v, anchor).tolist()))

        # np.nanmin's own reduction: every line holds its anchor's level
        best_level = np.minimum(np.fmin.reduce(self.lines.levels, axis=1), 0.0)
        ei = score_grid(mean / scale[:, None], std / scale[:, None],
                        (best_level / scale)[:, None], 0.0)
        ei = np.where(open_lines, ei, 0.0)
        for array in (*posterior, ei):
            array.flags.writeable = False
        return _LineTables(self.lines.version, posterior, tuple(merged), ei)

    def _fresh(self, t: tuple[int, ...], taken: set) -> bool:
        return t not in taken and t not in self.history.evaluated

    def select_batch(self, scores: np.ndarray,
                     max_batch: int | None = None) -> list[tuple[int, ...]]:
        """Assemble distinct, never-evaluated index-tuples, tier by tier.

        ``scores`` is the (D, G) projection-score table, -inf past each
        grid's end. Once the history holds a record, the line tiers come
        first, from the line tables of ``_line_tables``: the merged moves;
        single-coordinate moves by line EI (standardized by each line's
        scale; a move must clear ``LINE_EI_MIN``); for dimensions with no
        line evidence, a move to the argmax of their projection score. Then
        the fill: per attempt one uniform u per dimension picks cell
        floor(u * count) of that dimension's observed cells (finite
        ``projections.minima``, in increasing order; a dimension with none
        keeps its whole grid), with duplicates resampled up to 100*B times;
        finally uniform-random unevaluated tuples. So new grid values come
        only from the line tiers, the projection-score move and the random
        fill.
        Each line move of a dimension whose group has a shared profile
        records the profile's prediction of it, which ``_absorb`` pairs
        with the move's outcome.
        """
        remaining = self.space.combination_count - len(self.history.evaluated)
        if remaining <= 0:
            raise SpaceExhausted("search space exhausted")
        b = min(self.batch_size, remaining)
        if max_batch is not None:
            b = min(b, max_batch)

        chosen: list[tuple[int, ...]] = []
        taken: set[tuple[int, ...]] = set()   # chosen in this batch
        self._pending.clear()

        def take(t: tuple[int, ...], d: int | None) -> None:
            """Add t, a line move of dimension d or (d None) no line move."""
            chosen.append(t)
            taken.add(t)
            if d is not None and not np.isnan(predicted[d, t[d]]):
                self._pending[(d, t[d])] = float(predicted[d, t[d]])

        if len(self.history) > 0:
            tables = self._line_tables()
            _, _, _, supported, share, predicted = tables.posterior
            inc = self.lines.anchor
            dims, max_grid = tables.ei.shape

            for merged in tables.merged:
                if len(chosen) < b and self._fresh(merged, taken):
                    take(merged, self.lines.moved_dim(merged))

            # single-coordinate moves by line EI
            ei = tables.ei.copy()
            while len(chosen) < b:
                d, v = divmod(int(np.argmax(ei)), max_grid)
                if ei[d, v] <= LINE_EI_MIN:
                    break
                ei[d, v] = 0.0
                t = inc[:d] + (v,) + inc[d + 1:]
                if not self._fresh(t, taken):
                    continue
                take(t, d)
                ei[d] = 0.0                       # one move per line and batch
                if share[d] > 0.0:
                    # under a trusted shared profile, values near v on the
                    # other lines of the group are now less informative
                    g = self._groups[self._group_of[d]]
                    ei[g.dims] *= 1.0 - share[d] * self._line_kernel[v]

            # dimensions without line evidence: follow the projection score
            for k in range(dims):
                if len(chosen) >= b:
                    break
                d = (self._refine_dim + k) % dims
                if supported[d]:
                    continue
                row = scores[d].copy()           # -inf past the grid's end
                row[inc[d]] = -np.inf
                v = int(np.argmax(row))
                t = inc[:d] + (v,) + inc[d + 1:]
                if row[v] > -np.inf and self._fresh(t, taken):
                    take(t, d)
                    self._refine_dim = d + 1
        if len(chosen) >= b:
            return chosen

        # each row's observed cells first, in increasing order; a row with
        # none keeps its whole grid
        observed = np.isfinite(self.projections.minima)
        cells = observed | (self._grid_cells & ~observed.any(axis=1, keepdims=True))
        order = np.argsort(~cells, axis=1, kind="stable")
        counts = cells.sum(axis=1)
        rows = np.arange(len(cells))

        attempts = 0
        while len(chosen) < b and attempts < 100 * b:
            attempts += 1
            # one uniform per dimension; u < 1 keeps u * count below count
            u = self.rng.random(len(cells))
            t = tuple(order[rows, (u * counts).astype(int)].tolist())
            if self._fresh(t, taken):
                take(t, None)

        if len(chosen) < b:
            fill = draw_unevaluated(self.space, self.rng, self.history.evaluated,
                                    b - len(chosen), pending=taken)
            for t in fill.tolist():
                take(tuple(t), None)
        return chosen

    def step(self, max_batch: int | None = None) -> StepResult:
        """One iteration: D 1D GP posteriors, one batch selection, B evaluations."""
        if not self.history.records:
            raise ValueError("initialize() must run before step()")
        t0 = time.perf_counter()
        scores = self._projection_scores()
        gp_seconds = time.perf_counter() - t0

        batch = self.select_batch(scores, max_batch=max_batch)
        for indices in batch:
            self.history.evaluate(indices)
        return StepResult(batch=batch, gp_fit_seconds=gp_seconds)
