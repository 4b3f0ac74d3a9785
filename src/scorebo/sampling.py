"""Random draws of grid index-tuples, with duplicate avoidance.

Small spaces are enumerated, as the mixed-radix codes of their tuples, so
that unevaluated tuples can be drawn exactly; large spaces (where
enumeration is impossible) fall back to rejection sampling, where
collisions are vanishingly rare. Rejection sampling draws
its tuples as one ``(n, D)`` block of ``rng.integers``: numpy's generator
(checked on numpy 2.4) gives such a block exactly the values, in row-major
order, of n·D scalar draws, one per coordinate, and leaves the generator in
the same state. So the block is the stream of a per-coordinate loop without
its Python-level calls; ``tests/test_sampling.py`` checks that against such
a loop. A block whose rows are distinct and none excluded, the usual case,
is accepted whole, its rows compared as tuples built in C, without the
per-row loop or a copy of the excluded set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import SpaceExhausted

if TYPE_CHECKING:  # space.py imports this module
    from .space import SearchSpace

ENUMERATION_LIMIT = 200_000


def draw_unevaluated(space: SearchSpace, rng: np.random.Generator,
                     excluded: set, count: int,
                     pending: set | frozenset = frozenset()) -> np.ndarray:
    """Draw ``count`` distinct uniform-random tuples in neither set.

    ``excluded`` (the evaluated tuples) and ``pending`` (tuples already
    chosen, not yet evaluated) must be disjoint. They are read apart and
    united only where a draw needs one set, so the usual draw copies
    neither. Returns the tuples as the rows, in draw order, of a
    ``(count, D)`` integer array of grid indices.
    """
    total = space.combination_count
    remaining = total - len(excluded) - len(pending)
    if remaining <= 0:
        raise SpaceExhausted(f"all {total} combinations evaluated")
    count = min(count, remaining)

    if total <= ENUMERATION_LIMIT:
        # the unevaluated tuples as mixed-radix codes, in increasing order:
        # the order in which itertools.product would list them
        free = np.ones(total, dtype=bool)
        banned = excluded | pending if pending else excluded
        if banned:
            free[np.ravel_multi_index(np.array(list(banned)).T, space.lengths)] = False
        pool = np.flatnonzero(free)
        picks = rng.choice(len(pool), size=count, replace=False)
        rows = np.stack(np.unravel_index(pool[picks], space.lengths), axis=1)
        return rows.astype(np.int64, copy=False)

    chosen = np.empty((0, space.dims), dtype=np.int64)
    seen = excluded     # united with pending before the first tuple is added
    # rejection sampling; collision probability is negligible at this size.
    # Each block is the shortfall, so no more tuples are drawn than one at a
    # time would draw, and at most 1000 per tuple asked for.
    budget = 1000 * count
    while len(chosen) < count:
        need = min(count - len(chosen), budget)
        if need <= 0:
            raise SpaceExhausted("rejection sampling failed to find unevaluated tuples")
        budget -= need
        block = rng.integers(0, space.lengths, size=(need, space.dims))
        keys = list(zip(*block.T.tolist()))
        if len(set(keys)) == need and seen.isdisjoint(keys) and pending.isdisjoint(keys):
            # every row is accepted, so the draw is complete
            return np.concatenate([chosen, block])
        if seen is excluded:
            seen = set().union(excluded, pending)
        rejected = []
        for i, t in enumerate(keys):
            if t in seen:
                rejected.append(i)
            else:
                seen.add(t)
        chosen = np.concatenate([chosen, np.delete(block, rejected, axis=0)])
    return chosen
