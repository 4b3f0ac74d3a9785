"""Random draws of grid index-tuples, with duplicate avoidance.

Small spaces are enumerated so that unevaluated tuples can be drawn exactly;
large spaces (where enumeration is impossible) fall back to rejection
sampling, where collisions are vanishingly rare.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .errors import SpaceExhausted

if TYPE_CHECKING:  # space.py imports this module
    from .space import SearchSpace

ENUMERATION_LIMIT = 200_000


def random_tuple(space: SearchSpace, rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(rng.integers(len(g))) for g in space.grids)


def draw_unevaluated(space: SearchSpace, rng: np.random.Generator,
                     excluded: set, count: int) -> list[tuple[int, ...]]:
    """Draw ``count`` distinct uniform-random tuples not in ``excluded``."""
    total = space.combination_count
    remaining = total - len(excluded)
    if remaining <= 0:
        raise SpaceExhausted(f"all {total} combinations evaluated")
    count = min(count, remaining)

    if total <= ENUMERATION_LIMIT:
        pool = [t for t in itertools.product(*(range(len(g)) for g in space.grids))
                if t not in excluded]
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in picks]

    chosen: list[tuple[int, ...]] = []
    seen = set(excluded)
    # rejection sampling; collision probability is negligible at this size
    attempts = 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise SpaceExhausted("rejection sampling failed to find unevaluated tuples")
        t = random_tuple(space, rng)
        if t not in seen:
            seen.add(t)
            chosen.append(t)
    return chosen
