"""Both branches of ``draw_unevaluated`` draw the stream of their references.

For spaces above ``ENUMERATION_LIMIT`` it draws its tuples as one ``(n, D)``
block of ``rng.integers``. These tests keep the scalar loop it replaced as
the reference and check that the block gives the same tuples and leaves the
generator in the same state. They fail if a numpy release ever changes how
a block draw consumes the stream. Smaller spaces are drawn from the
mixed-radix codes of their unevaluated tuples; the ``itertools.product``
list those codes replaced is kept as the reference for them.
"""

import itertools

import numpy as np
import pytest

from scorebo import baseline, space as space_module
from scorebo.baseline import BoOptimizer
from scorebo.errors import SpaceExhausted
from scorebo.problems import ackley, ackley_space, make_synthetic_datasheet, sdm_space
from scorebo.sampling import ENUMERATION_LIMIT, draw_unevaluated
from scorebo.space import SearchSpace, make_grid


def reference_draw(space, rng, excluded, count):
    """The former rejection loop: one scalar draw per coordinate per tuple."""
    chosen, seen, attempts = [], set(excluded), 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise SpaceExhausted("rejection sampling failed to find unevaluated tuples")
        t = tuple(int(rng.integers(len(g))) for g in space.grids)
        if t not in seen:
            seen.add(t)
            chosen.append(t)
    return np.array(chosen, dtype=np.int64).reshape(count, space.dims)


def reference_enumerated_draw(space, rng, excluded, count):
    """The former enumeration: every tuple listed, then ``count`` picked."""
    count = min(count, space.combination_count - len(excluded))
    pool = [t for t in itertools.product(*(range(len(g)) for g in space.grids))
            if t not in excluded]
    picks = rng.choice(len(pool), size=count, replace=False)
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(count, space.dims)


def grid_space(*lengths):
    return SearchSpace(tuple(make_grid(0.0, 1.0, n, name=f"d{i}")
                             for i, n in enumerate(lengths)))


SPACES = {
    "ackley-10": lambda: ackley_space(10),
    "ackley-200": lambda: ackley_space(200),
    "sdm": lambda: sdm_space(make_synthetic_datasheet()),
    "powers-of-two": lambda: grid_space(*(2**k for k in range(1, 17))),
    "binary-18": lambda: grid_space(*[2] * 18),
}


def assert_same_draw(space, seed, excluded, count):
    """Block and reference give the same tuples (or error) and end state,
    and ``excluded`` is left as it was."""
    assert space.combination_count > ENUMERATION_LIMIT
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    excluded_before = set(excluded)
    try:
        expected = reference_draw(space, ref_rng, excluded, count)
    except SpaceExhausted:
        with pytest.raises(SpaceExhausted):
            draw_unevaluated(space, rng, excluded, count)
    else:
        np.testing.assert_array_equal(draw_unevaluated(space, rng, excluded, count),
                                      expected, strict=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.integers(2**40) == ref_rng.integers(2**40)
    assert excluded == excluded_before


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("seed", range(3))
def test_block_draw_matches_scalar_loop(name, seed):
    space = SPACES[name]()
    for count in (1, 7, 1000):
        assert_same_draw(space, seed, set(), count)


@pytest.mark.parametrize("name", ["ackley-10", "sdm", "binary-18"])
def test_rejections_draw_the_shortfall_from_the_same_stream(name):
    space = SPACES[name]()
    # the stream's first tuples are already evaluated, so the first block
    # rejects them and the next block must continue the stream
    first = reference_draw(space, np.random.default_rng(4), set(), 60)
    assert_same_draw(space, 4, set(map(tuple, first[::2].tolist())), 100)


def test_within_block_duplicate_is_rejected_like_the_loop():
    space = SPACES["binary-18"]()
    rng = np.random.default_rng(0)
    raw = [tuple(int(rng.integers(2)) for _ in range(18)) for _ in range(2000)]
    assert len(set(raw)) < len(raw)     # the first block repeats a tuple
    assert_same_draw(space, 0, set(), 2000)


@pytest.mark.parametrize("count", [1, 2])
def test_exhaustion_cap_matches_the_loop(count):
    space = SPACES["ackley-10"]()
    rng = np.random.default_rng(9)
    stream = [tuple(int(rng.integers(61)) for _ in range(10))
              for _ in range(1000 * count)]
    # every tuple of the cap's budget but the last is evaluated
    excluded = set(stream[:-1])
    assert_same_draw(space, 9, excluded, count)
    with pytest.raises(SpaceExhausted):
        draw_unevaluated(space, np.random.default_rng(9), set(stream), count)


def test_bo_run_matches_one_drawn_with_the_scalar_loop(monkeypatch):
    def run():
        opt = BoOptimizer(space=ackley_space(10), objective=ackley, seed=3)
        opt.initialize(20)
        for _ in range(15):
            opt.step()
        return [(r.indices, r.value) for r in opt.history.records]

    block = run()
    monkeypatch.setattr(baseline, "draw_unevaluated", reference_draw)
    monkeypatch.setattr(space_module, "draw_unevaluated", reference_draw)
    assert run() == block


@pytest.mark.parametrize("lengths", [(61, 61), (11,) * 5, (3, 7, 2, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_enumerated_draw_matches_the_itertools_list(lengths, seed):
    space = grid_space(*lengths)
    total = space.combination_count
    assert total <= ENUMERATION_LIMIT
    every = list(itertools.product(*map(range, lengths)))
    some = np.random.default_rng(100 + seed).choice(total, size=total // 3, replace=False)
    for excluded in (set(), {every[i] for i in some}):
        # a count above what remains draws every unevaluated tuple
        for count in (1, 50, total - len(excluded), total):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(draw_unevaluated(space, rng, excluded, count),
                                          reference_enumerated_draw(space, ref_rng,
                                                                    excluded, count),
                                          strict=True)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
