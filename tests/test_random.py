"""Uniform blocks are the per-step streams, byte for byte."""

import numpy as np
import pytest

from lendingdyn._random import (_KEY_BATCH, TAG_STEP, _step_keys, step_rows,
                                step_uniforms, uniform_block, uniform_blocks)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1)
SLOTS = (0, 1, 2**32 + 1)
# Mixed seed lists: every seed, reversed, repeats, one seed, none.
SEED_LISTS = (SEEDS, SEEDS[::-1], (2**64 - 1, 0, 2**64 - 1, -1, 2**32),
              (2**63,), ())


def numpy_key(seed, step, slot):
    """The key numpy's own SeedSequence gives a fresh Philox at these words."""
    ss = np.random.SeedSequence(entropy=seed & 2**64 - 1,
                                spawn_key=(TAG_STEP, step, slot & 2**32 - 1))
    return ss.generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slot", SLOTS)
def test_keys_match_seed_sequence(seed, slot):
    keys = _step_keys([seed], range(20), slot)
    assert keys.shape == (1, 20, 2) and keys.dtype == np.uint64
    for t in range(20):
        assert np.array_equal(keys[0, t], numpy_key(seed, t, slot))


@pytest.mark.parametrize("seeds", SEED_LISTS)
@pytest.mark.parametrize("steps", (range(7, 30), range(2**32 - 3, 2**32),
                                   range(5, 5)))
def test_keys_of_a_step_range_match_seed_sequence(seeds, steps):
    keys = _step_keys(list(seeds), steps, 1)
    assert keys.shape == (len(seeds), len(steps), 2)
    for s, seed in enumerate(seeds):
        for i, t in enumerate(steps):
            assert np.array_equal(keys[s, i], numpy_key(seed, t, 1))


@pytest.mark.parametrize("seeds", SEED_LISTS)
@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("horizon", (0, 1, 20))
def test_keys_of_a_seed_list_match_seed_sequence(seeds, slot, horizon):
    keys = _step_keys(list(seeds), range(horizon), slot)
    assert keys.shape == (len(seeds), horizon, 2) and keys.dtype == np.uint64
    for s, seed in enumerate(seeds):
        for t in range(horizon):
            assert np.array_equal(keys[s, t], numpy_key(seed, t, slot))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("horizon", (0, 1, 20))
@pytest.mark.parametrize("n", (1, 500))
def test_block_rows_are_the_step_streams(seed, slot, horizon, n):
    block = uniform_block(seed, horizon, slot, n)
    assert block.shape == (horizon, n) and block.dtype == np.float64
    for t in range(horizon):
        assert block[t].tobytes() == step_uniforms(seed, t, slot, n).tobytes()


@pytest.mark.parametrize("seeds", SEED_LISTS)
@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("horizon", (0, 1, 20))
@pytest.mark.parametrize("n", (1, 500))
def test_blocks_of_a_seed_list_are_the_step_streams(seeds, slot, horizon, n):
    blocks = uniform_blocks(list(seeds), horizon, slot, n)
    assert blocks.shape == (horizon, len(seeds), n)
    # step-major, the layout of the grid's walks behind their scores
    assert blocks.dtype == np.float64 and blocks.flags.c_contiguous
    for s, seed in enumerate(seeds):
        for t in range(horizon):
            assert (blocks[t, s].tobytes()
                    == step_uniforms(seed, t, slot, n).tobytes())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("horizon", (0, 1, _KEY_BATCH - 1, _KEY_BATCH,
                                     _KEY_BATCH + 1, 2 * _KEY_BATCH + 1))
def test_rows_are_the_step_streams(seed, slot, horizon):
    # Across the key batches' seams: each row is its step's stream, in a
    # new array of its own (a walk writes its scores over it).
    rows = list(step_rows(seed, horizon, slot, 3))
    assert len(rows) == horizon
    for t, row in enumerate(rows):
        assert row.tobytes() == step_uniforms(seed, t, slot, 3).tobytes()
    assert not any(np.shares_memory(a, b) for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("seeds", SEED_LISTS)
@pytest.mark.parametrize("horizon", (0, 1, 20))
def test_blocks_written_into_a_step_major_out(seeds, horizon):
    # The grid walks' reused buffer, holding stale values: every row is
    # overwritten with its stream.
    want = uniform_blocks(list(seeds), horizon, 1, 7)
    out = np.full((horizon, len(seeds), 7), np.nan)
    got = uniform_blocks(list(seeds), horizon, 1, 7, out=out)
    assert got is out
    assert got.tobytes() == want.tobytes()


def test_an_unusable_out_rejected():
    blocks = np.empty((4, 3, 2, 5))
    for out in (np.empty((4, 3, 6)), np.empty((4, 3, 5), dtype=np.float32),
                blocks[:, :, 0], np.empty((3, 4, 5)),
                np.empty((3, 4, 5)).transpose(1, 0, 2)):
        with pytest.raises(ValueError, match="out must be"):
            uniform_blocks([1, 2, 3], 4, 0, 5, out=out)


def test_negative_horizon_rejected():
    with pytest.raises(ValueError, match="negative"):
        uniform_blocks([0, 1], -1, 0, 5)
    with pytest.raises(ValueError, match="negative"):
        uniform_block(0, -1, 0, 5)


def test_property_over_random_seeds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(seeds=st.lists(st.integers(-2**64, 2**65), max_size=4),
                      slot=st.integers(0, 2**33),
                      horizon=st.integers(0, 6),
                      n=st.integers(1, 40))
    def check(seeds, slot, horizon, n):
        keys = _step_keys(seeds, range(horizon), slot)
        blocks = uniform_blocks(seeds, horizon, slot, n)
        assert keys.shape == (len(seeds), horizon, 2)
        assert blocks.shape == (horizon, len(seeds), n)
        for s, seed in enumerate(seeds):
            for t in range(horizon):
                assert np.array_equal(keys[s, t], numpy_key(seed, t, slot))
                assert (blocks[t, s].tobytes()
                        == step_uniforms(seed, t, slot, n).tobytes())

    check()
