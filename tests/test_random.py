"""Uniform blocks are the per-step streams, byte for byte."""

import numpy as np
import pytest

from lendingdyn._random import (TAG_STEP, _step_keys, step_uniforms,
                                uniform_block)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1)
SLOTS = (0, 1, 2**32 + 1)


def numpy_key(seed, step, slot):
    """The key numpy's own SeedSequence gives a fresh Philox at these words."""
    ss = np.random.SeedSequence(entropy=seed & 2**64 - 1,
                                spawn_key=(TAG_STEP, step, slot & 2**32 - 1))
    return ss.generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slot", SLOTS)
def test_keys_match_seed_sequence(seed, slot):
    keys = _step_keys(seed, 20, slot)
    assert keys.shape == (20, 2) and keys.dtype == np.uint64
    for t in range(20):
        assert np.array_equal(keys[t], numpy_key(seed, t, slot))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slot", SLOTS)
@pytest.mark.parametrize("horizon", (0, 1, 20))
@pytest.mark.parametrize("n", (1, 500))
def test_block_rows_are_the_step_streams(seed, slot, horizon, n):
    block = uniform_block(seed, horizon, slot, n)
    assert block.shape == (horizon, n) and block.dtype == np.float64
    for t in range(horizon):
        assert block[t].tobytes() == step_uniforms(seed, t, slot, n).tobytes()


def test_property_over_random_seeds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(seed=st.integers(-2**64, 2**65),
                      slot=st.integers(0, 2**33),
                      horizon=st.integers(0, 6),
                      n=st.integers(1, 40))
    def check(seed, slot, horizon, n):
        keys = _step_keys(seed, horizon, slot)
        block = uniform_block(seed, horizon, slot, n)
        for t in range(horizon):
            assert np.array_equal(keys[t], numpy_key(seed, t, slot))
            assert (block[t].tobytes()
                    == step_uniforms(seed, t, slot, n).tobytes())

    check()
