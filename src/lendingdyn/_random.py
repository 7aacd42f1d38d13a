"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
(seed, tag, *path).  A draw therefore depends only on its coordinates —
replicate, step, group slot, agent slot — never on evaluation order, thread
count, or which other draws happened first.  Two runs that share a seed and a
coordinate path produce identical numbers even if one sweeps many policies
and the other simulates a single trajectory.

A uniform block is H such streams, one per step, so building it through
`substream` would cost H `SeedSequence` + Philox constructions.  It builds
the same streams more cheaply instead.  A fresh `Philox(SeedSequence(...))`
is counter 0 and key `SeedSequence(...).generate_state(2, np.uint64)`, and
that key is plain uint32 arithmetic over the entropy words
[seed_lo, seed_hi, 0, 0, TAG_STEP, t, slot] with hash constants that do not
depend on the data.  `_step_keys` mixes the words of a whole set of seeds in
one pass: the words before t as arrays over the seeds, then t and the slot
as arrays over (seed, t), giving every (seed, step) key at once.
`uniform_blocks` then resets one Philox to (key, counter 0, empty buffer)
for each row of one preallocated step-major (H, seeds, n) array: a grid
walk's slabs 1..H, where walk[t] becomes X[t].  Row [t, s] is therefore
byte for byte `step_uniforms(seeds[s], t, slot, n)`, and `uniform_block`
is the one-seed case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Domain tags keep unrelated uses of the same seed on disjoint streams.
TAG_STEP = 1      # per-(replicate, step, group) uniforms for population updates
TAG_SAMPLE = 2    # distribution sampling
TAG_CELL = 3      # recommendation-grid cell seeds
TAG_REPLICATE = 4 # replicate seeds inside one policy evaluation


# numpy's SeedSequence mixing constants (pool of 4 uint32 words).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(int(p) & _MASK32 for p in path),
    )


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream at (seed, *path)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Stable 64-bit integer seed for the stream at (seed, *path).

    Used where an independent child computation needs its own plain seed
    (grid cells, replicates) that can also be handed to simulate() directly.
    """
    state = _seed_sequence(seed, path).generate_state(1, np.uint64)
    return int(state[0])


def step_uniforms(seed: int, step: int, group_slot: int, n: int) -> np.ndarray:
    """The n agent uniforms for one population update.

    Agent i always reads slot i of the block for (seed, step, group_slot),
    so the draw an agent sees is independent of every model parameter.
    """
    return substream(seed, TAG_STEP, step, group_slot).random(n)


def _hashmix(value, hash_const, mult=_MULT_A):
    """SeedSequence's hashmix on a Python int or a uint32 array.

    Returns the mixed word and the next hash constant.
    """
    hash_const_next = hash_const * mult & _MASK32
    value = (value ^ hash_const) * hash_const_next & _MASK32
    return value ^ value >> 16, hash_const_next


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _successive(hash_const: int, count: int, mult: int = _MULT_A) -> np.ndarray:
    """count successive hash constants from hash_const, as a uint32 column."""
    out = np.empty((count, 1), dtype=np.uint32)
    for i in range(count):
        out[i] = hash_const
        hash_const = hash_const * mult & _MASK32
    return out


# generate_state's hash constants, the same for every stream.
_OUTPUT_CONSTS = _successive(_INIT_B, _POOL_SIZE, _MULT_B)


def _step_keys(seeds: Sequence[int], horizon: int,
               group_slot: int) -> np.ndarray:
    """Philox keys of the streams (seed, TAG_STEP, t, group_slot), t < horizon.

    Shape (len(seeds), horizon, 2); entry [s, t] equals
    _seed_sequence(seeds[s], (TAG_STEP, t, group_slot))
    .generate_state(2, np.uint64).  The mixing is numpy's SeedSequence, with
    its data-independent hash constants kept as Python ints: the words
    before t are mixed as arrays over the seeds, t and the slot as arrays
    over (seed, t).
    """
    seeds = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    # A seed below 2**64 fills one or two words; a spawn key pads the run
    # entropy with zeros to the pool size.
    pool, hash_const = [], _INIT_A
    for word in ((seeds & _MASK32).astype(np.uint32),
                 (seeds >> 32).astype(np.uint32), 0, 0):
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for dst in range(_POOL_SIZE):
        word, hash_const = _hashmix(TAG_STEP, hash_const)
        pool[dst] = _mix(pool[dst], word)
    # From t on the pool is a (4, seeds, horizon) array, and each word is
    # mixed into all four pool words at once, with four successive constants.
    pool = np.array(pool, dtype=np.uint32)[:, :, None]
    for word in (np.arange(horizon, dtype=np.uint32), int(group_slot) & _MASK32):
        consts = _successive(hash_const, _POOL_SIZE + 1)
        mixed, _ = _hashmix(word, consts[:-1, None])
        pool = _mix(pool, mixed)
        hash_const = int(consts[-1, 0])

    # generate_state(2, np.uint64): the four pool words, hashed once more,
    # read as two little-endian uint64s.
    state, _ = _hashmix(pool, _OUTPUT_CONSTS[:, None], _MULT_B)
    return np.ascontiguousarray(state.transpose(1, 2, 0)).view("<u8").astype(
        np.uint64)


def uniform_blocks(seeds: Sequence[int], horizon: int, group_slot: int,
                   n: int, out: np.ndarray | None = None) -> np.ndarray:
    """All update uniforms for one run per seed, shape (horizon, len(seeds), n).

    Row [t, s] is byte for byte step_uniforms(seeds[s], t, group_slot, n),
    from one Philox generator reset to each (seed, step) key in turn.  The
    blocks are step-major: out, new or given (a reused buffer), is a
    C-contiguous float array, filled row by row in memory order.
    """
    if out is None:
        # Allocated before the keys so that a negative horizon raises here.
        out = np.empty((horizon, len(seeds), n))
    if (out.shape != (horizon, len(seeds), n) or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float array of shape "
                         f"{(horizon, len(seeds), n)}")
    keys = _step_keys(seeds, horizon, group_slot).transpose(1, 0, 2)
    rows = out.reshape(horizon * len(seeds), n)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # A fresh stream: counter 0, empty buffer.  Plain lists keep the
    # per-row assignment cheap.
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, key in enumerate(keys.reshape(-1, 2).tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random(out=rows[row])
    return out


def uniform_block(seed: int, horizon: int, group_slot: int, n: int) -> np.ndarray:
    """All update uniforms for one run, shape (horizon, n): one seed's block."""
    return uniform_blocks([seed], horizon, group_slot, n)[:, 0]
