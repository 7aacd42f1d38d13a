"""Structural interventions and the recommendation grid.

A policy evaluation compares a horizon outcome against the no-intervention
baseline: both groups at the pre-intervention penalty c-hat, approved at the
analytic optimal threshold beta-hat(k, c-hat).  That baseline has one
definition, baseline_outcome, which is simulate_group at each group's
beta-hat; an evaluation walks it beside its sweep (_walk) and takes its
replicate mean.  The utility of an outcome is

    U = -alpha * |mean_A - mean_D| + (1 - alpha) * efficiency

where efficiency is, in the default signed mode, the summed change of each
group's mean against its baseline; literal mode sums absolute deviations
instead (it rewards harming a group and is kept only as a switch).

Three interventions are compared at strength r in [0, 1]:

    beta_only        penalties unchanged
    group_blind      both groups: c-hat - r * c-hat / 2
    group_conscious  advantaged: c-hat; disadvantaged: c-hat - r * c-hat

After the penalty change, the approval threshold is searched on a 0.01 grid
to maximize the seed-averaged utility at the horizon (one shared beta by
default; independent per-group thresholds behind a flag).  Horizon means are
averaged over replicates first and the utility is computed once from the
averaged means, so a stored utility is always recomputable from its outcome.

Every replicate's uniforms depend only on (seed, replicate, step, group
slot, agent), so outcomes are coupled across policies, penalties, and
thresholds that share a seed, and grid evaluation order cannot change any
number.  Within one evaluation, a single uniform block per (replicate,
group) drives every threshold of the sweep and the baseline; the blocks of
a group's replicates are built in one pass.

The threshold search is bounded, and picks what a full sweep would pick,
bit for bit.  Each replicate walks once on the always-approved path; under
threshold b an agent freezes where its running minimum first drops below b
(the freeze identity).  From that walk one weighted bincount per batch of
steps gives every threshold's mean at once, to within a proven bound delta
on the float error (_curve_error: about 2.6e-11 for a replicate mean at
n = 500, horizon 20).  The bincount's index is the count of thresholds at
or below each step's running minimum, and both stages read that one set of
counts, kept as a uint16 per (step, row, agent): a count is at most
_MAX_BETA_STEPS + 1 = 1,001.  A utility moves by at most the moves of its
two means, so only candidates whose approximate utility lies within
2 * (delta_A + delta_D) of the best can be the exact best; exact means are
read from the walk and the counts for those alone, each group's walk at
the union of its cell's survivors (1 to 6 of 101 thresholds on the
benchmark grid), with the same pairwise agent sums and row-by-row
replicate sums as the full sweep, and the last candidate of highest exact
utility wins.  Where the bound is not small, every threshold survives.

recommend_grid evaluates each cell once, for all three kinds: per group,
one pass builds the blocks of every kind's replicates and one step loop
walks them all, each row at its kind's post-intervention penalty, with the
baseline at the shared c-hat.  Every kind keeps its own seed
(seed, cell, kind) and its own replicates, so its outcome is evaluate_policy
under that seed, bit for bit; evaluate_policy is the one-kind case.

A group's walk is one step-major (horizon + 1, rows, n) array, walk[t] =
X[t]: the scores, then the uniform blocks stepped in place, each step
after frozen_step has moved the baseline on its uniforms.  It and the
cell's step and search temporaries are arrays of a workspace (_Workspace)
that lives for one evaluation: one evaluate_policy call, or one grid, in
each grid worker process or in the process that runs the cells itself.
The cells of a grid ask for the same shapes, so after its first cell a
worker allocates and faults in none of them again.  Nothing about a
workspace reaches a number.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from ._random import derive_seed, uniform_blocks, TAG_CELL, TAG_REPLICATE
# Nothing here calls uniform_block: perfbench/tracing.py wraps it at this
# name and tests/test_benchmark_contract.py checks that the name resolves.
from ._random import uniform_block  # noqa: F401
from .dynamics import (DynamicsParams, ScoreDistribution, approved_step,
                       expected_next_score, frozen_step, simulate_group,
                       step_bits)
from .thresholds import optimal_threshold


class InterventionKind(enum.Enum):
    BETA_ONLY = "beta_only"
    GROUP_BLIND = "group_blind"
    GROUP_CONSCIOUS = "group_conscious"


KIND_ORDER = (InterventionKind.BETA_ONLY, InterventionKind.GROUP_BLIND,
              InterventionKind.GROUP_CONSCIOUS)


@dataclass(frozen=True)
class UtilityWeights:
    """alpha weights parity against efficiency; mode picks the efficiency term."""

    alpha: float
    mode: str = "signed"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.mode not in ("signed", "literal"):
            raise ValueError(f"mode must be 'signed' or 'literal', got {self.mode!r}")


def _efficiency(mean_a, mean_d, base_a, base_d, mode: str):
    if mode == "signed":
        return (mean_a - base_a) + (mean_d - base_d)
    return np.abs(mean_a - base_a) + np.abs(mean_d - base_d)


def _utility_values(mean_a, mean_d, base_a, base_d, w: UtilityWeights):
    parity = -w.alpha * np.abs(mean_a - mean_d)
    return parity + (1.0 - w.alpha) * _efficiency(mean_a, mean_d, base_a, base_d, w.mode)


def utility(mean_a: float, mean_d: float, base_a: float, base_d: float,
            weights: UtilityWeights) -> float:
    """Utility of one outcome pair against its baseline pair."""
    for name, v in (("mean_a", mean_a), ("mean_d", mean_d),
                    ("base_a", base_a), ("base_d", base_d)):
        if not (np.isfinite(v) and 0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
    return float(_utility_values(mean_a, mean_d, base_a, base_d, weights))


@dataclass(frozen=True)
class InterventionSpec:
    kind: InterventionKind
    r: float
    baseline_c: float

    def __post_init__(self):
        if not isinstance(self.kind, InterventionKind):
            raise TypeError(f"kind must be an InterventionKind, got {self.kind!r}")
        if not (np.isfinite(self.r) and 0.0 <= self.r <= 1.0):
            raise ValueError(f"r must lie in [0, 1], got {self.r!r}")
        if not (np.isfinite(self.baseline_c) and self.baseline_c >= 0.0):
            raise ValueError(f"baseline_c must be nonnegative, got {self.baseline_c!r}")


def apply_intervention(params: DynamicsParams, spec: InterventionSpec,
                       disadvantaged: str = "D") -> DynamicsParams:
    """Post-intervention penalties; k and the group set come from params."""
    groups = tuple(params.c_by_group)
    if spec.kind is InterventionKind.GROUP_CONSCIOUS and disadvantaged not in groups:
        raise KeyError(f"disadvantaged group {disadvantaged!r} not in {groups}")
    c_hat = spec.baseline_c
    if spec.kind is InterventionKind.BETA_ONLY:
        c_by_group = {g: c_hat for g in groups}
    elif spec.kind is InterventionKind.GROUP_BLIND:
        c_by_group = {g: c_hat - spec.r * c_hat / 2.0 for g in groups}
    else:
        c_by_group = {g: c_hat - spec.r * c_hat if g == disadvantaged else c_hat
                      for g in groups}
    return DynamicsParams(k=params.k, c_by_group=c_by_group)


def _replicate_seeds(seed: int, n_seeds: int) -> list[int]:
    return [derive_seed(seed, TAG_REPLICATE, r) for r in range(n_seeds)]


# Most (row, step, agent) cells one batch of the threshold search handles
# at once, so that its temporaries stay small.
_BATCH_CELLS = 1 << 15

# Most steps of the threshold grid: it keeps the per-group candidate grid,
# (steps + 1) ** 2 threshold pairs, near a million.
_MAX_BETA_STEPS = 1000

# Most points of a c or r span, and most (c, r) cells of a grid, that the
# command line accepts: the acceptance and benchmark spans have at most 6
# points and 30 cells.  10,000 cells at the criterion-6 sizes take minutes.
MAX_SPAN_POINTS = 1000
MAX_GRID_CELLS = 10_000

# Most bytes of cell arrays (cell_bytes) that the command line lets one grid
# worker hold: 1 GiB, 123 times the 8.7 MB of the acceptance and benchmark
# grids (500 scores per group, 10 replicates, horizon 20).
MAX_CELL_BYTES = 1 << 30

# Unit roundoff of float64.
_U = np.finfo(float).eps / 2


def _beta_grid(step: float) -> np.ndarray:
    """The thresholds 0, step, ..., 1.

    step must be finite, lie in (0, 1], and divide 1 into m steps: 1 / step
    within 1e-9 of an integer m, with m at most _MAX_BETA_STEPS (1,000,
    so step >= 0.001).
    """
    if not (np.isfinite(step) and 0.0 < step <= 1.0):
        raise ValueError(f"beta_step must lie in (0, 1], got {step!r}")
    m = round(1.0 / step)
    if abs(1.0 / step - m) > 1e-9:
        raise ValueError(f"beta_step must divide 1 into whole steps, got {step!r}")
    if m > _MAX_BETA_STEPS:
        raise ValueError(f"beta_step must be at least 1/{_MAX_BETA_STEPS}, "
                         f"got {step!r}")
    return np.linspace(0.0, 1.0, m + 1)


def cell_bytes(n_a: int, n_d: int, horizon: int, n_seeds: int) -> int:
    """Estimated bytes of the arrays one grid cell holds at once, in one
    worker's workspace, for groups of n_a and n_d scores.

    The two groups' walks, X[0..horizon] of 3 * n_seeds rows each, hold
    (horizon + 1) x n floats per row, and their threshold counts horizon x n
    uint16; the walk keeps five (rows, n) arrays of 8-byte items (the
    baseline, its next step, their scratch and two step patterns); the
    threshold search's batches are bounded by _BATCH_CELLS, or by one
    step's rows x n when that is larger.
    """
    rows = len(KIND_ORDER) * n_seeds
    n = max(n_a, n_d)
    batch = max(_BATCH_CELLS, rows * n)
    cols = max(8 * _BATCH_CELLS, rows * n)
    tau = np.min_scalar_type(max(horizon, 0)).itemsize
    return (8 * rows * (horizon + 1) * (n_a + n_d)  # the walks
            + 2 * rows * horizon * (n_a + n_d)     # their threshold counts
            + 5 * 8 * rows * n                     # the walk's step arrays
            + 3 * 8 * batch                        # running minima, bins
            + (tau + 1) * cols                     # tau and its step mask
            + 2 * 8 * max(_BATCH_CELLS, cols // max(rows, 1)))  # finals


class _Workspace:
    """Named arrays that one evaluation's cells reuse instead of allocating.

    array(name, shape, dtype) is a C-contiguous view of the buffer kept
    under name, replaced when a larger shape or another dtype asks for
    it: a grid's cells all
    ask for the same shapes, so after its first cell a worker allocates
    none of its blocks and temporaries again, and their pages stay mapped.
    Two names never share memory, and a name's contents last until the
    next call for it.  A workspace lives for one evaluation: one
    evaluate_policy call, one in-process grid, or one grid worker process.
    It is not safe to share between threads.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...],
              dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _walk(k: float, c_rows, walk: np.ndarray, bhat: float, c_hat: float,
          workspace: _Workspace) -> np.ndarray:
    """Step every row's always-approved walk, in place of its uniforms, and
    the beta-hat baseline beside it; return each row's baseline mean.

    walk, step-major (horizon + 1, rows, n), holds X[0] in walk[0] and the
    uniforms of step t in walk[t + 1], row r's drawn at penalty c_rows[r];
    after the walk walk[t] holds X[t].  At each step frozen_step first
    moves the baseline, from walk[0] at c_hat, on the step's uniforms, so
    its agents below bhat keep their scores, bit for bit, and row r's
    baseline mean is simulate_group(..., bhat, k, c_hat, ...).mean() for
    the row's seed, bit for bit: the float baseline_outcome returns.  Then
    approved_step writes the walk's step over the uniforms.  The baseline,
    its next step, the int64 scratch and the walk's step patterns come
    from the workspace, and the step loop allocates nothing.
    """
    rows, n = walk.shape[1:]
    c_col = np.asarray(c_rows, dtype=float).reshape(-1, 1)
    base = workspace.array("base", (rows, n))
    nxt = workspace.array("base_next", (rows, n))
    bits = workspace.array("step_scratch", (rows, n), np.int64)
    steps = step_bits(k, c_col, workspace.array("steps", (2, rows, n),
                                                np.int64))
    base_steps = step_bits(k, c_hat)
    base[:] = walk[0]
    for t in range(1, len(walk)):
        frozen_step(base, walk[t], bhat, base_steps, nxt, bits)
        approved_step(walk[t - 1], walk[t], steps, walk[t], bits)
        base, nxt = nxt, base
    return base.mean(axis=1)


def _lattice_bins(values: np.ndarray, betas: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> np.ndarray:
    """searchsorted(betas, v, "right") for each v of values in [0, 1]: the
    count of thresholds at or below v, where betas = linspace(0, 1, m + 1).

    q = floor(v * m + 1/2) is the grid index nearest v.  The grid values
    lie within a few ulps of j / m, so every one below index q is at or
    below v and every one above it is above v: the count is q + 1 if
    betas[q] <= v, else q.  The counts go to out (intp); scratch (float)
    is overwritten.  Both are shaped like values.
    """
    np.multiply(values, betas.size - 1, out=scratch)
    scratch += 0.5
    np.copyto(out, scratch, casting="unsafe")
    # q lies in [0, m] by construction; mode="raise" would buffer out.
    out += np.take(betas, out, out=scratch, mode="clip") <= values
    return out


def _approx_curves(walk: np.ndarray, betas: np.ndarray, counts: np.ndarray,
                   workspace: _Workspace) -> np.ndarray:
    """Every row's mean curve over the thresholds betas, linspace(0, 1,
    m + 1), to within _curve_error, from a step-major walk, walk[t] = X[t]
    (_walk); the threshold counts C of every step go to counts, shape
    (horizon, rows, n), for _exact_means.

    Under threshold b an agent ends at X[tau], tau = #{t < horizon :
    min(X[0..t]) >= b}, so its final score is X[horizon] plus X[t] - X[t+1]
    for each step t whose running minimum lies below b.  With C[t] the
    number of thresholds at or below that minimum (_lattice_bins), the
    step's difference counts for betas[j] iff C[t] <= j: one weighted
    bincount over (row, C[t]) per batch of steps, then a cumsum along j.
    C[t] is at most m + 1, so the grid's counts (_beta_grid) fit uint16.
    """
    horizon, rows, n = len(walk) - 1, *walk.shape[1:]
    m = betas.size - 1
    size = rows * (m + 2)
    sums = np.zeros(size)
    # row r's counts go to its own m + 2 bins
    offsets = np.arange(0, size, m + 2).reshape(rows, 1)
    # A batch of steps holds at most _BATCH_CELLS cells, or one step.
    per = max(1, _BATCH_CELLS // (rows * n))
    shape = (min(per, horizon), rows, n)
    runmin = workspace.array("runmin", shape)
    bins = workspace.array("bins", shape, np.intp)
    scratch = workspace.array("bin_values", shape)
    low = walk[0]
    for t0 in range(0, horizon, per):
        t1 = min(horizon, t0 + per)
        mins, b, diff = runmin[:t1 - t0], bins[:t1 - t0], scratch[:t1 - t0]
        # mins[s] = min(X[0], ..., X[t0 + s])
        for t in range(t0, t1):
            low = np.minimum(low, walk[t], out=mins[t - t0])
        _lattice_bins(mins, betas, b, diff)
        counts[t0:t1] = b
        b += offsets
        # diff[s] = X[t] - X[t + 1] for t = t0 + s
        np.subtract(walk[t0:t1], walk[t0 + 1:t1 + 1], out=diff)
        sums += np.bincount(b.ravel(), diff.ravel(), size)
    curves = np.cumsum(sums.reshape(rows, m + 2)[:, :m + 1], axis=1)
    curves += walk[horizon].sum(axis=1, keepdims=True)
    curves /= n
    return curves


def _gamma(count: int) -> float:
    """Higham's gamma_count = count * u / (1 - count * u): the relative
    error bound of a float sum of count + 1 terms in any order."""
    cu = count * _U
    return cu / (1.0 - cu) if cu < 0.5 else np.inf


def _curve_error(n: int, horizon: int, n_betas: int, n_rows: int) -> float:
    """Bound on |approximate - exact| for a mean of n_rows rows' curves.

    A curve value is a sum of N = n * (horizon + 1) + n_betas + 1 terms,
    each at most 1 in size (X[horizon] and the step differences), summed
    in some order by _approx_curves and pairwise over n finals by the
    exact read-out; both are then divided by n, and the row means summed
    over n_rows and divided again.
    """
    terms = n * (horizon + 1) + n_betas + 1
    return (_gamma(terms + 1) * (horizon + 2) + 2.0 * _gamma(n_rows)
            + 4.0 * _U)


def _exact_means(walk: np.ndarray, counts: np.ndarray, js: np.ndarray,
                 workspace: _Workspace) -> np.ndarray:
    """Horizon-end means of every row of a step-major walk, walk[t] = X[t]
    (_walk), at one set of thresholds.

    counts holds the walk's threshold counts C, the unsigned array that
    _approx_curves fills (each count at most m + 1), and js, a 1-D array,
    the indices of the thresholds every row is read at.  out[r, j] equals
    simulate_group(..., betas[js[j]], ...).mean() for the seed and penalty
    of row r, bit for bit, whatever else js holds.  A running minimum lies
    at or above betas[j] exactly when j < C[t], so tau, the steps whose
    running minimum clears the threshold (the freeze identity,
    _approx_curves), is #{t : C[t] > j}: per block of threshold columns of
    at most 8 * _BATCH_CELLS (row, threshold, agent) cells, one pass over
    the steps counts it in the counts' dtype.  X[tau] = walk[tau] is
    gathered, rows at a time, into C-ordered (rows, w, agents) arrays of at
    most _BATCH_CELLS cells and averaged over the agents: the same pairwise
    sum per (row, threshold) as simulate_group's mean.  Every array at
    those sizes is the workspace's.
    """
    horizon, rows, n = len(walk) - 1, *walk.shape[1:]
    width = max(1, 8 * _BATCH_CELLS // (rows * n))
    if js.size > width:
        return np.hstack([
            _exact_means(walk, counts, js[j:j + width], workspace)
            for j in range(0, js.size, width)])
    cols = js.astype(counts.dtype)[:, None]
    tau = workspace.array("tau", (rows, js.size, n),
                          np.min_scalar_type(horizon))
    tau.fill(0)
    approved = workspace.array("tau_step", tau.shape, bool)
    for step in counts:
        tau += np.greater(step[:, None], cols, out=approved)
    out = np.empty(tau.shape[:2])
    per = max(1, _BATCH_CELLS // tau[0].size)
    # walk[t, r, i] is flat[(t * rows + r) * n + i]
    flat = walk.reshape(-1)
    for r0 in range(0, rows, per):
        part = tau[r0:r0 + per]
        finals = workspace.array("finals", part.shape)
        index = workspace.array("final_index", part.shape, np.intp)
        np.copyto(index, part)
        index *= rows * n
        index += np.arange(r0 * n, (r0 + len(part)) * n).reshape(-1, 1, n)
        # Every index is in range; mode="raise" would buffer out.
        np.take(flat, index, out=finals, mode="clip")
        out[r0:r0 + per] = finals.mean(axis=2)
    return out


# Score evaluations a threshold search may cover, (betas) x (scores): under
# a second.  The CLI's default, 1,001 betas over 1,000 scores, is 1.0e6.
MAX_SWEEP_EVALUATIONS = 10**8

# Thresholds a threshold search may cover at any n: each of its float arrays
# over the thresholds then holds at most 8 MB.  The finest pinned and
# documented searches have 50,001 and 100,001.
MAX_SWEEP_THRESHOLDS = 10**6


def grid_search_threshold(dist: ScoreDistribution, params: DynamicsParams,
                          resolution: float = 1e-3) -> float:
    """Beta on the grid {0, res, ..., 1} maximizing the exact one-step mean.

    The grid's bounded search on a one-step walk, X[1] = g(X[0]): exact
    means, the floats np.where(scores >= beta, g, scores).mean() gives, are
    read at the thresholds within 2 * _curve_error of the best approximate
    mean.  Ties break toward the largest beta.  resolution must be <= 0.01;
    a sweep past MAX_SWEEP_EVALUATIONS, or past MAX_SWEEP_THRESHOLDS
    thresholds, is refused before any beta is built.
    """
    if not (0 < resolution <= 0.01):
        raise ValueError("resolution must lie in (0, 0.01]")
    m = np.round(1.0 / resolution)      # a float: inf for a subnormal step
    evaluations = (m + 1) * dist.n
    if evaluations > MAX_SWEEP_EVALUATIONS:
        raise ValueError(
            f"resolution {resolution!r} over {dist.n:,} scores needs "
            f"{evaluations:,.0f} evaluations, more than the cap of "
            f"{MAX_SWEEP_EVALUATIONS:,}")
    if m + 1 > MAX_SWEEP_THRESHOLDS:
        raise ValueError(
            f"resolution {resolution!r} needs {m + 1:,.0f} thresholds, more "
            f"than the cap of {MAX_SWEEP_THRESHOLDS:,}")
    s, workspace = dist.scores, _Workspace()
    betas = np.linspace(0.0, 1.0, int(m) + 1)
    g = expected_next_score(s, params.k, params.c_for(dist.group))
    walk = np.stack([s, g])[:, None]
    counts = np.empty((1, 1, dist.n), np.min_scalar_type(betas.size))
    approx = _approx_curves(walk, betas, counts, workspace)[0]
    keep = np.flatnonzero(approx >= approx.max() - 1024.0 * _U
                          - 2.0 * _curve_error(dist.n, 1, betas.size, 1))
    exact = _exact_means(walk, counts, keep, workspace)[0]
    best = keep[np.flatnonzero(exact == exact.max())[-1]]
    return float(betas[best])


def _replicate_means(means: np.ndarray) -> np.ndarray:
    """Means over axis 1 of a (specs, replicates, thresholds) array, summed
    replicate by replicate from zero, as numpy's axis-0 mean of a C-ordered
    (replicates, thresholds) array sums them: another order changes the
    last bits."""
    total = np.zeros((len(means), means.shape[2]))
    for s in range(means.shape[1]):
        total += means[:, s]
    return total / means.shape[1]


def baseline_outcome(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                     params: DynamicsParams, horizon: int,
                     seed: int) -> dict[str, float]:
    """Per-group horizon means under the pre-intervention optimum: each
    group's simulate_group at its analytic beta-hat(k, c), slot 0 for
    dist_a and 1 for dist_d.

    This is the one no-intervention baseline: an evaluation's baseline is
    the replicate mean of these values over its replicate seeds (_walk).
    """
    out = {}
    for slot, dist in enumerate((dist_a, dist_d)):
        c = params.c_for(dist.group)
        bhat = optimal_threshold(params.k, c).beta_hat
        out[dist.group] = float(simulate_group(
            dist, bhat, params.k, c, horizon, seed, group_slot=slot).mean())
    return out


@dataclass(frozen=True)
class PolicyOutcome:
    """Best-threshold result of one intervention evaluation."""

    kind: InterventionKind
    r: float
    baseline_c: float
    weights: UtilityWeights
    beta_by_group: Mapping[str, float]
    mean_a: float
    mean_d: float
    base_a: float
    base_d: float
    utility: float

    def __post_init__(self):
        object.__setattr__(self, "beta_by_group", dict(self.beta_by_group))


def _check_settings(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                    horizon: int, n_seeds: int) -> None:
    """Refuse what no cell can evaluate, before any block is built."""
    if dist_a.group == dist_d.group:
        raise ValueError("groups must have distinct labels")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")


def _evaluate_cell(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                   specs: Sequence[InterventionSpec], seeds: Sequence[int],
                   weights: UtilityWeights, k: float, horizon: int,
                   n_seeds: int, per_group_beta: bool, betas: np.ndarray,
                   workspace: _Workspace) -> list[PolicyOutcome]:
    """Evaluate interventions that share one c-hat, specs[i] under seeds[i].

    Outcome i is the same, bit for bit, as evaluating specs[i] alone under
    seeds[i]: every spec keeps its own replicate seeds and its rows are
    walked and averaged on their own.  Batching only shares the work: per
    group, one uniform_blocks call builds the blocks of every spec's
    replicates behind the scores in one walk array, and one walk (_walk)
    steps all of them, each row at its spec's post-intervention penalty,
    together with the beta-hat baseline, which every spec runs at the
    shared c-hat.  The walks and the walk's and the search's temporaries
    are arrays of the workspace, so the cells of one grid reuse them.

    The threshold search is bounded.  The walk yields approximate curves
    whose replicate means lie within _curve_error (delta) of the exact
    ones, and a utility moves by at most its two means' moves, so the
    exact best candidate has an approximate utility within 2 * (delta_A +
    delta_D) of the approximate best (plus a rounding margin).  Exact means
    are read out at the candidates inside that slack only: each group's
    walk once, at the union of its specs' candidates, since an exact mean
    is the same float whichever other thresholds are read.  The last
    candidate with the highest exact utility wins.  Those are the floats,
    in the same order, that a full sweep of every threshold compares, so
    the choice, its means and its utility do not change.  The settings
    are checked by the caller (_check_settings).
    """
    c_hat = specs[0].baseline_c
    bhat = optimal_threshold(k, c_hat).beta_hat
    pre = DynamicsParams.uniform(k, c_hat, (dist_a.group, dist_d.group))
    posts = [apply_intervention(pre, spec, disadvantaged=dist_d.group)
             for spec in specs]
    rep_seeds = [s for seed in seeds for s in _replicate_seeds(seed, n_seeds)]

    # The margin covers the rounding of the utilities, each a few float
    # operations on values of size at most 4, and of the comparison.
    walks, means, bases, slack = [], [], [], 1024.0 * _U
    for slot, dist in ((0, dist_a), (1, dist_d)):
        c_rows = np.repeat([post.c_for(dist.group) for post in posts], n_seeds)
        # Step-major, so that a step of every row, which each walk step and
        # search batch reads, is one contiguous slab.  Group A's walk and
        # threshold counts live on until both groups' curves have picked
        # the candidates.
        walk = workspace.array(f"walk{slot}", (horizon + 1, len(rep_seeds),
                                               dist.n))
        walk[0] = dist.scores
        uniform_blocks(rep_seeds, horizon, slot, dist.n, out=walk[1:])
        base = _walk(k, c_rows, walk, bhat, c_hat, workspace)
        # A count is at most m + 1 <= 1,001, as _beta_grid caps m at
        # _MAX_BETA_STEPS, so a uint16 holds it.
        counts = workspace.array(f"counts{slot}", (horizon, len(rep_seeds),
                                                   dist.n), np.uint16)
        approx = _approx_curves(walk, betas, counts, workspace)
        walks.append((walk, counts))
        # spec i's replicates are rows i * n_seeds ... (i + 1) * n_seeds - 1
        means.append(approx.reshape(len(specs), n_seeds, -1).mean(axis=1))
        bases.append(base.reshape(len(specs), n_seeds).mean(axis=1).tolist())
        slack += 2.0 * _curve_error(dist.n, horizon, betas.size, n_seeds)

    # Candidate (A, D) threshold indices in row-major order: the whole grid,
    # or its diagonal when both groups share one beta.  Keep those whose
    # approximate utility is within the slack of the best.
    plans = []
    for ma, md, base_a, base_d in zip(*means, *bases):
        if per_group_beta:
            u_vals = _utility_values(ma[:, None], md, base_a, base_d,
                                     weights).ravel()
        else:
            u_vals = _utility_values(ma, md, base_a, base_d, weights)
        keep = np.flatnonzero(u_vals >= u_vals.max() - slack)
        plans.append(divmod(keep, betas.size) if per_group_beta
                     else (keep, keep))

    # Exact replicate means at the union of each group's surviving
    # thresholds, one pass over each walk, mapped back onto the candidates.
    exact = []
    for side in (0, 1):
        js = np.unique(np.concatenate([plan[side] for plan in plans]))
        per_row = _exact_means(*walks[side], js, workspace)
        walks[side] = None
        reps = _replicate_means(per_row.reshape(len(specs), n_seeds, -1))
        exact.append([rep[np.searchsorted(js, plan[side])]
                      for rep, plan in zip(reps, plans)])

    # Ties go to the last candidate.
    outcomes = []
    for spec, (cand_a, cand_d), ma, md, base_a, base_d in zip(
            specs, plans, *exact, *bases):
        u_vals = _utility_values(ma, md, base_a, base_d, weights)
        best = np.flatnonzero(u_vals == u_vals.max())[-1]
        mean_a, mean_d = float(ma[best]), float(md[best])
        outcomes.append(PolicyOutcome(
            kind=spec.kind, r=spec.r, baseline_c=spec.baseline_c,
            weights=weights,
            beta_by_group={dist_a.group: float(betas[cand_a[best]]),
                           dist_d.group: float(betas[cand_d[best]])},
            mean_a=mean_a, mean_d=mean_d, base_a=base_a, base_d=base_d,
            utility=utility(mean_a, mean_d, base_a, base_d, weights)))
    return outcomes


def evaluate_policy(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                    spec: InterventionSpec, weights: UtilityWeights, k: float,
                    horizon: int = 20, n_seeds: int = 10, seed: int = 0,
                    per_group_beta: bool = False,
                    beta_step: float = 0.01) -> PolicyOutcome:
    """Apply one intervention and search the threshold grid for best utility.

    The one-spec case of the cell evaluation that recommend_grid runs.
    Each group's uniform blocks, one per replicate, are built in one pass
    and drive every threshold of the post-intervention sweep (one walk per
    replicate) and the baseline (c-hat at the pre-intervention optimum: the
    frozen walk at beta-hat, whose replicate mean is that of
    baseline_outcome over the replicate seeds), so the curve and its
    baseline are coupled.  The search is bounded (_evaluate_cell):
    approximate means within a proven float error bound pick the candidate
    thresholds, and exact means, the floats a full sweep computes, are read
    out at those only, so the outcome is the full sweep's, bit for bit.
    Replicate streams depend only on (seed, replicate), so evaluations that
    share a seed are coupled across kinds and r values too; recommend_grid
    does not share seeds: it gives every (cell, kind) its own.  beta_step
    must split [0, 1] into at most 1,000 whole steps (_beta_grid).
    """
    betas = _beta_grid(beta_step)
    _check_settings(dist_a, dist_d, horizon, n_seeds)
    return _evaluate_cell(dist_a, dist_d, [spec], [seed], weights, k,
                          horizon, n_seeds, per_group_beta, betas,
                          _Workspace())[0]


@dataclass(frozen=True)
class GridCell:
    c: float
    r: float
    best: InterventionKind
    utilities: Mapping[InterventionKind, float]
    marginal: float          # max-normalized across the whole grid
    outcomes: Mapping[InterventionKind, PolicyOutcome]

    def __post_init__(self):
        object.__setattr__(self, "utilities", dict(self.utilities))
        object.__setattr__(self, "outcomes", dict(self.outcomes))


@dataclass(frozen=True)
class RecommendationGrid:
    weights: UtilityWeights
    c_values: tuple[float, ...]
    r_values: tuple[float, ...]
    cells: tuple[GridCell, ...]   # row-major: c outer, r inner
    k: float
    horizon: int
    n_seeds: int
    seed: int

    @cached_property
    def _by_anchor(self) -> dict[tuple[float, float], GridCell]:
        return {(cell.c, cell.r): cell for cell in self.cells}

    def cell(self, c: float, r: float) -> GridCell:
        try:
            return self._by_anchor[(c, r)]
        except KeyError:
            raise KeyError(f"no cell at ({c}, {r})") from None


class WorkerLost(RuntimeError):
    """A grid worker process ended before returning its cells."""


def _grid_cell(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
               c_values: tuple[float, ...], r_values: tuple[float, ...],
               seed: int, weights: UtilityWeights, k: float, horizon: int,
               n_seeds: int, per_group_beta: bool, betas: np.ndarray,
               cell_idx: int,
               workspace: _Workspace) -> dict[InterventionKind, PolicyOutcome]:
    """Outcomes of every kind in one grid cell, each under its own seed."""
    c_hat = c_values[cell_idx // len(r_values)]
    r = r_values[cell_idx % len(r_values)]
    specs = [InterventionSpec(kind=kind, r=r, baseline_c=c_hat)
             for kind in KIND_ORDER]
    seeds = [derive_seed(seed, TAG_CELL, cell_idx, kind_idx)
             for kind_idx in range(len(KIND_ORDER))]
    return dict(zip(KIND_ORDER, _evaluate_cell(
        dist_a, dist_d, specs, seeds, weights, k, horizon, n_seeds,
        per_group_beta, betas, workspace)))


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The cell task and the workspace of a grid worker process, set as the
# worker starts (_start_worker); the process that maps the cells never
# sets them.
_worker_task = None
_worker_workspace = None


def _start_worker(task) -> None:
    global _worker_task, _worker_workspace
    _worker_task, _worker_workspace = task, _Workspace()


def _run_cell(cell_idx: int):
    return _worker_task(cell_idx, _worker_workspace)


def _map_cells(task, n_cells: int, threads: int) -> list:
    """[task(0, ws), ..., task(n_cells - 1, ws)], on forked worker processes.

    The pool has min(threads, n_cells, usable cores) workers; with one, or
    where the fork start method is missing, the cells run here in order.
    Workers are forked, so they start with this process's modules and
    data, and with the task, instead of importing them again, as spawned
    ones would.  Each worker makes its own workspace ws as it starts, so
    the cell arrays live in the workers alone, and die with them when the
    grid is done; cells run here share one workspace that is dropped on
    return.  Forking is safe only while no other thread of this process
    holds a lock: the CLI starts none, and the executor forks every worker
    before it starts its own manager thread; a caller running threads of
    its own passes threads=1.  The pool is shut down, its workers joined,
    before this returns or raises.  multiprocessing and the executor are
    imported only here, which keeps them out of every command that runs no
    grid.
    """
    workers = min(threads, n_cells, _usable_cores())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import (BrokenProcessPool,
                                                    ProcessPoolExecutor)
            context = multiprocessing.get_context("fork")
            try:
                with ProcessPoolExecutor(workers, mp_context=context,
                                         initializer=_start_worker,
                                         initargs=(task,)) as pool:
                    return list(pool.map(_run_cell, range(n_cells)))
            except BrokenProcessPool as exc:
                raise WorkerLost("a grid worker process ended abruptly "
                                 "(killed, perhaps out of memory)") from exc
    workspace = _Workspace()
    return [task(cell_idx, workspace) for cell_idx in range(n_cells)]


def recommend_grid(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                   c_grid: Sequence[float], r_grid: Sequence[float],
                   weights: UtilityWeights, k: float, horizon: int = 20,
                   n_seeds: int = 10, seed: int = 0, threads: int = 1,
                   per_group_beta: bool = False,
                   beta_step: float = 0.01) -> RecommendationGrid:
    """Evaluate all three interventions on every (c-hat, r) anchor cell.

    Cell (i, j) under policy kind p draws its seed from
    (seed, cell index, p) and its replicates from that, per the concurrency
    contract; the worker count can only change wall time, never a value.
    Each cell is one batched evaluation of its three kinds (one task per
    cell, _grid_cell), and each kind's outcome equals evaluate_policy under
    its seed.  threads asks for up to that many worker processes, capped at
    the cell count and the usable cores (_map_cells); a worker that dies
    raises WorkerLost.
    """
    c_values = tuple(float(c) for c in c_grid)
    r_values = tuple(float(r) for r in r_grid)
    if not c_values or not r_values:
        raise ValueError("c_grid and r_grid must be nonempty")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    betas = _beta_grid(beta_step)
    _check_settings(dist_a, dist_d, horizon, n_seeds)
    task = partial(_grid_cell, dist_a, dist_d, c_values, r_values, seed,
                   weights, k, horizon, n_seeds, per_group_beta, betas)
    by_cell = _map_cells(task, len(c_values) * len(r_values), threads)

    raw_marginals = []
    for outcomes in by_cell:
        u = sorted((outcomes[kind].utility for kind in KIND_ORDER), reverse=True)
        raw_marginals.append(u[0] - u[1])
    max_marginal = max(raw_marginals)
    scale = max_marginal if max_marginal > 0 else 1.0

    cells = []
    for cell_idx, outcomes in enumerate(by_cell):
        utilities = {kind: outcomes[kind].utility for kind in KIND_ORDER}
        best = KIND_ORDER[int(np.argmax([utilities[kind] for kind in KIND_ORDER]))]
        cells.append(GridCell(
            c=c_values[cell_idx // len(r_values)],
            r=r_values[cell_idx % len(r_values)],
            best=best, utilities=utilities,
            marginal=raw_marginals[cell_idx] / scale,
            outcomes=outcomes))
    return RecommendationGrid(weights=weights, c_values=c_values,
                              r_values=r_values, cells=tuple(cells), k=k,
                              horizon=horizon, n_seeds=n_seeds, seed=seed)


def grid_as_dict(grid: RecommendationGrid) -> dict:
    """JSON form: {alpha, c_grid, r_grid, cells:[...]}."""
    return {
        "alpha": grid.weights.alpha,
        "c_grid": list(grid.c_values),
        "r_grid": list(grid.r_values),
        "cells": [
            {
                "c": cell.c,
                "r": cell.r,
                "best": cell.best.value,
                "utilities": {kind.value: cell.utilities[kind]
                              for kind in KIND_ORDER},
                "marginal": cell.marginal,
            }
            for cell in grid.cells
        ],
    }


def grid_rows(grid: RecommendationGrid) -> list[dict]:
    """Flat CSV form, one row per cell."""
    return [
        {
            "c": cell.c,
            "r": cell.r,
            "best": cell.best.value,
            "utility_beta_only": cell.utilities[InterventionKind.BETA_ONLY],
            "utility_group_blind": cell.utilities[InterventionKind.GROUP_BLIND],
            "utility_group_conscious": cell.utilities[InterventionKind.GROUP_CONSCIOUS],
            "marginal": cell.marginal,
        }
        for cell in grid.cells
    ]
