"""Structural interventions and the recommendation grid.

A policy evaluation compares a horizon outcome against the no-intervention
baseline (both groups at the pre-intervention penalty c-hat, approved at the
analytic optimal threshold).  The utility of an outcome is

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

recommend_grid evaluates each cell once, for all three kinds: per group,
one pass builds the blocks of every kind's replicates and one step loop
walks them all, each row at its kind's post-intervention penalty, with the
baseline at the shared c-hat.  Every kind keeps its own seed
(seed, cell, kind) and its own replicates, so its outcome is evaluate_policy
under that seed, bit for bit; evaluate_policy is the one-kind case.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._random import derive_seed, uniform_blocks, TAG_CELL, TAG_REPLICATE
# Nothing here calls uniform_block: perfbench/tracing.py wraps it at this
# name and tests/test_benchmark_contract.py checks that the name resolves.
from ._random import uniform_block  # noqa: F401
from .dynamics import (DynamicsParams, ScoreDistribution, _advance_scores,
                       approved_step)
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


# Most (row, beta + 1, agent) cells the sweep's tail handles at once, so
# that its temporaries stay in cache.
_CHUNK_CELLS = 1 << 17

# Most steps of the threshold grid: it keeps the per-group candidate grid,
# (steps + 1) ** 2 threshold pairs, near a million.
_MAX_BETA_STEPS = 1000


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


def _sweep_tail(scores0: np.ndarray, betas: np.ndarray,
                walks: np.ndarray) -> np.ndarray:
    """Horizon-end means of every row's walk at every threshold.

    walks[r, t] is row r's always-approved walk X[t + 1] (X[0] = scores0),
    shape (rows, horizon, n); betas ascending.  Returns shape
    (rows, len(betas)).  By the freeze identity, under shared uniforms an
    agent with threshold b follows X until its running minimum first drops
    below b, and stays frozen from then on, so its final score is X[tau(b)]
    with tau(b) = #{t < horizon : min(X_0..X_t) >= b}.

    Along the betas tau does not increase, so an agent's finals are
    X[horizon], ..., X[0] in runs, one np.repeat of its reversed walk.  Rows
    are handled in chunks of at most _CHUNK_CELLS (beta + 1, agent) cells;
    they are independent, so the chunking changes no bit.
    """
    rows, horizon, n = walks.shape
    nb = betas.size
    out = np.empty((rows, nb))
    chunk = max(1, _CHUNK_CELLS // ((nb + 1) * n))
    for r0 in range(0, rows, chunk):
        m = min(chunk, rows - r0)
        # rev[r, i]: agent i's walk backwards, X[horizon], ..., X[0].
        rev = np.empty((m, n, horizon + 1))
        rev[:, :, :horizon] = walks[r0:r0 + m, ::-1].transpose(0, 2, 1)
        rev[:, :, horizon] = scores0
        # cleared[r, i, t]: how many betas agent i still clears at step t
        # (ties approve).  Each agent's keys lie together and descend,
        # which speeds the search.
        runmin = np.minimum.accumulate(rev[:, :, :0:-1], axis=2)
        cleared = np.searchsorted(betas, runmin, side="right")
        # Under betas[j] the agent is approved while cleared > j, so along j
        # it ends at X[horizon], ..., X[0] for as many betas as the gaps
        # between 0, cleared[horizon - 1], ..., cleared[0], nb.
        runs = np.diff(cleared[:, :, ::-1], axis=2, prepend=0, append=nb)
        finals = np.repeat(rev.ravel(), runs.ravel()).reshape(m, n, nb)
        # The agent means must sum a C-ordered (rows, betas, agents) array,
        # like the per-threshold sweep: the means of another memory layout
        # sum in another order and change the last bits.
        out[r0:r0 + m] = np.ascontiguousarray(
            finals.transpose(0, 2, 1)).mean(axis=2)
    return out


def _group_means(scores0: np.ndarray, k: float, c_rows, c_hat: float,
                 betas: np.ndarray, blocks: np.ndarray,
                 long_run_baseline: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sweep curves and baseline means of one group's rows.

    Row r draws the uniforms blocks[r], shape (horizon, n), and its curve
    walks them at penalty c_rows[r]: curves[r, j] equals
    simulate_group(..., betas[j], k, c_rows[r], ...).mean() for the seed
    that built the row, bit for bit (_sweep_tail).  The baseline steps the
    same uniforms at c_hat: at the one-step beta-hat, base[r] is the
    population's frozen walk, one update per step; with long_run_baseline
    it is the best mean of a sweep at c_hat, extra rows of the one walk.
    Returns curves, shape (rows, len(betas)), and base, shape (rows,).

    blocks is consumed: the walk overwrites each step's uniforms with the
    scores they produce, after the baseline has read them.
    """
    rows, horizon, _ = blocks.shape
    c_col = np.asarray(c_rows, dtype=float).reshape(-1, 1)
    if long_run_baseline:
        blocks = np.concatenate([blocks, blocks])
        c_col = np.concatenate([c_col, np.full((rows, 1), c_hat)])
    else:
        bhat = optimal_threshold(k, c_hat).beta_hat
        base = np.repeat(scores0[None], rows, axis=0)
    x = scores0
    for t in range(horizon):
        u = blocks[:, t]
        if not long_run_baseline:
            base = _advance_scores(base, u, bhat, k, c_hat)
        u[...] = approved_step(x, u, k, c_col)
        x = u
    curves = _sweep_tail(scores0, betas, blocks)
    if long_run_baseline:
        return curves[:rows], curves[rows:].max(axis=1)
    return curves, base.mean(axis=1)


def baseline_outcome(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                     params: DynamicsParams, horizon: int, seed: int,
                     long_run_search: bool = False,
                     beta_step: float = 0.01) -> dict[str, float]:
    """Per-group horizon means under the pre-intervention optimum.

    Default threshold is each group's analytic one-step beta-hat; with
    long_run_search the horizon mean itself is grid-searched per group.
    """
    betas = _beta_grid(beta_step)
    out = {}
    for slot, dist in ((0, dist_a), (1, dist_d)):
        c = params.c_for(dist.group)
        blocks = uniform_blocks([seed], horizon, slot, dist.n)
        _, base = _group_means(dist.scores, params.k, [c], c, betas, blocks,
                               long_run_search)
        out[dist.group] = float(base[0])
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


def _evaluate_cell(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                   specs: Sequence[InterventionSpec], seeds: Sequence[int],
                   weights: UtilityWeights, k: float, horizon: int,
                   n_seeds: int, per_group_beta: bool, betas: np.ndarray,
                   long_run_baseline: bool) -> list[PolicyOutcome]:
    """Evaluate interventions that share one c-hat, specs[i] under seeds[i].

    Outcome i is the same, bit for bit, as evaluating specs[i] alone under
    seeds[i]: every spec keeps its own replicate seeds and its rows are
    walked and averaged on their own.  Batching only shares the work: per
    group, one uniform_blocks call builds the blocks of every spec's
    replicates, and one walk (_group_means) steps all of them, each row at
    its spec's post-intervention penalty, together with the baseline, which
    every spec runs at the shared c-hat.
    """
    if dist_a.group == dist_d.group:
        raise ValueError("groups must have distinct labels")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    c_hat = specs[0].baseline_c
    pre = DynamicsParams.uniform(k, c_hat, (dist_a.group, dist_d.group))
    posts = [apply_intervention(pre, spec, disadvantaged=dist_d.group)
             for spec in specs]
    rep_seeds = [s for seed in seeds for s in _replicate_seeds(seed, n_seeds)]
    # spec i's replicates are rows i * n_seeds ... (i + 1) * n_seeds - 1
    spans = [slice(i * n_seeds, (i + 1) * n_seeds) for i in range(len(specs))]

    means, bases = [], []
    for slot, dist in ((0, dist_a), (1, dist_d)):
        c_rows = np.repeat([post.c_for(dist.group) for post in posts], n_seeds)
        # The blocks go straight in, so that group A's walk is freed before
        # group D's blocks are built: holding both raised the peak RSS.
        curves, base = _group_means(
            dist.scores, k, c_rows, c_hat, betas,
            uniform_blocks(rep_seeds, horizon, slot, dist.n),
            long_run_baseline)
        means.append([curves[span].mean(axis=0) for span in spans])
        bases.append([float(np.mean(base[span])) for span in spans])

    # Candidate (A, D) threshold indices in row-major order: the whole grid,
    # or its diagonal when both groups share one beta.  Ties go to the last.
    if per_group_beta:
        cand_a, cand_d = np.indices((betas.size, betas.size)).reshape(2, -1)
    else:
        cand_a = cand_d = np.arange(betas.size)
    outcomes = []
    for spec, ma, md, base_a, base_d in zip(specs, *means, *bases):
        u_vals = _utility_values(ma[cand_a], md[cand_d], base_a, base_d,
                                 weights)
        best = np.flatnonzero(u_vals == u_vals.max())[-1]
        ia, id_ = cand_a[best], cand_d[best]
        mean_a, mean_d = float(ma[ia]), float(md[id_])
        outcomes.append(PolicyOutcome(
            kind=spec.kind, r=spec.r, baseline_c=spec.baseline_c,
            weights=weights,
            beta_by_group={dist_a.group: float(betas[ia]),
                           dist_d.group: float(betas[id_])},
            mean_a=mean_a, mean_d=mean_d, base_a=base_a, base_d=base_d,
            utility=utility(mean_a, mean_d, base_a, base_d, weights)))
    return outcomes


def evaluate_policy(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                    spec: InterventionSpec, weights: UtilityWeights, k: float,
                    horizon: int = 20, n_seeds: int = 10, seed: int = 0,
                    per_group_beta: bool = False, beta_step: float = 0.01,
                    long_run_baseline: bool = False) -> PolicyOutcome:
    """Apply one intervention and search the threshold grid for best utility.

    The one-spec case of the cell evaluation that recommend_grid runs.
    Each group's uniform blocks, one per replicate, are built in one pass
    and drive every threshold of the post-intervention sweep (one walk per
    replicate) and the baseline (c-hat at the pre-intervention optimum: the
    frozen walk at beta-hat, or with long_run_baseline a second sweep), so
    the curve and its baseline are coupled.
    Replicate streams depend only on (seed, replicate), so evaluations that
    share a seed are coupled across kinds and r values too; recommend_grid
    does not share seeds: it gives every (cell, kind) its own.  beta_step
    must split [0, 1] into at most 1,000 whole steps (_beta_grid).
    """
    return _evaluate_cell(dist_a, dist_d, [spec], [seed], weights, k,
                          horizon, n_seeds, per_group_beta,
                          _beta_grid(beta_step), long_run_baseline)[0]


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


def recommend_grid(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                   c_grid: Sequence[float], r_grid: Sequence[float],
                   weights: UtilityWeights, k: float, horizon: int = 20,
                   n_seeds: int = 10, seed: int = 0, threads: int = 1,
                   per_group_beta: bool = False,
                   beta_step: float = 0.01) -> RecommendationGrid:
    """Evaluate all three interventions on every (c-hat, r) anchor cell.

    Cell (i, j) under policy kind p draws its seed from
    (seed, cell index, p) and its replicates from that, per the concurrency
    contract; thread count can only change wall time, never a value.  Each
    cell is one batched evaluation of its three kinds (one task per cell),
    and each kind's outcome equals evaluate_policy under its seed.
    """
    c_values = tuple(float(c) for c in c_grid)
    r_values = tuple(float(r) for r in r_grid)
    if not c_values or not r_values:
        raise ValueError("c_grid and r_grid must be nonempty")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    betas = _beta_grid(beta_step)
    n_cells = len(c_values) * len(r_values)

    def run(cell_idx):
        c_hat = c_values[cell_idx // len(r_values)]
        r = r_values[cell_idx % len(r_values)]
        specs = [InterventionSpec(kind=kind, r=r, baseline_c=c_hat)
                 for kind in KIND_ORDER]
        seeds = [derive_seed(seed, TAG_CELL, cell_idx, kind_idx)
                 for kind_idx in range(len(KIND_ORDER))]
        return dict(zip(KIND_ORDER, _evaluate_cell(
            dist_a, dist_d, specs, seeds, weights, k, horizon, n_seeds,
            per_group_beta, betas, long_run_baseline=False)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            by_cell = list(pool.map(run, range(n_cells)))
    else:
        by_cell = [run(cell_idx) for cell_idx in range(n_cells)]

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
