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


# Most (replicate, beta + 1, agent) cells the sweep's tail handles at once,
# so that its counts and indices stay in cache.
_CHUNK_CELLS = 1 << 17


def _mean_curves(scores0: np.ndarray, k: float, c: float, betas: np.ndarray,
                 blocks: np.ndarray) -> np.ndarray:
    """Horizon-end group means, shape (replicates, len(betas)).

    blocks: uniforms of shape (replicates, horizon, n); betas ascending.
    Column j of replicate r equals simulate_group(..., betas[j],
    seed=rep_seed[r]).mean() bit for bit, by the freeze identity: under
    shared uniforms, an agent with threshold b follows the always-approved
    walk X until its running minimum first drops below b, and stays frozen
    from then on.  So its final score is X[tau(b)] with
    tau(b) = #{t < horizon : min(X_0..X_t) >= b}, and one walk per
    replicate answers every threshold.

    The walk is built for all replicates at once; the rest (running minima,
    counts, gather, agent means) runs over chunks of whole replicates of at
    most _CHUNK_CELLS (beta + 1, agent) cells.  Replicates are independent
    and each chunk's finals are C-ordered (replicates, betas, agents), so
    the chunking changes no bit.  It is built for whole threshold grids: the
    post-intervention sweep and the long-run baseline search.  The beta-hat
    baseline walks its one threshold directly (_baseline_means).
    """
    n_reps, horizon, n = blocks.shape
    nb = betas.size
    X = np.empty((horizon + 1, n_reps, n))
    X[0] = scores0
    for t in range(horizon):
        X[t + 1] = approved_step(X[t], blocks[:, t], k, c)
    walks = X.ravel()
    agent = np.arange(n)
    out = np.empty((n_reps, nb))
    chunk = max(1, _CHUNK_CELLS // ((nb + 1) * n))
    for r0 in range(0, n_reps, chunk):
        m = min(chunk, n_reps - r0)
        # cleared[r, i, t]: how many betas agent i of replicate r0 + r still
        # clears at step t (ties approve).  Each agent's keys lie together
        # and descend, which speeds the search.
        runmin = np.minimum.accumulate(np.ascontiguousarray(
            X[:horizon, r0:r0 + m].transpose(1, 2, 0)), axis=2)
        cleared = np.searchsorted(betas, runmin, side="right")
        rep = np.arange(m)[:, None, None]
        counts = np.bincount(
            ((rep * (nb + 1) + cleared) * n + agent[:, None]).ravel(),
            minlength=m * (nb + 1) * n)
        # frozen[r, j, i] = #{t : cleared[r, i, t] <= j}, the steps agent i
        # spends frozen under betas[j], so tau = horizon - frozen.  It
        # becomes, in place, the flat index of X[tau, r0 + r, i].
        index = np.cumsum(counts.reshape(m, nb + 1, n)[:, :nb], axis=1)
        index *= -n_reps * n
        index += (horizon * n_reps + r0 + rep) * n + agent
        # finals must stay C-ordered (replicates, betas, agents) like the
        # per-threshold sweep it replaces: the agent means of another
        # memory layout sum in another order and change the last bits.
        out[r0:r0 + m] = walks[index].mean(axis=2)
    return out


def _beta_grid(step: float) -> np.ndarray:
    m = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, m + 1)


def _baseline_means(scores0: np.ndarray, k: float, c: float,
                    blocks: np.ndarray, long_run_search: bool,
                    beta_step: float) -> np.ndarray:
    """Per-replicate baseline horizon means, shape (replicates,).

    The threshold is the analytic one-step beta-hat, or with
    long_run_search the grid beta that maximizes each replicate's mean.
    At beta-hat every replicate's population takes the frozen walk itself,
    one update per step; entry r is simulate_group(..., beta-hat,
    seed=rep_seed[r]).mean(), which the freeze identity makes equal, bit for
    bit, to column 0 of _mean_curves(..., [beta-hat]).
    """
    if long_run_search:
        return _mean_curves(scores0, k, c, _beta_grid(beta_step), blocks).max(axis=1)
    bhat = optimal_threshold(k, c).beta_hat
    n_reps, horizon, _ = blocks.shape
    scores = np.repeat(scores0[None], n_reps, axis=0)
    for t in range(horizon):
        scores = _advance_scores(scores, blocks[:, t], bhat, k, c)
    return scores.mean(axis=1)


def baseline_outcome(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                     params: DynamicsParams, horizon: int, seed: int,
                     long_run_search: bool = False,
                     beta_step: float = 0.01) -> dict[str, float]:
    """Per-group horizon means under the pre-intervention optimum.

    Default threshold is each group's analytic one-step beta-hat; with
    long_run_search the horizon mean itself is grid-searched per group.
    """
    out = {}
    for slot, dist in ((0, dist_a), (1, dist_d)):
        blocks = uniform_blocks([seed], horizon, slot, dist.n)
        means = _baseline_means(dist.scores, params.k, params.c_for(dist.group),
                                blocks, long_run_search, beta_step)
        out[dist.group] = float(means[0])
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


def evaluate_policy(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                    spec: InterventionSpec, weights: UtilityWeights, k: float,
                    horizon: int = 20, n_seeds: int = 10, seed: int = 0,
                    per_group_beta: bool = False, beta_step: float = 0.01,
                    long_run_baseline: bool = False) -> PolicyOutcome:
    """Apply one intervention and search the threshold grid for best utility.

    Each group's uniform blocks, one per replicate, are built in one pass
    and drive every threshold of the post-intervention sweep (one walk per
    replicate, _mean_curves) and the baseline (c-hat at the pre-intervention
    optimum: the frozen walk at beta-hat, or with long_run_baseline a second
    sweep), so the curve and its baseline are coupled.
    Replicate streams depend only on (seed, replicate), so evaluations that
    share a seed are coupled across kinds and r values too; recommend_grid
    does not share seeds: it gives every (cell, kind) its own.
    """
    if dist_a.group == dist_d.group:
        raise ValueError("groups must have distinct labels")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be positive, got {n_seeds}")
    pre = DynamicsParams.uniform(k, spec.baseline_c,
                                 (dist_a.group, dist_d.group))
    post = apply_intervention(pre, spec, disadvantaged=dist_d.group)
    betas = _beta_grid(beta_step)
    rep_seeds = _replicate_seeds(seed, n_seeds)

    means, bases = [], []
    for slot, dist in ((0, dist_a), (1, dist_d)):
        blocks = uniform_blocks(rep_seeds, horizon, slot, dist.n)
        curves = _mean_curves(dist.scores, k, post.c_for(dist.group), betas,
                              blocks)
        means.append(curves.mean(axis=0))
        bases.append(float(np.mean(_baseline_means(
            dist.scores, k, pre.c_for(dist.group), blocks, long_run_baseline,
            beta_step))))
    ma, md = means
    base_a, base_d = bases

    # Candidate (A, D) threshold indices in row-major order: the whole grid,
    # or its diagonal when both groups share one beta.  Ties go to the last.
    if per_group_beta:
        cand_a, cand_d = np.indices((betas.size, betas.size)).reshape(2, -1)
    else:
        cand_a = cand_d = np.arange(betas.size)
    u_vals = _utility_values(ma[cand_a], md[cand_d], base_a, base_d, weights)
    best = np.flatnonzero(u_vals == u_vals.max())[-1]
    ia, id_ = cand_a[best], cand_d[best]
    beta_by_group = {dist_a.group: float(betas[ia]),
                     dist_d.group: float(betas[id_])}
    mean_a, mean_d = float(ma[ia]), float(md[id_])

    return PolicyOutcome(
        kind=spec.kind, r=spec.r, baseline_c=spec.baseline_c, weights=weights,
        beta_by_group=beta_by_group, mean_a=mean_a, mean_d=mean_d,
        base_a=base_a, base_d=base_d,
        utility=utility(mean_a, mean_d, base_a, base_d, weights))


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
    contract; thread count can only change wall time, never a value.
    """
    c_values = tuple(float(c) for c in c_grid)
    r_values = tuple(float(r) for r in r_grid)
    if not c_values or not r_values:
        raise ValueError("c_grid and r_grid must be nonempty")

    tasks = []
    for cell_idx in range(len(c_values) * len(r_values)):
        c_hat = c_values[cell_idx // len(r_values)]
        r = r_values[cell_idx % len(r_values)]
        for kind_idx, kind in enumerate(KIND_ORDER):
            tasks.append((cell_idx, c_hat, r, kind_idx, kind))

    def run(task):
        cell_idx, c_hat, r, kind_idx, kind = task
        spec = InterventionSpec(kind=kind, r=r, baseline_c=c_hat)
        cell_seed = derive_seed(seed, TAG_CELL, cell_idx, kind_idx)
        return evaluate_policy(dist_a, dist_d, spec, weights, k,
                               horizon=horizon, n_seeds=n_seeds,
                               seed=cell_seed, per_group_beta=per_group_beta,
                               beta_step=beta_step)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    by_cell: list[dict[InterventionKind, PolicyOutcome]] = [
        {} for _ in range(len(c_values) * len(r_values))]
    for (cell_idx, _, _, _, kind), outcome in zip(tasks, results):
        by_cell[cell_idx][kind] = outcome

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
