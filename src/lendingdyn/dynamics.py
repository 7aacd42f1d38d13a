"""Population update rule for threshold lending.

Each agent carries a repayment score pi in [0, 1].  At every step an agent is
approved iff pi >= beta (ties approve).  An approved agent repays with
probability pi; repayment moves the score to clamp(pi + k), a late payment to
clamp(pi - c*k).  Denied agents keep their score unchanged.  Draws are
independent across agents and steps.

The exact one-step mean uses the expected next score

    g(pi) = pi * clamp(pi + k) + (1 - pi) * clamp(pi - c*k)

evaluated agent by agent over both Bernoulli outcomes — no sampling.

The dynamics absorb, and a walk stops where they have.  Before step t a
group is settled when no possible draw can change any bit of any of its
scores: every agent is denied (pi < beta), or every branch of
`approved_step` it can reach returns its own bytes.  Since u lies in [0, 1),
the up branch (u < pi) is reachable only if pi > 0 and the down branch only
if pi < 1.  The comparison is of bytes, not `==`: at beta = 0 a score of -0.0
still steps to +0.0.  A settled group stays settled, and step t of group
slot j draws the stream (seed, t, j) alone, so `simulate` and
`simulate_group` stop drawing for a group once it is settled and still return
every byte of the full-horizon walk.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

# Nothing here calls substream: perfbench/tracing.py wraps it at this name
# and tests/test_benchmark_contract.py checks that the name resolves.
from ._random import step_uniforms, substream  # noqa: F401


def clamp_unit(x: float) -> float:
    """Clamp a finite real into [0, 1]."""
    if not np.isfinite(x):
        raise ValueError(f"score must be finite, got {x!r}")
    return min(max(float(x), 0.0), 1.0)


def _as_readonly_scores(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("scores must lie in [0, 1]")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScoreDistribution:
    """A group's empirical score sample.

    weight is the group's population share for cross-group aggregation;
    within-group statistics never use it.
    """

    group: str
    scores: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        if not self.group:
            raise ValueError("group label must be nonempty")
        object.__setattr__(self, "scores", _as_readonly_scores(self.scores))
        if not (np.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"weight must be positive, got {self.weight!r}")

    @property
    def n(self) -> int:
        return int(self.scores.size)

    def mean(self) -> float:
        return float(self.scores.mean())

    def replace_scores(self, scores) -> "ScoreDistribution":
        return ScoreDistribution(self.group, scores, self.weight)


def population_mean(dists: Iterable[ScoreDistribution]) -> float:
    """Weight-combined mean across groups (unequal group sizes supported)."""
    dists = list(dists)
    total = sum(d.weight for d in dists)
    return sum(d.weight * d.mean() for d in dists) / total


@dataclass(frozen=True)
class DynamicsParams:
    """Gain per repayment k and per-group penalty scale c (loss = c*k)."""

    k: float
    c_by_group: Mapping[str, float]

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k >= 0):
            raise ValueError(f"k must be nonnegative, got {self.k!r}")
        if not self.c_by_group:
            raise ValueError("c_by_group must name at least one group")
        for g, c in self.c_by_group.items():
            if not (np.isfinite(c) and c >= 0):
                raise ValueError(f"c for group {g!r} must be nonnegative, got {c!r}")
        object.__setattr__(self, "c_by_group", dict(self.c_by_group))

    @classmethod
    def uniform(cls, k: float, c: float, groups: Iterable[str]) -> "DynamicsParams":
        return cls(k=k, c_by_group={g: c for g in groups})

    def c_for(self, group: str) -> float:
        try:
            return self.c_by_group[group]
        except KeyError:
            raise KeyError(f"no penalty configured for group {group!r}") from None


@dataclass(frozen=True)
class ThresholdPolicy:
    """Approval thresholds, one per group."""

    beta_by_group: Mapping[str, float]

    def __post_init__(self):
        if not self.beta_by_group:
            raise ValueError("beta_by_group must name at least one group")
        for g, b in self.beta_by_group.items():
            if not (np.isfinite(b) and 0.0 <= b <= 1.0):
                raise ValueError(f"beta for group {g!r} must lie in [0, 1], got {b!r}")
        object.__setattr__(self, "beta_by_group", dict(self.beta_by_group))

    @classmethod
    def uniform(cls, beta: float, groups: Iterable[str]) -> "ThresholdPolicy":
        return cls(beta_by_group={g: beta for g in groups})

    def beta_for(self, group: str) -> float:
        try:
            return self.beta_by_group[group]
        except KeyError:
            raise KeyError(f"no threshold configured for group {group!r}") from None


def step_agent(pi: float, approved: bool, paid: bool, k: float, c: float) -> float:
    """One agent's next score given the realized approval and payment."""
    if not (np.isfinite(pi) and 0.0 <= pi <= 1.0):
        raise ValueError(f"pi must lie in [0, 1], got {pi!r}")
    if k < 0 or c < 0:
        raise ValueError("k and c must be nonnegative")
    if not approved:
        return float(pi)
    return clamp_unit(pi + k if paid else pi - c * k)


def expected_next_score(scores, k: float, c: float) -> np.ndarray:
    """g(pi) for an approved agent: both Bernoulli branches, with clamping."""
    s = np.asarray(scores, dtype=float)
    up = np.clip(s + k, 0.0, 1.0)
    down = np.clip(s - c * k, 0.0, 1.0)
    return s * up + (1.0 - s) * down


def approved_step(scores: np.ndarray, u: np.ndarray, k: float,
                  c: float) -> np.ndarray:
    """Next scores of agents that are all approved: +k if u < pi, else -c*k.

    The one score-update expression of the package; every simulation path
    applies it, so their results agree bit for bit.  c * -k has the bits
    of -c * k (a product's sign is the xor of its factors' signs) and is
    one numpy call fewer when c is an array of per-row penalties; the sum
    and the clamp reuse the step's array.
    """
    moved = np.where(u < scores, k, c * -k)
    moved += scores
    return np.clip(moved, 0.0, 1.0, out=moved)


def _advance_scores(scores: np.ndarray, u: np.ndarray, beta: float,
                    k: float, c: float) -> np.ndarray:
    # One uniform per agent regardless of approval: keeps runs coupled across
    # betas and penalties that share a seed.
    return np.where(scores >= beta, approved_step(scores, u, k, c), scores)


# u = 0 takes the up branch wherever pi > 0, and the largest double below 1
# the down branch wherever pi < 1: together they reach every branch that some
# u in [0, 1) reaches, and the result of a branch does not depend on u.
_U_LAST = np.nextafter(1.0, 0.0)


def _settled(scores: np.ndarray, beta: float, k: float, c: float) -> bool:
    """True when no draw can change any bit of any score (module docstring)."""
    bits = scores.view(np.int64)
    return all(np.array_equal(
        _advance_scores(scores, u, beta, k, c).view(np.int64), bits)
        for u in (0.0, _U_LAST))


def _walk(scores: np.ndarray, beta: float, k: float, c: float, horizon: int,
          seed: int, slot: int):
    """Yield one group's scores after each step, until it is settled."""
    for t in range(horizon):
        if _settled(scores, beta, k, c):
            return
        u = step_uniforms(seed, t, slot, scores.size)
        scores = _advance_scores(scores, u, beta, k, c)
        yield scores


def step_population(dist: ScoreDistribution, policy: ThresholdPolicy,
                    params: DynamicsParams, rng: np.random.Generator) -> ScoreDistribution:
    """Advance every agent in one group by a single realized step."""
    beta = policy.beta_for(dist.group)
    c = params.c_for(dist.group)
    u = rng.random(dist.n)
    return dist.replace_scores(_advance_scores(dist.scores, u, beta, params.k, c))


def step_mean(dist: ScoreDistribution, policy: ThresholdPolicy,
              params: DynamicsParams) -> float:
    """Exact expected group mean after one step from the current sample."""
    beta = policy.beta_for(dist.group)
    g = expected_next_score(dist.scores, params.k, params.c_for(dist.group))
    return float(np.where(dist.scores >= beta, g, dist.scores).mean())


@dataclass(frozen=True)
class Trajectory:
    """Per-step snapshots of each group, horizon + 1 entries per group.

    Once a group is settled its remaining entries may all be one shared
    ScoreDistribution object.
    """

    snapshots: Mapping[str, tuple[ScoreDistribution, ...]]
    policy: ThresholdPolicy
    params: DynamicsParams
    seed: int = 0

    def __post_init__(self):
        lengths = {len(v) for v in self.snapshots.values()}
        if len(lengths) != 1:
            raise ValueError("all groups must have the same number of snapshots")
        object.__setattr__(self, "snapshots",
                           {g: tuple(v) for g, v in self.snapshots.items()})

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.snapshots)

    @property
    def horizon(self) -> int:
        return len(next(iter(self.snapshots.values()))) - 1

    def means(self, group: str) -> np.ndarray:
        return np.array([d.mean() for d in self.snapshots[group]])

    def final(self, group: str) -> ScoreDistribution:
        return self.snapshots[group][-1]

    def summary_rows(self) -> list[dict]:
        # A settled tail repeats one object; summarise each object once.
        stats: dict[tuple[str, int], dict] = {}
        rows = []
        for t in range(self.horizon + 1):
            for g in self.groups:
                dist = self.snapshots[g][t]
                key = (g, id(dist))
                if key not in stats:
                    scores = dist.scores
                    beta = self.policy.beta_for(g)
                    stats[key] = {
                        "mean": float(scores.mean()),
                        "fraction_at_one": float(np.mean(scores == 1.0)),
                        "fraction_below_beta": float(np.mean(scores < beta)),
                    }
                rows.append({"step": t, "group": g, **stats[key]})
        return rows

    def write_csv(self, path, per_agent_path=None) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["step", "group", "mean",
                                "fraction_at_one", "fraction_below_beta"])
            writer.writeheader()
            for row in self.summary_rows():
                writer.writerow({k: _csv_num(v) for k, v in row.items()})
        if per_agent_path is not None:
            with open(per_agent_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "group", "agent_index", "score"])
                for t in range(self.horizon + 1):
                    for g in self.groups:
                        for i, s in enumerate(self.snapshots[g][t].scores):
                            writer.writerow([t, g, i, repr(float(s))])


def _csv_num(v):
    return repr(v) if isinstance(v, float) else v


def simulate(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
             policy: ThresholdPolicy, params: DynamicsParams,
             horizon: int, seed: int) -> Trajectory:
    """Run both groups forward `horizon` steps under one seed.

    Group slots are positional (dist_a -> 0, dist_d -> 1): the stream an
    agent consumes is fixed by (seed, step, slot, agent index) alone.  Each
    group stops drawing at the step at which it is settled (module
    docstring); its remaining snapshots are that settled distribution, one
    shared object, and every byte equals the full-horizon walk's.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if dist_a.group == dist_d.group:
        raise ValueError("groups must have distinct labels")
    snaps = {}
    for slot, dist in enumerate((dist_a, dist_d)):
        steps = [dist]
        for scores in _walk(dist.scores, policy.beta_for(dist.group), params.k,
                            params.c_for(dist.group), horizon, seed, slot):
            steps.append(dist.replace_scores(scores))
        steps += [steps[-1]] * (horizon + 1 - len(steps))
        snaps[dist.group] = steps
    return Trajectory(snapshots=snaps, policy=policy, params=params, seed=seed)


def simulate_group(dist: ScoreDistribution, beta: float, k: float, c: float,
                   horizon: int, seed: int, group_slot: int = 0) -> np.ndarray:
    """Single-group fast path; returns the final score array.

    The walk stops at the step at which the group is settled (module
    docstring), so a horizon past absorption costs nothing; the scores are
    those of the full-horizon walk, byte for byte.
    """
    scores = dist.scores
    for scores in _walk(dist.scores, beta, k, c, horizon, seed, group_slot):
        pass
    return scores


def verify_bifurcation(dist: ScoreDistribution, policy: ThresholdPolicy,
                       params: DynamicsParams, horizon: int, seed: int) -> float:
    """Fraction of agents still strictly inside (beta, 1) after `horizon` steps."""
    beta = policy.beta_for(dist.group)
    final = simulate_group(dist, beta, params.k, params.c_for(dist.group),
                           horizon, seed)
    return float(np.mean((final > beta) & (final < 1.0)))
