"""Population update rule for threshold lending.

Each agent carries a repayment score pi in [0, 1].  At every step an agent is
approved iff pi >= beta (ties approve).  An approved agent repays with
probability pi; repayment moves the score to clamp(pi + k), a late payment to
clamp(pi - c*k).  Denied agents keep their score unchanged.  Draws are
independent across agents and steps.

One kernel applies the update on every path: approved_step picks each
agent's step (the grid's always-approved walk) and frozen_step also gives
the denied agents their scores back (every walk that freezes: simulate,
simulate_group, max-mean-curve, the grid's beta-hat baseline), both as
int64 bit selects on their masks rather than branches, into arrays the
caller owns.  A denied agent keeps its exact bytes, so a -0.0 stays -0.0.

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
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._random import step_rows
# Nothing here calls these two: perfbench/tracing.py wraps them at these
# names and tests/test_benchmark_contract.py checks that the names resolve.
from ._random import step_uniforms, substream  # noqa: F401

# Most CSV rows that the command line lets one simulate run write, in
# trajectory.csv and agents.csv; the loans benchmark writes 802.
MAX_SIMULATE_ROWS = 10_000_000


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
    """A group's empirical score sample."""

    group: str
    scores: np.ndarray

    def __post_init__(self):
        if not self.group:
            raise ValueError("group label must be nonempty")
        object.__setattr__(self, "scores", _as_readonly_scores(self.scores))

    @property
    def n(self) -> int:
        return int(self.scores.size)

    def mean(self) -> float:
        return float(self.scores.mean())

    def replace_scores(self, scores) -> "ScoreDistribution":
        return ScoreDistribution(self.group, scores)


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


def expected_next_score(scores, k: float, c: float) -> np.ndarray:
    """g(pi) for an approved agent: both Bernoulli branches, with clamping."""
    s = np.asarray(scores, dtype=float)
    up = np.clip(s + k, 0.0, 1.0)
    down = np.clip(s - c * k, 0.0, 1.0)
    return s * up + (1.0 - s) * down


def step_bits(k: float, c, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 bit patterns approved_step and frozen_step select with,
    stacked: [0] the xor of the up step +k's bits and the down step
    c * -k's, [1] the down step's.

    c is a float or an array of per-row penalties; c * -k has the bits of
    -c * k (a product's sign is the xor of its factors' signs).  With out,
    shaped (2, *step shape), both are broadcast into it once, so that a
    walk does not broadcast a penalty column at every step.
    """
    up = np.float64(k).view(np.int64)
    down = np.asarray(c * -np.float64(k), dtype=np.float64).view(np.int64)
    if out is None:
        return np.stack(np.broadcast_arrays(up ^ down, down))
    np.bitwise_xor(up, down, out=out[0])
    out[1] = down
    return out


def approved_step(scores: np.ndarray, u: np.ndarray, steps: np.ndarray,
                  out: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Next scores of agents that are all approved, written to out:
    clamp(pi + k) if u < pi, else clamp(pi + c * -k), for the patterns
    steps = step_bits(k, c).

    The one score-update expression of the package; every simulation path
    applies it, so their results agree bit for bit.  The step is picked by
    a bit select, not a branch, which would mispredict on a random mask:
    u < pi writes 1 or 0 into the int64 scratch bits, which is multiplied
    by steps[0] and xored with steps[1], the down step's bits, so each
    agent's step is exactly the double +k or c * -k.  out and bits have
    the broadcast shape of scores and u, out may be u itself, and nothing
    is allocated.
    """
    np.less(u, scores, out=bits)
    np.multiply(bits, steps[0], out=bits)
    np.bitwise_xor(bits, steps[1], out=bits)
    np.add(bits.view(np.float64), scores, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def frozen_step(scores: np.ndarray, u, beta, steps: np.ndarray,
                out: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """approved_step under threshold beta: every agent with pi < beta
    gets its score back in out, bit for bit.

    The freeze is a bit select like the step's: out's bits xor scores'
    bits, times pi >= beta (1 or 0, in the int64 scratch bits), xor
    scores' bits.  A denied -0.0 stays -0.0, where multiplying the scores
    by the mask would write +0.0.  Every agent draws, approved or not,
    which keeps runs coupled across betas and penalties that share a seed.
    out may be u but not scores; nothing is allocated.
    """
    approved_step(scores, u, steps, out, bits)
    held = scores.view(np.int64)
    moved = out.view(np.int64)
    np.greater_equal(scores, beta, out=bits)
    np.bitwise_xor(moved, held, out=moved)
    np.multiply(moved, bits, out=moved)
    np.bitwise_xor(moved, held, out=moved)
    return out


# u = 0 takes the up branch wherever pi > 0, and the largest double below 1
# the down branch wherever pi < 1: together they reach every branch that some
# u in [0, 1) reaches, and the result of a branch does not depend on u.
_U_LAST = np.nextafter(1.0, 0.0)


def _settled(scores: np.ndarray, beta: float, steps: np.ndarray,
             probe: np.ndarray, bits: np.ndarray) -> bool:
    """True when no draw can change any bit of any score (module docstring).

    probe and bits are scratch arrays of the scores' shape."""
    held = scores.view(np.int64)
    return all(np.array_equal(
        frozen_step(scores, u, beta, steps, probe, bits).view(np.int64),
        held) for u in (0.0, _U_LAST))


def _walk(scores: np.ndarray, beta: float, k: float, c: float, horizon: int,
          seed: int, slot: int):
    """Yield one group's scores after each step, until it is settled.

    Each step's scores are written over that step's fresh uniforms, so
    every yielded array is new; the scratch arrays live for the walk."""
    steps = step_bits(k, c)
    probe = np.empty(scores.shape)
    bits = np.empty(scores.shape, dtype=np.int64)
    rows = step_rows(seed, horizon, slot, scores.size)
    for _ in range(horizon):
        if _settled(scores, beta, steps, probe, bits):
            return
        u = next(rows)
        scores = frozen_step(scores, u, beta, steps, u, bits)
        yield scores


def step_population(dist: ScoreDistribution, policy: ThresholdPolicy,
                    params: DynamicsParams, rng: np.random.Generator) -> ScoreDistribution:
    """Advance every agent in one group by a single realized step.

    No command calls it; it stays as public API, the one-step update the
    README lists with the dynamics, and perfbench/tracing.py wraps it at
    this name.
    """
    beta = policy.beta_for(dist.group)
    c = params.c_for(dist.group)
    u = rng.random(dist.n)
    bits = np.empty(dist.n, dtype=np.int64)
    return dist.replace_scores(frozen_step(
        dist.scores, u, beta, step_bits(params.k, c), u, bits))


def step_mean(dist: ScoreDistribution, policy: ThresholdPolicy,
              params: DynamicsParams) -> float:
    """Exact expected group mean after one step from the current sample.

    No command calls it; it stays as public API, the exact statistic behind
    acceptance criterion 2 (the one-step mean gap never shrinks) and the
    README's dynamics list.
    """
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
        write_rows(path, ["step", "group", "mean", "fraction_at_one",
                          "fraction_below_beta"], self.summary_rows())
        if per_agent_path is not None:
            with open(per_agent_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "group", "agent_index", "score"])
                for t in range(self.horizon + 1):
                    for g in self.groups:
                        for i, s in enumerate(self.snapshots[g][t].scores):
                            writer.writerow([t, g, i, repr(float(s))])


def write_rows(path, fieldnames: list[str], rows: list[dict]) -> None:
    """A CSV of rows under a header, every float written as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


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
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
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
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    scores = dist.scores
    for scores in _walk(dist.scores, beta, k, c, horizon, seed, group_slot):
        pass
    return scores


def verify_bifurcation(dist: ScoreDistribution, policy: ThresholdPolicy,
                       params: DynamicsParams, horizon: int, seed: int) -> float:
    """Fraction of agents still strictly inside (beta, 1) after `horizon` steps.

    No command calls it; it stays as public API, the statistic of
    acceptance criterion 4 (a long run empties the open interval).
    """
    beta = policy.beta_for(dist.group)
    final = simulate_group(dist, beta, params.k, params.c_for(dist.group),
                           horizon, seed)
    return float(np.mean((final > beta) & (final < 1.0)))
