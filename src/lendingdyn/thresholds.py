"""Optimal approval thresholds.

The expected next score of an approved agent is the gain function
(`dynamics.expected_next_score`)

    g(x) = x * clamp(x + k) + (1 - x) * clamp(x - c*k),

nondecreasing in x for k, c >= 0.  Away from the clamps g(x) - x =
k*((1+c)*x - c), so the sign of approving an agent flips at x0 = c / (1 + c).
The best stationary threshold approves exactly the agents with g(x) >= x:
beta_hat = x0 clamped into [0, 1], or 1 when g never exceeds x.  The solution
is piecewise exact — three linear segments, no root finding — and does not
depend on the score distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsParams, ScoreDistribution, expected_next_score


@dataclass(frozen=True)
class OptimalThreshold:
    beta_hat: float
    crossing_point: float | None   # minimal x0 with g(x) > x beyond it; None if never


def optimal_threshold(k: float, c: float) -> OptimalThreshold:
    """Exact best stationary threshold for given k, c.

    Cases (k > 0): the strict-gain region is (x0, 1) with x0 = c/(1+c) while
    the crossing sits between the clamp segments, i.e. k*(1+c) <= 1; when the
    clamp segments overlap (k*(1+c) > 1) the crossing moves to x0 = c*k; and
    once c*k >= 1 the down-clamp pins g(x) <= x everywhere.  k = 0 freezes
    the dynamics, so there is no strict gain anywhere.
    """
    if not (np.isfinite(k) and k >= 0):
        raise ValueError(f"k must be nonnegative, got {k!r}")
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"c must be nonnegative, got {c!r}")
    if k == 0 or c * k >= 1:
        return OptimalThreshold(beta_hat=1.0, crossing_point=None)
    if k * (1 + c) <= 1:
        x0 = c / (1.0 + c)
    else:
        x0 = c * k
    return OptimalThreshold(beta_hat=min(max(x0, 0.0), 1.0), crossing_point=x0)


# Score evaluations a grid search may make, (betas) x (scores): about a
# second.  The CLI's default, 1,001 betas over 1,000 scores, is 1.0e6.
MAX_SWEEP_EVALUATIONS = 10**8


def grid_search_threshold(dist: ScoreDistribution, params: DynamicsParams,
                          resolution: float = 1e-3) -> float:
    """Beta on the grid {0, res, ..., 1} maximizing the exact one-step mean.

    Ties break toward the largest beta.  resolution must be <= 0.01, and a
    sweep past MAX_SWEEP_EVALUATIONS is refused before any beta is built.
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
    betas = np.linspace(0.0, 1.0, int(m) + 1)
    scores = dist.scores
    g = expected_next_score(scores, params.k, params.c_for(dist.group))
    values = np.array([
        np.where(scores >= b, g, scores).mean() for b in betas
    ])
    best = np.flatnonzero(values == values.max())[-1]
    return float(betas[best])
