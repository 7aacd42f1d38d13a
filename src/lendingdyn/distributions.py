"""Score sampling, empirical CDFs, and the dominance check.

Group A dominates group D on [lo, hi] when F_A(x) <= F_D(x) at every grid
point of the interval (inclusive endpoints, default step 0.01, float
tolerance 1e-12).  The check runs on empirical CDFs; tests compare it to the
analytic regularized-incomplete-beta CDF.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._random import substream, TAG_SAMPLE
from .dynamics import ScoreDistribution

_TOL = 1e-12


@dataclass(frozen=True)
class BetaSpec:
    """Beta(a, b) sampling request."""

    a: float
    b: float
    n: int
    seed: int

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("shape parameters must be positive")
        if self.n <= 0:
            raise ValueError("n must be positive")


def sample_beta(spec: BetaSpec, group: str = "A", weight: float = 1.0) -> ScoreDistribution:
    """Draw spec.n scores from Beta(a, b) on the spec's own stream."""
    rng = substream(spec.seed, TAG_SAMPLE)
    scores = rng.beta(spec.a, spec.b, size=spec.n)
    # Beta mass sits in the open interval; clipping only guards float edges.
    return ScoreDistribution(group, np.clip(scores, 0.0, 1.0), weight)


def empirical_cdf(dist: ScoreDistribution, x) -> np.ndarray | float:
    """F(x) = fraction of scores <= x; right-continuous, monotone."""
    ordered = np.sort(dist.scores)
    xs = np.asarray(x, dtype=float)
    vals = np.searchsorted(ordered, xs, side="right") / ordered.size
    return float(vals) if np.isscalar(x) or xs.ndim == 0 else vals


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    m = int(np.floor((hi - lo) / step + 1e-9))
    pts = lo + step * np.arange(m + 1)
    if hi - pts[-1] > _TOL:
        pts = np.append(pts, hi)
    return pts


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool
    grid_step: float
    violations: tuple[tuple[float, float, float], ...]  # (x, F_A(x), F_D(x))


def check_dominance(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                    step: float = 0.01,
                    interval: tuple[float, float] = (0.0, 1.0)) -> DominanceReport:
    """Grid test of F_A <= F_D on the interval, endpoints inclusive."""
    lo, hi = interval
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("interval must satisfy 0 <= lo < hi <= 1")
    if step <= 0:
        raise ValueError("step must be positive")
    xs = _grid(lo, hi, step)
    fa = empirical_cdf(dist_a, xs)
    fd = empirical_cdf(dist_d, xs)
    bad = fa > fd + _TOL
    violations = tuple(
        (float(x), float(pa), float(pd))
        for x, pa, pd in zip(xs[bad], fa[bad], fd[bad])
    )
    return DominanceReport(dominates=not violations, grid_step=step,
                           violations=violations)


def read_score_csv(path, group: str = "A") -> ScoreDistribution:
    """One-column score CSV; an optional single header cell is skipped."""
    values = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            cell = row[0].strip()
            try:
                values.append(float(cell))
            except ValueError:
                if i > 0:
                    raise ValueError(f"non-numeric score {cell!r} in {path}") from None
                # header row
    if not values:
        raise ValueError(f"no scores found in {path}")
    return ScoreDistribution(group, np.asarray(values))


def write_score_csv(path, dist: ScoreDistribution) -> None:
    # The bytes csv.writer wrote row by row: no repr of a float needs
    # quoting, and each row ends in "\r\n".
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(["score", *map(repr, dist.scores.tolist())]) + "\r\n")
