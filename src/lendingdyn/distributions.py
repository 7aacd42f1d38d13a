"""Score sampling, empirical CDFs, and the dominance check.

Group A dominates group D on [0, 1] when F_A(x) <= F_D(x) at every grid
point of the interval (inclusive endpoints, default step 0.01, float
tolerance 1e-12).  The check runs on empirical CDFs; tests compare it to the
analytic regularized-incomplete-beta CDF.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from ._random import substream, TAG_SAMPLE
from .dynamics import ScoreDistribution

_TOL = 1e-12
# Dominance grid points at most.  Step 0.01 gives 101; step 1e-6 (0.3 s,
# 64 MB peak as a whole command on two 1,000-score files) is just past it.
MAX_DOMINANCE_POINTS = 1_000_000


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


def sample_beta(spec: BetaSpec, group: str = "A") -> ScoreDistribution:
    """Draw spec.n scores from Beta(a, b) on the spec's own stream."""
    rng = substream(spec.seed, TAG_SAMPLE)
    scores = rng.beta(spec.a, spec.b, size=spec.n)
    # Beta mass sits in the open interval; clipping only guards float edges.
    return ScoreDistribution(group, np.clip(scores, 0.0, 1.0))


def empirical_cdf(dist: ScoreDistribution, x) -> np.ndarray | float:
    """F(x) = fraction of scores <= x; right-continuous, monotone."""
    ordered = np.sort(dist.scores)
    xs = np.asarray(x, dtype=float)
    vals = np.searchsorted(ordered, xs, side="right") / ordered.size
    return float(vals) if np.isscalar(x) or xs.ndim == 0 else vals


def _grid(step: float) -> np.ndarray:
    """The points 0, step, 2 * step, ... and 1, refusing more than
    MAX_DOMINANCE_POINTS multiples of step before any is built."""
    m = np.floor(1.0 / step + 1e-9)
    if m + 1 > MAX_DOMINANCE_POINTS:
        raise ValueError(f"step {step!r} gives {m + 1:,.0f} grid points, more "
                         f"than the cap of {MAX_DOMINANCE_POINTS:,}")
    pts = step * np.arange(int(m) + 1)
    if 1.0 - pts[-1] > _TOL:
        pts = np.append(pts, 1.0)
    return pts


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool
    grid_step: float
    violations: tuple[tuple[float, float, float], ...]  # (x, F_A(x), F_D(x))


def check_dominance(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                    step: float = 0.01) -> DominanceReport:
    """Grid test of F_A <= F_D on [0, 1], endpoints inclusive."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    xs = _grid(step)
    fa = empirical_cdf(dist_a, xs)
    fd = empirical_cdf(dist_d, xs)
    bad = fa > fd + _TOL
    violations = tuple(
        (float(x), float(pa), float(pd))
        for x, pa, pd in zip(xs[bad], fa[bad], fd[bad])
    )
    return DominanceReport(dominates=not violations, grid_step=step,
                           violations=violations)


# Every byte a plain line may hold, its "\r\n" end aside: printable ASCII
# except '"', plus tab, vertical tab, form feed and "\n".  np.loadtxt's
# number parser skips \x1c-\x1f as whitespace, which float() refuses, so
# those and the other control characters are not plain.
_PLAIN_BYTES = bytes(b for b in range(128)
                     if b in b"\t\x0b\x0c\n" or (32 <= b < 127 and b != 34))
_CHUNK_ROWS = 1 << 12       # lines read, parsed and freed at a time


class NotPlain(Exception):
    """The input is one the C reader could read differently from csv.

    lines are the lines of the chunk that is not plain, the first ones the
    csv module must read: every line before them was plain.
    """

    def __init__(self, lines: list[str]):
        super().__init__()
        self.lines = lines


def plain_chunks(fh, size: int):
    """The rest of a file opened with newline="", in lists of `size` lines.

    Each line of a plain file is one csv row, so np.loadtxt with
    comments=None and quotechar=None reads its cells as the csv module does.
    A line is plain when it is ASCII, holds no '"', no control character
    other than tab, vertical tab and form feed, no '\r' outside a '\r\n'
    end, is not blank, and is no longer than the csv field limit.  Raises
    NotPlain with the lines of the first chunk holding a line that is not.
    """
    limit = csv.field_size_limit()
    while lines := list(islice(fh, size)):
        text = "".join(lines)
        if not text.isascii():
            raise NotPlain(lines)
        raw = text.encode("ascii")
        left = raw.translate(None, _PLAIN_BYTES)    # '\r' and what is not plain
        if ((left and (left.strip(b"\r") or len(left) != raw.count(b"\r\n")))
                or "\n" in lines or "\r\n" in lines
                or (len(text) > limit and max(map(len, lines)) > limit)):
            raise NotPlain(lines)
        yield lines


def _csv_scores(path, reader, before: int) -> np.ndarray:
    """The scores of the rows a csv reader yields, read row by row: any
    text, with every error worded.  The reader starts after `before` file
    lines, each one row, so its rows are file rows before, before + 1, ...
    and only row 0 may be a header."""
    values = []
    try:
        for i, row in enumerate(reader, before):
            if not row:
                continue
            cell = row[0].strip()
            try:
                values.append(float(cell))
            except ValueError:
                if i > 0:
                    raise ValueError(
                        f"non-numeric score {cell!r} in {path}") from None
                # header row
    except csv.Error as exc:
        raise ValueError(f"{path}:{before + reader.line_num}: {exc}") from None
    return np.array(values, dtype=float)


def read_score_csv(path, group: str = "A") -> ScoreDistribution:
    """One-column score CSV; an optional single header cell is skipped.

    Only the first row may be a header; a blank row counts as a row.  Each
    chunk of a file is parsed by np.loadtxt while the file is plain (see
    plain_chunks); from the first chunk that is not, or that np.loadtxt
    refuses, the csv module reads the rest, which also words every error.
    No line is parsed twice.
    """
    parts, before = [], 0
    with open(path, newline="") as fh:
        try:
            for lines in plain_chunks(fh, _CHUNK_ROWS):
                body = lines
                if before == 0:
                    # The first line is a header when its first cell does
                    # not parse, as in _csv_scores.
                    try:
                        float(lines[0].split(",", 1)[0])
                    except ValueError:
                        body = lines[1:]
                try:
                    if body:
                        parts.append(np.loadtxt(
                            body, delimiter=",", comments=None,
                            quotechar=None, usecols=0, ndmin=1))
                except ValueError:
                    raise NotPlain(lines) from None
                before += len(lines)
        except NotPlain as stop:
            parts.append(_csv_scores(path, csv.reader(chain(stop.lines, fh)),
                                     before))
    scores = np.concatenate(parts) if parts else np.empty(0)
    if not scores.size:
        raise ValueError(f"no scores found in {path}")
    return ScoreDistribution(group, scores)


def write_score_csv(path, dist: ScoreDistribution) -> None:
    # The bytes csv.writer wrote row by row: no repr of a float needs
    # quoting, and each row ends in "\r\n".
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(["score", *map(repr, dist.scores.tolist())]) + "\r\n")
