"""Score sampling, empirical CDFs, and the dominance check.

Group A dominates group D on [0, 1] when F_A(x) <= F_D(x) at every grid
point of the interval (inclusive endpoints, default step 0.01, float
tolerance 1e-12).  The check runs on empirical CDFs; tests compare it to the
analytic regularized-incomplete-beta CDF.

Score files, and loan files for risk, are read by read_csv_chunks, the one
place that decides when a file is plain: as UTF-8, np.loadtxt parsing plain
chunks and the csv module the rest.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
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
        if not (0 < self.a < np.inf and 0 < self.b < np.inf):
            raise ValueError("shape parameters must be finite and positive")
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


def _plain(lines: list[str]) -> bool:
    """Whether each line is one csv row whose cells np.loadtxt, with
    comments=None and quotechar=None, reads as the csv module does.

    A line is plain when it is ASCII, holds no '"', no control character
    other than tab, vertical tab and form feed, no '\r' outside a '\r\n'
    end, is not blank, and is no longer than the csv field limit.
    """
    text = "".join(lines)
    if not text.isascii():
        return False
    raw = text.encode("ascii")
    left = raw.translate(None, _PLAIN_BYTES)    # '\r' and what is not plain
    limit = csv.field_size_limit()
    return not ((left and (left.strip(b"\r") or len(left) != raw.count(b"\r\n")))
                or "\n" in lines or "\r\n" in lines
                or (len(text) > limit and max(map(len, lines)) > limit))


def read_csv_chunks(path, start):
    """The parsed chunks of a CSV file, _CHUNK_ROWS lines at a time: the one
    place that decides when a file is plain.

    The file is read as UTF-8, a leading BOM dropped.  start(reader) may
    read header rows off a csv reader at the start of the file, and returns
    two parsers: plain(lines, line) for a chunk of plain lines, the first
    on file line `line`, which returns None to refuse the chunk, and
    csv_rows(rows, lines) for csv rows (see _csv_chunks).  plain parses each
    chunk while the file is plain; from the first chunk that is not, or
    that plain refuses, the csv module reads the rest, that chunk first.
    No line is parsed twice.  A csv.Error raises ValueError naming its
    file line, and text that is not UTF-8 one naming the first line it may
    be on.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, before, line = csv.reader(fh), 0, 1
        try:
            plain, csv_rows = start(reader)
            line = reader.line_num + 1
            while lines := list(islice(fh, _CHUNK_ROWS)):
                chunk = plain(lines, line) if _plain(lines) else None
                if chunk is None:
                    reader, before = csv.reader(chain(lines, fh)), line - 1
                    yield from _csv_chunks(reader, before, csv_rows)
                    return
                yield chunk
                line += len(lines)
        except csv.Error as exc:
            raise ValueError(f"{path}:{before + reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The codec decodes the file a buffer at a time, so the bad byte
            # is on the first line not yet read or a later one, and its
            # position counts from the buffer's start, not the file's.
            at = max(line, before + reader.line_num + 1)
            raise ValueError(f"{path}: not UTF-8 text at or after line {at}: "
                             f"{exc.reason}") from None


def _csv_chunks(reader, before: int, parse):
    """parse(rows, lines) of each chunk of _CHUNK_ROWS rows a csv reader
    reads after `before` file lines: any text.  Blank lines hold no row;
    a row's line is the file line it starts on, after quoted newlines and
    blank lines.  The rows before a csv.Error are parsed before it is
    raised, so their own errors come first, as in a row-by-row read.
    """
    end = before
    while True:
        # Rebinding rows frees the last chunk's strings before the next
        # chunk is read.
        rows, lines, read = [], [], 0
        try:
            for read, row in zip(range(1, _CHUNK_ROWS + 1), reader):
                if row:
                    rows.append(row)
                    lines.append(end + 1)
                end = before + reader.line_num
        except csv.Error:
            if rows:
                parse(rows, lines)
            raise
        if rows:
            yield parse(rows, lines)
        if read < _CHUNK_ROWS:
            return


def _plain_scores(lines: list[str], line: int) -> np.ndarray | None:
    """The scores of plain lines, the first on file line `line`, parsed by
    np.loadtxt; None when it refuses them."""
    body = lines
    if line == 1:
        # The first line is a header when its first cell does not parse,
        # as in _csv_scores.
        try:
            float(lines[0].split(",", 1)[0])
        except ValueError:
            body = lines[1:]
    try:
        return np.loadtxt(body, delimiter=",", comments=None, quotechar=None,
                          usecols=0, ndmin=1) if body else np.empty(0)
    except ValueError:
        return None


def _csv_scores(path, rows: list[list[str]], lines: list[int]) -> np.ndarray:
    """The scores of csv rows, each starting on its file line: any text,
    with every error worded.  Only the row on line 1 may be a header."""
    values = []
    for row, line in zip(rows, lines):
        cell = row[0].strip()
        try:
            values.append(float(cell))
        except ValueError:
            if line > 1:
                raise ValueError(
                    f"non-numeric score {cell!r} in {path}") from None
            # header row
    return np.array(values, dtype=float)


def read_score_csv(path, group: str = "A") -> ScoreDistribution:
    """One-column score CSV; an optional single header cell is skipped.

    Only the first row may be a header; a blank row counts as a row.  The
    file is read by read_csv_chunks.
    """
    parts = list(read_csv_chunks(
        path, lambda reader: (_plain_scores, partial(_csv_scores, path))))
    scores = np.concatenate(parts) if parts else np.empty(0)
    if not scores.size:
        raise ValueError(f"no scores found in {path}")
    return ScoreDistribution(group, scores)


def write_score_csv(path, dist: ScoreDistribution) -> None:
    # The bytes csv.writer wrote row by row: no repr of a float needs
    # quoting, and each row ends in "\r\n".
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(["score", *map(repr, dist.scores.tolist())]) + "\r\n")
