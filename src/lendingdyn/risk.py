"""Loan-record ingestion and the late-payment risk model.

Training rows regress `late` on (balance, ltv, dti, units) plus an intercept
by Newton iteration with step halving on the Bernoulli log-likelihood;
coefficients stay on raw feature scales.  A fitted model scores application
rows, and initial lending scores are pi = 1 - predicted late risk, grouped
into one ScoreDistribution per group label.

Purpose filtering keeps purchase loans only.  Rows violating field
invariants are rejected individually with reasons; structural problems
(missing columns, unparseable numbers, an empty result) raise.  Loaded rows
are held by column (LoanTable), and the model reads the columns.  np.loadtxt
parses a plain CSV; the csv module reads any other and words every error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .distributions import NotPlain, plain_chunks
from .dynamics import ScoreDistribution

PURPOSES = ("purchase", "refinance", "other")

TRAINING_COLUMNS = ("balance", "ltv", "dti", "units", "purpose", "late")
APPLICATION_COLUMNS = ("balance", "ltv", "dti", "units", "purpose", "group")


class SeparationError(RuntimeError):
    """Perfect separation: the likelihood has no finite maximizer."""


# Field invariants, each written once: LoanRecord checks one record's values
# with them and load_records whole columns.  (field, rule, holds)
_INVARIANTS = (
    ("balance", "must be nonnegative", lambda v: (v >= 0) & (v < math.inf)),
    ("ltv", "must be nonnegative", lambda v: (v >= 0) & (v < math.inf)),
    ("dti", "must be finite", lambda v: abs(v) < math.inf),
    ("units", "must be >= 1", lambda v: v >= 1),
    ("purpose", f"must be one of {PURPOSES}",
     lambda v: (v == "purchase") | (v == "refinance") | (v == "other")),
)


def _problems(values) -> str:
    """Every invariant one record's field values break, joined; '' if none."""
    return "; ".join(f"{name} {rule}, got {values[name]!r}"
                     for name, rule, holds in _INVARIANTS
                     if not holds(values[name]))


@dataclass(frozen=True)
class LoanRecord:
    balance: float
    ltv: float
    dti: float
    units: int
    purpose: str
    late: bool | None = None
    group: str | None = None

    def __post_init__(self):
        # load_records reports the same message as the row's reject reason.
        problems = _problems(vars(self))
        if problems:
            raise ValueError(problems)


@dataclass(frozen=True, eq=False)
class LoanTable(Sequence[LoanRecord]):
    """Loan rows held as columns, one numpy array per field.

    Indexing and iteration build LoanRecords on demand; the risk functions
    read the columns.  `late` is None unless every row has a label.  `group`
    is None without a group column, and '' in it stands for a missing
    label.  `line` holds each row's file line, or is None for a table built
    from records.
    """

    balance: np.ndarray
    ltv: np.ndarray
    dti: np.ndarray
    units: np.ndarray           # int64, or Python ints beyond its range
    purpose: np.ndarray
    late: np.ndarray | None = None
    group: np.ndarray | None = None
    line: np.ndarray | None = None

    @classmethod
    def from_records(cls, records: Sequence[LoanRecord]) -> "LoanTable":
        """The columns of a sequence of records; a LoanTable is returned as is."""
        if isinstance(records, LoanTable):
            return records
        late = [r.late for r in records]
        return cls(balance=np.array([r.balance for r in records], dtype=float),
                   ltv=np.array([r.ltv for r in records], dtype=float),
                   dti=np.array([r.dti for r in records], dtype=float),
                   units=np.array([r.units for r in records]),
                   purpose=np.array([r.purpose for r in records], dtype=object),
                   late=None if None in late else np.array(late, dtype=bool),
                   group=np.array([r.group or "" for r in records], dtype=object))

    def __len__(self) -> int:
        return len(self.balance)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return LoanRecord(
            balance=float(self.balance[i]), ltv=float(self.ltv[i]),
            dti=float(self.dti[i]), units=int(self.units[i]),
            purpose=str(self.purpose[i]),
            late=None if self.late is None else bool(self.late[i]),
            group=None if self.group is None else self.group[i] or None)


@dataclass(frozen=True)
class RowReject:
    line: int
    reason: str


@dataclass(frozen=True)
class LoadResult:
    records: LoanTable
    rejects: tuple[RowReject, ...]


_CHUNK_ROWS = 1 << 12       # rows read, parsed and freed at a time
_NUMBERS = (("balance", float), ("ltv", float), ("dti", float), ("units", int))
_LATE = {"0": False, "1": True}
# A purpose's index in PURPOSES; every unnamed purpose is "other".
_PURPOSE_CODE = {"purchase": 0, "refinance": 1}
_PURPOSE_OBJECTS = np.array(PURPOSES, dtype=object)
_FILTERED = np.array([f"purpose {p!r} filtered out" for p in PURPOSES],
                     dtype=object)
_LOADTXT_TYPES = {"balance": np.float64, "ltv": np.float64,
                  "dti": np.float64, "units": np.int64}


def _labels(cells, n: int) -> np.ndarray:
    """The late column; KeyError on a cell that is not 0 or 1."""
    return np.fromiter(map(_LATE.__getitem__, map(str.strip, cells)), bool, n)


def _raise_first_bad_row(path, cells: dict, lines: list[int]):
    """Raise for the first row with an unparseable number or late label;
    within a row the numbers fail first, in column order."""
    for i, line in enumerate(lines):
        for name, parse in _NUMBERS:
            try:
                parse(cells[name][i])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: unparseable numeric field: {exc}") from None
        if "late" in cells:
            raw_late = cells["late"][i].strip()
            if raw_late not in _LATE:
                raise ValueError(f"{path}:{line}: late must be 0 or 1, got {raw_late!r}")
    raise AssertionError("a chunk failed to parse, but none of its rows does")


def _csv_columns(path, reader, index: dict, before: int):
    """Each chunk of rows as (numbers, purpose, group, late, lines), read by
    the csv module: any text, with every error worded.  purpose and group
    hold raw cell text; group is None without a group column.

    The reader starts after `before` file lines.  A row's line is the file
    line it starts on, after quoted newlines and blank lines.
    """
    width = max(index.values()) + 1
    # A short row's missing cells read None for a number and '' for text,
    # as DictReader's None did in the row-by-row loader.
    pad = [""] * width
    for name, _ in _NUMBERS:
        pad[index[name]] = None
    end = before + reader.line_num
    while True:
        # Rebinding rows frees the last chunk's strings before the next
        # chunk is read.
        rows, lines, read = [], [], 0
        try:
            for read, row in zip(range(1, _CHUNK_ROWS + 1), reader):
                if row:                     # a blank line holds no row
                    rows.append(row)
                    lines.append(end + 1)
                end = before + reader.line_num
        except csv.Error as exc:
            raise ValueError(f"{path}:{before + reader.line_num}: {exc}") from None
        if rows:
            if min(map(len, rows)) < width:
                rows = [row + pad[len(row):] if len(row) < width else row
                        for row in rows]
            columns = list(zip(*rows))
            cells = {name: columns[j] for name, j in index.items()}
            n = len(rows)
            try:
                numbers = {name: np.fromiter(map(float, cells[name]), float, n)
                           for name in ("balance", "ltv", "dti")}
                units = list(map(int, cells["units"]))
                late = _labels(cells["late"], n) if "late" in cells else None
            except (KeyError, TypeError, ValueError):
                _raise_first_bad_row(path, cells, lines)
            try:
                numbers["units"] = np.array(units, dtype=np.int64)
            except OverflowError:
                numbers["units"] = np.array(units, dtype=object)
            yield (numbers, cells["purpose"], cells.get("group"), late,
                   np.array(lines))
        if read < _CHUNK_ROWS:
            return


def _columns(path, fh, reader, index: dict):
    """The chunks of _csv_columns for the rest of a file, each parsed by
    np.loadtxt while the file is plain.

    Each line of a plain file holds one row.  From the first chunk that is
    not plain, or that np.loadtxt or the late labels refuse, _csv_columns
    reads the rest of the file, that chunk first, and words any error; no
    line is parsed twice.
    """
    dtype = [(name, _LOADTXT_TYPES.get(name, object)) for name in index]
    usecols = list(index.values())
    first = reader.line_num + 1
    try:
        for lines in plain_chunks(fh, _CHUNK_ROWS):
            n = len(lines)
            try:
                table = np.loadtxt(lines, dtype=dtype, delimiter=",",
                                   comments=None, quotechar=None,
                                   usecols=usecols, ndmin=1)
                late = _labels(table["late"], n) if "late" in index else None
            except (KeyError, ValueError):
                raise NotPlain(lines) from None
            yield ({name: table[name] for name in _LOADTXT_TYPES},
                   table["purpose"],
                   table["group"] if "group" in index else None,
                   late, np.arange(first, first + n))
            first += n
    except NotPlain as stop:
        yield from _csv_columns(path, csv.reader(chain(stop.lines, fh)),
                                index, first - 1)


def _keep_valid(numbers: dict, purpose, group, late, lines: np.ndarray,
                keep_purpose: str | None, rejects: list[RowReject]) -> LoanTable:
    """The kept rows of one chunk; its rejects are appended in row order."""
    n = len(lines)
    codes = np.fromiter(map(_PURPOSE_CODE.get,
                            map(str.lower, map(str.strip, purpose)),
                            repeat(2)), np.intp, n)
    no_group = np.zeros(n, dtype=bool)
    if group is not None:
        group = np.fromiter(map(str.strip, group), object, n)
        no_group = group == ""

    # Purposes are normalised into PURPOSES, so only the numbers can break
    # an invariant.
    invalid = np.zeros(n, dtype=bool)
    for name, _, holds in _INVARIANTS:
        if name in numbers:
            invalid |= ~holds(numbers[name])
    rejected = no_group | invalid
    if keep_purpose is not None:
        keep = PURPOSES.index(keep_purpose) if keep_purpose in PURPOSES else -1
        rejected |= codes != keep
    at = np.flatnonzero(rejected)
    if at.size:
        # A reject's reason is its missing group, else every invariant it
        # breaks, else its filtered purpose.
        reasons = _FILTERED[codes[at]]
        bad = np.flatnonzero(invalid[at] & ~no_group[at])
        values = {name: numbers[name][at[bad]].tolist() for name in numbers}
        values["purpose"] = _PURPOSE_OBJECTS[codes[at[bad]]].tolist()
        reasons[bad] = [_problems({name: column[k] for name, column in values.items()})
                        for k in range(bad.size)]
        reasons[no_group[at]] = "empty group label"
        rejects.extend(map(RowReject, lines[at].tolist(), reasons.tolist()))
    kept = ~rejected
    return LoanTable(**{name: column[kept] for name, column in numbers.items()},
                     purpose=_PURPOSE_OBJECTS[codes[kept]],
                     late=None if late is None else late[kept],
                     group=None if group is None else group[kept],
                     line=lines[kept])


def load_records(path, schema: str = "training",
                 keep_purpose: str | None = "purchase") -> LoadResult:
    """Read a loan CSV, reject invalid rows, filter to the kept purpose.

    Rows are read in chunks and parsed one column at a time: by np.loadtxt
    while the file is plain (see distributions.plain_chunks), and by the
    csv module from the first chunk that is not.  A row's line, in its
    reject or in an error, is the file line the row starts on.
    """
    if schema == "training":
        required = TRAINING_COLUMNS
    elif schema == "application":
        required = APPLICATION_COLUMNS
    else:
        raise ValueError(f"schema must be 'training' or 'application', got {schema!r}")
    parts, rejects = _load(path, required, keep_purpose)
    if not sum(map(len, parts)):
        raise ValueError(f"{path}: no usable rows after validation and filtering")
    table = LoanTable(**{name: None if column is None else
                         np.concatenate([getattr(part, name) for part in parts])
                         for name, column in vars(parts[0]).items()})
    return LoadResult(records=table, rejects=tuple(rejects))


def _load(path, required, keep_purpose):
    """The kept chunks and the rejects of one pass over the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        # A repeated column name reads its last cell, as with DictReader.
        position = {name: j for j, name in enumerate(header)}
        index = {name: position[name] for name in required}
        rejects: list[RowReject] = []
        parts = [_keep_valid(*chunk, keep_purpose, rejects)
                 for chunk in _columns(path, fh, reader, index)]
    return parts, rejects


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    final_log_likelihood: float
    converged: bool
    gradient_max_norm: float
    log_likelihood_path: tuple[float, ...]
    standard_errors: tuple[float, ...]   # intercept first, then feature order
    singular: bool


_COEFFICIENTS = ("intercept", "coef_balance", "coef_ltv", "coef_dti",
                 "coef_units")
_DIAGNOSTICS = ("iterations", "final_log_likelihood", "converged",
                "gradient_max_norm", "standard_errors", "singular")


@dataclass(frozen=True)
class RiskModel:
    intercept: float
    coef_balance: float
    coef_ltv: float
    coef_dti: float
    coef_units: float
    diagnostics: FitDiagnostics

    def coefficients(self) -> np.ndarray:
        return np.array([self.intercept, self.coef_balance, self.coef_ltv,
                         self.coef_dti, self.coef_units])

    def to_json_dict(self) -> dict:
        d = self.diagnostics
        return {
            "intercept": self.intercept,
            "coef_balance": self.coef_balance,
            "coef_ltv": self.coef_ltv,
            "coef_dti": self.coef_dti,
            "coef_units": self.coef_units,
            "diagnostics": {
                "iterations": d.iterations,
                "final_log_likelihood": d.final_log_likelihood,
                "converged": d.converged,
                "gradient_max_norm": d.gradient_max_norm,
                "standard_errors": list(d.standard_errors),
                "singular": d.singular,
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RiskModel":
        """The model to_json_dict wrote: a JSON object with five finite
        numeric coefficients and every diagnostics key.  Otherwise
        ValueError names the first key that is missing or bad."""
        if not isinstance(data, dict):
            raise ValueError(f"a model must be a JSON object, "
                             f"got {type(data).__name__}")
        for key in _COEFFICIENTS:
            v = data.get(key)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not math.isfinite(v)):
                raise ValueError(f"model key {key!r} must be a finite "
                                 f"number, got {v!r}")
        d = data.get("diagnostics")
        if not isinstance(d, dict):
            raise ValueError(f"model key 'diagnostics' must be a JSON "
                             f"object, got {d!r}")
        for key in _DIAGNOSTICS:
            if key not in d:
                raise ValueError(f"model key 'diagnostics.{key}' is missing")
        if not isinstance(d["standard_errors"], list):
            raise ValueError("model key 'diagnostics.standard_errors' must "
                             "be a list")
        diag = FitDiagnostics(
            iterations=d["iterations"],
            final_log_likelihood=d["final_log_likelihood"],
            converged=d["converged"],
            gradient_max_norm=d["gradient_max_norm"],
            log_likelihood_path=(),
            standard_errors=tuple(d["standard_errors"]),
            singular=d["singular"],
        )
        return cls(intercept=data["intercept"], coef_balance=data["coef_balance"],
                   coef_ltv=data["coef_ltv"], coef_dti=data["coef_dti"],
                   coef_units=data["coef_units"], diagnostics=diag)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RiskModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _design_matrix(table: LoanTable) -> np.ndarray:
    X = np.empty((len(table), 5))
    X[:, 0] = 1.0
    X[:, 1] = table.balance
    X[:, 2] = table.ltv
    X[:, 3] = table.dti
    X[:, 4] = table.units
    return X


def _fit_terms(X, w, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Fitted probabilities and the (ridge-penalized) information matrix."""
    p = 0.5 * (1.0 + np.tanh(0.5 * (X @ w)))
    weights = p * (1.0 - p)
    H = (X * weights[:, None]).T @ X
    if ridge > 0:
        H[1:, 1:] += ridge * np.eye(4)
    return p, H


def _log_likelihood(X, y, w, ridge: float) -> float:
    lp = X @ w
    ll = float(np.sum(y * lp - np.logaddexp(0.0, lp)))
    if ridge > 0:
        ll -= 0.5 * ridge * float(np.sum(w[1:] ** 2))
    return ll


def fit_logistic(records: Sequence[LoanRecord], tol: float = 1e-8,
                 max_iter: int = 100, ridge: float = 0.0) -> RiskModel:
    """Newton fit with step halving; converges on gradient max-norm < tol.

    Perfect separation raises SeparationError.  A rank-deficient information
    matrix falls back to a minimum-norm step and is reported through the
    `singular` diagnostic.  The ridge penalty (default off) excludes the
    intercept.  tol must be finite and positive, max_iter at least 1 and
    ridge finite and nonnegative: any other setting raises ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and nonnegative, "
                         f"got {ridge!r}")
    table = LoanTable.from_records(records)
    if len(table) < 2:
        raise ValueError("at least 2 training records required")
    if table.late is None:
        raise ValueError("every training record needs a late label")
    X = _design_matrix(table)
    y = table.late.astype(float)
    if y.min() == y.max():
        raise ValueError("both label classes must be present")

    w = np.zeros(5)
    ll = _log_likelihood(X, y, w, ridge)
    ll_path = [ll]
    singular = False
    converged = False
    grad_norm = math.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        p, H = _fit_terms(X, w, ridge)
        grad = X.T @ (y - p)
        if ridge > 0:
            grad[1:] -= ridge * w[1:]
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < tol:
            converged = True
            iterations -= 1
            break
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
            singular = True
        # Near the optimum a full step's predicted gain, grad . step / 2,
        # falls below the rounding error of the log-likelihood sum, which may
        # then read lower; take the step anyway rather than halve it in vain.
        # The path records the larger value, so it stays monotone.
        within_rounding = 0.5 * (grad @ step) <= 64 * np.finfo(float).eps * abs(ll)
        scale = 1.0
        improved = False
        while scale >= 2.0 ** -30:
            candidate = w + scale * step
            ll_new = _log_likelihood(X, y, candidate, ridge)
            if ll_new >= ll or (scale == 1.0 and within_rounding):
                w = candidate
                ll = max(ll_new, ll)
                improved = True
                break
            scale /= 2.0
        ll_path.append(ll)
        if not improved:
            break

    # Non-separable data keeps ll <= -ln 2 (some row is never classified
    # cleanly), so a log-likelihood this close to its supremum 0 means the
    # maximizer ran off to infinity.
    if ridge == 0 and ll > -1e-6:
        raise SeparationError(
            "perfect separation: log-likelihood reached its supremum, "
            "no finite coefficient vector maximizes it")

    _, H = _fit_terms(X, w, ridge)
    try:
        cov = np.linalg.inv(H)
        ses = tuple(float(s) for s in np.sqrt(np.maximum(np.diag(cov), 0.0)))
    except np.linalg.LinAlgError:
        singular = True
        ses = tuple([float("nan")] * 5)

    diag = FitDiagnostics(
        iterations=iterations,
        final_log_likelihood=float(ll),
        converged=converged,
        gradient_max_norm=grad_norm,
        log_likelihood_path=tuple(ll_path),
        standard_errors=ses,
        singular=singular,
    )
    return RiskModel(intercept=float(w[0]), coef_balance=float(w[1]),
                     coef_ltv=float(w[2]), coef_dti=float(w[3]),
                     coef_units=float(w[4]), diagnostics=diag)


_P_FLOOR = np.finfo(float).tiny
_P_CEIL = float(np.nextafter(1.0, 0.0))


def predict_many(model: RiskModel, records: Sequence[LoanRecord]) -> np.ndarray:
    """P(late) for each record, strictly inside (0, 1)."""
    X = _design_matrix(LoanTable.from_records(records))
    lp = X @ model.coefficients()
    p = 0.5 * (1.0 + np.tanh(0.5 * lp))
    return np.clip(p, _P_FLOOR, _P_CEIL)


def to_score_distributions(records: Sequence[LoanRecord],
                           risks: Sequence[float]) -> dict[str, ScoreDistribution]:
    """Group records into lending-score samples, pi = 1 - late risk."""
    table = LoanTable.from_records(records)
    if len(table) != len(risks):
        raise ValueError("records and risks must align")
    groups = table.group
    no_group = np.ones(len(table), dtype=bool) if groups is None else groups == ""
    risk = np.asarray(risks, dtype=float)
    improper = ~((risk > 0.0) & (risk < 1.0))
    failed = no_group | improper
    if failed.any():
        # the first failing record, and its first failing check
        i = int(np.argmax(failed))
        if no_group[i]:
            raise ValueError("every record needs a group label")
        raise ValueError(f"risk must lie strictly in (0, 1), got {risks[i]!r}")
    scores = 1.0 - risk
    return {g: ScoreDistribution(g, scores[groups == g])
            for g in sorted(set(groups.tolist()))}
