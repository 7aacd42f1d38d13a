"""Loan-record ingestion and the late-payment risk model.

Training rows regress `late` on (balance, ltv, dti, units) plus an intercept
by Newton iteration with step halving on the Bernoulli log-likelihood;
coefficients stay on raw feature scales.  A fitted model scores application
rows, and initial lending scores are pi = 1 - predicted late risk, grouped
into one ScoreDistribution per group label.

Purpose filtering keeps purchase loans only.  Rows violating field
invariants are rejected individually with reasons; structural problems
(missing columns, unparseable numbers, an empty result) raise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import ScoreDistribution

PURPOSES = ("purchase", "refinance", "other")

TRAINING_COLUMNS = ("balance", "ltv", "dti", "units", "purpose", "late")
APPLICATION_COLUMNS = ("balance", "ltv", "dti", "units", "purpose", "group")

_FEATURES = ("balance", "ltv", "dti", "units")


class SeparationError(RuntimeError):
    """Perfect separation: the likelihood has no finite maximizer."""


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
        # Every invariant the fields break, joined into one message;
        # load_records reports it as the row's reject reason.
        problems = []
        if not (math.isfinite(self.balance) and self.balance >= 0):
            problems.append(f"balance must be nonnegative, got {self.balance!r}")
        if not (math.isfinite(self.ltv) and self.ltv >= 0):
            problems.append(f"ltv must be nonnegative, got {self.ltv!r}")
        if not math.isfinite(self.dti):
            problems.append(f"dti must be finite, got {self.dti!r}")
        if self.units < 1:
            problems.append(f"units must be >= 1, got {self.units!r}")
        if self.purpose not in PURPOSES:
            problems.append(f"purpose must be one of {PURPOSES}, got {self.purpose!r}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class RowReject:
    line: int
    reason: str


@dataclass(frozen=True)
class LoadResult:
    records: tuple[LoanRecord, ...]
    rejects: tuple[RowReject, ...]


def _parse_purpose(raw: str) -> str:
    cleaned = raw.strip().lower()
    if cleaned in ("purchase", "refinance"):
        return cleaned
    return "other"


def load_records(path, schema: str = "training",
                 keep_purpose: str | None = "purchase") -> LoadResult:
    """Read a loan CSV, reject invalid rows, filter to the kept purpose."""
    if schema == "training":
        required = TRAINING_COLUMNS
    elif schema == "application":
        required = APPLICATION_COLUMNS
    else:
        raise ValueError(f"schema must be 'training' or 'application', got {schema!r}")

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        records: list[LoanRecord] = []
        rejects: list[RowReject] = []
        for line, row in enumerate(reader, start=2):
            try:
                balance = float(row["balance"])
                ltv = float(row["ltv"])
                dti = float(row["dti"])
                units = int(row["units"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: unparseable numeric field: {exc}") from None
            purpose = _parse_purpose(row["purpose"] or "")
            late = group = None
            if schema == "training":
                raw_late = (row["late"] or "").strip()
                if raw_late not in ("0", "1"):
                    raise ValueError(f"{path}:{line}: late must be 0 or 1, got {raw_late!r}")
                late = raw_late == "1"
            else:
                group = (row["group"] or "").strip()
                if not group:
                    rejects.append(RowReject(line, "empty group label"))
                    continue
            try:
                record = LoanRecord(balance=balance, ltv=ltv, dti=dti,
                                    units=units, purpose=purpose,
                                    late=late, group=group)
            except ValueError as exc:
                rejects.append(RowReject(line, str(exc)))
                continue
            if keep_purpose is not None and purpose != keep_purpose:
                rejects.append(RowReject(line, f"purpose {purpose!r} filtered out"))
                continue
            records.append(record)
    if not records:
        raise ValueError(f"{path}: no usable rows after validation and filtering")
    return LoadResult(records=tuple(records), rejects=tuple(rejects))


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    final_log_likelihood: float
    converged: bool
    gradient_max_norm: float
    log_likelihood_path: tuple[float, ...]
    standard_errors: tuple[float, ...]   # intercept first, then feature order
    singular: bool


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
        d = data["diagnostics"]
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


def _design_matrix(records: Sequence[LoanRecord]) -> np.ndarray:
    X = np.empty((len(records), 5))
    X[:, 0] = 1.0
    for j, name in enumerate(_FEATURES, start=1):
        X[:, j] = [getattr(r, name) for r in records]
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
    intercept.
    """
    if len(records) < 2:
        raise ValueError("at least 2 training records required")
    if any(r.late is None for r in records):
        raise ValueError("every training record needs a late label")
    X = _design_matrix(records)
    y = np.array([1.0 if r.late else 0.0 for r in records])
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


def predict_late_risk(model: RiskModel, record: LoanRecord) -> float:
    """P(late) for one record, strictly inside (0, 1)."""
    return float(predict_many(model, [record])[0])


def predict_many(model: RiskModel, records: Sequence[LoanRecord]) -> np.ndarray:
    X = _design_matrix(records)
    lp = X @ model.coefficients()
    p = 0.5 * (1.0 + np.tanh(0.5 * lp))
    return np.clip(p, _P_FLOOR, _P_CEIL)


def to_score_distributions(records: Sequence[LoanRecord],
                           risks: Sequence[float],
                           allowed_groups: Iterable[str] | None = None,
                           ) -> dict[str, ScoreDistribution]:
    """Group records into lending-score samples, pi = 1 - late risk."""
    if len(records) != len(risks):
        raise ValueError("records and risks must align")
    allowed = set(allowed_groups) if allowed_groups is not None else None
    by_group: dict[str, list[float]] = {}
    for rec, risk in zip(records, risks):
        if not rec.group:
            raise ValueError("every record needs a group label")
        if allowed is not None and rec.group not in allowed:
            raise ValueError(f"unknown group label {rec.group!r}")
        if not (0.0 < risk < 1.0):
            raise ValueError(f"risk must lie strictly in (0, 1), got {risk!r}")
        by_group.setdefault(rec.group, []).append(1.0 - risk)
    return {g: ScoreDistribution(g, np.asarray(v))
            for g, v in sorted(by_group.items())}
