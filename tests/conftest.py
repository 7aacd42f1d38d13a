"""Shared fixtures and oracle helpers."""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
import pytest

from lendingdyn import BetaSpec, sample_beta

# Coefficients the synthetic loan generator writes into the late label.
TRUE_INTERCEPT = -2.876
TRUE_BALANCE = 0.0
TRUE_LTV = 0.010
TRUE_DTI = 0.074
TRUE_UNITS = 0.244


def logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def make_loan_rows(n: int, seed: int, purpose_mix: bool = True) -> list[dict]:
    """Synthetic training rows whose late labels follow the fixed pattern.

    Feature scales are compact (single digits to low hundreds) so the
    information matrix is well conditioned at the 1e-8 gradient bar.
    """
    rng = np.random.default_rng(seed)
    balance = rng.uniform(1.0, 9.0, n)
    ltv = rng.uniform(40.0, 100.0, n)
    dti = rng.uniform(0.5, 10.0, n)
    units = rng.integers(1, 5, n)
    lp = (TRUE_INTERCEPT + TRUE_BALANCE * balance + TRUE_LTV * ltv
          + TRUE_DTI * dti + TRUE_UNITS * units)
    late = (rng.random(n) < 1.0 / (1.0 + np.exp(-lp))).astype(int)
    purposes = ["purchase"] * n
    if purpose_mix:
        mix = rng.random(n)
        for i in range(n):
            if mix[i] < 0.10:
                purposes[i] = "refinance"
            elif mix[i] < 0.15:
                purposes[i] = "other"
    return [
        {"balance": repr(float(balance[i])), "ltv": repr(float(ltv[i])),
         "dti": repr(float(dti[i])), "units": str(int(units[i])),
         "purpose": purposes[i], "late": str(int(late[i]))}
        for i in range(n)
    ]


def write_loan_csv(path, rows: list[dict], columns=None) -> None:
    columns = columns or list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_risk_inputs(directory):
    """A training and an application CSV that exercise every loader path.

    Both mix refinance and free-text purposes into the purchase rows and
    carry rows that break a field invariant; the application file also has
    empty group labels, one of them on an invalid row.  Returns the paths.
    """
    train_rows = make_loan_rows(600, seed=31)
    for i in (5, 77, 150):
        train_rows[i]["units"] = "0"
    train_rows[33]["balance"] = "-1.5"
    train_rows[201]["dti"] = "inf"
    train_rows[202]["ltv"] = " nan "
    app_rows = make_loan_rows(300, seed=32)
    for i, row in enumerate(app_rows):
        del row["late"]
        row["group"] = "AD"[i % 2]
    app_rows[10]["group"] = ""
    app_rows[11]["group"] = "  "
    app_rows[40]["ltv"] = "-3.0"
    app_rows[41]["units"] = "0"
    app_rows[41]["group"] = ""
    train, apps = directory / "train.csv", directory / "apps.csv"
    write_loan_csv(train, train_rows)
    write_loan_csv(apps, app_rows)
    return train, apps


_PLAIN_LINE = re.compile(r"[\t\x0b\x0c !#-~]+(\r\n|\n)?")


def plain_lines(text: str) -> bool:
    """Whether each line of the text is one the C readers may parse: ASCII
    without '"' or control characters other than tab, vertical tab and form
    feed, not blank, ended by "\n", "\r\n" or the end of the text, and no
    longer than the csv field limit.  Lines split as in a file opened with
    newline="", so a lone "\r" ends a line."""
    return all(_PLAIN_LINE.fullmatch(line)
               and len(line) <= csv.field_size_limit()
               for line in io.StringIO(text, newline="").readlines())


def spy_calls(monkeypatch, module, name: str) -> list:
    """Record each call of module.name, which still runs; returns the list
    the calls' arguments are appended to."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def beta_pair():
    """A stochastically dominant pair with a visible mean gap."""
    dist_a = sample_beta(BetaSpec(a=4.0, b=8.0, n=400, seed=101), group="A")
    dist_d = sample_beta(BetaSpec(a=3.0, b=8.0, n=400, seed=202), group="D")
    return dist_a, dist_d


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    write_loan_csv(path, make_loan_rows(1500, seed=5))
    return path
