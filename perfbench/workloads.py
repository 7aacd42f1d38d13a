"""The benchmark's three workloads: their sizes, CLI commands, inputs and checks.

A workload is a fixed list of `lendingdyn` CLI invocations.  Each function
here is pure apart from the files it names, so the launcher (`run.py`) and the
worker process (`worker.py`) build identical commands from (sizes, seed).

  grid   `recommend` at the criterion-6 configuration: the intervention
         threshold sweep and random-stream construction.
  loans  train-risk -> predict-risk -> dominance-check -> simulate ->
         max-mean-curve over two generated loan CSVs: CSV ingestion, the
         Newton fit, and long population paths with few, wide streams.
  chain  analyze-markov on three rational lattices: the exact Fraction
         chain, single-threaded and RNG-free.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

GRID = {"n": 500, "c": (0.5, 3.0, 0.5), "r": (0.1, 0.9, 0.2), "seeds": 10,
        "horizon": 20, "beta_step": 0.01}
GRID_SMOKE = {"n": 40, "c": (0.5, 1.0, 0.5), "r": (0.1, 0.3, 0.2), "seeds": 2,
              "horizon": 4, "beta_step": 0.05}

LOANS = {"rows": 100_000, "horizon": 400, "c": (1.0, 3.0, 1.0)}
LOANS_SMOKE = {"rows": 3_000, "horizon": 10, "c": (1.0, 3.0, 1.0)}

# (up, down) rational steps from pi0 = 1/2 at beta = 1/3: 95, 291 and 765
# transient states.
CHAIN = {"cases": (("1/13", "1/11"), ("1/23", "1/19"), ("1/37", "1/31")),
         "horizon": 10_000}
CHAIN_SMOKE = {"cases": (("1/13", "1/11"),), "horizon": 100}

SIZES = {"grid": (GRID, GRID_SMOKE), "loans": (LOANS, LOANS_SMOKE),
         "chain": (CHAIN, CHAIN_SMOKE)}

# sha256 of the artifacts at DEFAULT_SEED and full sizes.  markov.json does
# not depend on the seed, so its digests are checked at every seed.
DIGESTS = {
    "grid/grid.json":
        "71cff33e64ebbd10b6342d9deb844807089c174508f06fb97d0270fbf04f737f",
    "sim/trajectory.csv":
        "81ac00247be2a2696d0b8c966ee35ee321a9c01201e36b74fe7c6935aa366864",
    "maxmean/max_mean.csv":
        "52be57667ee8d3c19c91a4ae70b8f6b72528f70a977351c716622a71a0ea2bec",
    "case0/markov.json":
        "d60b8523d3e4db038d81bbcdd62127ceb809441cbd842f91208ef80684922fa8",
    "case1/markov.json":
        "49e8f29eb588338daf5287aececdcbcb382fcb5cce9d28d7e7d79cbdc19e3ad8",
    "case2/markov.json":
        "0a55eb10f565b954d258e0a60fcf7e79044554877579eeed6ceb053115c5bcd1",
}

# Late-payment pattern the loan generator writes into its labels; the
# fitted model must recover it.  Order: intercept, balance, ltv, dti, units.
TRUE_COEF = (-5.0, 0.04, 0.02, 0.05, 0.15)
# Group D applicants carry these feature offsets, so A dominates D.
D_SHIFT = {"ltv": 5.0, "dti": 10.0}
COEF_SE_BOUND = 4.0
GRADIENT_TOL = 1e-8          # train-risk's default --tol


def sizes_for(workload: str, smoke: bool) -> dict:
    full, tiny = SIZES[workload]
    return tiny if smoke else full


def _span_flags(prefix: str, span) -> list[str]:
    lo, hi, step = span
    return [f"--{prefix}-min", str(lo), f"--{prefix}-max", str(hi),
            f"--{prefix}-step", str(step)]


def commands(workload: str, sizes: dict, seed: int, inputs: Path, out: Path,
             threads: int) -> list[list[str]]:
    """The CLI argument lists of one pass of the workload, in order."""
    if workload == "grid":
        return [["recommend", "--alpha", "0.5", "--mode", "literal",
                 "--dist-a", "beta:8,3", "--dist-b", "beta:7,3",
                 "--n", str(sizes["n"]), *_span_flags("c", sizes["c"]),
                 *_span_flags("r", sizes["r"]),
                 "--seeds", str(sizes["seeds"]),
                 "--horizon", str(sizes["horizon"]),
                 "--beta-step", str(sizes["beta_step"]),
                 "--threads", str(threads), "--seed", str(seed),
                 "--out-dir", str(out / "grid")]]
    if workload == "loans":
        scores = out / "scores"
        pair = ["--dist-a", f"file:{scores / 'scores_A.csv'}",
                "--dist-b", f"file:{scores / 'scores_D.csv'}",
                "--horizon", str(sizes["horizon"]), "--seed", str(seed)]
        return [
            ["train-risk", "--in", str(inputs / "train.csv"),
             "--out-model", str(out / "model.json")],
            ["predict-risk", "--model", str(out / "model.json"),
             "--in", str(inputs / "apps.csv"), "--out-scores", str(scores)],
            ["dominance-check", "--file-a", str(scores / "scores_A.csv"),
             "--file-b", str(scores / "scores_D.csv"),
             "--out-dir", str(out / "dominance")],
            ["simulate", *pair, "--beta", "0.5", "--k", "0.1", "--c", "1",
             "--out-dir", str(out / "sim")],
            ["max-mean-curve", *pair, *_span_flags("c", sizes["c"]),
             "--out-dir", str(out / "maxmean")],
        ]
    if workload == "chain":
        return [["analyze-markov", "--pi0", "1/2", "--beta", "1/3",
                 "--up", up, "--down", down,
                 "--horizon", str(sizes["horizon"]),
                 "--out-dir", str(out / f"case{i}")]
                for i, (up, down) in enumerate(sizes["cases"])]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- inputs

def _loan_features(rng: np.random.Generator, n: int, shifted) -> dict:
    feats = {"balance": rng.uniform(0.5, 8.0, n),
             "ltv": rng.uniform(50.0, 97.0, n),
             "dti": rng.uniform(5.0, 45.0, n),
             "units": rng.integers(1, 5, n)}
    for name, offset in D_SHIFT.items():
        feats[name] = feats[name] + offset * shifted
    return feats


def _purposes(rng: np.random.Generator, n: int) -> np.ndarray:
    # 8% refinance and 4% free-text purposes (collapsed to "other") are
    # filtered out by the purchase-only loader.
    return rng.choice(np.array(["purchase", "refinance", "Cash-Out"]), n,
                      p=[0.88, 0.08, 0.04])


def _write_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    cells = [[repr(float(v)) if isinstance(v, np.floating) else str(v)
              for v in columns[name]] for name in names]
    lines = [",".join(names)] + [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n")


def write_inputs(workload: str, sizes: dict, seed: int, inputs: Path) -> None:
    """Write the workload's input files; only `loans` has any.

    Training rows mix both groups' feature ranges, labels are Bernoulli with
    the logistic of TRUE_COEF, and about 0.5% of rows in each file break a
    field invariant so the loader's reject path runs.
    """
    if workload != "loans":
        return
    inputs.mkdir(parents=True, exist_ok=True)
    n = sizes["rows"]
    rng = np.random.default_rng([seed, 1])
    feats = _loan_features(rng, n, rng.random(n) < 0.5)
    lp = TRUE_COEF[0] + sum(coef * feats[name] for coef, name in
                            zip(TRUE_COEF[1:], ("balance", "ltv", "dti", "units")))
    late = (rng.random(n) < 1.0 / (1.0 + np.exp(-lp))).astype(int)
    feats["units"] = np.where(rng.random(n) < 0.005, 0, feats["units"])
    _write_csv(inputs / "train.csv",
               {**feats, "purpose": _purposes(rng, n), "late": late})

    rng = np.random.default_rng([seed, 2])
    is_d = rng.random(n) < 0.5
    feats = _loan_features(rng, n, is_d)
    feats["balance"] = np.where(rng.random(n) < 0.005, -1.0, feats["balance"])
    group = np.where(is_d, "D", "A")
    group = np.where(rng.random(n) < 0.002, "", group)
    _write_csv(inputs / "apps.csv",
               {**feats, "purpose": _purposes(rng, n), "group": group})


# ----------------------------------------------------------------- checks

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_checks(out: Path, names, pinned: bool) -> list[tuple[str, bool]]:
    if not pinned:
        return []
    return [(f"sha256 {name}", _sha256(out / name) == DIGESTS[name])
            for name in names]


def _grid_checks(out: Path) -> list[tuple[str, bool]]:
    kinds = ("beta_only", "group_blind", "group_conscious")
    cells = json.loads((out / "grid" / "grid.json").read_text())["cells"]
    best_ok = all(cell["best"] == kinds[int(np.argmax(
        [cell["utilities"][k] for k in kinds]))] for cell in cells)
    marginals = [cell["marginal"] for cell in cells]
    return [("grid best is the argmax of its utilities", best_ok),
            ("grid marginals in [0, 1] with maximum 1",
             all(0.0 <= m <= 1.0 for m in marginals) and max(marginals) == 1.0)]


def _read_scores(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)


def _loans_checks(out: Path) -> list[tuple[str, bool]]:
    model = json.loads((out / "model.json").read_text())
    diag = model["diagnostics"]
    coef = [model[k] for k in ("intercept", "coef_balance", "coef_ltv",
                               "coef_dti", "coef_units")]
    within = all(abs(c - t) <= COEF_SE_BOUND * se for c, t, se
                 in zip(coef, TRUE_COEF, diag["standard_errors"]))
    scores = [_read_scores(out / "scores" / f"scores_{g}.csv") for g in "AD"]
    dominance = json.loads((out / "dominance" / "dominance.json").read_text())
    return [
        (f"fit converged below the gradient tolerance {GRADIENT_TOL:g} "
         f"(gradient {diag['gradient_max_norm']:.3g} after "
         f"{diag['iterations']} iterations)",
         diag["converged"] and diag["gradient_max_norm"] < GRADIENT_TOL),
        (f"coefficients within {COEF_SE_BOUND:g} SE of the generator",
         within),
        ("scores in (0, 1)",
         all(s.size and s.min() > 0.0 and s.max() < 1.0 for s in scores)),
        ("A dominates D", dominance["dominates"] is True),
    ]


def _chain_checks(out: Path, n_cases: int) -> list[tuple[str, bool]]:
    checks = []
    for i in range(n_cases):
        payload = json.loads((out / f"case{i}" / "markov.json").read_text())
        total = math.fsum(payload["probabilities"].values())
        checks.append((f"case{i} absorption sums to 1", abs(total - 1.0) <= 1e-10))
    return checks


def check_outputs(workload: str, sizes: dict, seed: int, smoke: bool,
                  out: Path) -> list[tuple[str, bool]]:
    """(description, passed) for every check on one pass's outputs."""
    pinned = not smoke and seed == DEFAULT_SEED
    if workload == "grid":
        return _grid_checks(out) + _digest_checks(out, ["grid/grid.json"], pinned)
    if workload == "loans":
        return _loans_checks(out) + _digest_checks(
            out, ["sim/trajectory.csv", "maxmean/max_mean.csv"], pinned)
    n_cases = len(sizes["cases"])
    return _chain_checks(out, n_cases) + _digest_checks(
        out, [f"case{i}/markov.json" for i in range(n_cases)], not smoke)
