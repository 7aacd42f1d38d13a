"""Command-line front end.

Every run resolves its settings from three layers: command-line flags win
over `--config` file entries, which win over built-in defaults.  `main`
runs each command inside one envelope: it times the run, and after a
command given `--out-dir` succeeds it drops two records next to the
artifacts: `run.cfg`, the effective settings that determine the results
(execution-only settings like thread count are excluded, so equivalent
runs compare byte for byte), and `manifest.json` with the command name,
versions and wall time.  Rerunning any command with `--config` pointed at
a previous run.cfg reproduces the artifacts exactly.

Exit codes: 0 success, 1 computation failure, 2 invalid input or settings.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from ._random import TAG_SAMPLE, derive_seed
from .distributions import (BetaSpec, check_dominance, read_score_csv,
                            sample_beta, write_score_csv)
from .dynamics import (MAX_SIMULATE_ROWS, DynamicsParams, ScoreDistribution,
                       ThresholdPolicy, simulate, simulate_group)
from .interventions import (MAX_CELL_BYTES, MAX_GRID_CELLS, MAX_SPAN_POINTS,
                            UtilityWeights, WorkerLost, cell_bytes,
                            grid_as_dict, grid_rows, recommend_grid)
from .markov import (ChainError, RationalStep, absorption_probabilities,
                     build_chain, enumerate_states, transient_mass)
from .risk import (RiskModel, SeparationError, fit_logistic, load_records,
                   predict_many, to_score_distributions)
from .thresholds import grid_search_threshold, optimal_threshold

# Settings that change how a run executes but never what it computes.
# They stay out of run.cfg so identical experiments compare byte for byte.
EXECUTION_KEYS = frozenset({"config", "out_dir", "threads"})


class CliError(Exception):
    """Invalid flags, config entries, or input files (exit code 2)."""


@dataclass(frozen=True)
class Option:
    key: str                       # snake_case; flag defaults to --key-with-dashes
    kind: str                      # int | float | str | bool | floats
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""
    flag: str | None = None        # override for flags that are not the key


def _flag(opt_or_key) -> str:
    if isinstance(opt_or_key, Option) and opt_or_key.flag:
        return opt_or_key.flag
    key = opt_or_key.key if isinstance(opt_or_key, Option) else opt_or_key
    return "--" + key.replace("_", "-")


_COMMON = (
    Option("config", "str", help="key=value file supplying defaults"),
)

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _convert(opt: Option, raw):
    """Normalize a raw CLI or config value to the option's type."""
    try:
        if opt.kind == "bool":
            if isinstance(raw, bool):
                return raw
            low = str(raw).strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if opt.kind == "int":
            return int(str(raw), 10)
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "floats":
            parts = raw if isinstance(raw, (list, tuple)) else str(raw).replace(",", " ").split()
            values = tuple(float(p) for p in parts)
            if not values:
                raise ValueError("empty list")
            return values
        return str(raw)
    except ValueError as exc:
        raise CliError(f"bad value for {_flag(opt)}: {exc}") from None


def _read_config(path: str, options: dict[str, Option]) -> dict:
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in options or key == "config":
            valid = ", ".join(sorted(k for k in options if k != "config"))
            raise CliError(f"{path}:{lineno}: unknown setting {key!r} "
                           f"(valid: {valid})")
        out[key] = value.strip()
    return out


def _resolve(args: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """Merge flags over config-file entries over defaults."""
    by_key = {o.key: o for o in options}
    config_raw = {}
    if getattr(args, "config", None):
        config_raw = _read_config(args.config, by_key)
    values = {}
    for opt in options:
        given = getattr(args, opt.key, None)
        if given is not None:
            values[opt.key] = _convert(opt, given)
        elif opt.key in config_raw:
            values[opt.key] = _convert(opt, config_raw[opt.key])
        else:
            values[opt.key] = opt.default
        if values[opt.key] is None and opt.required:
            raise CliError(f"{_flag(opt)} is required")
        if opt.choices and values[opt.key] is not None \
                and values[opt.key] not in opt.choices:
            raise CliError(f"{_flag(opt)} must be one of "
                           f"{', '.join(map(str, opt.choices))}, "
                           f"got {values[opt.key]!r}")
    return values


def _cfg_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return " ".join(_cfg_text(x) for x in v)
    return str(v)


def _check_out_dirs(values: dict) -> None:
    """Refuse, creating nothing, an output directory that exists and is not
    one, or whose nearest existing ancestor is not one."""
    for key in ("out_dir", "out_scores"):
        path = Path(values.get(key) or ".")
        there = next(p for p in (path, *path.parents)
                     if p.exists() or p.is_symlink())
        if not there.is_dir():
            raise CliError(f"{_flag(key)} {path} cannot be a directory: "
                           f"{there} exists and is not one")


def _out_dir(values: dict) -> Path:
    out = Path(values["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finalize(command: str, values: dict, t0: float) -> None:
    lines = [f"{k}={_cfg_text(v)}" for k, v in sorted(values.items())
             if k not in EXECUTION_KEYS and v is not None]
    (_out_dir(values) / "run.cfg").write_text("\n".join(lines) + "\n")
    manifest = {
        "command": command,
        "config": {k: _cfg_text(v) for k, v in sorted(values.items())
                   if v is not None},
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_seconds": time.monotonic() - t0,
    }
    _emit_json(manifest, values, "manifest.json")


def _emit_json(payload: dict, values: dict, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if values.get("out_dir"):
        (_out_dir(values) / name).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _write_rows(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})


def parse_distribution(literal: str, group: str, n: int, seed: int,
                       slot: int) -> ScoreDistribution:
    """Build a group's initial scores from a distribution literal.

    beta:a,b draws n scores from Beta(a, b), seeded per group slot so the
    two groups of one run never share draws; file:path reads one score per
    line from a CSV.
    """
    if literal.startswith("beta:"):
        body = literal[len("beta:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise CliError(f"beta literal needs two parameters, got {literal!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise CliError(f"bad beta parameters in {literal!r}") from None
        spec = BetaSpec(a=a, b=b, n=n, seed=derive_seed(seed, TAG_SAMPLE, slot))
        return sample_beta(spec, group=group)
    if literal.startswith("file:"):
        return read_score_csv(literal[len("file:"):], group=group)
    raise CliError(
        f"distribution must look like beta:a,b or file:path, got {literal!r}")


def _pair_option(values: dict, base: str, per_a: str, per_d: str,
                 what: str) -> tuple[float, float]:
    """Resolve a shared setting with optional per-group overrides."""
    a, d = values[per_a], values[per_d]
    if (a is None) != (d is None):
        raise CliError(f"give both {_flag(per_a)} and {_flag(per_d)}, or neither")
    if a is not None:
        if values[base] is not None:
            raise CliError(f"{_flag(base)} conflicts with "
                           f"{_flag(per_a)}/{_flag(per_d)}")
        return a, d
    if values[base] is None:
        raise CliError(f"{what} is required: {_flag(base)} or "
                       f"{_flag(per_a)}/{_flag(per_d)}")
    return values[base], values[base]


def _load_pair(values: dict) -> tuple[ScoreDistribution, ScoreDistribution]:
    n, seed = values["n"], values["seed"]
    dist_a = parse_distribution(values["dist_a"], "A", n, seed, 0)
    dist_d = parse_distribution(values["dist_b"], "D", n, seed, 1)
    return dist_a, dist_d


def _rational(values: dict, key: str) -> Fraction:
    try:
        return Fraction(values[key])
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{_flag(key)} must be a rational like 7/20, "
                       f"got {values[key]!r}") from None


def _span_count(values: dict, prefix: str) -> int:
    """Points of the --<prefix>-min/-max/-step span, refused past
    MAX_SPAN_POINTS before any point is built."""
    lo = values[f"{prefix}_min"]
    hi = values[f"{prefix}_max"]
    step = values[f"{prefix}_step"]
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise CliError(f"--{prefix}-min and --{prefix}-max must be finite")
    if not step > 0:
        raise CliError(f"--{prefix}-step must be positive, got {step}")
    if hi < lo:
        raise CliError(f"--{prefix}-max must be at least --{prefix}-min")
    gaps = (hi - lo) / step + 1e-9
    if not gaps < MAX_SPAN_POINTS:
        count = f"{int(gaps) + 1:,}" if np.isfinite(gaps) else "unbounded"
        raise CliError(f"--{prefix}-step {step} gives {count} points, more "
                       f"than the cap of {MAX_SPAN_POINTS:,}")
    return int(gaps) + 1


def _span(values: dict, prefix: str) -> tuple[float, ...]:
    """Inclusive lo..hi grid from --<prefix>-min/-max/-step settings."""
    lo, step = values[f"{prefix}_min"], values[f"{prefix}_step"]
    return tuple(round(lo + i * step, 10)
                 for i in range(_span_count(values, prefix)))


# Options that several command tables list with the same settings.
_N = Option("n", "int", default=1000, help="Beta sample size per group")
_SEED = Option("seed", "int", default=0, help="root seed")
_K = Option("k", "float", default=0.1, help="score gain per repayment")
_SEEDS = Option("seeds", "int", default=10,
                help="Monte Carlo replicates per cell")
_MODE = Option("mode", "str", default="signed", choices=("signed", "literal"),
               help="efficiency term: signed gains or absolute deviations")
_HORIZON = Option("horizon", "int", default=20)
_BETA_STEP = Option("beta_step", "float", default=0.01)
_THREADS = Option("threads", "int", default=1,
                  help="worker processes for grid cells, capped at the "
                       "usable cores")
_OUT_DIR = Option("out_dir", "str", required=True)
_OPTIONAL_OUT_DIR = Option("out_dir", "str")
_KEEP_PURPOSE = Option("keep_purpose", "str", default="purchase",
                       choices=("purchase", "refinance", "other", "all"))
_REJECTS = Option("rejects", "str",
                  help="optional CSV of rejected rows and reasons")

_DIST_OPTS = (
    Option("dist_a", "str", required=True,
           help="group A (advantaged) scores: beta:a,b or file:path"),
    Option("dist_b", "str", required=True,
           help="group D (disadvantaged) scores: beta:a,b or file:path"),
    _N, _SEED,
)

_C_GRID_OPTS = (
    Option("c_min", "float", default=0.5, help="first penalty-grid value"),
    Option("c_max", "float", default=3.0, help="last penalty-grid value"),
    Option("c_step", "float", default=0.5, help="penalty-grid spacing"),
)

_R_GRID_OPTS = (
    Option("r_min", "float", default=0.1, help="first reduction-grid value"),
    Option("r_max", "float", default=0.9, help="last reduction-grid value"),
    Option("r_step", "float", default=0.2, help="reduction-grid spacing"),
)


# ---------------------------------------------------------------- sample

SAMPLE_OPTS = _COMMON + (
    Option("a", "float", required=True, help="Beta shape a"),
    Option("b", "float", required=True, help="Beta shape b"),
    _N, _SEED,
    Option("group", "str", default="A", help="group label for the sample"),
    Option("out", "str", required=True, help="one-column CSV to write"),
)


def cmd_sample(values: dict) -> None:
    spec = BetaSpec(a=values["a"], b=values["b"], n=values["n"],
                    seed=values["seed"])
    dist = sample_beta(spec, group=values["group"])
    write_score_csv(values["out"], dist)
    print(f"wrote {dist.n} scores, mean {dist.mean():.6f}")


# -------------------------------------------------------------- simulate

SIMULATE_OPTS = _COMMON + _DIST_OPTS + (
    Option("beta", "float", help="approval threshold for both groups"),
    Option("beta_a", "float", help="group A threshold (with --beta-d)"),
    Option("beta_d", "float", help="group D threshold (with --beta-a)"),
    _K,
    Option("c", "float", help="penalty ratio for both groups (default 1)"),
    Option("c_a", "float", help="group A penalty ratio (with --c-d)"),
    Option("c_d", "float", help="group D penalty ratio (with --c-a)"),
    _HORIZON,
    Option("dump_agents", "bool", default=False,
           help="also write every agent's score at every step"),
    _OUT_DIR,
)


def cmd_simulate(values: dict) -> None:
    beta_a, beta_d = _pair_option(values, "beta", "beta_a", "beta_d",
                                  "a threshold")
    if values["c"] is None and values["c_a"] is None and values["c_d"] is None:
        values["c"] = 1.0       # in place, so run.cfg records it
    c_a, c_d = _pair_option(values, "c", "c_a", "c_d", "a penalty ratio")
    dist_a, dist_d = _load_pair(values)
    # Rows of trajectory.csv and agents.csv, counted after loading, which
    # holds horizon + 1 times fewer scores.
    horizon, dump = values["horizon"], values["dump_agents"]
    rows = (horizon + 1) * (2 + (dist_a.n + dist_d.n) * dump)
    if rows > MAX_SIMULATE_ROWS:
        raise CliError(f"--horizon {horizon}{' with --dump-agents' * dump} "
                       f"and {dist_a.n:,}/{dist_d.n:,} scores give {rows:,} "
                       f"output rows, more than the cap of "
                       f"{MAX_SIMULATE_ROWS:,}")
    policy = ThresholdPolicy(beta_by_group={"A": beta_a, "D": beta_d})
    params = DynamicsParams(k=values["k"], c_by_group={"A": c_a, "D": c_d})
    traj = simulate(dist_a, dist_d, policy, params, horizon, values["seed"])
    out = _out_dir(values)
    agents = out / "agents.csv" if dump else None
    traj.write_csv(out / "trajectory.csv", per_agent_path=agents)
    final_a = traj.final("A").mean()
    final_d = traj.final("D").mean()
    print(f"final means: A {final_a:.6f}, D {final_d:.6f}, "
          f"gap {final_a - final_d:+.6f}")


# ---------------------------------------------------- optimize-threshold

OPTIMIZE_OPTS = _COMMON + (
    Option("k", "float", required=True),
    Option("c", "float", required=True),
    Option("resolution", "float", default=1e-3,
           help="grid step for the sampled cross-check (needs --dist)"),
    Option("dist", "str", help="optional scores to cross-check by grid search"),
    _N, _SEED, _OPTIONAL_OUT_DIR,
)


def cmd_optimize_threshold(values: dict) -> None:
    result = optimal_threshold(values["k"], values["c"])
    payload = {"beta_hat": result.beta_hat,
               "crossing_point": result.crossing_point}
    if values["dist"]:
        dist = parse_distribution(values["dist"], "A", values["n"],
                                  values["seed"], 0)
        params = DynamicsParams.uniform(values["k"], values["c"], ("A",))
        grid_beta = grid_search_threshold(dist, params,
                                          resolution=values["resolution"])
        payload["grid_beta"] = grid_beta
        payload["grid_gap"] = abs(grid_beta - result.beta_hat)
    _emit_json(payload, values, "threshold.json")


# ------------------------------------------------------------- recommend

RECOMMEND_OPTS = _COMMON + _DIST_OPTS + _C_GRID_OPTS + _R_GRID_OPTS + (
    Option("alpha", "float", required=True,
           help="weight on the inequality term of the utility"),
    _MODE, _K, _HORIZON, _SEEDS,
    Option("per_group_beta", "bool", default=False,
           help="search thresholds per group instead of one shared value"),
    _BETA_STEP,
    _THREADS,
    _OUT_DIR,
)


def _grids(values: dict, alphas):
    """Yield (alpha, grid) per utility weight, all on one (c, r) grid and
    one pair of groups.  Grids past MAX_GRID_CELLS are refused first, and
    cells whose arrays would pass MAX_CELL_BYTES in a worker before any
    block is built: the estimate needs the groups' sizes, so it follows
    loading them, which holds 3 * seeds * horizon times fewer floats."""
    cells = _span_count(values, "c") * _span_count(values, "r")
    if cells > MAX_GRID_CELLS:
        raise CliError(f"--c-*/--r-* spans give {cells:,} grid cells, more "
                       f"than the cap of {MAX_GRID_CELLS:,}")
    c_grid = _span(values, "c")
    r_grid = _span(values, "r")
    dist_a, dist_d = _load_pair(values)
    need = cell_bytes(dist_a.n, dist_d.n, values["horizon"], values["seeds"])
    if need > MAX_CELL_BYTES:
        raise CliError(
            f"--seeds {values['seeds']}, --horizon {values['horizon']} and "
            f"{dist_a.n:,}/{dist_d.n:,} scores need about {need:,} bytes of "
            f"cell arrays per grid worker, more than the cap of "
            f"{MAX_CELL_BYTES:,}")
    for alpha in alphas:
        weights = UtilityWeights(alpha=alpha, mode=values["mode"])
        yield alpha, recommend_grid(
            dist_a, dist_d, c_grid, r_grid, weights, values["k"],
            horizon=values["horizon"], n_seeds=values["seeds"],
            seed=values["seed"], threads=values["threads"],
            per_group_beta=values.get("per_group_beta", False),
            beta_step=values["beta_step"])


_GRID_FIELDS = ["c", "r", "best", "utility_beta_only", "utility_group_blind",
                "utility_group_conscious", "marginal"]


def _write_grid(grid, values: dict, stem: str) -> None:
    _write_rows(_out_dir(values) / f"{stem}.csv", _GRID_FIELDS, grid_rows(grid))
    _emit_json(grid_as_dict(grid), values, f"{stem}.json")


def cmd_recommend(values: dict) -> None:
    [(_, grid)] = _grids(values, [values["alpha"]])
    _write_grid(grid, values, "grid")
    counts = Counter(cell.best.value for cell in grid.cells)
    print("best-policy counts: " +
          ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))


# -------------------------------------------------------- analyze-markov

MARKOV_OPTS = _COMMON + (
    Option("pi0", "str", required=True, help="initial score, rational like 1/2"),
    Option("beta", "str", required=True, help="threshold, rational like 7/20"),
    Option("k", "str", help="gain as a rational (with --c; up=k, down=c*k)"),
    Option("c", "str", help="penalty ratio as a rational (with --k)"),
    Option("up", "str", help="upward step, rational (alternative to --k/--c)"),
    Option("down", "str", help="downward step, rational (with --up)"),
    Option("start", "str", help="state to analyze from (default: pi0)"),
    Option("horizon", "int", help="also report transient mass after this many steps"),
    _OPTIONAL_OUT_DIR,
)


def cmd_analyze_markov(values: dict) -> None:
    has_steps = values["up"] is not None and values["down"] is not None
    has_kc = values["k"] is not None and values["c"] is not None
    if has_steps == has_kc:
        raise CliError("give exactly one of --k/--c or --up/--down")
    if has_steps:
        step = RationalStep(up=_rational(values, "up"),
                            down=_rational(values, "down"))
    else:
        step = RationalStep.from_gain_penalty(_rational(values, "k"),
                                              _rational(values, "c"))
    pi0 = _rational(values, "pi0")
    beta = _rational(values, "beta")
    space = enumerate_states(pi0, step, beta)
    chain = build_chain(space)
    start = _rational(values, "start") if values["start"] else pi0
    result = absorption_probabilities(chain, start)
    payload = {
        "pi0": str(pi0),
        "beta": str(beta),
        "up": str(step.up),
        "down": str(step.down),
        "start": str(start),
        "states": [str(s) for s in sorted(space.states)],
        "transient": [str(s) for s in space.transient],
        "absorbing": [str(s) for s in space.absorbing],
        "probabilities": {str(s): p for s, p
                          in zip(result.absorbing_states, result.probabilities)},
        "expected_steps": result.expected_steps,
    }
    if values["horizon"] is not None:
        payload["transient_mass"] = {
            "steps": values["horizon"],
            "mass": transient_mass(chain, start, values["horizon"]),
        }
    _emit_json(payload, values, "markov.json")


# ------------------------------------------------------- dominance-check

DOMINANCE_OPTS = _COMMON + (
    Option("file_a", "str", required=True, help="one-column score CSV, group A"),
    Option("file_b", "str", required=True, help="one-column score CSV, group D"),
    Option("step", "float", default=0.01, help="evaluation grid step"),
    _OPTIONAL_OUT_DIR,
)


def cmd_dominance_check(values: dict) -> None:
    dist_a = read_score_csv(values["file_a"], group="A")
    dist_d = read_score_csv(values["file_b"], group="D")
    report = check_dominance(dist_a, dist_d, step=values["step"])
    payload = {
        "dominates": report.dominates,
        "grid_step": report.grid_step,
        "n_violations": len(report.violations),
        "violations": [{"x": x, "cdf_a": fa, "cdf_d": fd}
                       for x, fa, fd in report.violations[:100]],
    }
    _emit_json(payload, values, "dominance.json")


# ------------------------------------------------------------ train-risk

TRAIN_OPTS = _COMMON + (
    Option("in_path", "str", required=True, flag="--in", help="training CSV"),
    Option("out_model", "str", required=True, help="model JSON to write"),
    Option("ridge", "float", default=0.0, help="L2 penalty, intercept excluded"),
    _KEEP_PURPOSE,
    Option("tol", "float", default=1e-8, help="gradient max-norm to stop at"),
    Option("max_iter", "int", default=100),
    _REJECTS,
)


def _keep(values: dict) -> str | None:
    return None if values["keep_purpose"] == "all" else values["keep_purpose"]


def _write_rejects(path, rejects) -> None:
    if path:
        _write_rows(Path(path), ["line", "reason"],
                    [{"line": r.line, "reason": r.reason} for r in rejects])


def cmd_train_risk(values: dict) -> None:
    loaded = load_records(values["in_path"], schema="training",
                          keep_purpose=_keep(values))
    model = fit_logistic(loaded.records, tol=values["tol"],
                         max_iter=values["max_iter"], ridge=values["ridge"])
    model.save(values["out_model"])
    _write_rejects(values["rejects"], loaded.rejects)
    d = model.diagnostics
    print(f"fit {len(loaded.records)} records ({len(loaded.rejects)} rejected): "
          f"converged={d.converged} iterations={d.iterations} "
          f"log_likelihood={d.final_log_likelihood:.4f}")


# ---------------------------------------------------------- predict-risk

PREDICT_OPTS = _COMMON + (
    Option("model", "str", required=True, help="model JSON from train-risk"),
    Option("in_path", "str", required=True, flag="--in", help="application CSV"),
    Option("out_scores", "str", required=True,
           help="directory for one-column score CSVs, one per group"),
    _KEEP_PURPOSE, _REJECTS,
)


def cmd_predict_risk(values: dict) -> None:
    model = RiskModel.load(values["model"])
    loaded = load_records(values["in_path"], schema="application",
                          keep_purpose=_keep(values))
    risks = predict_many(model, loaded.records)
    dists = to_score_distributions(loaded.records, risks)
    # Path separators in a label become "_"; two labels that then share a
    # file name are refused before any file is written.
    names: dict[str, str] = {}
    for group in dists:
        safe = group.replace("/", "_").replace("\\", "_")
        name = f"scores_{safe}.csv"
        if name in names:
            raise CliError(f"groups {names[name]!r} and {group!r} would both "
                           f"write {name}")
        names[name] = group
    out = Path(values["out_scores"])
    out.mkdir(parents=True, exist_ok=True)
    for name, group in names.items():
        dist = dists[group]
        write_score_csv(out / name, dist)
        print(f"group {group}: {dist.n} scores, mean {dist.mean():.6f}")
    _write_rejects(values["rejects"], loaded.rejects)


# -------------------------------------------------------- max-mean-curve

def emit_max_mean_curve(dist_a: ScoreDistribution, dist_d: ScoreDistribution,
                        params: DynamicsParams, c_values, horizon: int,
                        seed: int) -> list[dict]:
    """Horizon-end group means under the optimal threshold, per penalty c.

    Each c is simulated under its own analytic beta-hat(k, c), with both
    groups at that penalty; params supplies k.  One seed drives every c,
    so the rows are coupled: the same agent sees the same uniforms whether
    the penalty is mild or harsh.  Rows: {c, max_mean_a, max_mean_d}.
    """
    if not c_values:
        raise ValueError("c_values must be nonempty")
    rows = []
    for c in c_values:
        c = float(c)
        beta_hat = optimal_threshold(params.k, c).beta_hat
        final_a = simulate_group(dist_a, beta_hat, params.k, c, horizon,
                                 seed, group_slot=0)
        final_d = simulate_group(dist_d, beta_hat, params.k, c, horizon,
                                 seed, group_slot=1)
        rows.append({"c": c, "max_mean_a": float(final_a.mean()),
                     "max_mean_d": float(final_d.mean())})
    return rows


MAXMEAN_OPTS = _COMMON + _DIST_OPTS + _C_GRID_OPTS + (_K, _HORIZON, _OUT_DIR)


def cmd_max_mean_curve(values: dict) -> None:
    c_grid = _span(values, "c")
    dist_a, dist_d = _load_pair(values)
    params = DynamicsParams.uniform(values["k"], 1.0, ("A", "D"))
    rows = emit_max_mean_curve(dist_a, dist_d, params, c_grid,
                               values["horizon"], values["seed"])
    _write_rows(_out_dir(values) / "max_mean.csv",
                ["c", "max_mean_a", "max_mean_d"], rows)


# ------------------------------------------------------ reproduce-figure

FIGURE_OPTS = _COMMON + _C_GRID_OPTS + _R_GRID_OPTS + (
    Option("which", "str", required=True, choices=("grid", "max-mean")),
    Option("alpha", "floats", default=(0.2, 0.5, 0.8),
           help="utility weights, one grid per value"),
    Option("dist_a", "str", default="beta:4,8"),
    Option("dist_b", "str", default="beta:3,8"),
    _N, _SEED, _MODE, _K, _HORIZON, _SEEDS, _BETA_STEP,
    _THREADS,
    _OUT_DIR,
)


def cmd_reproduce_figure(values: dict) -> None:
    if values["which"] == "max-mean":
        cmd_max_mean_curve(values)
        return
    # A stem keeps six significant digits of alpha; alphas that would
    # share one, and alphas outside [0, 1], are refused before any grid is
    # built.
    stems: dict[str, float] = {}
    for alpha in values["alpha"]:
        UtilityWeights(alpha=alpha, mode=values["mode"])
        stem = f"grid_alpha{alpha:g}"
        if stem in stems:
            raise CliError(f"--alpha {stems[stem]!r} and {alpha!r} would "
                           f"both write {stem}.json and {stem}.csv")
        stems[stem] = alpha
    for stem, (alpha, grid) in zip(stems, _grids(values, values["alpha"])):
        _write_grid(grid, values, stem)
        print(f"alpha {alpha:g}: grid written")


# ----------------------------------------------------------------- wiring

@dataclass(frozen=True)
class Command:
    name: str
    options: tuple[Option, ...]
    run: object
    summary: str


COMMANDS = (
    Command("sample", SAMPLE_OPTS, cmd_sample,
            "draw Beta-distributed initial scores to a one-column CSV"),
    Command("simulate", SIMULATE_OPTS, cmd_simulate,
            "run the two-group lending dynamics and write the trajectory"),
    Command("optimize-threshold", OPTIMIZE_OPTS, cmd_optimize_threshold,
            "closed-form mean-optimal threshold, optional grid cross-check"),
    Command("recommend", RECOMMEND_OPTS, cmd_recommend,
            "score the three interventions on a (c, r) grid"),
    Command("analyze-markov", MARKOV_OPTS, cmd_analyze_markov,
            "exact absorption analysis of the single-agent score walk"),
    Command("dominance-check", DOMINANCE_OPTS, cmd_dominance_check,
            "test first-order stochastic dominance of A over D"),
    Command("train-risk", TRAIN_OPTS, cmd_train_risk,
            "fit the late-payment model from loan records"),
    Command("predict-risk", PREDICT_OPTS, cmd_predict_risk,
            "score applications and write per-group initial scores"),
    Command("max-mean-curve", MAXMEAN_OPTS, cmd_max_mean_curve,
            "best attainable horizon mean per group across penalty ratios"),
    Command("reproduce-figure", FIGURE_OPTS, cmd_reproduce_figure,
            "rebuild the recommendation grids or the max-mean curve"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lendingdyn",
        description="threshold lending dynamics: simulation, exact analysis, "
                    "and intervention comparison")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.summary, description=cmd.summary)
        for opt in cmd.options:
            flag = _flag(opt)
            if opt.kind == "bool":
                p.add_argument(flag, dest=opt.key, action="store_true",
                               default=None, help=opt.help)
            elif opt.kind == "floats":
                p.add_argument(flag, dest=opt.key, nargs="+", default=None,
                               metavar="X", help=opt.help)
            else:
                p.add_argument(flag, dest=opt.key, default=None,
                               metavar=opt.key.upper(), help=opt.help)
        p.set_defaults(spec=cmd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = getattr(args, "spec", None)
    if spec is None:
        parser.print_help()
        return 2
    t0 = time.monotonic()
    try:
        values = _resolve(args, spec.options)
        _check_out_dirs(values)
        spec.run(values)
        if values.get("out_dir"):
            _finalize(spec.name, values, t0)
        return 0
    # ChainError and LinAlgError are ValueErrors, so this clause comes first.
    except (ChainError, SeparationError, WorkerLost,
            np.linalg.LinAlgError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except (CliError, FileNotFoundError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("computation failed: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
