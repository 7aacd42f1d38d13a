"""lendingdyn benchmark: three workloads through the CLI, with checked outputs.

    python3 perfbench/run.py [--workload grid|loans|chain|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root (the program is imported from `src/`).  Each
workload runs in a fresh worker process that calls `lendingdyn.cli.main`
as a user would; the workload seed becomes the CLI `--seed` and seeds the
generated loan CSVs.  Set-up time is measured in separate cold processes.

With --trace 0 a workload reports its end-to-end metrics (wall_s, setup_s,
peak_rss_mb); with --trace 1 it reports the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the run's
provenance.  `--workload all` runs every workload and ends with a table that
also shows fail_frac = failed / attempted.  --smoke shrinks every workload
to a few seconds.  Scratch files go to `.bench_work/` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("grid", "loans", "chain")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 7
MAX_THREADS = 2          # the grid's --threads, capped at the usable cores
RUN_TIMEOUT_S = 170      # a single workload run ends within 180 s

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import lendingdyn.cli; "
                 "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_times(samples: int, deadline: float) -> list[float]:
    """Import time of lendingdyn.cli in fresh processes, after one warm-up
    import that leaves the bytecode cache filled as users have it."""
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"importing lendingdyn.cli failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout))
    return times


def git_revision() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, dict]:
    """(result, provenance) of one workload run."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    sizes = workloads.sizes_for(name, smoke)
    threads = min(MAX_THREADS, nproc())
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.write_inputs(name, sizes, seed, work / "inputs")

    metrics = {}
    if not trace:
        metrics["setup_s"] = statistics.median(setup_times(
            2 if smoke else SETUP_SAMPLES, deadline))
    out = work / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--threads", str(threads),
           "--src", str(SRC), "--work", str(work), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker exceeded {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    report = json.loads(out.read_text())
    metrics.update(report["metrics"])

    failed = sum(code != 0 for code in report["codes"]) + \
        sum(not c["ok"] for c in report["checks"])
    attempted = len(report["codes"]) + len(report["checks"])
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    provenance = {
        "workload": name, "seed": seed, "sizes": sizes, "smoke": smoke,
        "trace": trace, "passes": report["passes"],
        "pass_walls": report.get("pass_walls"), "threads": threads,
        "nproc": nproc(), "python": platform.python_version(),
        "numpy": np.__version__, "git_revision": git_revision(),
        "failed_checks": [c["check"] for c in report["checks"] if not c["ok"]],
    }
    for description in provenance["failed_checks"]:
        print(f"{name}: failed check: {description}", file=sys.stderr)
    bad_codes = [code for code in report["codes"] if code != 0]
    if bad_codes:
        print(f"{name}: CLI exit codes {bad_codes}; see {work / 'cli.log'}",
              file=sys.stderr)
    return result, provenance


def print_table(results: dict[str, dict]) -> None:
    names = list(results)
    rows = {}
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            rows.setdefault((metric, m["unit"]), {})[name] = m["value"]
        rows.setdefault(("fail_frac", "ratio"), {})[name] = \
            result["failed"] / result["attempted"]
    print(f"{'metric':44} {'unit':6} " + " ".join(f"{n:>12}" for n in names))
    for (metric, unit), values in rows.items():
        cells = " ".join(f"{values[n]:>12.6g}" for n in names)
        print(f"{metric:44} {unit:6} {cells}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="time budget for the repeated passes of one run "
                        "(default 30, or 0.2 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes; finishes in a few seconds")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else 30.0

    if not (SRC / "lendingdyn" / "cli.py").is_file():
        print(f"error: no lendingdyn sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, provenance = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), args.smoke)
            results[name] = result
            print(json.dumps({"provenance": provenance}))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
