"""Runs one workload in a fresh process; started by run.py, never imported.

Timed mode repeats the workload's CLI pass until the next pass would end
after `--seconds`, then reports the median pass wall time and the process's
peak resident memory.  Traced mode runs one untraced pass, then two traced
passes (for grid the second runs at --threads 1), and reports the per-layer
metrics of the first traced pass.  Output checks run after the timed or
traced part.  The result goes to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import COUNT_METRICS, Stats, Tracer, layer_metrics, write_spans


def run_pass(cli, argvs: list[list[str]], log) -> tuple[float, list[int]]:
    """Wall time and exit codes of one pass through `cli.main`."""
    codes = []
    start = time.perf_counter()
    for argv in argvs:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc(file=log)
                codes.append(-1)
    return time.perf_counter() - start, codes


def check(args, sizes: dict, out: Path) -> list[tuple[str, bool]]:
    try:
        return workloads.check_outputs(args.workload, sizes, args.seed,
                                       args.smoke, out)
    except (OSError, ValueError, KeyError) as exc:
        return [(f"outputs of {out.name} readable: {exc}", False)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--src", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    from lendingdyn import cli
    if args.src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"lendingdyn imported from {cli.__file__}, not {args.src}",
              file=sys.stderr)
        return 2

    sizes = workloads.sizes_for(args.workload, args.smoke)
    passes: list[Path] = []

    def one_pass(threads: int) -> tuple[float, list[int]]:
        out = args.work / f"pass{len(passes)}"
        out.mkdir(parents=True)
        passes.append(out)
        argvs = workloads.commands(args.workload, sizes, args.seed,
                                   args.work / "inputs", out, threads)
        return run_pass(cli, argvs, log)

    report: dict = {}
    codes: list[int] = []
    checks: list[tuple[str, bool]] = []
    with open(args.work / "cli.log", "w") as log:
        if args.trace:
            base_wall, c = one_pass(args.threads)
            codes += c
            tracer = Tracer()
            tracer.install()
            try:
                wall, c = one_pass(args.threads)
                codes += c
                first = tracer.take()
                second_threads = 1 if args.workload == "grid" else args.threads
                _, c = one_pass(second_threads)
                codes += c
                second = tracer.take()
            finally:
                tracer.uninstall()
            write_spans(args.work / "spans.csv", {"traced": first, "repeat": second})
            st, st2 = Stats(first), Stats(second)
            metrics = layer_metrics(st, st2 if args.workload == "grid" else None,
                                    wall / base_wall - 1.0)
            repeat = layer_metrics(st2, None, 0.0)
            checks.append(("traced counts repeat exactly",
                           all(metrics[k] == repeat[k] for k in COUNT_METRICS)))
        else:
            walls = []
            start = time.perf_counter()
            while True:
                wall, c = one_pass(args.threads)
                walls.append(wall)
                codes += c
                if time.perf_counter() - start + wall > args.seconds:
                    break
            rusage = resource.getrusage(resource.RUSAGE_SELF)
            report["pass_walls"] = walls
            metrics = {"wall_s": statistics.median(walls),
                       "peak_rss_mb": rusage.ru_maxrss / 1024.0}
    for out in passes:
        checks += check(args, sizes, out)

    report.update(metrics=metrics, codes=codes, passes=len(passes),
                  checks=[{"check": name, "ok": ok} for name, ok in checks])
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
