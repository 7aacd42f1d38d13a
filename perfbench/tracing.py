"""Spans around the calls into each `lendingdyn` module, taken from outside.

`Tracer.install()` replaces each public function named in TARGETS by a
wrapper at the place the caller looks it up (`cli.recommend_grid`,
`interventions.evaluate_policy`, `_random.step_uniforms`, ...).  A wrapper
records one span per call: name, thread, start and end.  Every thread keeps
its own stack of open spans (the grid runs on worker threads), and a span's
self time is its duration minus the durations of the child spans that ran
inside it on the same thread.  Spans stay in memory until `write_spans()`.

Metric names use `random` for the `_random` module, because a metric name
must start with a letter or a digit.  `thresholds` is not wrapped: it is
closed-form and its calls take microseconds, so its time stays in its
callers' self time.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (span name, module the caller looks the name up in, attribute).  A
# function looked up in several modules is wrapped at each of them under
# one span name.
TARGETS = (
    ("cli.main", "lendingdyn.cli", "main"),
    ("interventions.recommend_grid", "lendingdyn.cli", "recommend_grid"),
    ("interventions.evaluate_policy", "lendingdyn.interventions", "evaluate_policy"),
    ("interventions.baseline_outcome", "lendingdyn.interventions", "baseline_outcome"),
    ("random.uniform_block", "lendingdyn.interventions", "uniform_block"),
    ("random.step_uniforms", "lendingdyn._random", "step_uniforms"),
    ("random.step_uniforms", "lendingdyn.dynamics", "step_uniforms"),
    ("random.substream", "lendingdyn._random", "substream"),
    ("random.substream", "lendingdyn.dynamics", "substream"),
    ("random.substream", "lendingdyn.distributions", "substream"),
    ("dynamics.simulate", "lendingdyn.cli", "simulate"),
    ("dynamics.simulate_group", "lendingdyn.cli", "simulate_group"),
    ("dynamics.step_population", "lendingdyn.dynamics", "step_population"),
    ("dynamics.Trajectory.write_csv", "lendingdyn.dynamics:Trajectory", "write_csv"),
    ("distributions.sample_beta", "lendingdyn.cli", "sample_beta"),
    ("distributions.read_score_csv", "lendingdyn.cli", "read_score_csv"),
    ("distributions.write_score_csv", "lendingdyn.cli", "write_score_csv"),
    ("distributions.check_dominance", "lendingdyn.cli", "check_dominance"),
    ("markov.enumerate_states", "lendingdyn.cli", "enumerate_states"),
    ("markov.build_chain", "lendingdyn.cli", "build_chain"),
    ("markov.absorption_probabilities", "lendingdyn.cli", "absorption_probabilities"),
    ("markov.transient_mass", "lendingdyn.cli", "transient_mass"),
    ("risk.load_records", "lendingdyn.cli", "load_records"),
    ("risk.fit_logistic", "lendingdyn.cli", "fit_logistic"),
    ("risk.predict_many", "lendingdyn.cli", "predict_many"),
    ("risk.to_score_distributions", "lendingdyn.cli", "to_score_distributions"),
)


def _beta_count(step: float) -> int:
    # Size of the threshold grid evaluate_policy sweeps: 0, step, ..., 1.
    return int(round(1.0 / step)) + 1


# Work counts read from a call's arguments (defaults applied) and its result.
COUNTERS = {
    "dynamics.simulate": lambda a, r: {
        "agent_steps": a["horizon"] * (a["dist_a"].n + a["dist_d"].n)},
    "dynamics.simulate_group": lambda a, r: {
        "agent_steps": a["horizon"] * a["dist"].n},
    "interventions.evaluate_policy": lambda a, r: {
        "sweep_agent_steps": (a["n_seeds"] * _beta_count(a["beta_step"])
                              * (a["dist_a"].n + a["dist_d"].n) * a["horizon"])},
    "interventions.recommend_grid": lambda a, r: {"threads": a["threads"]},
    "random.uniform_block": lambda a, r: {
        "block": (a["seed"], a["horizon"], a["group_slot"], a["n"])},
    "markov.enumerate_states": lambda a, r: {"transient": len(r.transient)},
    "risk.load_records": lambda a, r: {
        "rows": len(r.records) + len(r.rejects), "rejects": len(r.rejects)},
    "risk.fit_logistic": lambda a, r: {"iterations": r.diagnostics.iterations},
}


@dataclass(slots=True)
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    info: dict | None


class Tracer:
    """Wraps TARGETS while installed and keeps every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack_of = self.spans, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
            info = None
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = counter(bound.arguments, result)
            spans.append(Span(name, threading.get_ident(), start, end,
                              end - start - child, info))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, where, attr in TARGETS:
            module_name, _, cls = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(path, passes: dict[str, list[Span]]) -> None:
    """One CSV row per span: pass, name, thread, start, end, self time."""
    with open(path, "w") as fh:
        fh.write("pass,name,thread,start_s,end_s,self_s\n")
        for label, spans in passes.items():
            origin = min((s.start for s in spans), default=0.0)
            for s in spans:
                fh.write(f"{label},{s.name},{s.thread},{s.start - origin:.9f},"
                         f"{s.end - origin:.9f},{s.self_s:.9f}\n")


class Stats:
    """Durations, self times and work counts of one traced pass, by span name."""

    def __init__(self, spans: list[Span]):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.info: dict[str, list[dict]] = defaultdict(list)
        for s in spans:
            self.durations[s.name].append(s.end - s.start)
            self.self_s[s.name] += s.self_s
            if s.info:
                self.info[s.name].append(s.info)

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    def total_s(self, name: str) -> float:
        return sum(self.durations[name])

    def sum_info(self, name: str, key: str) -> int:
        return sum(i[key] for i in self.info[name])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(durations: list[float]) -> float:
    # Highest percentile with at least ten calls beyond it: the 11th
    # longest call (the longest call when there are fewer than 11).
    ordered = sorted(durations)
    return ordered[max(len(ordered) - 11, 0)] if ordered else 0.0


# Per-layer metrics: name -> unit.  Counts repeat exactly between runs;
# the traced run checks that they do.
UNITS = {
    "random.substream.calls": "count",
    "random.substream.self_s": "s",
    "random.uniform_block.calls": "count",
    "random.uniform_block.distinct_frac": "ratio",
    "random.step_uniforms.self_s": "s",
    "dynamics.simulate.self_s": "s",
    "dynamics.step_population.self_s": "s",
    "dynamics.simulate_group.self_s": "s",
    "dynamics.Trajectory.write_csv.self_s": "s",
    "dynamics.agent_steps": "count",
    "dynamics.agent_steps_per_s": "1/s",
    "distributions.read_score_csv.self_s": "s",
    "distributions.write_score_csv.self_s": "s",
    "distributions.check_dominance.self_s": "s",
    "distributions.sample_beta.self_s": "s",
    "interventions.evaluate_policy.calls": "count",
    "interventions.evaluate_policy.self_s": "s",
    "interventions.evaluate_policy.p50_s": "s",
    "interventions.evaluate_policy.tail_s": "s",
    "interventions.baseline_outcome.calls": "count",
    "interventions.baseline_outcome.self_s": "s",
    "interventions.sweep.agent_steps_per_s": "1/s",
    "interventions.recommend_grid.parallel_eff": "ratio",
    "interventions.recommend_grid.speedup": "ratio",
    "markov.transient_states": "count",
    "markov.enumerate_states.self_s": "s",
    "markov.build_chain.self_s": "s",
    "markov.absorption_probabilities.self_s": "s",
    "markov.transient_mass.self_s": "s",
    "risk.load_records.self_s": "s",
    "risk.load_records.rows_per_s": "1/s",
    "risk.load_records.reject_frac": "ratio",
    "risk.fit_logistic.self_s": "s",
    "risk.fit_logistic.iterations": "count",
    "risk.predict_many.self_s": "s",
    "risk.to_score_distributions.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

COUNT_METRICS = tuple(name for name, unit in UNITS.items() if unit == "count") + (
    "random.uniform_block.distinct_frac", "risk.load_records.reject_frac")


def layer_metrics(st: Stats, one_thread: Stats | None, overhead: float) -> dict:
    """Every per-layer metric from one traced pass.

    `one_thread` is the same pass at --threads 1 (grid only); a layer the
    workload never calls reports 0.
    """
    m = {name: st.calls(name.rsplit(".", 1)[0]) for name in UNITS
         if name.endswith(".calls")}
    m.update({name: st.self_s[name.rsplit(".", 1)[0]] for name in UNITS
              if name.endswith(".self_s")})

    blocks = [i["block"] for i in st.info["random.uniform_block"]]
    m["random.uniform_block.distinct_frac"] = _ratio(len(set(blocks)), len(blocks))

    dyn = ("dynamics.simulate", "dynamics.simulate_group")
    steps = sum(st.sum_info(name, "agent_steps") for name in dyn)
    m["dynamics.agent_steps"] = steps
    m["dynamics.agent_steps_per_s"] = _ratio(steps, sum(st.total_s(n) for n in dyn))

    ev = "interventions.evaluate_policy"
    m[ev + ".p50_s"] = statistics.median(st.durations[ev]) if st.durations[ev] else 0.0
    m[ev + ".tail_s"] = _tail(st.durations[ev])
    m["interventions.sweep.agent_steps_per_s"] = _ratio(
        st.sum_info(ev, "sweep_agent_steps"), st.self_s[ev])
    grid = "interventions.recommend_grid"
    threads = st.sum_info(grid, "threads")
    m[grid + ".parallel_eff"] = _ratio(st.total_s(ev), threads * st.total_s(grid))
    m[grid + ".speedup"] = _ratio(one_thread.total_s(grid), st.total_s(grid)) \
        if one_thread else 0.0

    m["markov.transient_states"] = st.sum_info("markov.enumerate_states", "transient")
    rows = st.sum_info("risk.load_records", "rows")
    m["risk.load_records.rows_per_s"] = _ratio(rows, st.self_s["risk.load_records"])
    m["risk.load_records.reject_frac"] = _ratio(
        st.sum_info("risk.load_records", "rejects"), rows)
    m["risk.fit_logistic.iterations"] = st.sum_info("risk.fit_logistic", "iterations")
    m["trace.overhead_frac"] = overhead
    return m
