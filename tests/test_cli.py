"""Command-line interface: flags, config layering, artifacts, exit codes."""

import concurrent.futures.process
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from lendingdyn import (RationalStep, distributions, enumerate_states,
                        interventions, optimal_threshold)
from lendingdyn.cli import COMMANDS, main, parse_distribution

from conftest import make_loan_rows, write_loan_csv, write_risk_inputs
from oracles import reference_settled, reference_walk


def run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return json.loads(out)


class TestSample:
    def test_writes_a_plain_score_file(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, stdout, _ = run(capsys, "sample", "--a", 4, "--b", 8,
                              "--n", 25, "--seed", 3, "--out", out)
        assert code == 0
        assert "25 scores" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "score"
        assert len(lines) == 26
        assert not (tmp_path / "run.cfg").exists()

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sample", "--a", 2, "--b", 5, "--n", 10, "--seed", 9,
            "--out", a)
        run(capsys, "sample", "--a", 2, "--b", 5, "--n", 10, "--seed", 9,
            "--out", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ("sample", "--a", "inf", "--b", 1, "--n", 5, "--out", "s.csv"),
        ("simulate", "--dist-a", "beta:inf,1", "--dist-b", "beta:3,8",
         "--beta", 0.5, "--n", 5, "--out-dir", "sim"),
    ])
    def test_an_infinite_shape_is_named(self, capsys, monkeypatch, tmp_path,
                                        args):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err == "error: shape parameters must be finite and positive\n"


class TestOptimizeThreshold:
    def test_payload_is_exactly_the_two_analytic_fields(self, capsys):
        payload = run_json(capsys, "optimize-threshold", "--k", 0.1, "--c", 1)
        assert payload == {"beta_hat": 0.5, "crossing_point": 0.5}

    def test_degenerate_regime_has_null_crossing(self, capsys):
        payload = run_json(capsys, "optimize-threshold", "--k", 0, "--c", 1)
        assert payload == {"beta_hat": 1.0, "crossing_point": None}

    def test_grid_cross_check(self, capsys):
        payload = run_json(capsys, "optimize-threshold", "--k", 0.1, "--c", 3,
                           "--dist", "beta:4,8", "--n", 2000)
        assert payload["beta_hat"] == 0.75
        assert abs(payload["grid_beta"] - 0.75) <= 0.01
        assert payload["grid_gap"] == abs(payload["grid_beta"] - 0.75)

    @pytest.mark.parametrize("flag, value", [("--k", "nan"), ("--c", "inf")])
    def test_non_finite_gain_or_penalty_is_a_usage_error(self, capsys,
                                                         tmp_path, flag,
                                                         value):
        out = tmp_path / "out"
        settings = {"--k": 0.1, "--c": 1, flag: value}
        code, _, err = run(capsys, "optimize-threshold",
                           *[x for item in settings.items() for x in item],
                           "--out-dir", out)
        assert code == 2
        assert err.startswith(f"error: {flag[2:]} must be nonnegative")
        assert not out.exists()

    # --resolution 1e-5 over 1,000 scores took 1.0 s, about ten times more
    # per decade, and 1e-9 asked np.linspace for 8 GB; 5e-324 has no
    # finite number of betas.
    @pytest.mark.parametrize("resolution, need", [
        ("1e-6", "1,000,001,000 evaluations"),
        ("1e-9", "1,000,000,001,000 evaluations"),
        ("5e-324", "evaluations"),
    ])
    def test_long_sweep_is_refused(self, capsys, monkeypatch, tmp_path,
                                   resolution, need):
        _forbid(monkeypatch, "expected_next_score", module=interventions)
        target = tmp_path / "never"
        start = time.perf_counter()
        code, _, err = run(capsys, "optimize-threshold", "--k", 0.1, "--c", 3,
                           "--dist", "beta:4,8", "--n", 1000,
                           "--resolution", resolution, "--out-dir", target)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith(f"error: resolution {float(resolution)!r} "
                              "over 1,000 scores needs")
        assert need in err and "cap of 100,000,000" in err
        assert not target.exists()

    def test_sweep_cap_is_inclusive(self, capsys, monkeypatch):
        args = ("optimize-threshold", "--k", 0.1, "--c", 3, "--dist",
                "beta:4,8", "--n", 200, "--resolution", 0.01)
        want = run_json(capsys, *args)
        monkeypatch.setattr(interventions, "MAX_SWEEP_EVALUATIONS", 101 * 200)
        assert run_json(capsys, *args) == want
        monkeypatch.setattr(interventions, "MAX_SWEEP_EVALUATIONS", 101 * 200 - 1)
        code, _, err = run(capsys, *args)
        assert code == 2 and "needs 20,200 evaluations" in err

    # sha256 of threshold.json from the per-threshold loop over
    # np.where(scores >= beta, g, scores).mean() that came before the
    # bounded sweep.  At k = 0, g(x) differs from x by rounding alone, so
    # the pick rests on the last bits of every threshold's mean.
    # perfbench/workloads.py DIGESTS holds no copy of these.
    @pytest.mark.parametrize("flags, digest", [
        ((), "b07ea1e6c12005f2feff4587493053b1b67bb60304df10af5e4d8fa7b317d60b"),
        (("--k", 0),
         "b5494c723c42b21c1cf8d0e81995e904855efe9291793529295de4f57b5ea328"),
        (("--c", 0),
         "9cb96230cf00673d4d949a703a31f70c92001da2393ca8019c14010f62d9482a"),
        (("--n", 1000, "--resolution", 2e-5),
         "37410937de3dccd235543b568173ae0bbdf8eddd78b80df7bee573c9f094a0d0"),
    ], ids=["readme", "k0", "c0", "fine"])
    def test_threshold_json_is_pinned(self, capsys, tmp_path, flags, digest):
        # the README's --dist example, then one setting changed
        settings = {"--k": 0.1, "--c": 2, "--dist": "beta:4,8", "--n": 10000,
                    **dict(zip(flags[::2], flags[1::2]))}
        code, _, err = run(capsys, "optimize-threshold",
                           *[x for item in settings.items() for x in item],
                           "--out-dir", tmp_path)
        assert code == 0, err
        assert hashlib.sha256(
            (tmp_path / "threshold.json").read_bytes()).hexdigest() == digest

    # At one score the evaluation cap admits 10^8 thresholds, and the
    # sweep would hold float arrays of 0.8 GB each over them.
    def test_too_many_thresholds_are_refused(self, capsys, monkeypatch,
                                             tmp_path):
        _forbid(monkeypatch, "expected_next_score", module=interventions)
        scores = tmp_path / "one.csv"
        scores.write_text("score\n0.5\n")
        target = tmp_path / "never"
        start = time.perf_counter()
        code, _, err = run(capsys, "optimize-threshold", "--k", 0.1, "--c", 3,
                           "--dist", f"file:{scores}",
                           "--resolution", "1.00000001e-8",
                           "--out-dir", target)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == ("error: resolution 1.00000001e-08 needs 100,000,000 "
                       "thresholds, more than the cap of 1,000,000\n")
        assert not target.exists()

    def test_threshold_cap_is_inclusive(self, capsys, monkeypatch):
        args = ("optimize-threshold", "--k", 0.1, "--c", 3, "--dist",
                "beta:4,8", "--n", 200, "--resolution", 0.01)
        want = run_json(capsys, *args)
        monkeypatch.setattr(interventions, "MAX_SWEEP_THRESHOLDS", 101)
        assert run_json(capsys, *args) == want
        monkeypatch.setattr(interventions, "MAX_SWEEP_THRESHOLDS", 100)
        code, _, err = run(capsys, *args)
        assert code == 2 and "needs 101 thresholds" in err

    def test_existing_sweeps_sit_far_below_the_cap(self):
        # the CLI default (1,001 betas over 1,000 scores) and the largest
        # test sweep (101 betas over 20,000 scores)
        assert 1001 * 1000 * 99 < interventions.MAX_SWEEP_EVALUATIONS
        assert 101 * 20_000 * 49 < interventions.MAX_SWEEP_EVALUATIONS
        # threshold.json's pins sweep 1,001 and 50,001 thresholds, the
        # README's k = 0 corners 100,001 (1e-5) and 1,001 (1e-3)
        for resolution in (1e-3, 2e-5, 1e-5):
            assert (round(1 / resolution) + 1) * 9 \
                < interventions.MAX_SWEEP_THRESHOLDS


class TestAnalyzeMarkov:
    def frozen(self, capsys, *extra):
        return run_json(capsys, "analyze-markov", "--pi0", "1/2", "--beta",
                        "7/20", "--k", "1/10", "--c", "1", *extra)

    def test_frozen_worked_chain(self, capsys):
        payload = self.frozen(capsys)
        assert payload["absorbing"] == ["3/10", "1"]
        assert payload["transient"] == ["2/5", "1/2", "3/5", "7/10", "4/5",
                                        "9/10"]
        assert payload["probabilities"]["3/10"] == pytest.approx(128 / 233,
                                                                 abs=1e-12)
        assert payload["probabilities"]["1"] == pytest.approx(105 / 233,
                                                              abs=1e-12)
        assert payload["expected_steps"] == pytest.approx(1365 / 233,
                                                          abs=1e-12)

    def test_transient_mass_report(self, capsys):
        payload = self.frozen(capsys, "--horizon", 100)
        assert payload["transient_mass"]["steps"] == 100
        assert payload["transient_mass"]["mass"] < 1e-6

    def test_negative_horizon_is_a_usage_error(self, capsys, monkeypatch,
                                                tmp_path):
        # Refused before any state is enumerated.
        _forbid(monkeypatch, "enumerate_states")
        out = tmp_path / "out"
        code, _, err = run(capsys, *_MARKOV, "--k", "1/10", "--c", "1",
                           "--horizon", -1, "--out-dir", out)
        assert code == 2
        assert err == "error: --horizon must be nonnegative, got -1\n"
        assert not out.exists()

    def test_decimal_strings_are_exact_rationals(self, capsys):
        payload = run_json(capsys, "analyze-markov", "--pi0", "0.5", "--beta",
                           "0.35", "--k", "0.1", "--c", "1")
        assert payload["beta"] == "7/20"
        assert payload["probabilities"]["3/10"] == pytest.approx(128 / 233,
                                                                 abs=1e-12)

    def test_explicit_steps_equal_gain_penalty_form(self, capsys):
        via_kc = self.frozen(capsys)
        via_steps = run_json(capsys, "analyze-markov", "--pi0", "1/2",
                             "--beta", "7/20", "--up", "1/10", "--down",
                             "1/10")
        assert via_kc == via_steps

    def test_start_override(self, capsys):
        payload = self.frozen(capsys, "--start", "9/10")
        assert payload["probabilities"]["1"] == pytest.approx(465 / 466,
                                                              abs=1e-12)

    def test_both_parameterizations_rejected(self, capsys):
        code, _, err = run(capsys, "analyze-markov", "--pi0", "1/2", "--beta",
                           "7/20", "--k", "1/10", "--c", "1", "--up", "1/10",
                           "--down", "1/10")
        assert code == 2
        assert err.startswith("error:") and "exactly one" in err

    def test_zero_step_is_a_computation_failure(self, capsys):
        code, _, err = run(capsys, "analyze-markov", "--pi0", "1/2", "--beta",
                           "7/20", "--up", "0", "--down", "1/10")
        assert code == 1
        assert err.startswith("computation failed:")

    def test_bad_rational_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze-markov", "--pi0", "huh", "--beta",
                           "7/20", "--k", "1/10", "--c", "1")
        assert code == 2
        assert "rational" in err

    def test_fine_lattice_fails_fast(self, capsys):
        # 26,135 transient states without the cap: several GB of dense blocks
        t0 = time.monotonic()
        code, _, err = run(capsys, "analyze-markov", "--pi0", "1/2", "--beta",
                           "1/3", "--up", "1/197", "--down", "1/199")
        assert code == 1
        assert "more than 4096 transient states" in err
        assert time.monotonic() - t0 < 2.0

    def test_long_mass_horizon_is_refused_before_the_chain(self, capsys,
                                                           monkeypatch,
                                                           tmp_path):
        # 3,455 states: a million dense 3,455 x 3,455 mass products would
        # run for many minutes
        _forbid(monkeypatch, "build_chain")
        target = tmp_path / "never"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "analyze-markov", "--pi0", "1/2",
                                "--beta", "1/3", "--up", "1/73", "--down",
                                "1/71", "--horizon", 10**6, "--out-dir",
                                target)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        assert err == ("error: --horizon 1,000,000 over 3,455 transient "
                       "states needs 11,937,025,000,000 multiply-adds of "
                       "transient mass, more than the cap of "
                       "40,000,000,000\n")
        assert not target.exists()

    def test_mass_cap_is_inclusive(self, capsys, monkeypatch):
        from lendingdyn import cli
        args = ("analyze-markov", "--pi0", "1/2", "--beta", "7/20", "--k",
                "1/10", "--c", "1", "--horizon", 100)
        want = run_json(capsys, *args)
        monkeypatch.setattr(cli, "MAX_MASS_WORK", 6 * 6 * 100)
        assert run_json(capsys, *args) == want
        monkeypatch.setattr(cli, "MAX_MASS_WORK", 6 * 6 * 100 - 1)
        code, _, err = run(capsys, *args)
        assert code == 2 and "needs 3,600 multiply-adds" in err

    def test_tested_and_benchmark_chains_sit_far_below_the_mass_cap(self):
        from lendingdyn.markov import MAX_MASS_WORK
        workloads = _load_perfbench("workloads")
        # (pi0, beta, up, down, horizon): the pinned markov.json runs and
        # criterion 10's, then every benchmark chain, full and smoke
        cases = [("1/2", "7/20", "1/10", "1/10", 100),
                 ("1/2", "7/20", "1/10", "1/10", 50),
                 ("1/2", "1/3", "1/13", "1/11", 1000),
                 ("0.6", "0.25", "0.05", "0.075", 500),
                 ("1/2", "1/3", "1/37", "1/31", 10_000)]
        cases += [("1/2", "1/3", up, down, sizes["horizon"])
                  for sizes in (workloads.CHAIN, workloads.CHAIN_SMOKE)
                  for up, down in sizes["cases"]]
        works = {len(enumerate_states(F(pi0), RationalStep(F(up), F(down)),
                                      F(beta)).transient) ** 2 * horizon
                 for pi0, beta, up, down, horizon in cases}
        assert max(works) == 765**2 * 10_000
        assert 5 * max(works) <= MAX_MASS_WORK

    def test_lattice_under_the_cap_still_solves(self, capsys):
        # tracemalloc sees I - B, not numpy's LU copy of it; with B or
        # np.eye(n) beside I - B the traced peak would be twice n^2 doubles
        tracemalloc.start()
        try:
            payload = run_json(capsys, "analyze-markov", "--pi0", "1/2",
                               "--beta", "1/3", "--up", "1/73", "--down",
                               "1/71")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(payload["transient"])
        assert n == 3455
        assert math.fsum(payload["probabilities"].values()) == pytest.approx(
            1.0, abs=1e-10)
        assert peak < 1.5 * n * n * 8

    def test_without_a_horizon_b_is_never_built(self, capsys, monkeypatch):
        from lendingdyn.markov import AbsorbingChain

        def refuse(self):
            raise AssertionError("b_matrix built")
        want = self.frozen(capsys)
        monkeypatch.setattr(AbsorbingChain, "b_matrix", refuse)
        assert self.frozen(capsys) == want

    # sha256 of markov.json from the dense-Fraction chain that the integer
    # lattice replaced.  The 1/13 and 1/37 cases report masses whose last
    # bits differ if B @ v is replaced by the two-move sparse product.
    # perfbench/workloads.py DIGESTS["case2/markov.json"] is a copy of the
    # 1/37 digest, and a re-pin of it must update that copy; case0 and
    # case1 there pin other runs (1/13 and 1/23 at horizon 10,000).
    @pytest.mark.parametrize("args, digest", [
        (("--pi0", "1/2", "--beta", "7/20", "--k", "1/10", "--c", "1",
          "--horizon", "100"),
         "20f6f9fc2e88025887d4d22d96cfcf6d643c0b5223c8be85417b04f8b3f7a071"),
        (("--pi0", "1/2", "--beta", "7/20", "--k", "1/10", "--c", "1",
          "--start", "9/10"),
         "6151ceb29e32357af798cd37dac05972a27dd33efd13ebaf179579fadeb4c57a"),
        (("--pi0", "1/2", "--beta", "1/3", "--up", "1/13", "--down", "1/11",
          "--horizon", "1000"),
         "a652fe5883a5752deeb53028dbb684c5e2a8ce59e44ebc110ba60cfe3fc6fc36"),
        (("--pi0", "0.6", "--beta", "0.25", "--k", "0.05", "--c", "1.5",
          "--horizon", "500"),
         "dab113912aac9ad3867c82e9fce60da643700ac047b301aa61d70ed7ef4db64a"),
        (("--pi0", "1/2", "--beta", "1/3", "--up", "1/37", "--down", "1/31",
          "--horizon", "10000"),
         "0a55eb10f565b954d258e0a60fcf7e79044554877579eeed6ceb053115c5bcd1"),
    ])
    def test_markov_json_is_pinned(self, capsys, tmp_path, args, digest):
        code, _, err = run(capsys, "analyze-markov", *args, "--out-dir", tmp_path)
        assert code == 0, err
        assert hashlib.sha256((tmp_path / "markov.json").read_bytes()).hexdigest() \
            == digest


class TestDominanceCheck:
    def test_reports_both_directions(self, capsys, tmp_path):
        fa, fd = tmp_path / "a.csv", tmp_path / "d.csv"
        run(capsys, "sample", "--a", 4, "--b", 8, "--n", 400, "--seed", 1,
            "--out", fa)
        run(capsys, "sample", "--a", 3, "--b", 8, "--n", 400, "--seed", 2,
            "--out", fd)
        forward = run_json(capsys, "dominance-check", "--file-a", fa,
                           "--file-b", fd, "--step", 0.01)
        assert forward["dominates"] is True
        assert forward["n_violations"] == 0
        # a successful check that finds violations still exits 0
        backward = run_json(capsys, "dominance-check", "--file-a", fd,
                            "--file-b", fa, "--step", 0.01)
        assert backward["dominates"] is False
        assert backward["n_violations"] > 0
        assert backward["violations"][0]["cdf_a"] > \
            backward["violations"][0]["cdf_d"]

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_is_a_usage_error(self, capsys, tmp_path,
                                              score_files, step):
        out = tmp_path / "out"
        code, _, err = run(capsys, "dominance-check", "--file-a",
                           score_files[0], "--file-b", score_files[1],
                           "--step", step, "--out-dir", out)
        assert code == 2
        assert err.startswith("error: step must be positive and finite")
        assert not out.exists()

    # --step 1e-6 took 0.3 s and a 64 MB peak on two 1,000-score files,
    # growing tenfold per decade; 1e-12 would ask for 8 TB.
    @pytest.mark.parametrize("step, count", [
        ("1e-6", "1,000,001 grid points"),
        ("1e-12", "1,000,000,000,001 grid points"),
        ("5e-324", "grid points"),
    ])
    def test_fine_step_is_refused(self, capsys, monkeypatch, tmp_path,
                                  score_files, step, count):
        _forbid(monkeypatch, "empirical_cdf", module=distributions)
        target = tmp_path / "never"
        start = time.perf_counter()
        code, _, err = run(capsys, "dominance-check", "--file-a",
                           score_files[0], "--file-b", score_files[1],
                           "--step", step, "--out-dir", target)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith(f"error: step {float(step)!r} gives")
        assert count in err and "cap of 1,000,000" in err
        assert not target.exists()

    def test_point_cap_is_inclusive(self, capsys, score_files):
        # the multiples 0 to 999,999 of the step: exactly the cap's points
        payload = run_json(capsys, "dominance-check", "--file-a",
                           score_files[0], "--file-b", score_files[1],
                           "--step", 1 / 999_999)
        assert payload["grid_step"] == 1 / 999_999

    def test_a_file_that_is_not_utf8_is_named(self, capsys, tmp_path,
                                              score_files):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"score\n0.5\n0.25\xe9\n")
        code, _, err = run(capsys, "dominance-check", "--file-a", bad,
                           "--file-b", score_files[1])
        assert code == 2
        assert err == f"error: {bad}: not UTF-8 text at or after line 1: " \
                      f"invalid continuation byte\n"

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "dominance-check", "--file-a",
                           tmp_path / "nope.csv", "--file-b",
                           tmp_path / "nope.csv")
        assert code == 2
        assert err.startswith("error:")


class TestSimulate:
    def args(self, out_dir):
        return ["simulate", "--dist-a", "beta:4,8", "--dist-b", "beta:3,8",
                "--n", 50, "--beta", 0.4, "--k", 0.1, "--c", 1,
                "--horizon", 5, "--seed", 3, "--out-dir", out_dir]

    def test_artifacts_and_reproducibility(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(capsys, *self.args(d1))[0] == 0
        assert run(capsys, *self.args(d2))[0] == 0
        assert (d1 / "trajectory.csv").read_bytes() == \
            (d2 / "trajectory.csv").read_bytes()
        assert (d1 / "run.cfg").read_bytes() == (d2 / "run.cfg").read_bytes()
        manifest = json.loads((d1 / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "wall_time_seconds" in manifest
        assert "numpy" in manifest["versions"]

    def test_run_cfg_excludes_execution_settings(self, capsys, tmp_path):
        out = tmp_path / "r"
        run(capsys, *self.args(out))
        cfg = (out / "run.cfg").read_text()
        assert "out_dir" not in cfg
        assert "threads" not in cfg
        assert "config=" not in cfg
        assert "beta=0.4" in cfg

    # sha256 of the artifacts of the full-horizon walk that the settled stop
    # replaced.  Every group is settled well before step 30, so the tail of
    # both files comes from shared snapshots.  perfbench/workloads.py
    # DIGESTS["sim/trajectory.csv"] pins the loans workload's run, not a
    # copy of these.
    @pytest.mark.parametrize("flags, trajectory, agents", [
        (("--c", 1),
         "388030e3cdbc90e186f9ff6594a83fca5ab455440d6b8d216382baa042736007",
         "6e54daf7e0d3a7b5caa535f8bbfdd3671dd2547ccbbb4c971c64c52bcd208a98"),
        (("--c-a", 0.5, "--c-d", 2),
         "3791a2ee44ac39f0b71434225ea9e8c4c2f51b5c5aef779eaadc046d22ec47eb",
         "bb9a7dd517cda286bef81e47909c0fc173e0aad7f6b8c6cf520dea9b8f0f48e9"),
    ], ids=["common-c", "per-group-c"])
    def test_artifacts_are_pinned(self, capsys, tmp_path, flags, trajectory,
                                  agents):
        out = tmp_path / "sim"
        code, _, err = run(capsys, "simulate", "--dist-a", "beta:8,3",
                           "--dist-b", "beta:7,3", "--n", 60, "--k", 0.1,
                           "--beta", 0.5, *flags, "--horizon", 30,
                           "--seed", 5, "--dump-agents", "--out-dir", out)
        assert code == 0, err
        for name, digest in (("trajectory.csv", trajectory),
                             ("agents.csv", agents)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                == digest, name

    def test_per_group_thresholds(self, capsys, tmp_path):
        # Groups draw from disjoint streams, so each group's rows equal those
        # of a shared-threshold run at that group's threshold.
        def rows(name, *thresholds):
            out = tmp_path / name
            code, _, err = run(capsys, "simulate", "--dist-a", "beta:4,8",
                               "--dist-b", "beta:3,8", "--n", 50, *thresholds,
                               "--horizon", 5, "--seed", 3, "--out-dir", out)
            assert code == 0, err
            lines = (out / "trajectory.csv").read_text().splitlines()[1:]
            return {g: [ln for ln in lines if ln.split(",")[1] == g]
                    for g in "AD"}

        per_group = rows("ad", "--beta-a", 0.4, "--beta-d", 0.6)
        low, high = rows("a", "--beta", 0.4), rows("d", "--beta", 0.6)
        assert per_group["A"] == low["A"] != high["A"]
        assert per_group["D"] == high["D"] != low["D"]

    def test_config_round_trip(self, capsys, tmp_path):
        first = tmp_path / "r1"
        run(capsys, *self.args(first))
        second = tmp_path / "r2"
        code, _, _ = run(capsys, "simulate", "--config", first / "run.cfg",
                         "--out-dir", second)
        assert code == 0
        assert (first / "trajectory.csv").read_bytes() == \
            (second / "trajectory.csv").read_bytes()

    def test_flags_beat_config_beat_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("beta=0.4\nk=0.2\n# comment line\n"
                       "dist_a=beta:4,8\ndist_b=beta:3,8\nn=30\n")
        out = tmp_path / "r"
        code, _, _ = run(capsys, "simulate", "--config", cfg, "--k", "0.1",
                         "--out-dir", out)
        assert code == 0
        text = (out / "run.cfg").read_text()
        assert "k=0.1" in text          # flag wins
        assert "beta=0.4" in text       # config fills in
        assert "horizon=20" in text     # default survives

    def test_unknown_config_key_lists_valid_ones(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out-dir", tmp_path / "r")
        assert code == 2
        assert "unknown setting 'bogus'" in err
        assert "dist_a" in err

    def test_per_group_flags_conflict_with_shared(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--dist-a", "beta:4,8",
                           "--dist-b", "beta:3,8", "--beta", 0.4,
                           "--beta-a", 0.3, "--beta-d", 0.5,
                           "--out-dir", tmp_path / "r")
        assert code == 2
        assert "conflicts" in err

    def test_missing_threshold_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "r"
        code, _, err = run(capsys, "simulate", "--dist-a", "beta:4,8",
                           "--dist-b", "beta:3,8", "--out-dir", target)
        assert code == 2
        assert "threshold" in err
        assert not target.exists()

    def test_bad_distribution_literal(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--dist-a", "beta:oops",
                           "--dist-b", "beta:3,8", "--beta", 0.4,
                           "--out-dir", tmp_path / "r")
        assert code == 2

    def test_file_distribution_source(self, capsys, tmp_path):
        scores = tmp_path / "init.csv"
        run(capsys, "sample", "--a", 4, "--b", 8, "--n", 30, "--seed", 2,
            "--out", scores)
        out = tmp_path / "r"
        code, _, _ = run(capsys, "simulate", "--dist-a", f"file:{scores}",
                         "--dist-b", "beta:3,8", "--n", 30, "--beta", 0.4,
                         "--out-dir", out)
        assert code == 0

    @pytest.mark.parametrize("flags, rows", [
        # trajectory.csv alone: 2 rows a step
        (("--horizon", 100_000_000), "200,000,002 output rows"),
        # agents.csv: 100 + 100 agents a step
        (("--horizon", 50_000, "--dump-agents"), "10,100,202 output rows"),
    ])
    def test_rows_past_the_cap_are_refused(self, capsys, monkeypatch,
                                           tmp_path, flags, rows):
        _forbid(monkeypatch, "simulate")
        target = tmp_path / "never"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "simulate", "--dist-a", "beta:4,8",
                                "--dist-b", "beta:3,8", "--n", 100,
                                "--beta", 0.4, *flags, "--out-dir", target)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        assert err.count("\n") == 1 and rows in err
        assert "100/100 scores" in err and "cap of 10,000,000" in err
        assert ("--dump-agents" in err) == ("--dump-agents" in flags)
        assert not target.exists()

    def test_row_cap_is_inclusive(self, capsys, monkeypatch, tmp_path):
        from lendingdyn import cli
        _forbid(monkeypatch, "simulate")
        args = ["simulate", "--dist-a", "beta:4,8", "--dist-b", "beta:3,8",
                "--n", 7, "--beta", 0.4, "--horizon", 9, "--dump-agents",
                "--out-dir", tmp_path / "out"]
        monkeypatch.setattr(cli, "MAX_SIMULATE_ROWS", 10 * (2 + 14))
        with pytest.raises(_Ran):
            main([str(a) for a in args])
        monkeypatch.setattr(cli, "MAX_SIMULATE_ROWS", 10 * (2 + 14) - 1)
        code, _, err = run(capsys, *args)
        assert code == 2 and "160 output rows" in err

    def test_benchmark_sizes_sit_far_below_the_row_cap(self):
        # The loans workload's simulate: horizon 400, no --dump-agents.
        from lendingdyn.dynamics import MAX_SIMULATE_ROWS
        assert 2 * (400 + 1) * 10_000 < MAX_SIMULATE_ROWS


class TestRecommend:
    def args(self, out_dir, threads=1):
        return ["recommend", "--alpha", 0.5, "--dist-a", "beta:4,8",
                "--dist-b", "beta:3,8", "--n", 60, "--k", 0.1,
                "--c-min", 1, "--c-max", 2, "--c-step", 1,
                "--r-min", 0.1, "--r-max", 0.5, "--r-step", 0.4,
                "--horizon", 4, "--seeds", 2, "--seed", 7,
                "--threads", threads, "--out-dir", out_dir]

    def test_grid_artifacts(self, capsys, tmp_path):
        out = tmp_path / "rec"
        code, stdout, _ = run(capsys, *self.args(out))
        assert code == 0
        assert "best-policy counts" in stdout
        payload = json.loads((out / "grid.json").read_text())
        assert payload["c_grid"] == [1.0, 2.0]
        assert payload["r_grid"] == [0.1, 0.5]
        assert len(payload["cells"]) == 4
        csv_lines = (out / "grid.csv").read_text().splitlines()
        assert csv_lines[0] == ("c,r,best,utility_beta_only,"
                                "utility_group_blind,"
                                "utility_group_conscious,marginal")
        assert len(csv_lines) == 5

    # sha256 of grid.json from the per-threshold sweep that the one-walk
    # kernel replaced; the kernel must reproduce every byte.
    # perfbench/workloads.py DIGESTS["grid/grid.json"] pins the benchmark
    # grid at its own sizes, not a copy of these.
    @pytest.mark.parametrize("flags, digest", [
        ((), "966b14325e2fbdf344db8680ee5f28939ad70aae74598d57c4f22b4ba8b2741f"),
        (("--per-group-beta",),
         "04b8b7a11ab9218c51427b16e2902a84b0a5e205b4b2171679d4eb0a43bbe93b"),
    ])
    def test_grid_json_is_pinned(self, capsys, tmp_path, flags, digest):
        out = tmp_path / "rec"
        code, _, err = run(capsys, *self.args(out), "--mode", "literal", *flags)
        assert code == 0, err
        assert hashlib.sha256((out / "grid.json").read_bytes()).hexdigest() \
            == digest

    def test_the_baseline_freezes_through_frozen_step(self, capsys,
                                                      monkeypatch, tmp_path):
        # One call per step of each group's beta-hat baseline in each cell,
        # on all 3 kinds x 2 replicates of 60 scores: 4 cells x 2 groups x
        # horizon 4.  The sweep's walk is always approved and never freezes.
        from lendingdyn import dynamics
        shapes = []

        def spy(scores, *args):
            shapes.append(scores.shape)
            return dynamics.frozen_step(scores, *args)
        monkeypatch.setattr(interventions, "frozen_step", spy)
        code, _, err = run(capsys, *self.args(tmp_path / "rec"))
        assert code == 0, err
        assert shapes == [(6, 60)] * (4 * 2 * 4)

    def test_threads_do_not_change_artifacts(self, capsys, tmp_path):
        d1 = tmp_path / "t1"
        run(capsys, *self.args(d1, threads=1))
        for threads in (2, 4):
            wide = tmp_path / f"t{threads}"
            run(capsys, *self.args(wide, threads=threads))
            for name in ("grid.csv", "grid.json", "run.cfg"):
                assert (d1 / name).read_bytes() == (wide / name).read_bytes()

    def test_bad_grid_step_fails_before_artifacts(self, capsys, tmp_path):
        target = tmp_path / "never"
        args = self.args(target)
        args[args.index("--r-step") + 1] = 0
        code, _, err = run(capsys, *args)
        assert code == 2
        assert "r-step" in err
        assert not target.exists()


    # 0 divided by zero, 1e-9 asked for 149 GiB, 2 swept the single
    # threshold 0.0, 0.03 swept a 1/33 grid, -0.01 failed inside numpy.
    @pytest.mark.parametrize("step", ["0", "1e-9", "2", "0.03", "-0.01"])
    @pytest.mark.parametrize("command", ["recommend", "figure"])
    def test_bad_beta_step_is_a_usage_error(self, capsys, tmp_path, step,
                                            command):
        target = tmp_path / "never"
        if command == "recommend":
            args = self.args(target)
        else:
            args = ["reproduce-figure", "--which", "grid", *_SMALL_GRID,
                    "--out-dir", target]
        code, _, err = run(capsys, *args, "--beta-step", step)
        assert code == 2
        assert err.startswith("error:") and "beta_step" in err
        assert not target.exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_is_a_usage_error(self, capsys, tmp_path,
                                                threads):
        target = tmp_path / "never"
        code, _, err = run(capsys, *self.args(target, threads=threads))
        assert code == 2
        assert "threads" in err
        assert not target.exists()


class TestGridWorkers:
    """Grid cells on forked worker processes: how many, and their failures."""

    args = TestRecommend.args

    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of every pool asked for; the spy runs the cells here
        and starts no process.  It runs the worker initializer here too,
        so the worker globals it sets are put back afterwards."""
        made = []

        class SpyPool:
            def __init__(self, max_workers, mp_context=None,
                         initializer=None, initargs=()):
                made.append(max_workers)
                self.start = (initializer, initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                initializer, initargs = self.start
                initializer(*initargs)
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                            SpyPool)
        for name in ("_worker_task", "_worker_workspace"):
            monkeypatch.setattr(interventions, name, None)
        return made

    def test_workers_are_capped_at_the_usable_cores(self, capsys, tmp_path,
                                                    monkeypatch, pools):
        cores = len(os.sched_getaffinity(0))
        assert interventions._usable_cores() == cores
        code, _, err = run(capsys, *self.args(tmp_path / "real", threads=64))
        assert code == 0, err
        assert pools == ([min(4, cores)] if min(4, cores) > 1 else [])
        pools.clear()
        monkeypatch.setattr(interventions, "_usable_cores", lambda: 3)
        code, _, err = run(capsys, *self.args(tmp_path / "three", threads=64))
        assert code == 0, err
        assert pools == [3]

    def test_one_worker_one_cell_or_no_fork_starts_no_pool(
            self, capsys, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(interventions, "_usable_cores", lambda: 3)
        code, _, err = run(capsys, *self.args(tmp_path / "t1", threads=1))
        assert code == 0, err
        args = self.args(tmp_path / "cell", threads=4)
        args[args.index("--c-max") + 1] = 1
        args[args.index("--r-max") + 1] = 0.1
        code, _, err = run(capsys, *args)
        assert code == 0, err
        assert len(json.loads(
            (tmp_path / "cell" / "grid.json").read_text())["cells"]) == 1
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        code, _, err = run(capsys, *self.args(tmp_path / "spawn", threads=4))
        assert code == 0, err
        assert pools == []

    def failing_cell(self, monkeypatch, tmp_path, fail):
        """Make the cells at c-hat 2 run fail(); record where they ran."""
        monkeypatch.setattr(interventions, "_usable_cores", lambda: 2)
        original, pids = interventions._evaluate_cell, tmp_path / "pids"

        def evaluate(dist_a, dist_d, specs, *rest, **kwargs):
            if specs[0].baseline_c == 2.0:
                with open(pids, "a") as f:
                    f.write(f"{os.getpid()}\n")
                fail()
            return original(dist_a, dist_d, specs, *rest, **kwargs)

        monkeypatch.setattr(interventions, "_evaluate_cell", evaluate)
        return pids

    def test_worker_out_of_memory_exits_one(self, capsys, tmp_path,
                                            monkeypatch):
        def fail():
            raise MemoryError

        pids = self.failing_cell(monkeypatch, tmp_path, fail)
        code, _, err = run(capsys, *self.args(tmp_path / "out", threads=2))
        assert code == 1
        assert err == "computation failed: out of memory\n"
        assert str(os.getpid()) not in pids.read_text().split()
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_one_with_one_line(self, capsys, tmp_path,
                                                 monkeypatch):
        parent = os.getpid()

        def fail():
            # Never end the test process itself.
            assert os.getpid() != parent
            os._exit(1)

        self.failing_cell(monkeypatch, tmp_path, fail)
        code, _, err = run(capsys, *self.args(tmp_path / "out", threads=2))
        assert code == 1
        assert err.startswith("computation failed: a grid worker process")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []

    def test_cli_import_leaves_process_pools_out(self):
        probe = ("import sys, lendingdyn.cli; print(sorted("
                 "{'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class _Ran(Exception):
    """Raised by a spy in place of the work a refused input must not reach."""


def _load_perfbench(name):
    """perfbench/<name>.py, which is not an importable package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _forbid(monkeypatch, *names, module=None):
    """Make each module.name (cli by default) raise _Ran when called."""
    from lendingdyn import cli

    def ran(*args, **kwargs):
        raise _Ran
    for name in names:
        monkeypatch.setattr(module or cli, name, ran)


class TestGridCaps:
    """Spans and grids past MAX_SPAN_POINTS / MAX_GRID_CELLS, and cells past
    MAX_CELL_BYTES, exit 2 before any point is built or any cell runs."""

    GRID = ["--dist-a", "beta:4,8", "--dist-b", "beta:3,8", "--n", 20,
            "--c-min", 0.5, "--c-max", 3.0, "--c-step", 0.5,
            "--r-min", 0.1, "--r-max", 0.9, "--r-step", 0.2]

    def command(self, which, target, **flags):
        if which == "recommend":
            args = ["recommend", "--alpha", 0.5, *self.GRID]
        elif which == "figure":
            args = ["reproduce-figure", "--which", "grid", *self.GRID]
        else:
            args = ["max-mean-curve", *self.GRID[:12]]
        for key, value in flags.items():
            flag = "--" + key.replace("_", "-")
            args[args.index(flag) + 1] = value
        return [*args, "--out-dir", target]

    # --r-step 1e-5 asked for 80,001 r values and a 480,006-cell grid,
    # 1e-12 for a tuple of 8e11 floats, 1e-320 for an unbounded one.
    @pytest.mark.parametrize("which", ["recommend", "figure"])
    @pytest.mark.parametrize("flag, step, count", [
        ("r_step", "1e-5", "80,001 points"),
        ("r_step", "1e-12", "points"),
        ("c_step", "1e-320", "unbounded points"),
    ])
    def test_long_span_is_refused(self, capsys, monkeypatch, tmp_path, which,
                                  flag, step, count):
        _forbid(monkeypatch, "recommend_grid")
        target = tmp_path / "never"
        start = time.perf_counter()
        code, _, err = run(capsys, *self.command(which, target,
                                                 **{flag: step}))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "--" + flag.replace("_", "-") in err
        assert count in err and "cap of 1,000" in err
        assert not target.exists()

    @pytest.mark.parametrize("which", ["recommend", "figure"])
    def test_large_grid_is_refused(self, capsys, monkeypatch, tmp_path, which):
        _forbid(monkeypatch, "recommend_grid")
        target = tmp_path / "never"
        # 101 x 101 points: each span is under its cap, the grid is not
        args = self.command(which, target, c_min=0, c_max=1, c_step=0.01,
                            r_min=0, r_max=1, r_step=0.01)
        start = time.perf_counter()
        code, _, err = run(capsys, *args)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "10,201 grid cells" in err and "cap of 10,000" in err
        assert not target.exists()

    def test_caps_are_inclusive(self, capsys, monkeypatch, tmp_path):
        _forbid(monkeypatch, "recommend_grid")
        # 1,000 r points and 10 x 1,000 cells reach the work
        args = self.command("recommend", tmp_path / "out", c_min=0,
                            c_max=0.9, c_step=0.1, r_min=0, r_max=0.999,
                            r_step=0.001)
        with pytest.raises(_Ran):
            main([str(a) for a in args])

    def forbid_cell_work(self, monkeypatch):
        """Fail the test if a block is built or a worker pool is made."""
        def ran(*args, **kwargs):
            raise _Ran
        monkeypatch.setattr(interventions, "uniform_blocks", ran)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                            ran)

    @pytest.mark.parametrize("which", ["recommend", "figure"])
    def test_cell_arrays_past_the_memory_cap_are_refused(
            self, capsys, monkeypatch, tmp_path, which):
        self.forbid_cell_work(monkeypatch)
        target = tmp_path / "never"
        # 300,000 replicate rows of 20 steps x 40 scores: 1.9 GB of blocks
        args = [*self.command(which, target), "--seeds", 100_000,
                "--horizon", 20, "--threads", 2]
        start = time.perf_counter()
        code, _, err = run(capsys, *args)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        need = interventions.cell_bytes(20, 20, 20, 100_000)
        assert need > interventions.MAX_CELL_BYTES
        assert f"about {need:,} bytes" in err
        assert "cap of 1,073,741,824" in err
        assert "--seeds 100000, --horizon 20 and 20/20 scores" in err
        assert not target.exists()

    def test_memory_cap_is_inclusive(self, capsys, monkeypatch, tmp_path):
        from lendingdyn import cli
        self.forbid_cell_work(monkeypatch)
        args = [*self.command("recommend", tmp_path / "out"), "--seeds", 2,
                "--horizon", 5]
        need = interventions.cell_bytes(20, 20, 5, 2)
        monkeypatch.setattr(cli, "MAX_CELL_BYTES", need)
        with pytest.raises(_Ran):
            main([str(a) for a in args])
        monkeypatch.setattr(cli, "MAX_CELL_BYTES", need - 1)
        code, _, err = run(capsys, *args)
        assert code == 2 and f"cap of {need - 1:,}" in err

    def test_acceptance_sizes_sit_far_below_the_memory_cap(self):
        # The criterion-6 and benchmark grids: 500 scores per group, 10
        # replicates, horizon 20; 8.7 MB of cell arrays, 123 times under.
        need = interventions.cell_bytes(500, 500, 20, 10)
        assert need == 8_675_008
        assert need * 100 < interventions.MAX_CELL_BYTES

    def test_long_c_span_is_refused_by_max_mean_curve(self, capsys,
                                                      monkeypatch, tmp_path):
        _forbid(monkeypatch, "baseline_outcome")
        target = tmp_path / "never"
        start = time.perf_counter()
        code, _, err = run(capsys, *self.command("max-mean", target,
                                                 c_step="1e-6"))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "--c-step" in err and "2,500,001 points" in err
        assert not target.exists()


class TestRiskCommands:
    def test_train_then_predict(self, capsys, tmp_path):
        train = tmp_path / "train.csv"
        write_loan_csv(train, make_loan_rows(800, seed=3))
        model = tmp_path / "model.json"
        rejects = tmp_path / "rejects.csv"
        code, stdout, _ = run(capsys, "train-risk", "--in", train,
                              "--out-model", model, "--rejects", rejects)
        assert code == 0
        assert "converged=True" in stdout
        assert model.exists()
        assert rejects.read_text().splitlines()[0] == "line,reason"

        apps = tmp_path / "apps.csv"
        rows = make_loan_rows(120, seed=4, purpose_mix=False)
        for i, row in enumerate(rows):
            row.pop("late")
            row["group"] = "A" if i % 2 == 0 else "D"
        write_loan_csv(apps, rows,
                       columns=["balance", "ltv", "dti", "units", "purpose",
                                "group"])
        scores = tmp_path / "scores"
        code, stdout, _ = run(capsys, "predict-risk", "--model", model,
                              "--in", apps, "--out-scores", scores)
        assert code == 0
        got_a = (scores / "scores_A.csv").read_text().splitlines()
        got_d = (scores / "scores_D.csv").read_text().splitlines()
        assert got_a[0] == "score" and got_d[0] == "score"
        assert len(got_a) == 61 and len(got_d) == 61
        values = np.array([float(v) for v in got_a[1:]])
        assert np.all((values > 0) & (values < 1))

    def test_colliding_score_files_are_refused(self, capsys, tmp_path):
        train = tmp_path / "train.csv"
        write_loan_csv(train, make_loan_rows(800, seed=3))
        model = tmp_path / "model.json"
        assert run(capsys, "train-risk", "--in", train,
                   "--out-model", model)[0] == 0
        apps = tmp_path / "apps.csv"
        rows = make_loan_rows(40, seed=4, purpose_mix=False)
        for i, row in enumerate(rows):
            row.pop("late")
            row["group"] = "A/B" if i % 2 == 0 else "A_B"
        write_loan_csv(apps, rows,
                       columns=["balance", "ltv", "dti", "units", "purpose",
                                "group"])
        scores = tmp_path / "scores"
        code, stdout, err = run(capsys, "predict-risk", "--model", model,
                                "--in", apps, "--out-scores", scores)
        assert code == 2
        assert "'A/B'" in err and "'A_B'" in err
        assert stdout == ""
        assert not scores.exists()

    def test_separation_is_a_computation_failure(self, capsys, tmp_path):
        train = tmp_path / "sep.csv"
        rows = [{"balance": "5.0", "ltv": str(float(v)), "dti": "3.0",
                 "units": "1", "purpose": "purchase",
                 "late": "1" if v > 80 else "0"}
                for v in range(60, 101, 2)]
        write_loan_csv(train, rows)
        code, _, err = run(capsys, "train-risk", "--in", train,
                           "--out-model", tmp_path / "m.json")
        assert code == 1
        assert err.startswith("computation failed:")
        assert "separat" in err.lower()

    @pytest.mark.parametrize("flag, value, message", [
        ("--ridge", "-1", "ridge must be finite and nonnegative, got -1.0"),
        ("--ridge", "nan", "ridge must be finite and nonnegative, got nan"),
        ("--ridge", "inf", "ridge must be finite and nonnegative, got inf"),
        ("--max-iter", "0", "max_iter must be at least 1, got 0"),
        ("--max-iter", "-3", "max_iter must be at least 1, got -3"),
        ("--tol", "nan", "tol must be finite and positive, got nan"),
        ("--tol", "0", "tol must be finite and positive, got 0.0"),
        ("--tol", "-0.001", "tol must be finite and positive, got -0.001"),
        ("--tol", "inf", "tol must be finite and positive, got inf"),
    ])
    def test_settings_that_change_the_fit_are_refused(self, capsys, tmp_path,
                                                      flag, value, message):
        # Each of these once fit without a penalty, ran every iteration or
        # wrote "gradient_max_norm": Infinity, and exited 0.
        train = tmp_path / "train.csv"
        write_loan_csv(train, make_loan_rows(400, seed=3))
        model = tmp_path / "model.json"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "train-risk", "--in", train,
                                "--out-model", model, flag, value)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == "" and not model.exists()

    def test_a_nan_ridge_does_not_hide_separation(self, capsys, tmp_path):
        train = tmp_path / "sep.csv"
        write_loan_csv(train, [{"balance": "5.0", "ltv": str(float(v)),
                                "dti": "3.0", "units": "1",
                                "purpose": "purchase",
                                "late": "1" if v > 80 else "0"}
                               for v in range(60, 101, 3)])
        model = tmp_path / "m.json"
        assert run(capsys, "train-risk", "--in", train,
                   "--out-model", model)[0] == 1
        code, _, err = run(capsys, "train-risk", "--in", train,
                           "--out-model", model, "--ridge", "nan")
        assert code == 2
        assert err == "error: ridge must be finite and nonnegative, got nan\n"
        assert not model.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("diagnostics"),
         "model key 'diagnostics' must be a JSON object, got None"),
        (lambda m: m.update(intercept="-2.5"),
         "model key 'intercept' must be a finite number, got '-2.5'"),
        (lambda m: m.pop("coef_ltv"),
         "model key 'coef_ltv' must be a finite number, got None"),
        (lambda m: m.update(coef_dti=float("nan")),
         "model key 'coef_dti' must be a finite number, got nan"),
        (lambda m: m.update(coef_units=True),
         "model key 'coef_units' must be a finite number, got True"),
        (lambda m: m["diagnostics"].pop("singular"),
         "model key 'diagnostics.singular' is missing"),
        (lambda m: m["diagnostics"].update(standard_errors=0.5),
         "model key 'diagnostics.standard_errors' must be a list"),
    ])
    def test_a_malformed_model_is_refused(self, capsys, tmp_path, edit,
                                          message):
        train, apps = write_risk_inputs(tmp_path)
        model = tmp_path / "model.json"
        assert run(capsys, "train-risk", "--in", train,
                   "--out-model", model)[0] == 0
        payload = json.loads(model.read_text())
        edit(payload)
        model.write_text(json.dumps(payload))
        scores = tmp_path / "scores"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "predict-risk", "--model", model,
                                "--in", apps, "--out-scores", scores)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == "" and not scores.exists()

    def test_a_model_that_is_not_an_object_is_refused(self, capsys,
                                                      tmp_path):
        _, apps = write_risk_inputs(tmp_path)
        model = tmp_path / "model.json"
        model.write_text("[1, 2]\n")
        code, _, err = run(capsys, "predict-risk", "--model", model,
                           "--in", apps, "--out-scores", tmp_path / "scores")
        assert code == 2
        assert err == "error: a model must be a JSON object, got list\n"
        assert not (tmp_path / "scores").exists()

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train-risk", "--in", tmp_path / "nope.csv",
                         "--out-model", tmp_path / "m.json")
        assert code == 2

    # sha256 of the artifacts of the row-by-row DictReader loader that the
    # columnar one replaced; the inputs carry no blank lines, so the reject
    # line numbers are the same under either way of counting.
    # perfbench/workloads.py DIGESTS holds no copy of these.
    PINNED = {
        "model_ridge_0.json":
            "7d57422fc5706e17ff84392e07eb45780f264d8423209df5b64366a6b4c0ebb5",
        "model_ridge_0.5.json":
            "264c52e02d69aef325cc084e93fb3718a4bc0d2dd92dfb49f60e42e3b37ae0c4",
        "train_rejects.csv":
            "d6823a2aef9f58f138879be97bda4cfe3eed48d4fe83d6b7e6887c8f75256d39",
        "scores/scores_A.csv":
            "73c345169ff4bd010a5437a944c173f833a538cdcc3aa54b45b94b5e6b326208",
        "scores/scores_D.csv":
            "d341be7ac0d9e431f809408eea84ec5d61af6adbb6861899c0d20efdbb511165",
        "app_rejects.csv":
            "c483803036907d9e49c74eb2e11b3e43b51cb17b431fb97bfdd7a699ec4f2802",
    }

    def test_artifacts_are_pinned(self, capsys, tmp_path):
        train, apps = write_risk_inputs(tmp_path)
        for ridge in ("0", "0.5"):
            code, _, err = run(capsys, "train-risk", "--in", train,
                               "--ridge", ridge, "--out-model",
                               tmp_path / f"model_ridge_{ridge}.json",
                               "--rejects", tmp_path / "train_rejects.csv")
            assert code == 0, err
        code, _, err = run(capsys, "predict-risk",
                           "--model", tmp_path / "model_ridge_0.json",
                           "--in", apps, "--out-scores", tmp_path / "scores",
                           "--rejects", tmp_path / "app_rejects.csv")
        assert code == 0, err
        for name, digest in self.PINNED.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
                == digest, name


@pytest.mark.parametrize("huge", ['"' + "9" * 200_000 + '"', "9" * 200_000],
                         ids=["quoted", "unquoted"])
class TestOversizedCsvField:
    """A field past the csv module's limit is a bad input file, also where
    np.loadtxt could read it."""

    def _loan_file(self, path, schema, huge):
        rows = make_loan_rows(30, seed=8)
        for i, row in enumerate(rows):
            if schema == "application":
                row["group"] = "AD"[i % 2]
        rows[2]["purpose"] = huge
        columns = list(rows[0])
        with open(path, "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(row[c] for c in columns) + "\n")

    def test_train_risk(self, capsys, tmp_path, huge):
        self._loan_file(tmp_path / "train.csv", "training", huge)
        code, _, err = run(capsys, "train-risk", "--in", tmp_path / "train.csv",
                           "--out-model", tmp_path / "m.json")
        assert code == 2
        assert err.startswith("error: ")
        assert "train.csv:4: field larger than field limit" in err

    def test_predict_risk(self, capsys, tmp_path, huge):
        train = tmp_path / "train.csv"
        write_loan_csv(train, make_loan_rows(800, seed=3))
        model = tmp_path / "model.json"
        assert run(capsys, "train-risk", "--in", train,
                   "--out-model", model)[0] == 0
        self._loan_file(tmp_path / "apps.csv", "application", huge)
        code, _, err = run(capsys, "predict-risk", "--model", model,
                           "--in", tmp_path / "apps.csv",
                           "--out-scores", tmp_path / "scores")
        assert code == 2
        assert err.startswith("error: ")
        assert "apps.csv:4: field larger than field limit" in err

    def test_dominance_check(self, capsys, tmp_path, huge):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("score\n0.25\n0.5\n")
        bad.write_text("score\n0.25\n" + huge + "\n0.5\n")
        code, _, err = run(capsys, "dominance-check", "--file-a", good,
                           "--file-b", bad)
        assert code == 2
        assert err.startswith("error: ")
        assert "bad.csv:3: field larger than field limit" in err


class TestMaxMeanCurve:
    def test_writes_coupled_curve(self, capsys, tmp_path):
        out = tmp_path / "mm"
        code, _, _ = run(capsys, "max-mean-curve", "--dist-a", "beta:8,3",
                         "--dist-b", "beta:7,3", "--n", 200, "--seed", 5,
                         "--k", 0.1, "--c-min", 0.5, "--c-max", 2,
                         "--c-step", 0.5, "--horizon", 8, "--out-dir", out)
        assert code == 0
        lines = (out / "max_mean.csv").read_text().splitlines()
        assert lines[0] == "c,max_mean_a,max_mean_d"
        assert len(lines) == 5
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert [r[0] for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for _, a, d in rows:
            assert a >= d

    ARGS = ("max-mean-curve", "--dist-a", "beta:8,3", "--dist-b", "beta:7,3",
            "--k", 0.1, "--c-min", 0.5, "--c-max", 3, "--c-step", 0.5)

    def test_max_mean_csv_is_pinned(self, capsys, tmp_path):
        # sha256 from the full-horizon walk that the settled stop replaced;
        # perfbench/workloads.py DIGESTS["maxmean/max_mean.csv"] pins the
        # loans workload's curve, not a copy of this one.
        out = tmp_path / "mm"
        code, _, err = run(capsys, *self.ARGS, "--n", 200, "--seed", 5,
                           "--horizon", 40, "--out-dir", out)
        assert code == 0, err
        assert hashlib.sha256((out / "max_mean.csv").read_bytes()).hexdigest() \
            == "a70af1a997366ef9bcf35dbed90c607195d29b221faa7bc25cd7781a6dcbcfda"

    def test_horizon_past_absorption_costs_nothing(self, capsys, tmp_path):
        settled_by = 40
        dists = [parse_distribution(lit, g, 1000, 0, slot) for slot, (lit, g)
                 in enumerate((("beta:8,3", "A"), ("beta:7,3", "D")))]
        for c in np.arange(0.5, 3.01, 0.5):
            beta = optimal_threshold(0.1, c).beta_hat
            for slot, d in enumerate(dists):
                walk = reference_walk(d.scores, beta, 0.1, c, settled_by, 0,
                                      slot)
                assert reference_settled(walk[-1], beta, 0.1, c), (c, slot)

        near, far = tmp_path / "near", tmp_path / "far"
        code, _, err = run(capsys, *self.ARGS, "--horizon", settled_by,
                           "--out-dir", near)
        assert code == 0, err
        t0 = time.perf_counter()
        code, _, err = run(capsys, *self.ARGS, "--horizon", 1_000_000,
                           "--out-dir", far)
        elapsed = time.perf_counter() - t0
        assert code == 0, err
        assert elapsed < 2.0
        assert (far / "max_mean.csv").read_text().splitlines() == \
            (near / "max_mean.csv").read_text().splitlines()


class TestReproduceFigure:
    def test_grid_files_per_alpha(self, capsys, tmp_path):
        out = tmp_path / "fig"
        code, _, _ = run(capsys, "reproduce-figure", "--which", "grid",
                         "--alpha", 0.2, 0.8, "--n", 40, "--horizon", 3,
                         "--seeds", 1, "--c-min", 1, "--c-max", 1,
                         "--c-step", 1, "--r-min", 0.1, "--r-max", 0.5,
                         "--r-step", 0.4, "--out-dir", out)
        assert code == 0
        for alpha in ("0.2", "0.8"):
            assert (out / f"grid_alpha{alpha}.csv").exists()
            payload = json.loads((out / f"grid_alpha{alpha}.json").read_text())
            assert payload["alpha"] == float(alpha)

    @pytest.mark.parametrize("alphas, first, second, stem", [
        (("0.1234567", "0.1234568"), "0.1234567", "0.1234568",
         "grid_alpha0.123457"),
        (("0.5", "0.5"), "0.5", "0.5", "grid_alpha0.5"),
        (("0.2", "0.5", "0.50"), "0.5", "0.5", "grid_alpha0.5"),
    ])
    def test_alphas_that_share_a_file_are_refused(self, capsys, monkeypatch,
                                                  tmp_path, alphas, first,
                                                  second, stem):
        # Each pair once wrote one grid over the other and exited 0.
        _forbid(monkeypatch, "recommend_grid")
        out = tmp_path / "fig"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "reproduce-figure", "--which", "grid",
                                "--alpha", *alphas, "--out-dir", out)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        assert err == (f"error: --alpha {first} and {second} would both "
                       f"write {stem}.json and {stem}.csv\n")
        assert not out.exists()

    def test_an_alpha_out_of_range_is_refused_before_any_grid(
            self, capsys, monkeypatch, tmp_path):
        # No grid is built or written for the valid alpha before it either.
        _forbid(monkeypatch, "recommend_grid")
        out = tmp_path / "fig"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "reproduce-figure", "--which", "grid",
                                "--alpha", 0.5, 2, "--n", 20, "--out-dir",
                                out)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        assert err == "error: alpha must lie in [0, 1], got 2.0\n"
        assert not out.exists()

    def test_max_mean_path(self, capsys, tmp_path):
        out = tmp_path / "fig"
        code, _, _ = run(capsys, "reproduce-figure", "--which", "max-mean",
                         "--n", 50, "--horizon", 3, "--c-min", 1,
                         "--c-max", 2, "--c-step", 1, "--out-dir", out)
        assert code == 0
        assert (out / "max_mean.csv").exists()

    def test_which_is_validated(self, capsys, tmp_path):
        code, _, err = run(capsys, "reproduce-figure", "--which", "nope",
                           "--out-dir", tmp_path / "fig")
        assert code == 2
        assert "--which" in err


_PAIR = ("--dist-a", "beta:4,8", "--dist-b", "beta:3,8", "--n", 30)
_SMALL_C = ("--horizon", 3, "--c-min", 1, "--c-max", 2, "--c-step", 1)
_SMALL_GRID = ("--horizon", 3, "--seeds", 1, "--c-min", 1, "--c-max", 1,
               "--c-step", 1, "--r-min", 0.1, "--r-max", 0.5, "--r-step", 0.4)
_MARKOV = ("analyze-markov", "--pi0", "1/2", "--beta", "7/20")


@pytest.fixture
def score_files(capsys, tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    fa, fd = inputs / "a.csv", inputs / "d.csv"
    run(capsys, "sample", "--a", 4, "--b", 8, "--n", 50, "--seed", 1,
        "--out", fa)
    run(capsys, "sample", "--a", 3, "--b", 8, "--n", 50, "--seed", 2,
        "--out", fd)
    return fa, fd


class TestRunEnvelope:
    # One run per command that takes --out-dir; "A_CSV" and "D_CSV" stand
    # for the score files.
    RUNS = {
        "simulate": ("simulate", *_PAIR, "--beta", 0.4, "--horizon", 3),
        "optimize-threshold": ("optimize-threshold", "--k", 0.1, "--c", 1),
        "recommend": ("recommend", "--alpha", 0.5, *_PAIR, *_SMALL_GRID),
        "analyze-markov": (*_MARKOV, "--k", "1/10", "--c", "1"),
        "dominance-check": ("dominance-check", "--file-a", "A_CSV",
                            "--file-b", "D_CSV"),
        "max-mean-curve": ("max-mean-curve", *_PAIR, *_SMALL_C),
        "reproduce-figure-grid": ("reproduce-figure", "--which", "grid",
                                  "--alpha", 0.5, "--n", 30, *_SMALL_GRID),
        "reproduce-figure-max-mean": ("reproduce-figure", "--which",
                                      "max-mean", "--n", 30, *_SMALL_C),
    }

    @staticmethod
    def argv(name, score_files):
        files = dict(zip(("A_CSV", "D_CSV"), score_files))
        return [files.get(a, a) for a in TestRunEnvelope.RUNS[name]]

    def test_every_out_dir_command_has_a_run(self):
        takes_out_dir = {cmd.name for cmd in COMMANDS
                         if any(o.key == "out_dir" for o in cmd.options)}
        assert takes_out_dir == {argv[0] for argv in self.RUNS.values()}

    @pytest.mark.parametrize("name", RUNS)
    def test_records_every_run(self, capsys, tmp_path, score_files, name):
        argv = self.argv(name, score_files)
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--out-dir", out)
        assert code == 0, err
        cfg = (out / "run.cfg").read_text()
        assert cfg.endswith("\n") and "out_dir" not in cfg
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["config"]["out_dir"] == str(out)
        assert manifest["wall_time_seconds"] >= 0

    @pytest.mark.parametrize("name", ["optimize-threshold", "analyze-markov",
                                      "dominance-check"])
    def test_no_out_dir_writes_no_files(self, capsys, tmp_path, score_files,
                                        monkeypatch, name):
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, *self.argv(name, score_files))
        assert code == 0, err
        json.loads(stdout)
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_run_is_not_recorded(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, _ = run(capsys, *_MARKOV, "--up", "0", "--down", "1/10",
                         "--out-dir", out)
        assert code == 1
        assert not out.exists()

    def test_figure_max_mean_is_the_max_mean_curve(self, capsys, tmp_path):
        settings = ("--dist-a", "beta:4,8", "--dist-b", "beta:3,8",
                    "--n", 40, "--seed", 2, "--k", 0.1, *_SMALL_C)
        curve, figure = tmp_path / "curve", tmp_path / "figure"
        assert run(capsys, "max-mean-curve", *settings,
                   "--out-dir", curve)[0] == 0
        assert run(capsys, "reproduce-figure", "--which", "max-mean",
                   *settings, "--out-dir", figure)[0] == 0
        assert (figure / "max_mean.csv").read_bytes() == \
            (curve / "max_mean.csv").read_bytes()

    def test_figure_max_mean_records_only_what_it_reads(self, capsys,
                                                        tmp_path):
        settings = ("--dist-a", "beta:4,8", "--dist-b", "beta:3,8",
                    "--n", 40, "--seed", 2, "--k", 0.1, *_SMALL_C)
        curve, figure = tmp_path / "curve", tmp_path / "figure"
        assert run(capsys, "max-mean-curve", *settings,
                   "--out-dir", curve)[0] == 0
        # Grid-only settings are accepted, but the curve never reads them.
        assert run(capsys, "reproduce-figure", "--which", "max-mean",
                   *settings, "--alpha", 2, "--seeds", 0, "--beta-step", 7,
                   "--r-min", 0.3, "--mode", "literal", "--threads", 2,
                   "--out-dir", figure)[0] == 0
        curve_cfg = (curve / "run.cfg").read_text().splitlines()
        figure_cfg = (figure / "run.cfg").read_text().splitlines()
        assert sorted(curve_cfg + ["which=max-mean"]) == figure_cfg


class TestNegativeHorizon:
    RUNS = {
        "max-mean-curve": ("max-mean-curve", *_PAIR, *_SMALL_C),
        "reproduce-figure": ("reproduce-figure", "--which", "max-mean",
                             "--n", 30, *_SMALL_C),
        "recommend": ("recommend", "--alpha", 0.5, *_PAIR, *_SMALL_GRID),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_is_a_usage_error(self, capsys, tmp_path, name):
        out = tmp_path / "out"
        code, _, err = run(capsys, *self.RUNS[name], "--horizon", -1,
                           "--out-dir", out)
        assert code == 2
        assert err == "error: horizon must be nonnegative, got -1\n"
        assert not (out / "run.cfg").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", -1, "horizon must be nonnegative, got -1"),
    ("--seeds", 0, "n_seeds must be positive, got 0"),
])
def test_grid_settings_are_refused_before_any_worker(capsys, monkeypatch,
                                                     tmp_path, flag, value,
                                                     message):
    # With two workers the cells would run in forked processes; a setting
    # no cell can evaluate is refused before they are mapped.
    from lendingdyn import interventions
    _forbid(monkeypatch, "_map_cells", module=interventions)
    out = tmp_path / "out"
    code, _, err = run(capsys, *TestNegativeHorizon.RUNS["recommend"],
                       "--threads", 2, flag, value, "--out-dir", out)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (out / "run.cfg").exists()


def test_walks_draw_no_step_uniforms(capsys, monkeypatch, tmp_path):
    # Every walk draws its rows through the key pass (step_rows or
    # uniform_blocks); step_uniforms is the streams' definition alone.
    from lendingdyn import _random, dynamics
    for module in (_random, dynamics):
        _forbid(monkeypatch, "step_uniforms", module=module)
    for name in ("simulate", "max-mean-curve", "recommend"):
        code, _, err = run(capsys, *TestRunEnvelope.RUNS[name],
                           "--out-dir", tmp_path / name)
        assert code == 0, err


class TestExitCodes:
    """The branches of main() that no command test above reaches."""

    def test_invalid_value(self, capsys):                      # ValueError
        code, _, err = run(capsys, "optimize-threshold", "--k", -0.1,
                           "--c", 1)
        assert code == 2
        assert err.startswith("error:")

    def test_out_of_memory(self, capsys, monkeypatch, tmp_path):  # MemoryError
        from lendingdyn import cli

        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "recommend_grid", exhausted)
        code, _, err = run(capsys, "recommend", "--alpha", 0.5,
                           "--dist-a", "beta:4,8", "--dist-b", "beta:3,8",
                           "--n", 20, "--out-dir", tmp_path / "rec")
        assert code == 1
        assert err == "computation failed: out of memory\n"

    def test_out_dir_naming_a_file(self, capsys, tmp_path):
        # Refused as a setting before the run (TestOutDirRefusals).
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(capsys, *TestRunEnvelope.RUNS["simulate"],
                           "--out-dir", taken)
        assert code == 2
        assert err.startswith("error:")
        assert taken.read_text() == ""

    def test_out_dir_that_becomes_a_file(self, capsys, monkeypatch,
                                         tmp_path):                # OSError
        from lendingdyn import cli
        taken = tmp_path / "taken"
        real = cli.simulate

        def simulate_then_take(*args, **kwargs):
            taken.write_text("")
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "simulate", simulate_then_take)
        code, _, err = run(capsys, *TestRunEnvelope.RUNS["simulate"],
                           "--out-dir", taken)
        assert code == 1
        assert err.startswith("computation failed:")
        assert taken.read_text() == ""


class TestOutDirRefusals:
    """An output directory that cannot be made exits 2 with one line before
    any work starts, and creates nothing."""

    RUNS = {
        "recommend": (("recommend", "--alpha", 0.5, *_PAIR, *_SMALL_GRID,
                       "--out-dir"), "recommend_grid"),
        "simulate": (("simulate", *_PAIR, "--beta", 0.4, "--horizon", 3,
                      "--out-dir"), "simulate"),
        "predict-risk": (("predict-risk", "--model", "model.json", "--in",
                          "apps.csv", "--out-scores"), "load_records"),
    }

    @pytest.mark.parametrize("form", ["file", "under-file", "dangling-link"])
    @pytest.mark.parametrize("name", RUNS)
    def test_is_refused_before_the_work(self, capsys, monkeypatch, tmp_path,
                                        name, form):
        argv, work = self.RUNS[name]
        _forbid(monkeypatch, work)
        taken = tmp_path / "taken"
        if form == "dangling-link":
            taken.symlink_to(tmp_path / "missing")
        else:
            taken.write_text("kept")
        target = taken / "sub" if form == "under-file" else taken
        before = sorted(tmp_path.rglob("*"))
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv, target)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        flag = argv[-1]
        assert err == (f"error: {flag} {target} cannot be a directory: "
                       f"{taken} exists and is not one\n")
        assert sorted(tmp_path.rglob("*")) == before
        if form != "dangling-link":
            assert taken.read_text() == "kept"


class TestOutFileRefusals:
    """An output file that cannot be written exits 2 with one line before
    any work starts, and creates nothing."""

    RUNS = {
        "sample": (("sample", "--a", 4, "--b", 8, "--n", 10, "--out"),
                   "sample_beta"),
        "train-risk": (("train-risk", "--in", "train.csv", "--out-model"),
                       "load_records"),
        "train-risk-rejects": (("train-risk", "--in", "train.csv",
                                "--out-model", "m.json", "--rejects"),
                               "load_records"),
        "predict-risk-rejects": (("predict-risk", "--model", "model.json",
                                  "--in", "apps.csv", "--out-scores",
                                  "scores", "--rejects"), "load_records"),
    }

    @pytest.mark.parametrize("form", ["directory", "under-file",
                                      "missing-dir"])
    @pytest.mark.parametrize("name", RUNS)
    def test_is_refused_before_the_work(self, capsys, monkeypatch, tmp_path,
                                        name, form):
        argv, work = self.RUNS[name]
        _forbid(monkeypatch, work)
        monkeypatch.chdir(tmp_path)       # where m.json and scores would go
        taken = tmp_path / "taken"
        if form == "directory":
            taken.mkdir()
            target, why = taken, f"{taken} exists and is a directory"
        elif form == "under-file":
            taken.write_text("kept")
            target, why = taken / "out.csv", (f"{taken} exists and is not "
                                              "a directory")
        else:
            target = tmp_path / "nodir" / "out.csv"
            why = f"its directory {target.parent} does not exist"
        before = sorted(tmp_path.rglob("*"))
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv, target)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        assert err == f"error: {argv[-1]} {target} cannot be a file: {why}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("form", ["file", "dangling-link"])
    def test_an_existing_file_or_link_is_written(self, capsys, tmp_path,
                                                 form):
        out = tmp_path / "s.csv"
        if form == "dangling-link":
            out.symlink_to(tmp_path / "missing.csv")
        else:
            out.write_text("old")
        code, _, err = run(capsys, "sample", "--a", 4, "--b", 8, "--n", 5,
                           "--out", out)
        assert code == 0, err
        assert out.read_text().splitlines()[0] == "score"


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "lendingdyn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "recommend" in proc.stdout
