"""Single-step update, exact step mean, and trajectory bookkeeping."""

import csv
import time
from unittest import mock

import numpy as np
import pytest

from lendingdyn import (DynamicsParams, ScoreDistribution, ThresholdPolicy,
                        dynamics, expected_next_score, simulate,
                        simulate_group, step_mean, step_population)
from lendingdyn import _random
from lendingdyn._random import _KEY_BATCH, step_rows
from lendingdyn.dynamics import (_U_LAST, approved_step, frozen_step,
                                 step_bits)
from oracles import (reference_advance, reference_approved_step,
                     reference_settled_step, reference_walk)


def dist(scores, group="A"):
    return ScoreDistribution(group, np.asarray(scores, dtype=float))


def test_expected_next_score_worked_value():
    # 0.55 * 0.60 + 0.45 * (0.55 - 0.15) = 0.51
    got = expected_next_score(np.array([0.55]), k=0.05, c=3.0)
    assert got[0] == pytest.approx(0.51, abs=1e-12)


def test_expected_next_score_monotone_in_score():
    s = np.linspace(0.0, 1.0, 1001)
    for k, c in [(0.1, 1.0), (0.05, 3.0), (0.2, 0.5), (0.3, 2.0)]:
        g = expected_next_score(s, k=k, c=c)
        assert np.all(np.diff(g) >= -1e-15), (k, c)


class TestStepMean:
    def test_threshold_one_changes_nothing(self):
        d = dist([0.2, 0.5, 0.9])
        policy = ThresholdPolicy.uniform(1.0, ("A",))
        params = DynamicsParams.uniform(0.1, 1.0, ("A",))
        # only exact ones are approved, and they stay at one
        assert step_mean(d, policy, params) == pytest.approx(d.mean(), abs=1e-15)

    def test_all_half_no_penalty(self):
        d = dist([0.5] * 10)
        policy = ThresholdPolicy.uniform(0.0, ("A",))
        params = DynamicsParams.uniform(0.1, 0.0, ("A",))
        # 0.5 * 0.6 + 0.5 * 0.5 = 0.55
        assert step_mean(d, policy, params) == pytest.approx(0.55, abs=1e-15)

    def test_matches_monte_carlo(self, beta_pair):
        d, _ = beta_pair
        policy = ThresholdPolicy.uniform(0.5, ("A",))
        params = DynamicsParams.uniform(0.1, 1.0, ("A",))
        exact = step_mean(d, policy, params)
        reps = 400
        means = np.empty(reps)
        for r in range(reps):
            means[r] = step_population(d, policy, params,
                                       np.random.default_rng(r)).mean()
        se = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - exact) <= 3 * se

    def test_gap_growth_counterexample_is_pinned(self):
        # Dominance on the approved range plus mean ordering is NOT enough
        # for the gap to grow: the advantaged group can sit in the
        # negative-drift band below c/(1+c) while the disadvantaged group's
        # mass is frozen under the threshold.
        a = dist([0.55, 0.9], "A")
        d = dist([0.3, 0.9], "D")
        policy = ThresholdPolicy.uniform(0.5, ("A", "D"))
        params = DynamicsParams.uniform(0.05, 3.0, ("A", "D"))
        delta_a = step_mean(a, policy, params) - a.mean()
        delta_d = step_mean(d, policy, params) - d.mean()
        assert delta_a == pytest.approx(-0.005, abs=1e-12)
        assert delta_d == pytest.approx(+0.015, abs=1e-12)
        assert delta_a < delta_d


_U_LAST = np.nextafter(1.0, 0.0)


def _kernel_case(draw, st):
    """(scores, u, k, c, beta) of shape (rows, n), with the scores -0.0, 0
    and 1, draws equal to scores, k or c of 0, and a c and beta per row."""
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    score = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                      st.floats(0.0, 1.0))
    scores = np.array(draw(st.lists(score, min_size=rows * n,
                                    max_size=rows * n))).reshape(rows, n)
    # Each draw is a uniform, an edge of [0, 1), or its agent's own score
    # (u == pi takes the down branch).
    picks = draw(st.lists(st.sampled_from(["u", "0", "last", "pi"]),
                          min_size=rows * n, max_size=rows * n))
    free = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=rows * n, max_size=rows * n)))
    u = np.select([np.array(picks) == "0", np.array(picks) == "last",
                   np.array(picks) == "pi"],
                  [0.0, _U_LAST, np.abs(scores.ravel())],
                  free).reshape(rows, n)
    k = draw(st.one_of(st.sampled_from([0.0, 1e-300, 2.0 ** -55, 0.1, 1.0]),
                       st.floats(0.0, 1.0)))
    penalty = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                        st.floats(0.0, 5.0))
    if draw(st.booleans()):
        c = draw(penalty)
    else:
        c = np.array(draw(st.lists(penalty, min_size=rows,
                                   max_size=rows))).reshape(rows, 1)
    beta_value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                           st.floats(0.0, 1.0))
    if draw(st.booleans()):
        beta = draw(beta_value)
    else:
        beta = np.array(draw(st.lists(beta_value, min_size=rows,
                                      max_size=rows))).reshape(rows, 1)
    return scores, u, k, c, beta


# One agent's step by hand: beta 0 approves and beta 1 denies (pi < 1);
# u = 0 repays and u = _U_LAST, the last double below 1, pays late.
PAID, LATE = 0.0, _U_LAST
WORKED_STEPS = [
    # (pi, beta, u, k, c, next score)
    pytest.param(0.5, 0.0, PAID, 0.1, 1.0, 0.6, id="paid-moves-up-by-k"),
    pytest.param(0.95, 0.0, PAID, 0.1, 1.0, 1.0, id="paid-clamps-at-one"),
    pytest.param(0.3, 1.0, LATE, 0.1, 1.0, 0.3, id="denied-late-is-frozen"),
    pytest.param(0.3, 1.0, PAID, 0.1, 1.0, 0.3, id="denied-paid-is-frozen"),
    pytest.param(0.05, 0.0, LATE, 0.1, 1.0, 0.0, id="late-clamps-at-zero"),
    pytest.param(0.5, 0.0, LATE, 0.1, 3.0, pytest.approx(0.2),
                 id="late-moves-down-by-ck"),
    pytest.param(0.5, 0.0, LATE, 0.1, 0.0, 0.5,
                 id="zero-penalty-keeps-late-scores"),
]


class TestScoreKernel:
    """approved_step and frozen_step, bit selects, against np.where."""

    @pytest.mark.parametrize("pi, beta, u, k, c, want", WORKED_STEPS)
    def test_worked_step(self, pi, beta, u, k, c, want):
        out, bits = np.empty(1), np.empty(1, dtype=np.int64)
        got = frozen_step(np.array([pi]), np.array([u]), beta,
                          step_bits(k, c), out, bits)
        assert got[0] == want

    def test_property_against_the_where_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            scores, u, k, c, beta = _kernel_case(data.draw, st)
            out = np.full(scores.shape, np.nan)
            bits = np.full(scores.shape, -1, dtype=np.int64)
            step = reference_approved_step(scores, u, k, c).tobytes()
            got = approved_step(scores, u, step_bits(k, c), out, bits)
            assert got is out and got.tobytes() == step
            # patterns broadcast to the step's shape select the same steps
            full = step_bits(k, c, np.empty((2, *scores.shape), np.int64))
            assert approved_step(scores, u, full, out, bits).tobytes() == step
            want = reference_advance(scores, u, beta, k, c).tobytes()
            assert frozen_step(scores, u, beta, step_bits(k, c), out,
                               bits).tobytes() == want
            # out may be the draws themselves
            u_out = u.copy()
            assert frozen_step(scores, u_out, beta, full, u_out,
                               bits).tobytes() == want

        check()

    def test_signed_zeros_by_hand(self):
        scores = np.array([-0.0, 0.0, -0.0, 1.0, 0.5])
        u = np.array([0.0, 0.0, 0.7, 0.0, 0.5])    # u == pi steps down
        out, bits = np.empty(5), np.empty(5, dtype=np.int64)
        # The down step -0.1 clamps every zero to +0.0.
        approved_step(scores, u, step_bits(0.1, 1.0), out, bits)
        assert out.tobytes() == np.array([0.0, 0.0, 0.0, 1.0, 0.4]).tobytes()
        # Below beta every agent keeps its bytes, so -0.0 stays -0.0:
        # multiplying by the mask would write +0.0.
        frozen_step(scores, u, 0.75, step_bits(0.1, 1.0), out, bits)
        assert out.tobytes() == np.array(
            [-0.0, 0.0, -0.0, 1.0, 0.5]).tobytes()
        assert np.signbit(out).tolist() == [True, False, True, False, False]
        # At k = 0 the down step is c * -0.0 = -0.0, and -0.0 + -0.0 keeps
        # its sign through the clamp.
        approved_step(scores, u, step_bits(0.0, 2.0), out, bits)
        assert np.signbit(out).tolist() == [True, False, True, False, False]

    def test_a_penalty_and_a_threshold_per_row(self):
        rng = np.random.default_rng(12)
        scores = rng.random((3, 40))
        scores[:, :5] = -0.0
        u = rng.random((3, 40))
        c = np.array([[0.0], [1.0], [2.5]])
        beta = np.array([[0.0], [0.5], [1.0]])
        out, bits = np.empty((3, 40)), np.empty((3, 40), dtype=np.int64)
        got = frozen_step(scores, u, beta, step_bits(0.2, c), out, bits)
        for r in range(3):
            want = reference_advance(scores[r], u[r], beta[r, 0], 0.2,
                                     c[r, 0])
            assert got[r].tobytes() == want.tobytes()


class TestStepPopulation:
    def test_denied_agents_never_move(self):
        d = dist([0.1, 0.2, 0.34])
        policy = ThresholdPolicy.uniform(0.35, ("A",))
        params = DynamicsParams.uniform(0.1, 1.0, ("A",))
        rng = np.random.default_rng(0)
        out = step_population(d, policy, params, rng)
        assert np.array_equal(out.scores, d.scores)

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(3)
        d = dist(rng.uniform(0, 1, 500))
        policy = ThresholdPolicy.uniform(0.3, ("A",))
        params = DynamicsParams.uniform(0.25, 2.0, ("A",))
        for step in range(40):
            d = step_population(d, policy, params, np.random.default_rng(step))
            assert d.scores.min() >= 0.0 and d.scores.max() <= 1.0


class TestSimulate:
    def make(self):
        dist_a = dist([0.3, 0.5, 0.8], "A")
        dist_d = dist([0.2, 0.4, 0.7], "D")
        policy = ThresholdPolicy.uniform(0.35, ("A", "D"))
        params = DynamicsParams.uniform(0.1, 1.0, ("A", "D"))
        return dist_a, dist_d, policy, params

    def test_snapshot_count_and_groups(self):
        dist_a, dist_d, policy, params = self.make()
        traj = simulate(dist_a, dist_d, policy, params, horizon=7, seed=1)
        assert traj.horizon == 7
        assert traj.groups == ("A", "D")
        assert all(1 <= len(traj.walks[g]) <= 8 for g in traj.groups)
        assert np.array_equal(traj.scores("A", 0), dist_a.scores)
        assert all(len(traj.means(g)) == 8 for g in traj.groups)
        assert len(traj.summary_rows()) == 8 * 2

    def test_same_seed_reproduces(self):
        dist_a, dist_d, policy, params = self.make()
        t1 = simulate(dist_a, dist_d, policy, params, horizon=10, seed=42)
        t2 = simulate(dist_a, dist_d, policy, params, horizon=10, seed=42)
        for g in ("A", "D"):
            assert len(t1.walks[g]) == len(t2.walks[g])
            for s1, s2 in zip(t1.walks[g], t2.walks[g]):
                assert np.array_equal(s1, s2)

    def test_groups_draw_independent_streams(self):
        dist_a, dist_d, policy, params = self.make()
        t1 = simulate(dist_a, dist_d, policy, params, horizon=5, seed=7)
        # swapping the initial scores must not smuggle group A's randomness
        # into group D: the same slot keeps the same uniforms
        t2 = simulate(dist(dist_a.scores, "D"), dist(dist_d.scores, "A"),
                      policy, params, horizon=5, seed=7)
        assert np.array_equal(t1.final("A").scores, t2.final("D").scores)

    def test_matches_single_group_run(self):
        dist_a, dist_d, policy, params = self.make()
        traj = simulate(dist_a, dist_d, policy, params, horizon=6, seed=9)
        final_a = simulate_group(dist_a, 0.35, 0.1, 1.0, 6, 9, group_slot=0)
        final_d = simulate_group(dist_d, 0.35, 0.1, 1.0, 6, 9, group_slot=1)
        assert np.array_equal(traj.final("A").scores, final_a)
        assert np.array_equal(traj.final("D").scores, final_d)

    def test_dominant_group_stays_ahead_on_average(self, beta_pair):
        dist_a, dist_d = beta_pair
        policy = ThresholdPolicy.uniform(0.35, ("A", "D"))
        params = DynamicsParams.uniform(0.1, 1.0, ("A", "D"))
        horizon = 10
        avg_a = np.zeros(horizon + 1)
        avg_d = np.zeros(horizon + 1)
        seeds = range(30)
        for seed in seeds:
            traj = simulate(dist_a, dist_d, policy, params, horizon, seed)
            avg_a += traj.means("A")
            avg_d += traj.means("D")
        assert np.all(avg_a / 30 >= avg_d / 30 - 1e-9)


_MIXED = np.random.default_rng(11).uniform(0.0, 1.0, 40)

# name: (scores A, scores D, beta, k, c)
STOP_CASES = {
    "k0": (_MIXED[:20], _MIXED[20:], 0.4, 0.0, 1.0),
    "c0": (_MIXED[:20], _MIXED[20:], 0.4, 0.1, 0.0),
    "beta0_signed_zeros": ([-0.0, 0.0, 1.0], [0.0, 1.0], 0.0, 0.1, 1.0),
    "beta0_signed_zeros_walking": ([-0.0, 0.3, 1.0], [-0.0, 0.0, 0.6],
                                   0.0, 0.1, 1.0),
    "beta0_signed_zeros_c0": ([-0.0, 0.0, 1.0], [-0.0, 1.0], 0.0, 0.1, 0.0),
    "beta1": ([0.2, 0.999, 1.0], [1.0, 1.0], 1.0, 0.1, 1.0),
    "at_one_and_at_beta": ([0.4, 1.0, 1.0], [0.4, 0.7, 1.0], 0.4, 0.1, 2.0),
    "tiny_k": (_MIXED[:20], _MIXED[20:], 0.4, 1e-300, 1.0),
    # 0.75 + k rounds back to 0.75, but 0.75 - 3k is one ulp lower
    "up_keeps_bytes_down_does_not": ([0.75, 1.0], [0.75], 0.5, 2.0**-55, 3.0),
    "settled_next_to_walking": ([1.0, 1.0, 0.1], _MIXED[20:], 0.35, 0.1, 1.0),
}


def _run_recording_draws(fn, *args):
    """fn(*args) and the (step, slot) of every uniform row it drew."""
    draws = []

    def recording(seed, horizon, group_slot, n):
        for t, row in enumerate(step_rows(seed, horizon, group_slot, n)):
            draws.append((t, group_slot))
            yield row
    with mock.patch.object(dynamics, "step_rows", recording):
        out = fn(*args)
    return out, draws


def _check_against_reference(scores_a, scores_d, beta, k, c, horizon, seed):
    """simulate and simulate_group against the full-horizon walk, by bytes.

    Each group must draw exactly the steps before the one at which the
    reference walk is settled, keep only the read-only arrays up to that
    step, and read every later step back as the last of them.  Returns the
    per-group stop steps.
    """
    dist_a, dist_d = dist(scores_a, "A"), dist(scores_d, "D")
    policy = ThresholdPolicy.uniform(beta, ("A", "D"))
    params = DynamicsParams.uniform(k, c, ("A", "D"))
    traj, draws = _run_recording_draws(simulate, dist_a, dist_d, policy,
                                       params, horizon, seed)
    stops = []
    for slot, d in enumerate((dist_a, dist_d)):
        walk = reference_walk(d.scores, beta, k, c, horizon, seed, slot)
        stop = reference_settled_step(walk, beta, k, c)
        stops.append(stop)
        walked = traj.walks[d.group]
        assert len(walked) == stop + 1
        assert not any(x.flags.writeable for x in walked)
        assert [traj.scores(d.group, t).tobytes()
                for t in range(horizon + 1)] == [w.tobytes() for w in walk]
        assert traj.means(d.group).tobytes() == \
            np.array([w.mean() for w in walk]).tobytes()
        rows = [r for r in traj.summary_rows() if r["group"] == d.group]
        assert [(r["step"], r["mean"], r["fraction_at_one"],
                 r["fraction_below_beta"]) for r in rows] == \
            [(t, float(w.mean()), float(np.mean(w == 1.0)),
              float(np.mean(w < beta))) for t, w in enumerate(walk)]
        assert sorted(t for t, j in draws if j == slot) == list(range(stop))

        final, own = _run_recording_draws(simulate_group, d, beta, k, c,
                                          horizon, seed, slot)
        assert final.tobytes() == walk[-1].tobytes()
        assert own == [(t, slot) for t in range(stop)]
    return stops


class TestSettledStop:
    @pytest.mark.parametrize("horizon", [0, 1, 40])
    @pytest.mark.parametrize("case", STOP_CASES)
    def test_matches_the_full_horizon_walk(self, case, horizon):
        for seed in (0, 5):
            _check_against_reference(*STOP_CASES[case], horizon, seed)

    @pytest.mark.parametrize("case, stops", [
        ("k0", [0, 0]),
        ("tiny_k", [0, 0]),
        ("beta1", [0, 0]),
        # -0.0 at beta = 0 is approved; its down branch gives +0.0 ...
        ("beta0_signed_zeros", [1, 0]),
        # ... unless c*k == 0, where it gives -0.0 again
        ("beta0_signed_zeros_c0", [0, 0]),
    ])
    def test_stop_steps_counted_by_hand(self, case, stops):
        assert _check_against_reference(*STOP_CASES[case], 40, 0) == stops

    def test_a_long_horizon_mixes_one_batch_of_keys(self, monkeypatch):
        # The longest horizon MAX_SIMULATE_ROWS admits: the walk settles
        # after one step, so it draws one row and mixes one key batch.
        batches = []

        def recording(seeds, steps, group_slot):
            batches.append(steps)
            return step_keys(seeds, steps, group_slot)
        step_keys = _random._step_keys
        monkeypatch.setattr(_random, "_step_keys", recording)
        d = dist([0.9, 1.0, 0.2])
        start = time.perf_counter()
        final, draws = _run_recording_draws(simulate_group, d, 0.5, 0.5, 2.0,
                                            4_999_999, 3)
        assert time.perf_counter() - start < 1.0
        assert draws == [(0, 0)]
        assert batches == [range(0, _KEY_BATCH)]
        walk = reference_walk(d.scores, 0.5, 0.5, 2.0, 1, 3, 0)
        assert final.tobytes() == walk[-1].tobytes()

    def test_property_against_the_full_horizon_walk(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def populations(draw):
            beta = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                  st.floats(0.0, 1.0)))
            score = st.one_of(st.sampled_from([0.0, -0.0, 1.0, beta]),
                              st.floats(0.0, 1.0))
            scores_a = draw(st.lists(score, min_size=1, max_size=6))
            scores_d = draw(st.lists(score, min_size=1, max_size=6))
            return scores_a, scores_d, beta

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(pop=populations(),
                          k=st.one_of(st.sampled_from([0.0, 1e-300, 2.0**-55,
                                                       0.1]),
                                      st.floats(0.0, 0.5)),
                          c=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                          horizon=st.integers(0, 12),
                          seed=st.integers(0, 2**32))
        def check(pop, k, c, horizon, seed):
            scores_a, scores_d, beta = pop
            _check_against_reference(scores_a, scores_d, beta, k, c, horizon,
                                     seed)

        check()


class TestTrajectoryCsv:
    def test_summary_round_trip(self, tmp_path):
        dist_a = dist([0.3, 0.6], "A")
        dist_d = dist([0.2, 0.5], "D")
        policy = ThresholdPolicy.uniform(0.35, ("A", "D"))
        params = DynamicsParams.uniform(0.1, 1.0, ("A", "D"))
        traj = simulate(dist_a, dist_d, policy, params, horizon=4, seed=2)
        path = tmp_path / "traj.csv"
        agents = tmp_path / "agents.csv"
        traj.write_csv(path, per_agent_path=agents)

        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 2
        assert list(rows[0].keys()) == ["step", "group", "mean",
                                        "fraction_at_one", "fraction_below_beta"]
        for row, expected in zip(rows, traj.summary_rows()):
            assert float(row["mean"]) == expected["mean"]
            assert 0.0 <= float(row["fraction_at_one"]) <= 1.0
            assert 0.0 <= float(row["fraction_below_beta"]) <= 1.0

        with open(agents, newline="") as fh:
            arows = list(csv.DictReader(fh))
        assert len(arows) == 5 * 2 * 2
        assert list(arows[0].keys()) == ["step", "group", "agent_index", "score"]
        last = [r for r in arows if r["step"] == "4" and r["group"] == "A"]
        got = np.array([float(r["score"]) for r in last])
        assert np.array_equal(got, traj.final("A").scores)


class TestValidation:
    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            dist([0.5, 1.2])
        with pytest.raises(ValueError):
            dist([-0.1])

    def test_scores_are_readonly(self):
        d = dist([0.5])
        with pytest.raises(ValueError):
            d.scores[0] = 0.9

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            DynamicsParams(k=-0.1, c_by_group={"A": 1.0})
        with pytest.raises(ValueError):
            DynamicsParams(k=0.1, c_by_group={"A": -1.0})
        with pytest.raises(ValueError):
            ThresholdPolicy(beta_by_group={"A": 1.5})

    def test_unknown_group_lookup_fails(self):
        params = DynamicsParams.uniform(0.1, 1.0, ("A",))
        with pytest.raises(KeyError):
            params.c_for("Z")

    def test_negative_horizon_rejected(self):
        d, other = dist([0.5]), dist([0.5], group="D")
        params = DynamicsParams.uniform(0.1, 1.0, ("A", "D"))
        policy = ThresholdPolicy.uniform(0.5, ("A", "D"))
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            simulate(d, other, policy, params, -1, 0)
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            simulate_group(d, 0.5, 0.1, 1.0, -1, 0)
