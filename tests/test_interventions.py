"""Utility, intervention arithmetic, policy evaluation, and the grid."""

import gc
import os
import threading
import weakref

import numpy as np
import pytest

from lendingdyn import (BetaSpec, DynamicsParams, InterventionKind,
                        InterventionSpec, ScoreDistribution, UtilityWeights,
                        apply_intervention, baseline_outcome, evaluate_policy,
                        grid_as_dict, grid_rows, optimal_threshold,
                        recommend_grid, sample_beta, simulate_group, utility)
from lendingdyn import interventions, read_score_csv
from lendingdyn._random import TAG_CELL, TAG_REPLICATE, derive_seed, uniform_blocks
from lendingdyn.interventions import (KIND_ORDER, _approx_curves, _beta_grid,
                                      _curve_error, _evaluate_cell,
                                      _exact_means, _lattice_bins,
                                      _replicate_means, _walk, _Workspace,
                                      cell_bytes)

from oracles import (reference_baseline_outcome, reference_evaluate_cell,
                     reference_group_means, reference_mean_curves,
                     reference_sweep_tail, reference_threshold_counts,
                     reference_walk, step_major_walk)

BO = InterventionKind.BETA_ONLY
GB = InterventionKind.GROUP_BLIND
GC = InterventionKind.GROUP_CONSCIOUS


class TestUtility:
    def test_no_change_is_zero(self):
        for alpha in (0.0, 0.5, 1.0):
            w = UtilityWeights(alpha=alpha)
            assert utility(0.5, 0.5, 0.5, 0.5, w) == 0.0

    def test_pure_parity_weight(self):
        w = UtilityWeights(alpha=1.0)
        assert utility(0.6, 0.5, 0.2, 0.9, w) == pytest.approx(-0.1, abs=1e-15)

    def test_signed_worked_value(self):
        w = UtilityWeights(alpha=0.6, mode="signed")
        # -0.6 * |0.9 - 0.7| + 0.4 * ((0.9 - 0.5) + (0.7 - 0.6))
        assert utility(0.9, 0.7, 0.5, 0.6, w) == pytest.approx(0.08, abs=1e-15)

    def test_signed_vs_literal_on_a_loss(self):
        signed = UtilityWeights(alpha=0.6, mode="signed")
        literal = UtilityWeights(alpha=0.6, mode="literal")
        # D fell from its baseline: signed subtracts the loss,
        # literal counts its magnitude as movement
        assert utility(0.9, 0.5, 0.5, 0.6, signed) == pytest.approx(-0.12,
                                                                    abs=1e-15)
        assert utility(0.9, 0.5, 0.5, 0.6, literal) == pytest.approx(-0.04,
                                                                     abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityWeights(alpha=1.2)
        with pytest.raises(ValueError):
            UtilityWeights(alpha=0.5, mode="other")
        with pytest.raises(ValueError):
            utility(1.5, 0.5, 0.5, 0.5, UtilityWeights(alpha=0.5))


class TestApplyIntervention:
    def params(self):
        return DynamicsParams.uniform(0.1, 2.0, ("A", "D"))

    def test_beta_only_keeps_baseline_penalty(self):
        spec = InterventionSpec(kind=BO, r=0.5, baseline_c=2.0)
        out = apply_intervention(self.params(), spec)
        assert out.c_for("A") == 2.0
        assert out.c_for("D") == 2.0

    def test_group_blind_halves_the_reduction(self):
        spec = InterventionSpec(kind=GB, r=0.5, baseline_c=2.0)
        out = apply_intervention(self.params(), spec)
        assert out.c_for("A") == pytest.approx(1.5, abs=1e-15)
        assert out.c_for("D") == pytest.approx(1.5, abs=1e-15)

    def test_group_conscious_targets_disadvantaged(self):
        spec = InterventionSpec(kind=GC, r=0.5, baseline_c=2.0)
        out = apply_intervention(self.params(), spec)
        assert out.c_for("A") == 2.0
        assert out.c_for("D") == pytest.approx(1.0, abs=1e-15)

    def test_k_carries_through(self):
        spec = InterventionSpec(kind=GB, r=0.2, baseline_c=1.0)
        assert apply_intervention(self.params(), spec).k == 0.1

    def test_unknown_disadvantaged_group(self):
        spec = InterventionSpec(kind=GC, r=0.5, baseline_c=2.0)
        with pytest.raises(KeyError):
            apply_intervention(self.params(), spec, disadvantaged="Z")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InterventionSpec(kind=BO, r=1.5, baseline_c=1.0)
        with pytest.raises(ValueError):
            InterventionSpec(kind=BO, r=0.5, baseline_c=-1.0)


def _approved_walk(k, c_rows, walk):
    """Step the rows' always-approved walk in place; the beta-hat baseline
    that _walk steps beside it (here at beta 1, penalty 0) is dropped."""
    _walk(k, c_rows, walk, 1.0, 0.0, _Workspace())


def _curves_and_counts(walk, m, workspace=None):
    """_approx_curves of a walk over m threshold steps, and the threshold
    counts it takes, which must be the reference counts."""
    betas = np.linspace(0.0, 1.0, m + 1)
    counts = np.empty((len(walk) - 1, *walk.shape[1:]), np.uint16)
    curves = _approx_curves(walk, betas, counts, workspace or _Workspace())
    assert np.array_equal(counts, reference_threshold_counts(betas, walk))
    return curves, counts


def _read_out(betas, walk, js, workspace=None):
    """The exact read-out at betas[js]: from the counts _approx_curves
    takes when betas is the grid of some m steps, else (for any other
    ascending betas) from the reference counts."""
    workspace = workspace or _Workspace()
    m = betas.size - 1
    if m and np.array_equal(betas, np.linspace(0.0, 1.0, m + 1)):
        _, counts = _curves_and_counts(walk, m, workspace)
    else:
        counts = reference_threshold_counts(betas, walk).astype(np.uint16)
    return _exact_means(walk, counts, js, workspace)


def _row_curves(scores, k, c_rows, betas, blocks):
    """Exact sweep curves of rows walked at their own penalties: the walk,
    then the exact read-out at every threshold of every row."""
    walk = step_major_walk(scores, blocks)
    _approved_walk(k, c_rows, walk)
    return _read_out(betas, walk, np.arange(betas.size))


def _mean_curves(scores, k, c, betas, blocks):
    """Sweep curves of rows that all walk at penalty c."""
    return _row_curves(scores, k, np.full(len(blocks), c), betas, blocks)


def _baseline_means(scores, k, c, blocks):
    """Beta-hat baseline means at penalty c."""
    bhat = optimal_threshold(k, c).beta_hat
    return _walk(k, np.full(len(blocks), c), step_major_walk(scores, blocks),
                 bhat, c, _Workspace())


class TestMeanCurves:
    """The exact read-out of one walk against the per-threshold sweep."""

    @pytest.mark.parametrize("horizon, n, k, c", [
        (20, 50, 0.1, 1.5),
        (0, 7, 0.1, 1.0),
        (1, 7, 0.1, 1.0),
        (6, 1, 0.1, 2.0),
        (6, 30, 0.1, 0.0),
        (6, 30, 0.0, 2.0),
        (12, 40, 0.3, 3.0),
    ])
    def test_equals_the_reference_sweep(self, horizon, n, k, c):
        rng = np.random.default_rng([horizon, n])
        betas = _beta_grid(0.01)
        # half the agents start exactly on a grid beta (ties approve)
        scores = np.where(rng.random(n) < 0.5, rng.choice(betas, n),
                          rng.random(n))
        blocks = rng.random((10, horizon, n))
        got = _mean_curves(scores, k, c, betas, blocks)
        want = reference_mean_curves(scores, k, c, betas, blocks)
        assert np.array_equal(got, want)
        # evaluate_policy averages over replicates next; with 8 or more of
        # them numpy sums a replicate column in an order that depends on the
        # memory layout, so the layout must match too.
        assert np.array_equal(got.mean(axis=0), want.mean(axis=0))

    def test_walks_that_land_on_thresholds(self):
        # Scores, steps and betas share the exact lattice of quarters, so
        # every agent sits on a threshold at every step.
        rng = np.random.default_rng(5)
        betas = _beta_grid(0.25)
        scores = rng.choice(betas, 40)
        blocks = rng.random((4, 9, 40))
        for c in (0.0, 1.0, 2.0):
            assert np.array_equal(
                _mean_curves(scores, 0.25, c, betas, blocks),
                reference_mean_curves(scores, 0.25, c, betas, blocks))

    @pytest.mark.parametrize("steps_per_batch, n_reps", [
        (0.5, 3),    # a batch smaller than one step still takes one
        (3, 10),     # 3 + 3 + 3 + 3 + 3
        (4.5, 11),   # rounds down: 4 + 4 + 4 + 3
    ])
    def test_chunks_of_replicates(self, monkeypatch, steps_per_batch, n_reps):
        n, betas = 30, _beta_grid(0.01)
        monkeypatch.setattr(interventions, "_BATCH_CELLS",
                            int(steps_per_batch * n_reps * n))
        rng = np.random.default_rng(n_reps)
        scores = rng.random(n)
        blocks = rng.random((n_reps, 15, n))
        got = _mean_curves(scores, 0.1, 1.5, betas, blocks)
        want = reference_mean_curves(scores, 0.1, 1.5, betas, blocks)
        assert np.array_equal(got, want)
        assert np.array_equal(got.mean(axis=0), want.mean(axis=0))

    def test_grid_size_spans_several_chunks(self):
        # At the recommendation grid's size (101 betas, 500 agents, three
        # kinds of 10 replicates per group) the default batch holds fewer
        # steps than the walk has.
        betas = _beta_grid(0.01)
        n, n_reps, horizon = 500, 30, 20
        assert interventions._BATCH_CELLS // (n_reps * n) < horizon
        rng = np.random.default_rng(9)
        scores = rng.beta(8, 3, n)
        blocks = rng.random((n_reps, horizon, n))
        got = _mean_curves(scores, 0.1, 2.0, betas, blocks)
        want = reference_mean_curves(scores, 0.1, 2.0, betas, blocks)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_reps", [1, 7, 13])
    def test_a_penalty_per_row(self, monkeypatch, n_reps):
        # Batches of 3 steps over 12: four full batches.
        n, betas = 25, _beta_grid(0.02)
        monkeypatch.setattr(interventions, "_BATCH_CELLS", 3 * n_reps * n)
        rng = np.random.default_rng([n_reps, 4])
        scores = np.where(rng.random(n) < 0.3, rng.choice(betas, n),
                          rng.random(n))
        blocks = rng.random((n_reps, 12, n))
        c_rows = rng.choice([0.0, 0.5, 1.0, 2.5, 3.0], n_reps)
        got = _row_curves(scores, 0.1, c_rows, betas, blocks)
        want = np.vstack([reference_mean_curves(scores, 0.1, c, betas,
                                                blocks[r:r + 1])
                          for r, c in enumerate(c_rows)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, c", [(0.1, 2.0), (0.25, 1.0), (0.3, 0.0)])
    def test_betas_that_tie_walk_values(self, k, c):
        # The grid ends 0.0 and 1.0 are where clamped walks land exactly,
        # and every third agent starts on beta-hat.
        bhat = optimal_threshold(k, c).beta_hat
        betas = np.unique([0.0, bhat, 1.0])
        rng = np.random.default_rng(11)
        scores = rng.choice([0.0, bhat, 1.0, 0.05, 0.95], 60)
        blocks = rng.random((5, 30, 60))
        assert np.array_equal(
            _mean_curves(scores, k, c, betas, blocks),
            reference_mean_curves(scores, k, c, betas, blocks))

    def test_scores0_is_not_mutated(self):
        # The walk copies the scores into slab 0 and never steps it: X[0]
        # stays there for the read-out.
        rng = np.random.default_rng(2)
        scores = rng.random(40)
        kept = scores.copy()
        scores.flags.writeable = False
        walk = step_major_walk(scores, rng.random((3, 8, 40)))
        workspace = _Workspace()
        _walk(0.1, [1.0, 2.0, 3.0], walk,
              optimal_threshold(0.1, 2.0).beta_hat, 2.0, workspace)
        _curves_and_counts(walk, 20, workspace)
        assert scores.tobytes() == kept.tobytes()
        assert walk[0].tobytes() == np.tile(kept, (3, 1)).tobytes()


class TestBaselineMeans:
    """The beta-hat baseline's frozen walk against the per-threshold sweep."""

    @pytest.mark.parametrize("horizon, n, n_reps, k, c", [
        (20, 50, 10, 0.1, 1.0),
        (0, 7, 3, 0.1, 1.0),
        (1, 7, 3, 0.1, 2.0),
        (20, 1, 4, 0.1, 1.5),     # one agent
        (20, 30, 1, 0.1, 3.0),    # one replicate
        (1, 1, 1, 0.1, 1.0),
        (12, 30, 5, 0.0, 2.0),    # k = 0: beta-hat is 1
        (12, 30, 5, 0.1, 0.0),    # c = 0: beta-hat is 0
        (20, 500, 10, 0.1, 2.0),  # the recommendation grid's size
    ])
    def test_equals_the_reference_sweep_at_beta_hat(self, horizon, n, n_reps,
                                                    k, c):
        bhat = optimal_threshold(k, c).beta_hat
        rng = np.random.default_rng([horizon, n, n_reps])
        # half the agents start exactly at beta-hat (ties approve)
        scores = np.where(rng.random(n) < 0.5, bhat, rng.random(n))
        blocks = rng.random((n_reps, horizon, n))
        got = _baseline_means(scores, k, c, blocks)
        want = reference_mean_curves(scores, k, c, np.array([bhat]),
                                     blocks)[:, 0]
        assert got.shape == (n_reps,)
        assert got.tobytes() == want.tobytes()
        assert np.mean(got).tobytes() == np.mean(want).tobytes()

    def test_walks_that_land_on_beta_hat(self):
        # Scores and steps share the lattice of quarters and beta-hat is
        # 0.5, so agents step onto the threshold and off it again.
        rng = np.random.default_rng(7)
        scores = rng.choice(_beta_grid(0.25), 40)
        blocks = rng.random((6, 9, 40))
        assert optimal_threshold(0.25, 1.0).beta_hat == 0.5
        got = _baseline_means(scores, 0.25, 1.0, blocks)
        want = reference_mean_curves(scores, 0.25, 1.0, np.array([0.5]),
                                     blocks)[:, 0]
        assert got.tobytes() == want.tobytes()


@pytest.fixture
def small_pair():
    dist_a = sample_beta(BetaSpec(a=4, b=8, n=120, seed=31), group="A")
    dist_d = sample_beta(BetaSpec(a=3, b=8, n=120, seed=32), group="D")
    return dist_a, dist_d


class TestBaselineOutcome:
    def test_matches_direct_simulation(self, small_pair):
        dist_a, dist_d = small_pair
        params = DynamicsParams.uniform(0.1, 1.0, ("A", "D"))
        base = baseline_outcome(dist_a, dist_d, params, horizon=6, seed=5)
        bhat = optimal_threshold(0.1, 1.0).beta_hat
        want_a = simulate_group(dist_a, bhat, 0.1, 1.0, 6, 5, group_slot=0)
        want_d = simulate_group(dist_d, bhat, 0.1, 1.0, 6, 5, group_slot=1)
        assert base["A"] == want_a.mean()
        assert base["D"] == want_d.mean()


class TestEvaluatePolicy:
    def evaluate(self, pair, kind, r=0.4, alpha=0.5, **kw):
        spec = InterventionSpec(kind=kind, r=r, baseline_c=2.0)
        weights = UtilityWeights(alpha=alpha)
        defaults = dict(k=0.1, horizon=5, n_seeds=3, seed=17, beta_step=0.1)
        defaults.update(kw)
        return evaluate_policy(pair[0], pair[1], spec, weights, **defaults)

    def test_deterministic(self, small_pair):
        o1 = self.evaluate(small_pair, GC)
        o2 = self.evaluate(small_pair, GC)
        assert o1 == o2

    def test_utility_round_trip(self, small_pair):
        out = self.evaluate(small_pair, GB, alpha=0.7)
        w = UtilityWeights(alpha=0.7)
        assert out.utility == utility(out.mean_a, out.mean_d,
                                      out.base_a, out.base_d, w)

    def test_zero_reduction_makes_kinds_coincide(self, small_pair):
        outs = [self.evaluate(small_pair, kind, r=0.0) for kind in KIND_ORDER]
        for other in outs[1:]:
            assert other.beta_by_group == outs[0].beta_by_group
            assert other.mean_a == outs[0].mean_a
            assert other.mean_d == outs[0].mean_d
            assert other.utility == outs[0].utility

    def test_manual_reconstruction(self, small_pair):
        dist_a, dist_d = small_pair
        kind, r, c_hat, alpha = GC, 0.5, 2.0, 0.5
        k, horizon, n_seeds, seed, beta_step = 0.1, 4, 2, 23, 0.25
        out = self.evaluate(small_pair, kind, r=r, alpha=alpha, k=k,
                            horizon=horizon, n_seeds=n_seeds, seed=seed,
                            beta_step=beta_step)

        betas = np.linspace(0.0, 1.0, 5)
        rep_seeds = [derive_seed(seed, TAG_REPLICATE, i) for i in range(n_seeds)]
        c_a, c_d = c_hat, c_hat * (1 - r)
        ma = np.array([np.mean([simulate_group(dist_a, float(b), k, c_a,
                                               horizon, rs, group_slot=0).mean()
                                for rs in rep_seeds]) for b in betas])
        md = np.array([np.mean([simulate_group(dist_d, float(b), k, c_d,
                                               horizon, rs, group_slot=1).mean()
                                for rs in rep_seeds]) for b in betas])
        bhat = optimal_threshold(k, c_hat).beta_hat
        base_a = np.mean([simulate_group(dist_a, bhat, k, c_hat, horizon, rs,
                                         group_slot=0).mean() for rs in rep_seeds])
        base_d = np.mean([simulate_group(dist_d, bhat, k, c_hat, horizon, rs,
                                         group_slot=1).mean() for rs in rep_seeds])
        w = UtilityWeights(alpha=alpha)
        utils = np.array([utility(float(a_), float(d_), float(base_a),
                                  float(base_d), w)
                          for a_, d_ in zip(ma, md)])
        best = np.flatnonzero(utils == utils.max())[-1]

        assert out.beta_by_group == {"A": float(betas[best]),
                                     "D": float(betas[best])}
        assert out.mean_a == pytest.approx(float(ma[best]), abs=1e-14)
        assert out.mean_d == pytest.approx(float(md[best]), abs=1e-14)
        assert out.base_a == pytest.approx(float(base_a), abs=1e-14)
        assert out.base_d == pytest.approx(float(base_d), abs=1e-14)
        assert out.utility == pytest.approx(float(utils[best]), abs=1e-14)

    def test_baseline_is_the_replicate_mean_of_baseline_outcome(
            self, small_pair):
        out = self.evaluate(small_pair, GB)
        rep_seeds = [derive_seed(17, TAG_REPLICATE, i) for i in range(3)]
        params = DynamicsParams.uniform(0.1, 2.0, ("A", "D"))
        bases = [baseline_outcome(*small_pair, params, horizon=5, seed=rs)
                 for rs in rep_seeds]
        assert out.base_a == float(np.mean([b["A"] for b in bases]))
        assert out.base_d == float(np.mean([b["D"] for b in bases]))

    def test_baseline_is_the_reference_sweep_at_beta_hat(self, small_pair):
        out = self.evaluate(small_pair, GB)
        rep_seeds = [derive_seed(17, TAG_REPLICATE, i) for i in range(3)]
        bhat = np.array([optimal_threshold(0.1, 2.0).beta_hat])
        for slot, dist, base in ((0, small_pair[0], out.base_a),
                                 (1, small_pair[1], out.base_d)):
            blocks = uniform_blocks(rep_seeds, 5, slot, dist.n).transpose(
                1, 0, 2)
            want = reference_mean_curves(dist.scores, 0.1, 2.0, bhat, blocks)
            assert base == float(np.mean(want[:, 0]))

    def test_one_uniform_block_per_replicate_and_group(self, small_pair,
                                                       monkeypatch):
        built = []
        original = interventions.uniform_blocks

        def counting(seeds, horizon, group_slot, n, out=None):
            built.extend((seed, horizon, group_slot, n) for seed in seeds)
            return original(seeds, horizon, group_slot, n, out=out)

        monkeypatch.setattr(interventions, "uniform_blocks", counting)
        self.evaluate(small_pair, GC)
        assert len(built) == 2 * 3
        assert len(set(built)) == len(built)

    def test_per_group_search_weakly_dominates(self, small_pair):
        uni = self.evaluate(small_pair, GC, alpha=0.3)
        per = self.evaluate(small_pair, GC, alpha=0.3, per_group_beta=True)
        assert per.utility >= uni.utility - 1e-15

    def test_full_reduction_restores_the_disadvantaged(self, small_pair):
        out = self.evaluate(small_pair, GC, r=1.0, alpha=0.2, horizon=10,
                            beta_step=0.05)
        assert out.mean_d >= out.base_d - 0.02

    def test_reduction_helps_the_disadvantaged(self, small_pair):
        lo = self.evaluate(small_pair, GC, r=0.1, alpha=0.2, horizon=10)
        hi = self.evaluate(small_pair, GC, r=0.9, alpha=0.2, horizon=10)
        assert hi.mean_d >= lo.mean_d - 0.02

    @pytest.mark.parametrize("per_group", [False, True])
    def test_ties_go_to_the_last_threshold(self, small_pair, per_group):
        # With k = 0 no score moves, so every candidate has the same utility.
        out = self.evaluate(small_pair, GC, k=0.0, per_group_beta=per_group)
        assert out.beta_by_group == {"A": 1.0, "D": 1.0}

    @pytest.mark.parametrize("bad, match", [
        (dict(n_seeds=0), "n_seeds"),
        (dict(n_seeds=-2), "n_seeds"),
        (dict(horizon=-1), "negative"),
    ])
    def test_empty_or_negative_runs_rejected(self, small_pair, bad, match):
        with pytest.raises(ValueError, match=match):
            self.evaluate(small_pair, GC, **bad)

    def test_same_group_labels_rejected(self, small_pair):
        dist_a, _ = small_pair
        spec = InterventionSpec(kind=BO, r=0.0, baseline_c=1.0)
        with pytest.raises(ValueError):
            evaluate_policy(dist_a, dist_a, spec, UtilityWeights(alpha=0.5),
                            k=0.1)


class TestRecommendGrid:
    def grid(self, pair, threads=1, alpha=0.5):
        return recommend_grid(pair[0], pair[1], (1.0, 2.0), (0.1, 0.5, 0.9),
                              UtilityWeights(alpha=alpha), 0.1, horizon=4,
                              n_seeds=2, seed=3, threads=threads,
                              beta_step=0.2)

    def test_shape_and_order(self, small_pair):
        grid = self.grid(small_pair)
        assert grid.c_values == (1.0, 2.0)
        assert grid.r_values == (0.1, 0.5, 0.9)
        assert [(cell.c, cell.r) for cell in grid.cells] == [
            (1.0, 0.1), (1.0, 0.5), (1.0, 0.9),
            (2.0, 0.1), (2.0, 0.5), (2.0, 0.9)]
        cell = grid.cell(2.0, 0.5)
        assert cell.c == 2.0 and cell.r == 0.5
        with pytest.raises(KeyError):
            grid.cell(3.0, 0.5)

    def test_thread_count_never_changes_results(self, small_pair):
        g1 = self.grid(small_pair, threads=1)
        g3 = self.grid(small_pair, threads=3)
        for c1, c3 in zip(g1.cells, g3.cells):
            assert c1.utilities == c3.utilities
            assert c1.best == c3.best
            assert c1.marginal == c3.marginal

    def test_best_is_first_argmax_in_kind_order(self, small_pair):
        grid = self.grid(small_pair)
        for cell in grid.cells:
            top = max(cell.utilities.values())
            winners = [kind for kind in KIND_ORDER
                       if cell.utilities[kind] == top]
            assert cell.best == winners[0]

    def test_marginals_are_max_normalized(self, small_pair):
        grid = self.grid(small_pair)
        margins = []
        for cell in grid.cells:
            ranked = sorted(cell.utilities.values(), reverse=True)
            margins.append(ranked[0] - ranked[1])
        top = max(margins)
        scale = top if top > 0 else 1.0
        for cell, margin in zip(grid.cells, margins):
            assert cell.marginal == pytest.approx(margin / scale, abs=1e-15)
            assert 0.0 <= cell.marginal <= 1.0
        if top > 0:
            assert max(cell.marginal for cell in grid.cells) == 1.0

    def test_serialization_shapes(self, small_pair):
        grid = self.grid(small_pair)
        d = grid_as_dict(grid)
        assert set(d) == {"alpha", "c_grid", "r_grid", "cells"}
        assert d["alpha"] == 0.5
        assert len(d["cells"]) == 6
        assert set(d["cells"][0]) == {"c", "r", "best", "utilities", "marginal"}
        assert set(d["cells"][0]["utilities"]) == {"beta_only", "group_blind",
                                                   "group_conscious"}
        rows = grid_rows(grid)
        assert len(rows) == 6
        assert set(rows[0]) == {"c", "r", "best", "utility_beta_only",
                                "utility_group_blind",
                                "utility_group_conscious", "marginal"}

    def test_empty_grids_rejected(self, small_pair):
        with pytest.raises(ValueError):
            recommend_grid(small_pair[0], small_pair[1], (), (0.1,),
                           UtilityWeights(alpha=0.5), 0.1)

    @pytest.mark.parametrize("n_seeds, horizon, same_labels, match", [
        (0, 20, False, "^n_seeds must be positive, got 0$"),
        (10, -1, False, "^horizon must be nonnegative, got -1$"),
        (10, 20, True, "^groups must have distinct labels$"),
    ])
    def test_bad_settings_rejected_before_any_cell(self, small_pair,
                                                    monkeypatch, n_seeds,
                                                    horizon, same_labels,
                                                    match):
        def mapped(*args):
            raise AssertionError("cells were mapped")
        monkeypatch.setattr(interventions, "_map_cells", mapped)
        dist_a, dist_d = small_pair
        with pytest.raises(ValueError, match=match):
            recommend_grid(dist_a, dist_a if same_labels else dist_d,
                           (1.0,), (0.1, 0.5), UtilityWeights(alpha=0.5),
                           0.1, horizon=horizon, n_seeds=n_seeds, threads=2)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, small_pair, threads):
        with pytest.raises(ValueError, match="threads"):
            self.grid(small_pair, threads=threads)

    def test_one_uniform_block_call_per_cell_and_group(self, small_pair,
                                                       monkeypatch):
        calls = []
        original = interventions.uniform_blocks

        def counting(seeds, horizon, group_slot, n, out=None):
            calls.append((tuple(seeds), group_slot))
            return original(seeds, horizon, group_slot, n, out=out)

        monkeypatch.setattr(interventions, "uniform_blocks", counting)
        self.grid(small_pair)
        assert len(calls) == 6 * 2
        for seeds, _ in calls:
            assert len(seeds) == len(KIND_ORDER) * 2


def _bits(outcome):
    """Every field of a PolicyOutcome, its floats as their bytes."""
    floats = np.array([outcome.r, outcome.baseline_c, outcome.mean_a,
                       outcome.mean_d, outcome.base_a, outcome.base_d,
                       outcome.utility, *outcome.beta_by_group.values()])
    return (outcome.kind, outcome.weights, tuple(outcome.beta_by_group),
            floats.tobytes())


@pytest.fixture
def unequal_pair():
    dist_a = sample_beta(BetaSpec(a=8, b=3, n=90, seed=41), group="A")
    dist_d = sample_beta(BetaSpec(a=7, b=3, n=53, seed=42), group="D")
    return dist_a, dist_d


class TestCellEvaluation:
    """The batched cell evaluation against one evaluate_policy per kind."""

    @pytest.mark.parametrize("per_group", [False, True])
    @pytest.mark.parametrize("horizon", [0, 9])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_grid_cells_are_evaluate_policy(self, unequal_pair, per_group,
                                            horizon, threads):
        dist_a, dist_d = unequal_pair
        weights = UtilityWeights(alpha=0.4, mode="literal")
        c_grid, r_grid, seed = (0.5, 2.0, 3.0), (0.2, 0.8), 6
        grid = recommend_grid(dist_a, dist_d, c_grid, r_grid, weights, 0.1,
                              horizon=horizon, n_seeds=4, seed=seed,
                              threads=threads, per_group_beta=per_group,
                              beta_step=0.05)
        for cell_idx, cell in enumerate(grid.cells):
            for kind_idx, kind in enumerate(KIND_ORDER):
                spec = InterventionSpec(kind=kind, r=cell.r, baseline_c=cell.c)
                want = evaluate_policy(
                    dist_a, dist_d, spec, weights, 0.1, horizon=horizon,
                    n_seeds=4, seed=derive_seed(seed, TAG_CELL, cell_idx,
                                                kind_idx),
                    per_group_beta=per_group, beta_step=0.05)
                assert _bits(cell.outcomes[kind]) == _bits(want)

    @pytest.mark.parametrize("per_group", [False, True])
    def test_batched_kinds_are_evaluate_policy(self, unequal_pair, per_group):
        dist_a, dist_d = unequal_pair
        weights = UtilityWeights(alpha=0.6)
        specs = [InterventionSpec(kind=kind, r=0.7, baseline_c=2.5)
                 for kind in KIND_ORDER]
        seeds = [11, 12, 13]
        got = _evaluate_cell(dist_a, dist_d, specs, seeds, weights, 0.25,
                             horizon=7, n_seeds=3, per_group_beta=per_group,
                             betas=_beta_grid(0.1), workspace=_Workspace())
        for spec, seed, outcome in zip(specs, seeds, got):
            want = evaluate_policy(dist_a, dist_d, spec, weights, 0.25,
                                   horizon=7, n_seeds=3, seed=seed,
                                   per_group_beta=per_group, beta_step=0.1)
            assert _bits(outcome) == _bits(want)

    def test_scores_are_not_mutated(self, unequal_pair):
        kept = [dist.scores.tobytes() for dist in unequal_pair]
        grid = recommend_grid(*unequal_pair, (1.0,), (0.5,),
                              UtilityWeights(alpha=0.5), 0.1, horizon=5,
                              n_seeds=2, beta_step=0.1)
        assert len(grid.cells) == 1
        assert [dist.scores.tobytes() for dist in unequal_pair] == kept


class TestWorkspace:
    """Where the cell arrays live, and for how long."""

    def grid(self, pair, threads):
        return recommend_grid(*pair, (1.0, 2.0), (0.2, 0.8),
                              UtilityWeights(alpha=0.5), 0.1, horizon=6,
                              n_seeds=3, seed=4, threads=threads,
                              beta_step=0.1)

    def test_grid_workers_hold_every_cell_array(self, unequal_pair,
                                                monkeypatch, tmp_path):
        # Each workspace made, array handed out and block built appends
        # its kind and process id; the grid's memory must stay out of the
        # process that forks, and each worker must make one workspace.
        monkeypatch.setattr(interventions, "_usable_cores", lambda: 2)
        log = tmp_path / "pids"

        def record(kind, fn):
            def spy(*args, **kwargs):
                with open(log, "a") as f:
                    f.write(f"{kind} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(_Workspace, "__init__",
                            record("made", _Workspace.__init__))
        monkeypatch.setattr(_Workspace, "array",
                            record("array", _Workspace.array))
        monkeypatch.setattr(interventions, "uniform_blocks",
                            record("blocks", interventions.uniform_blocks))

        def read_log():
            entries = [line.split() for line in log.read_text().splitlines()]
            log.unlink()
            return ([pid for kind, pid in entries if kind == "made"],
                    {pid for _, pid in entries})

        pooled = self.grid(unequal_pair, threads=2)
        made, pids = read_log()
        assert str(os.getpid()) not in pids
        assert len(made) == len(set(made)) == 2 and set(made) == pids
        assert interventions._worker_workspace is None
        here = self.grid(unequal_pair, threads=1)
        assert read_log() == ([str(os.getpid())], {str(os.getpid())})
        assert [[_bits(o) for o in cell.outcomes.values()]
                for cell in pooled.cells] == \
            [[_bits(o) for o in cell.outcomes.values()]
             for cell in here.cells]

    def test_no_workspace_outlives_its_evaluation(self, unequal_pair,
                                                  monkeypatch):
        made = []
        init = _Workspace.__init__

        def tracked(self):
            init(self)
            made.append(weakref.ref(self))

        monkeypatch.setattr(_Workspace, "__init__", tracked)
        self.grid(unequal_pair, threads=1)
        spec = InterventionSpec(kind=GC, r=0.5, baseline_c=2.0)
        evaluate_policy(*unequal_pair, spec, UtilityWeights(alpha=0.5), 0.1,
                        horizon=6, n_seeds=3, beta_step=0.1)
        gc.collect()
        assert len(made) == 2
        assert all(ref() is None for ref in made)

    def test_concurrent_evaluations_match_serial_ones(self, unequal_pair):
        # Every call has its own workspace, so threads share no array.
        specs = [InterventionSpec(kind=kind, r=0.5, baseline_c=c)
                 for kind in KIND_ORDER for c in (1.0, 2.5)]
        weights = UtilityWeights(alpha=0.3)

        def evaluate(spec):
            return _bits(evaluate_policy(*unequal_pair, spec, weights, 0.1,
                                         horizon=15, n_seeds=6, seed=8,
                                         beta_step=0.02))

        serial = [evaluate(spec) for spec in specs]
        got = [None] * len(specs)
        start = threading.Barrier(2)

        def run(offset):
            start.wait()
            for i in range(offset, len(specs), 2):
                got[i] = evaluate(specs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert got == serial

    @pytest.mark.parametrize(
        "n_a, n_d, horizon, n_seeds, k, step, per_group", [
        (500, 500, 20, 10, 0.1, 0.01, False),   # the benchmark grid's cells
        (500, 500, 20, 10, 0.0, 0.001, False),  # every threshold survives
        (500, 500, 20, 10, 0.0, 0.001, True),
        (40, 3000, 20, 10, 0.1, 0.01, False),
        (3000, 40, 20, 10, 0.1, 0.01, False),
        (50, 60, 255, 2, 0.1, 0.01, False),     # tau fits in a uint8
        (50, 60, 256, 2, 0.1, 0.01, False),     # tau needs a uint16
    ])
    def test_cell_bytes_bounds_the_workspace(self, n_a, n_d, horizon,
                                             n_seeds, k, step, per_group):
        dist_a, dist_d = _pair(n_a + horizon, n_a, n_d, a=(8, 3), d=(7, 3))
        specs = [InterventionSpec(kind=kind, r=0.5, baseline_c=1.5)
                 for kind in KIND_ORDER]
        workspace = _Workspace()
        _evaluate_cell(dist_a, dist_d, specs, [1, 2, 3],
                       UtilityWeights(alpha=0.5, mode="literal"), k, horizon,
                       n_seeds, per_group, _beta_grid(step), workspace)
        held = sum(buf.nbytes for buf in workspace._buffers.values())
        assert held <= cell_bytes(n_a, n_d, horizon, n_seeds)


class TestBetaGrid:
    @pytest.mark.parametrize("step", [0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 1.0,
                                      0.001])
    def test_whole_steps_keep_their_grid(self, step):
        m = int(round(1.0 / step))
        assert _beta_grid(step).tobytes() == \
            np.linspace(0.0, 1.0, m + 1).tobytes()

    @pytest.mark.parametrize("step", [0.0, -0.01, 2.0, 1.5, 0.03, 0.3, 1e-9,
                                      1 / 1001, float("nan"), float("inf")])
    def test_other_steps_rejected(self, step):
        with pytest.raises(ValueError, match="beta_step"):
            _beta_grid(step)

    def test_evaluations_refuse_a_bad_step(self, small_pair):
        spec = InterventionSpec(kind=BO, r=0.5, baseline_c=1.0)
        with pytest.raises(ValueError, match="beta_step"):
            evaluate_policy(*small_pair, spec, UtilityWeights(alpha=0.5), 0.1,
                            beta_step=0.03)
        with pytest.raises(ValueError, match="beta_step"):
            recommend_grid(*small_pair, (1.0,), (0.5,),
                           UtilityWeights(alpha=0.5), 0.1, beta_step=0)


def _adversarial_values(m, rng):
    """Every grid value, both float neighbours of each, the ends (and
    -0.0), and random values, all inside [-0.0, 1]."""
    betas = np.linspace(0.0, 1.0, m + 1)
    v = np.concatenate([betas, np.nextafter(betas, -1.0),
                        np.nextafter(betas, 2.0), [0.0, -0.0, 1.0],
                        rng.random(200)])
    return np.clip(v, -0.0, 1.0)


class TestLatticeBins:
    def test_equal_searchsorted_for_every_grid_size(self):
        rng = np.random.default_rng(0)
        rows = 3
        for m in range(1, 1001):
            betas = np.linspace(0.0, 1.0, m + 1)
            values = np.stack([rng.permutation(_adversarial_values(m, rng))
                               for _ in range(rows)])
            got = _lattice_bins(values, betas,
                                np.empty(values.shape, dtype=np.intp),
                                np.empty(values.shape))
            want = np.searchsorted(betas, values, side="right")
            assert np.array_equal(got, want), m

    def test_a_leading_step_axis(self):
        m, rows = 100, 4
        rng = np.random.default_rng(1)
        values = rng.choice(_adversarial_values(m, rng), (5, rows, 30))
        out = np.empty(values.shape, dtype=np.intp)
        betas = np.linspace(0.0, 1.0, m + 1)
        got = _lattice_bins(values, betas, out, np.empty(values.shape))
        assert got is out
        want = np.searchsorted(betas, values, "right")
        assert np.array_equal(got, want)


def _random_walk_case(rng, horizon, n, rows, m, on_grid=0.3):
    betas = np.linspace(0.0, 1.0, m + 1)
    scores = np.where(rng.random(n) < on_grid, rng.choice(betas, n),
                      rng.random(n))
    k = rng.choice([0.0, 0.05, 0.1, 0.25, 0.3])
    c_rows = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], rows)
    walk = step_major_walk(scores, rng.random((rows, horizon, n)))
    _approved_walk(k, c_rows, walk)
    return betas, walk


class TestApproximateCurves:
    """The bincount curve against the exact read-out, within the bound."""

    def test_within_the_stated_bound(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        # One workspace for every trial: its arrays are reused across
        # shapes, and must not carry anything from one trial to the next.
        workspace = _Workspace()
        for trial in range(60):
            horizon = int(rng.choice([0, 1, 2, 7, 20, 40]))
            n = int(rng.choice([1, 2, 7, 64, 500]))
            rows = int(rng.integers(1, 9))
            m = int(rng.choice([1, 2, 4, 10, 20, 100, 1000]))
            betas, walk = _random_walk_case(rng, horizon, n, rows, m)
            approx, counts = _curves_and_counts(walk, m, workspace)
            exact = _exact_means(walk, counts, np.arange(m + 1), workspace)
            bound = _curve_error(n, horizon, m + 1, 1)
            gap = np.abs(approx - exact).max()
            assert gap <= bound, (trial, gap, bound)
            # the replicate means, with the bound for that many rows
            gap_mean = np.abs(approx.mean(axis=0) - exact.mean(axis=0)).max()
            assert gap_mean <= _curve_error(n, horizon, m + 1, rows)
            worst = max(worst, gap / bound)
        assert worst < 1.0

    def test_flat_past_the_highest_running_minimum(self):
        # Where nobody is ever approved the curve is the initial mean at
        # every such threshold, exactly, in both stages.
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.0, 0.6, 50)
        walk = step_major_walk(scores, rng.random((4, 10, 50)))
        _approved_walk(0.1, np.full(4, 2.0), walk)
        betas = _beta_grid(0.05)
        top = betas > scores.max()
        approx, counts = _curves_and_counts(walk, 20)
        assert np.all(approx[:, top] == approx[:, top][:, :1])
        exact = _exact_means(walk, counts, np.flatnonzero(top),
                             _Workspace())
        assert np.all(exact == scores.mean())

    def test_the_bound_grows_with_the_work(self):
        assert _curve_error(500, 20, 101, 10) < 1e-9
        assert _curve_error(500, 20, 101, 10) < _curve_error(500, 40, 101, 10)
        # a sum too long for the bound leaves it infinite, so every
        # threshold survives
        assert _curve_error(2 ** 52, 1, 101, 1) == np.inf


def _pair(seed, n_a, n_d, a=(4, 8), d=(3, 8)):
    dist_a = sample_beta(BetaSpec(a=a[0], b=a[1], n=n_a, seed=seed), group="A")
    dist_d = sample_beta(BetaSpec(a=d[0], b=d[1], n=n_d, seed=seed + 1),
                         group="D")
    return dist_a, dist_d


_WEIGHTS = [UtilityWeights(alpha=alpha, mode=mode)
            for mode in ("signed", "literal") for alpha in (0.0, 0.5, 1.0)]


class TestBoundedSearch:
    """Outcomes of the bounded search against the full-sweep oracle, as
    float bits."""

    @pytest.mark.parametrize(
        "horizon, n, n_seeds, step, per_group", [
        *((*case, per_group)
          for case in ((0, 7, 1, 0.1), (1, 7, 8, 0.05), (20, 1, 10, 0.1),
                       (20, 7, 17, 0.02), (20, 7, 8, 0.5))
          for per_group in (False, True)),
        (20, 500, 10, 0.01, False),   # the recommendation grid's size
        (20, 500, 10, 0.01, True),
    ])
    def test_cells_equal_the_full_sweep(self, horizon, n, n_seeds, step,
                                        per_group):
        dist_a, dist_d = _pair(horizon + n, n, n + 3)
        specs = [InterventionSpec(kind=kind, r=0.6, baseline_c=2.0)
                 for kind in KIND_ORDER]
        betas = _beta_grid(step)
        workspace = _Workspace()
        for weights in _WEIGHTS:
            args = (dist_a, dist_d, specs, [4, 5, 6], weights, 0.1, horizon,
                    n_seeds, per_group, betas)
            got = _evaluate_cell(*args, workspace)
            want = reference_evaluate_cell(*args)
            assert [_bits(o) for o in got] == [_bits(o) for o in want]

    @pytest.mark.parametrize("per_group", [False, True])
    def test_evaluate_policy_equals_the_full_sweep(self, per_group):
        dist_a, dist_d = _pair(7, 90, 53, a=(8, 3), d=(7, 3))
        for kind in KIND_ORDER:
            spec = InterventionSpec(kind=kind, r=0.3, baseline_c=1.5)
            for weights in _WEIGHTS:
                got = evaluate_policy(dist_a, dist_d, spec, weights, 0.1,
                                      horizon=12, n_seeds=8, seed=3,
                                      per_group_beta=per_group,
                                      beta_step=0.05)
                [want] = reference_evaluate_cell(
                    dist_a, dist_d, [spec], [3], weights, 0.1, 12, 8,
                    per_group, _beta_grid(0.05))
                assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("horizon", [0, 1, 20])
    def test_baseline_outcome_equals_the_full_sweep(self, horizon):
        dist_a, dist_d = _pair(11, 120, 77)
        params = DynamicsParams(k=0.1, c_by_group={"A": 1.0, "D": 2.5})
        got = baseline_outcome(dist_a, dist_d, params, horizon, 9)
        want = reference_baseline_outcome(dist_a, dist_d, params, horizon, 9)
        assert np.array(list(got.values())).tobytes() == \
            np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("per_group", [False, True])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_quarter_lattice_walks_that_land_on_betas(self, per_group, c):
        # Scores, steps and betas share the lattice of quarters, so agents
        # sit exactly on thresholds and utilities tie.
        rng = np.random.default_rng(int(c))
        dist_a = ScoreDistribution("A", rng.choice(_beta_grid(0.25), 40))
        dist_d = ScoreDistribution("D", rng.choice(_beta_grid(0.25), 33))
        specs = [InterventionSpec(kind=kind, r=0.5, baseline_c=c)
                 for kind in KIND_ORDER]
        for weights in _WEIGHTS:
            args = (dist_a, dist_d, specs, [1, 2, 3], weights, 0.25, 9, 10,
                    per_group, _beta_grid(0.25))
            assert [_bits(o) for o in _evaluate_cell(*args, _Workspace())] \
                == [_bits(o) for o in reference_evaluate_cell(*args)]

    @pytest.mark.parametrize("k", [0.0, 0.1])
    def test_plateaus_where_nobody_is_approved(self, k):
        # Low scores leave every threshold above them a tie; with k = 0 no
        # score moves and every candidate ties, so all of them survive and
        # the last one wins.
        dist_a, dist_d = _pair(5, 60, 60, a=(2, 9), d=(2, 12))
        specs = [InterventionSpec(kind=kind, r=0.9, baseline_c=3.0)
                 for kind in KIND_ORDER]
        for weights in _WEIGHTS:
            for per_group in (False, True):
                args = (dist_a, dist_d, specs, [8, 9, 10], weights, k, 15, 8,
                        per_group, _beta_grid(0.05))
                got = _evaluate_cell(*args, _Workspace())
                assert [_bits(o) for o in got] == \
                    [_bits(o) for o in reference_evaluate_cell(*args)]
                if k == 0.0:
                    assert all(o.beta_by_group == {"A": 1.0, "D": 1.0}
                               for o in got)

    @pytest.mark.parametrize("k", [0.0, 0.1])
    def test_the_finest_threshold_grid(self, monkeypatch, k):
        # At beta_step 0.001 a score of 1.0 has a threshold count of 1,001,
        # the most the uint16 counts hold; at k = 0 every threshold
        # survives, so the read-out runs in several column blocks.
        reads = []
        real = interventions._exact_means

        def spy(walk, counts, js, workspace):
            reads.append((js.size, int(counts.max(initial=0))))
            return real(walk, counts, js, workspace)

        monkeypatch.setattr(interventions, "_exact_means", spy)
        betas = _beta_grid(0.001)
        rng = np.random.default_rng(41)
        dist_a = ScoreDistribution("A", np.concatenate(
            [[1.0, 0.5], rng.choice(betas, 18), rng.beta(8, 3, 20)]))
        dist_d = ScoreDistribution("D", np.concatenate(
            [[1.0], rng.choice(betas, 12), rng.beta(7, 3, 20)]))
        specs = [InterventionSpec(kind=kind, r=0.5, baseline_c=1.5)
                 for kind in KIND_ORDER]
        for per_group in (False, True):
            for weights in _WEIGHTS[::2]:
                args = (dist_a, dist_d, specs, [5, 6, 7], weights, k, 12, 4,
                        per_group, betas)
                assert [_bits(o) for o in _evaluate_cell(*args, _Workspace())] \
                    == [_bits(o) for o in reference_evaluate_cell(*args)]
        assert max(top for _, top in reads) == betas.size
        if k == 0.0:
            # 1,001 columns of 12 rows, read in blocks of at most 546 (A,
            # 40 agents) and 661 (D, 33 agents) columns
            assert {betas.size, 546, 455, 661, 340} <= \
                {width for width, _ in reads}

    def test_negative_zero_scores(self):
        # Means of -0.0 scores: the replicate sums start from +0.0, as
        # numpy's do.
        dist_a = ScoreDistribution("A", np.full(12, -0.0))
        dist_d = ScoreDistribution("D", np.full(9, -0.0))
        spec = InterventionSpec(kind=GC, r=0.5, baseline_c=2.0)
        for k in (0.0, 0.1):
            args = (dist_a, dist_d, [spec], [1], UtilityWeights(alpha=0.5),
                    k, 5, 8, False, _beta_grid(0.1))
            assert [_bits(o) for o in _evaluate_cell(*args, _Workspace())] \
                == [_bits(o) for o in reference_evaluate_cell(*args)]

    def test_a_score_file_with_negative_zeros(self, tmp_path):
        # A score file may hold -0.0, and a denied agent keeps it; the
        # simulations and the grid's walk must agree with the np.where
        # oracles bit for bit.
        rng = np.random.default_rng(30)
        for group, n in (("A", 40), ("D", 31)):
            cells = ["-0.0", "0.0", "1.0", "-0.0", "0.5"] + [
                repr(x) for x in rng.beta(4, 6, n).tolist()]
            (tmp_path / f"{group}.csv").write_text(
                "score\n" + "\n".join(cells) + "\n")
        dist_a = read_score_csv(tmp_path / "A.csv", group="A")
        dist_d = read_score_csv(tmp_path / "D.csv", group="D")
        assert np.signbit(dist_a.scores[:4]).tolist() == \
            [True, False, False, True]
        for beta, k, c in ((0.0, 0.1, 1.0), (0.3, 0.1, 2.0), (0.0, 0.0, 1.0),
                           (0.5, 0.25, 0.0)):
            for slot, dist in enumerate((dist_a, dist_d)):
                final = simulate_group(dist, beta, k, c, 12, 9, slot)
                want = reference_walk(dist.scores, beta, k, c, 12, 9, slot)
                assert final.tobytes() == want[-1].tobytes()
        for kind in KIND_ORDER:
            for k, c_hat in ((0.1, 2.0), (0.0, 1.0), (0.25, 0.0)):
                spec = InterventionSpec(kind=kind, r=0.5, baseline_c=c_hat)
                got = evaluate_policy(dist_a, dist_d, spec,
                                      UtilityWeights(alpha=0.4), k,
                                      horizon=9, n_seeds=8, seed=2,
                                      beta_step=0.05)
                [want] = reference_evaluate_cell(
                    dist_a, dist_d, [spec], [2], UtilityWeights(alpha=0.4), k,
                    9, 8, False, _beta_grid(0.05))
                assert _bits(got) == _bits(want)

    def test_one_workspace_across_shapes(self):
        # A workspace serves cells of any shape in any order: an array it
        # hands out again, larger or smaller, carries nothing over.
        specs = [InterventionSpec(kind=kind, r=0.6, baseline_c=2.0)
                 for kind in KIND_ORDER]
        workspace = _Workspace()
        for horizon, n, n_seeds, step in ((20, 60, 4, 0.05), (3, 7, 9, 0.5),
                                          (0, 5, 2, 0.1), (20, 60, 4, 0.05),
                                          (9, 80, 1, 0.02)):
            dist_a, dist_d = _pair(n, n, n + 5)
            args = (dist_a, dist_d, specs, [7, 8, 9], UtilityWeights(alpha=0.5),
                    0.1, horizon, n_seeds, True, _beta_grid(step))
            assert [_bits(o) for o in _evaluate_cell(*args, workspace)] == \
                [_bits(o) for o in reference_evaluate_cell(*args)]

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("n_seeds", [8, 10, 17])
    def test_replicate_means_sum_row_by_row(self, n_seeds, columns):
        # With 8 or more replicates a numpy mean over one column sums
        # pairwise, not row by row; the full sweep's replicate mean of a
        # C-ordered (replicates, thresholds) array sums row by row.  Two
        # columns check that each column is summed on its own.
        rng = np.random.default_rng([n_seeds, columns])
        means = rng.random((3, n_seeds, columns)) * \
            10.0 ** rng.integers(-8, 1, (3, n_seeds, columns))
        want = np.empty((3, columns))
        for spec in range(3):
            for col in range(columns):
                total = 0.0
                for rep in range(n_seeds):
                    total += means[spec, rep, col]
                want[spec, col] = total / n_seeds
        assert _replicate_means(means).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_seeds", [8, 10, 17])
    def test_sequential_replicate_means_at_few_survivors(self, monkeypatch,
                                                          n_seeds):
        # Each group's exact read-out holds the union of its three kinds'
        # survivors, a few columns; their replicate means must sum row by
        # row like the full sweep's (test_replicate_means_sum_row_by_row).
        widths = []
        real = interventions._exact_means

        def spy(walk, counts, js, workspace):
            widths.append(js.size)
            return real(walk, counts, js, workspace)

        monkeypatch.setattr(interventions, "_exact_means", spy)
        dist_a, dist_d = _pair(n_seeds, 200, 150)
        specs = [InterventionSpec(kind=kind, r=0.5, baseline_c=2.0)
                 for kind in KIND_ORDER]
        args = (dist_a, dist_d, specs, [21, 22, 23], UtilityWeights(alpha=0.3),
                0.1, 20, n_seeds, False, _beta_grid(0.01))
        got = _evaluate_cell(*args, _Workspace())
        assert [_bits(o) for o in got] == \
            [_bits(o) for o in reference_evaluate_cell(*args)]
        assert widths and 1 <= min(widths) and max(widths) <= 4

    def test_a_step_major_walk_reads_the_same(self):
        # The read-out and the curves of a step-major walk against the full
        # sweep; at horizons 0 and 1 every final is X[0] or X[1].
        rng = np.random.default_rng(17)
        for horizon in (0, 1, 13):
            betas, walk = _random_walk_case(rng, horizon, 60, 5, 50)
            js = rng.choice(betas.size, 6, replace=False)
            full = reference_sweep_tail(betas, walk)
            assert _read_out(betas, walk, js).tobytes() == \
                full[:, js].tobytes()
            assert np.abs(_curves_and_counts(walk, 50)[0] - full).max() \
                <= _curve_error(60, horizon, 51, 1)

    def test_exact_read_out_at_chosen_thresholds(self):
        # Any subset of thresholds, in any order, reads the same floats as
        # the full sweep's columns.
        rng = np.random.default_rng(8)
        betas, walk = _random_walk_case(rng, 15, 80, 6, 50)
        full = reference_sweep_tail(betas, walk)
        js = rng.choice(betas.size, 4, replace=False)
        got = _read_out(betas, walk, js)
        assert got.tobytes() == full[:, js].tobytes()

    def test_group_walk_equals_the_full_sweep(self):
        rng = np.random.default_rng(13)
        scores = rng.beta(4, 8, 70)
        blocks = rng.random((6, 11, 70))
        c_rows = [0.5, 1.0, 2.0, 2.0, 3.0, 0.0]
        betas = _beta_grid(0.02)
        walk = step_major_walk(scores, blocks)
        workspace = _Workspace()
        base = _walk(0.1, c_rows, walk,
                     optimal_threshold(0.1, 2.0).beta_hat, 2.0, workspace)
        approx, _ = _curves_and_counts(walk, 50, workspace)
        curves, want = reference_group_means(scores, 0.1, c_rows, 2.0, betas,
                                             blocks)
        assert base.tobytes() == want.tobytes()
        assert np.abs(approx - curves).max() <= _curve_error(70, 11, 51, 1)
