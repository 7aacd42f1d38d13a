"""Closed-form optimal threshold against the grid-search oracle."""

import numpy as np
import pytest

from lendingdyn import (BetaSpec, DynamicsParams, ScoreDistribution,
                        ThresholdPolicy, expected_next_score,
                        grid_search_threshold, optimal_threshold,
                        sample_beta, step_mean)

from oracles import reference_grid_search


class TestGainFunction:
    """The gain function g(x) = expected_next_score(x, k, c)."""

    def test_worked_values(self):
        def g(x):
            return expected_next_score(x, k=0.1, c=1.0)
        assert g(0.5) == pytest.approx(0.5, abs=1e-15)
        assert g(0.8) == pytest.approx(0.86, abs=1e-15)
        # the up-move clamps at 1: 0.99 * 1.0 + 0.01 * 0.89
        assert g(0.99) == pytest.approx(0.9989, abs=1e-15)

    def test_fixed_points_at_ends(self):
        assert expected_next_score(0.0, k=0.2, c=2.0) == 0.0
        assert expected_next_score(1.0, k=0.2, c=2.0) == 1.0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0, 1, 101)
        vec = expected_next_score(xs, k=0.1, c=3.0)
        assert np.allclose(vec, [expected_next_score(float(x), k=0.1, c=3.0)
                                 for x in xs], atol=1e-15)


class TestOptimalThreshold:
    @pytest.mark.parametrize("c,expected", [
        (0.0, 0.0), (0.5, 1.0 / 3.0), (1.0, 0.5), (2.0, 2.0 / 3.0), (4.0, 0.8),
    ])
    def test_small_gain_regime(self, c, expected):
        result = optimal_threshold(0.1, c)
        assert result.crossing_point == pytest.approx(expected, abs=1e-15)
        assert result.beta_hat == pytest.approx(expected, abs=1e-15)

    def test_worked_example(self):
        result = optimal_threshold(0.1, 3.0)
        assert result.beta_hat == pytest.approx(0.75, abs=1e-15)

    def test_zero_gain_approves_only_certain_payers(self):
        result = optimal_threshold(0.0, 1.0)
        assert result.beta_hat == 1.0
        assert result.crossing_point is None

    def test_ruinous_penalty_approves_only_certain_payers(self):
        result = optimal_threshold(0.5, 2.0)   # c * k = 1
        assert result.beta_hat == 1.0
        assert result.crossing_point is None
        assert optimal_threshold(0.4, 3.0).beta_hat == 1.0

    def test_overlap_regime_crossing_is_ck(self):
        # k (1 + c) > 1 while c k < 1: both clamps are active somewhere
        result = optimal_threshold(0.8, 1.0)
        assert result.crossing_point == pytest.approx(0.8, abs=1e-15)
        assert result.beta_hat == pytest.approx(0.8, abs=1e-15)

    # DynamicsParams refuses the same values in the same words.
    @pytest.mark.parametrize("k, c, name", [
        (-0.1, 1.0, "k"), (np.nan, 1.0, "k"), (np.inf, 1.0, "k"),
        (0.1, -1.0, "c"), (0.1, np.nan, "c"), (0.1, np.inf, "c"),
        (-np.inf, np.nan, "k"),
    ])
    def test_bad_k_or_c_rejected(self, k, c, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative"):
            optimal_threshold(k, c)


def lattice_population(n: int = 1001) -> ScoreDistribution:
    return ScoreDistribution("A", np.linspace(0.0, 1.0, n))


class TestGridSearch:
    def test_ties_break_toward_largest_beta(self):
        # everyone sits below 0.2 and has negative drift when approved,
        # so every deny-all threshold ties at the current mean
        dist = ScoreDistribution("A", np.array([0.05, 0.1, 0.15]))
        params = DynamicsParams.uniform(0.1, 3.0, ("A",))
        assert grid_search_threshold(dist, params, resolution=0.01) == 1.0

    def test_matches_analytic_on_lattice(self):
        dist = lattice_population()
        for c in (0.0, 0.5, 1.0, 2.0, 4.0):
            params = DynamicsParams.uniform(0.1, c, ("A",))
            got = grid_search_threshold(dist, params, resolution=1e-3)
            want = optimal_threshold(0.1, c).beta_hat
            assert abs(got - want) <= 1e-3 + 1e-12, c

    def test_resolution_validated(self):
        dist = lattice_population(11)
        params = DynamicsParams.uniform(0.1, 1.0, ("A",))
        with pytest.raises(ValueError):
            grid_search_threshold(dist, params, resolution=0.0)
        with pytest.raises(ValueError):
            grid_search_threshold(dist, params, resolution=0.05)

    def test_agreement_is_distribution_free(self):
        # the maximizer depends only on (k, c), not on the score population:
        # 50 seeded Beta populations, interior crossings, one grid step
        rng = np.random.default_rng(20260817)
        for _ in range(50):
            a, b = rng.uniform(2, 6), rng.uniform(2, 6)
            k, c = rng.uniform(0.05, 0.15), rng.uniform(0.4, 2.5)
            dist = sample_beta(BetaSpec(a=a, b=b, n=20000,
                                        seed=int(rng.integers(2**31))),
                               group="A")
            params = DynamicsParams.uniform(k, c, ("A",))
            beta_hat = optimal_threshold(k, c).beta_hat
            assert 0.25 <= beta_hat <= 0.75
            grid_beta = grid_search_threshold(dist, params, resolution=0.01)
            assert abs(grid_beta - beta_hat) <= 0.01 + 1e-12, (a, b, k, c)

            policy_hat = ThresholdPolicy.uniform(beta_hat, ("A",))
            policy_grid = ThresholdPolicy.uniform(grid_beta, ("A",))
            v_hat = step_mean(dist, policy_hat, params)
            v_grid = step_mean(dist, policy_grid, params)
            assert abs(v_grid - v_hat) <= 1e-4, (a, b, k, c)

    def test_grid_value_beats_every_other_grid_point(self):
        dist = sample_beta(BetaSpec(a=3, b=5, n=5000, seed=9), group="A")
        params = DynamicsParams.uniform(0.1, 1.5, ("A",))
        best = grid_search_threshold(dist, params, resolution=0.01)
        best_value = step_mean(dist, ThresholdPolicy.uniform(best, ("A",)),
                               params)
        for beta in np.linspace(0, 1, 101):
            value = step_mean(dist, ThresholdPolicy.uniform(float(beta), ("A",)),
                              params)
            assert value <= best_value + 1e-12


def _score_lists(st):
    """Score lists of 1 to 40 entries, some repeated: lattice points i / q,
    which can sit exactly on a threshold, or any floats in [0, 1] and -0.0."""
    lattice = st.sampled_from([4, 10, 20, 100, 1000]).flatmap(
        lambda q: st.integers(0, q).map(lambda i: i / q))
    unit = st.one_of(st.floats(0.0, 1.0), st.just(-0.0))
    return st.one_of(st.lists(lattice, min_size=1, max_size=40),
                     st.lists(unit, min_size=1, max_size=40)).flatmap(
        lambda xs: st.integers(0, len(xs)).map(lambda m: xs + xs[:m]))


class TestBoundedSweep:
    """grid_search_threshold picks what the per-threshold loop picks (the
    oracle), bit for bit, though it reads exact means at a few thresholds."""

    def test_property_against_the_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            scores=_score_lists(st),
            # a gain of 1e-14 moves a mean by ulps, where the approximate
            # and exact orders of two thresholds can differ
            k=st.one_of(st.just(0.0),
                        st.sampled_from([1e-14, 1e-12, 0.05, 0.1, 0.3]),
                        st.floats(0.0, 1.0)),
            c=st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 3.0]),
                        st.floats(0.0, 4.0)),
            resolution=st.sampled_from([0.01, 0.005, 0.003, 0.002, 0.001]))
        @hypothesis.example(scores=[0.5], k=0.1, c=1.0, resolution=0.003)
        @hypothesis.example(scores=[-0.0, 0.0, 0.35, 0.35, 1.0], k=0.0,
                            c=0.0, resolution=0.01)
        @hypothesis.example(scores=[i / 20 for i in range(21)], k=0.1,
                            c=0.0, resolution=0.003)
        # the last best approximate mean is at 0.51, the best exact one at
        # 0.68
        @hypothesis.example(scores=[0.511, 0.687], k=1e-14, c=1.0,
                            resolution=0.01)
        def check(scores, k, c, resolution):
            dist = ScoreDistribution("A", np.array(scores))
            params = DynamicsParams.uniform(k, c, ("A",))
            assert grid_search_threshold(dist, params, resolution) \
                == reference_grid_search(dist, params, resolution)

        check()

    # Two large sweeps under the cap: 1,001 betas over 87,487 scores, and
    # 50,001 betas over 1,000.
    @pytest.mark.parametrize("n, resolution", [(87_487, 1e-3), (1000, 2e-5)])
    def test_the_loops_slow_corners(self, n, resolution):
        dist = sample_beta(BetaSpec(a=4, b=8, n=n, seed=0), group="A")
        params = DynamicsParams.uniform(0.1, 2.0, ("A",))
        assert grid_search_threshold(dist, params, resolution) \
            == reference_grid_search(dist, params, resolution)
