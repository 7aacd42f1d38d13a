"""Exact absorbing-chain analysis against independent oracles."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lendingdyn import (AbsorbingChain, ChainError, RationalStep, StateSpace,
                        absorption_probabilities, build_chain,
                        enumerate_states, transient_mass)
from lendingdyn import markov

from oracles import (absorbing_block, dense_absorption, dense_mass,
                     exact_absorption, mc_absorption, reference_chain,
                     transient_block)

F = Fraction


def worked_chain():
    step = RationalStep.from_gain_penalty(F(1, 10), F(1))
    space = enumerate_states(F(1, 2), step, F(7, 20))
    return build_chain(space)


class TestWorkedExample:
    def test_state_space(self):
        chain = worked_chain()
        assert chain.space.transient == (F(2, 5), F(1, 2), F(3, 5), F(7, 10),
                                         F(4, 5), F(9, 10))
        assert chain.space.absorbing == (F(3, 10), F(1))

    def test_frozen_absorption_values(self):
        chain = worked_chain()
        result = absorption_probabilities(chain, F(1, 2))
        assert result.probability_of(F(3, 10)) == pytest.approx(128 / 233,
                                                                abs=1e-12)
        assert result.probability_of(F(1)) == pytest.approx(105 / 233,
                                                            abs=1e-12)
        assert result.expected_steps == pytest.approx(1365 / 233, abs=1e-12)

    @pytest.mark.parametrize("start,p_down,p_up,steps", [
        (F(2, 5), F(191, 233), F(42, 233), F(779, 233)),
        (F(3, 5), F(65, 233), F(168, 233), F(1485, 233)),
        (F(7, 10), F(23, 233), F(210, 233), F(3530, 699)),
        (F(4, 5), F(5, 233), F(228, 233), F(2135, 699)),
        (F(9, 10), F(1, 466), F(465, 466), F(1825, 1398)),
    ])
    def test_frozen_per_state_table(self, start, p_down, p_up, steps):
        chain = worked_chain()
        result = absorption_probabilities(chain, start)
        assert result.probability_of(F(3, 10)) == pytest.approx(float(p_down),
                                                                abs=1e-12)
        assert result.probability_of(F(1)) == pytest.approx(float(p_up),
                                                            abs=1e-12)
        assert result.expected_steps == pytest.approx(float(steps), abs=1e-12)

    def test_matches_exact_elimination(self):
        chain = worked_chain()
        solved = exact_absorption(chain)
        for start in chain.space.transient:
            got = absorption_probabilities(chain, start)
            probs, steps = solved[start]
            for s, p in probs.items():
                assert got.probability_of(s) == pytest.approx(float(p),
                                                              abs=1e-12)
            assert got.expected_steps == pytest.approx(float(steps), abs=1e-12)

    def test_matches_monte_carlo(self):
        chain = worked_chain()
        n = 100_000
        probs, steps_mean, steps_std, _ = mc_absorption(
            F(1, 2), RationalStep.from_gain_penalty(F(1, 10), F(1)),
            F(7, 20), n, seed=4)
        result = absorption_probabilities(chain, F(1, 2))
        for s in chain.space.absorbing:
            p = result.probability_of(s)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(probs.get(s, 0.0) - p) <= 3 * se
        assert abs(steps_mean - result.expected_steps) <= 3 * steps_std / math.sqrt(n)

    def test_transient_mass_decays(self):
        chain = worked_chain()
        masses = [transient_mass(chain, F(1, 2), n) for n in (1, 5, 10, 50, 100)]
        assert all(m2 < m1 for m1, m2 in zip(masses, masses[1:]))
        assert masses[-1] < 1e-12

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            transient_mass(worked_chain(), F(1, 2), -1)

    def test_transient_mass_stops_once_it_underflows(self):
        # the mass reaches exactly 0.0 after a few thousand steps, and every
        # later step keeps it there, so a huge horizon costs nothing more
        chain = worked_chain()
        t0 = time.perf_counter()
        assert transient_mass(chain, F(1, 2), 10**9) == 0.0
        assert time.perf_counter() - t0 < 1.0

    def test_transient_mass_matches_walks(self):
        chain = worked_chain()
        n = 100_000
        checkpoints = (1, 5, 10, 50)
        _, _, _, alive = mc_absorption(
            F(1, 2), RationalStep.from_gain_penalty(F(1, 10), F(1)),
            F(7, 20), n, seed=6, record_at=checkpoints)
        for t in checkpoints:
            m = transient_mass(chain, F(1, 2), t)
            se = math.sqrt(max(m * (1 - m), 1e-12) / n)
            assert abs(alive[t] - m) <= 4 * se, t


class TestChainStructure:
    def test_rows_exactly_stochastic_and_zero_diagonal(self):
        chain = worked_chain()
        nt = len(chain.space.transient)
        B, A = transient_block(chain), absorbing_block(chain)
        for i in range(nt):
            assert sum(B[i]) + sum(A[i]) == F(1)
            assert B[i][i] == F(0)

    def test_a_transient_one_self_loops(self):
        # enumerate_states never lists 1 as transient; a hand-built space
        # that does reaches build_chain's self-loop check.
        space = StateSpace(F(1), RationalStep(up=F(1, 10), down=F(1, 10)),
                           F(0), 10, transient=(F(1),),
                           absorbing=(F(9, 10),))
        with pytest.raises(ChainError,
                           match="^transient state 1 self-loops$"):
            build_chain(space)

    def test_state_count_within_lattice_bound(self):
        random.seed(17)
        for _ in range(20):
            pi0 = F(random.randint(1, 9), 10)
            step = RationalStep(up=F(1, random.randint(4, 9)),
                                down=F(1, random.randint(4, 9)))
            beta = F(random.randint(1, 5), 10)
            space = enumerate_states(pi0, step, beta)
            bound = math.lcm(pi0.denominator, step.up.denominator,
                             step.down.denominator)
            assert len(space.states) <= bound + 1

    def test_zero_steps_rejected(self):
        with pytest.raises(ChainError):
            enumerate_states(F(1, 2), RationalStep(up=F(0), down=F(1, 10)),
                             F(1, 4))
        with pytest.raises(ChainError):
            enumerate_states(F(1, 2), RationalStep(up=F(1, 10), down=F(0)),
                             F(1, 4))

    def test_floats_rejected_loudly(self):
        with pytest.raises(TypeError):
            RationalStep(up=0.1, down=F(1, 10))
        with pytest.raises(TypeError):
            enumerate_states(0.5, RationalStep(up=F(1, 10), down=F(1, 10)),
                             F(1, 4))

    def test_float_blocks_are_shared_and_read_only(self):
        chain = worked_chain()
        assert chain.b_matrix() is chain.b_matrix()
        assert chain.b_matrix().flags.c_contiguous
        assert chain.a_matrix().flags.c_contiguous
        with pytest.raises(ValueError):
            chain.b_matrix()[0, 1] = 0.5

    @staticmethod
    def hand_built(rows):
        # states (0, 1/4, 1/2) on the 1/4 lattice; 0 is the only sink
        space = StateSpace(pi0=F(1, 4), step=RationalStep(up=F(1, 4), down=F(1, 4)),
                           beta=F(0), den=4, transient=(F(1, 4), F(1, 2)),
                           absorbing=(F(0),))
        return AbsorbingChain(space, rows=rows)

    def test_transient_cycle_that_never_absorbs_is_rejected(self):
        # 1/4 and 1/2 swap with certainty; their moves to 0 have numerator 0
        chain = self.hand_built((((2, 4), (0, 0)), ((1, 4), (0, 0))))
        with pytest.raises(ChainError, match="never reaches an absorbing state"):
            absorption_probabilities(chain, F(1, 4))

    def test_cycle_with_one_exit_absorbs(self):
        chain = self.hand_built((((2, 4), (0, 0)), ((1, 3), (0, 1))))
        # t(1/4) = 1 + t(1/2) and t(1/2) = 1 + 3/4 t(1/4), so t(1/4) = 8
        result = absorption_probabilities(chain, F(1, 4))
        assert result.probability_of(F(0)) == pytest.approx(1.0, abs=1e-12)
        assert result.expected_steps == pytest.approx(8.0, abs=1e-12)

    def test_string_rationals_accepted(self):
        step = RationalStep(up="1/10", down="1/10")
        space = enumerate_states("1/2", step, "7/20")
        assert space.absorbing == (F(3, 10), F(1))


class TestStateCap:
    def test_fine_lattice_is_refused_with_the_count(self):
        with pytest.raises(ChainError, match="more than 4096 transient states"):
            enumerate_states(F(1, 2), RationalStep(up=F(1, 197), down=F(1, 199)),
                             F(1, 3))

    def test_cap_is_inclusive(self, monkeypatch):
        step = RationalStep.from_gain_penalty(F(1, 10), F(1))
        monkeypatch.setattr(markov, "MAX_TRANSIENT_STATES", 6)
        assert len(enumerate_states(F(1, 2), step, F(7, 20)).transient) == 6
        monkeypatch.setattr(markov, "MAX_TRANSIENT_STATES", 5)
        with pytest.raises(ChainError, match="more than 5 transient states"):
            enumerate_states(F(1, 2), step, F(7, 20))


class TestEdgeCases:
    def test_start_below_threshold_is_already_absorbed(self):
        step = RationalStep(up=F(1, 10), down=F(1, 10))
        space = enumerate_states(F(1, 4), step, F(1, 2))
        chain = build_chain(space)
        assert space.transient == ()
        result = absorption_probabilities(chain, F(1, 4))
        assert result.probability_of(F(1, 4)) == 1.0
        assert result.expected_steps == 0.0

    def test_start_at_one_is_absorbed(self):
        step = RationalStep(up=F(1, 10), down=F(1, 10))
        space = enumerate_states(F(1), step, F(1, 2))
        chain = build_chain(space)
        result = absorption_probabilities(chain, F(1))
        assert result.probability_of(F(1)) == 1.0

    def test_zero_threshold_still_has_two_sinks(self):
        # x = 0 pays with probability zero, so it absorbs even at beta = 0
        step = RationalStep(up=F(1, 2), down=F(1, 2))
        space = enumerate_states(F(1, 2), step, F(0))
        chain = build_chain(space)
        assert set(space.absorbing) == {F(0), F(1)}
        result = absorption_probabilities(chain, F(1, 2))
        assert result.probability_of(F(0)) == pytest.approx(0.5, abs=1e-15)
        assert result.probability_of(F(1)) == pytest.approx(0.5, abs=1e-15)
        assert result.expected_steps == pytest.approx(1.0, abs=1e-15)

    def test_unknown_start_rejected(self):
        chain = worked_chain()
        with pytest.raises(ValueError, match="not a state"):
            absorption_probabilities(chain, F(1, 3))

    def test_unknown_start_has_no_mass(self):
        step = RationalStep(up=F(1, 4), down=F(1, 4))
        chain = build_chain(enumerate_states(F(1, 2), step, F(1, 4)))
        with pytest.raises(ValueError, match="^1/3 is not a state of this chain$"):
            transient_mass(chain, F(1, 3), 5)

    def test_asymmetric_steps(self):
        step = RationalStep.from_gain_penalty(F(1, 10), F(3))
        assert step.up == F(1, 10)
        assert step.down == F(3, 10)


def assert_matches_reference(pi0, step, beta):
    """Lattice chain against the all-Fraction build, block by block."""
    chain = build_chain(enumerate_states(pi0, step, beta))
    trans, sinks, B, A = reference_chain(F(pi0), step, F(beta))
    assert chain.space.transient == trans
    assert chain.space.absorbing == sinks
    assert transient_block(chain) == B
    assert absorbing_block(chain) == A
    for got, exact, width in ((chain.b_matrix(), B, len(trans)),
                              (chain.a_matrix(), A, len(sinks))):
        want = np.array([[float(p) for p in row] for row in exact],
                        dtype=float).reshape(len(trans), width)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    assert_solves_like_dense(chain, chain.space.transient)


def assert_solves_like_dense(chain, starts):
    """absorption_probabilities against np.eye(n) - B, bit for bit."""
    if not starts:
        return
    X, steps = dense_absorption(chain)
    for start in starts:
        i = chain.space.transient.index(start)
        got = absorption_probabilities(chain, start)
        assert np.array(got.probabilities).tobytes() == X[i].tobytes(), start
        assert np.float64(got.expected_steps).tobytes() == steps[i].tobytes()


class TestReferenceChain:
    def test_worked_chain(self):
        assert_matches_reference(F(1, 2), RationalStep.from_gain_penalty(
            F(1, 10), F(1)), F(7, 20))

    def test_random_chains(self):
        for pi0, up, down, beta in TestRandomChains().cases():
            assert_matches_reference(pi0, RationalStep(up=up, down=down), beta)

    def test_edge_lattices(self):
        for pi0, up, down, beta in ((F(1, 4), F(1, 10), F(1, 10), F(1, 2)),
                                    (F(1), F(1, 10), F(1, 10), F(1, 2)),
                                    (F(1, 2), F(1, 2), F(1, 2), F(0)),
                                    (F(0), F(1, 3), F(1, 5), F(0)),
                                    (F(2, 3), F(5, 3), F(7, 2), F(1))):
            assert_matches_reference(pi0, RationalStep(up=up, down=down), beta)

    def test_property_over_small_lattices(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        unit = st.fractions(min_value=0, max_value=1, max_denominator=12)
        steps = st.fractions(min_value=F(1, 6), max_value=F(3, 2),
                             max_denominator=6)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(pi0=st.fractions(min_value=0, max_value=1,
                                           max_denominator=6),
                          up=steps, down=steps, beta=unit)
        def check(pi0, up, down, beta):
            assert_matches_reference(pi0, RationalStep(up=up, down=down), beta)

        check()


def benchmark_chain(up, down):
    """One of the benchmark's chains: pi0 1/2 and beta 1/3."""
    step = RationalStep(up=F(up), down=F(down))
    return build_chain(enumerate_states(F(1, 2), step, F(1, 3)))


class TestTwoDenseArrays:
    """The solve builds I - B from the rows and never B; the mass builds B."""

    @pytest.mark.parametrize("up, down, n", [("1/13", "1/11", 95),
                                             ("1/23", "1/19", 291),
                                             ("1/37", "1/31", 765)])
    def test_benchmark_lattices_solve_bit_for_bit(self, up, down, n):
        chain = benchmark_chain(up, down)
        trans = chain.space.transient
        assert len(trans) == n
        assert_solves_like_dense(chain, (trans[0], F(1, 2), trans[-1]))

    def test_solve_holds_one_traced_square(self):
        # numpy mallocs the LU copy itself, so tracemalloc sees I - B alone;
        # building B as well, or np.eye(n) beside I - B, doubles the peak
        chain = benchmark_chain("1/37", "1/31")
        n = len(chain.rows)
        tracemalloc.start()
        try:
            absorption_probabilities(chain, F(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_solve_never_builds_b(self, monkeypatch):
        def refuse(self):
            raise AssertionError("b_matrix built")
        monkeypatch.setattr(AbsorbingChain, "b_matrix", refuse)
        result = absorption_probabilities(worked_chain(), F(1, 2))
        assert result.expected_steps == pytest.approx(1365 / 233, abs=1e-12)

    def test_mass_matches_the_dense_loop_bit_for_bit(self):
        # Every entry of the mass vector reaches 0.0 at step 3,476, and
        # 147/286 keeps a subnormal mass to step 3,475.  The zero test runs
        # every 64 steps, so the loop stops at step 3,520, not 3,476.
        chain = benchmark_chain("1/13", "1/11")
        short = (0, 1, 63, 64, 65)
        for start, horizons in ((F(1, 2), short),
                                (F(147, 286), short + tuple(range(3470, 3541)))):
            for h in horizons:
                got = transient_mass(chain, start, h)
                want = dense_mass(chain, start, h)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
                    (start, h)
        assert transient_mass(chain, F(147, 286), 3475) > 0.0


class TestRandomChains:
    def cases(self):
        random.seed(99)
        cases = []
        while len(cases) < 6:
            pi0 = F(random.randint(2, 11), 12)
            up = F(1, random.choice((4, 5, 6, 8)))
            down = F(random.choice((1, 1, 3)), random.choice((4, 5, 6, 8, 10)))
            beta = F(random.randint(1, 7), 12)
            if pi0 < beta or pi0 == 1:
                continue
            space = enumerate_states(pi0, RationalStep(up=up, down=down), beta)
            if len(space.transient) < 2:
                continue
            cases.append((pi0, up, down, beta))
        return cases

    def test_solver_matches_exact_elimination(self):
        for pi0, up, down, beta in self.cases():
            space = enumerate_states(pi0, RationalStep(up=up, down=down), beta)
            chain = build_chain(space)
            solved = exact_absorption(chain)
            for start in space.transient:
                got = absorption_probabilities(chain, start)
                probs, steps = solved[start]
                for s, p in probs.items():
                    assert got.probability_of(s) == pytest.approx(
                        float(p), abs=1e-12), (pi0, up, down, beta)
                assert got.expected_steps == pytest.approx(float(steps),
                                                           abs=1e-12)
                assert sum(got.probabilities) == pytest.approx(1.0, abs=1e-10)
