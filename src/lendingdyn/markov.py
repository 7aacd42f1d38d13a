"""Exact absorbing-chain analysis of a single agent's score walk.

A walk with rational steps from a rational start stays on the multiples of
1/den, den = lcm of the denominators of pi0, up and down: state x is the
score x/den.  Scores clamp to 1 or 0 and freeze below beta, all absorbing.
Transient x moves up with probability x/den, down with (den - x)/den.  With
S = [[I, 0], [A, B]] (absorbing states first), (I - B) X = A gives the
absorption probabilities and (I - B) t = 1 the expected steps.  Fractions
are exact views of the ints; floats appear only in the float blocks, built
once per chain, and in the linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# enumerate_states' limit: the float blocks are dense and the solve is O(n^3).
MAX_TRANSIENT_STATES = 4096

# Most transient states^2 x horizon multiply-adds of transient mass that
# analyze-markov accepts, a few seconds: 6.8 times the largest benchmark
# chain's, 765 states at horizon 10,000.
MAX_MASS_WORK = 4 * 10**10


class ChainError(ValueError):
    """Raised when a chain cannot be built or fails its sanity checks."""


def _exact(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be an exact rational (int, Fraction, or 'a/b' string); "
            f"floats like {value!r} are not accepted")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} is not a valid rational: {value!r}") from exc


@dataclass(frozen=True)
class RationalStep:
    """Exact move sizes: up = k per repayment, down = c*k per late payment."""

    up: Fraction
    down: Fraction

    def __post_init__(self):
        up = _exact(self.up, "up")
        down = _exact(self.down, "down")
        if up < 0 or down < 0:
            raise ValueError("step sizes must be nonnegative")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @classmethod
    def from_gain_penalty(cls, k, c) -> "RationalStep":
        k = _exact(k, "k")
        c = _exact(c, "c")
        return cls(up=k, down=c * k)


@dataclass(frozen=True)
class StateSpace:
    """States reachable from pi0, split by absorption; each is x/den, x an int."""

    pi0: Fraction
    step: RationalStep
    beta: Fraction
    den: int
    transient: tuple[Fraction, ...]
    absorbing: tuple[Fraction, ...]

    @property
    def states(self) -> tuple[Fraction, ...]:
        return self.absorbing + self.transient


def enumerate_states(pi0, step: RationalStep, beta) -> StateSpace:
    """Closure of {pi0} under the clamped walk, split transient/absorbing."""
    pi0 = _exact(pi0, "pi0")
    beta = _exact(beta, "beta")
    if not (0 <= pi0 <= 1):
        raise ValueError(f"pi0 must lie in [0, 1], got {pi0}")
    if not (0 <= beta <= 1):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if step.up == 0 or step.down == 0:
        raise ChainError(
            "zero step sizes create transient self-loops; the block structure "
            "requires up > 0 and down > 0")
    den = math.lcm(pi0.denominator, step.up.denominator, step.down.denominator)
    up, down = int(step.up * den), int(step.down * den)
    seen = {int(pi0 * den)}
    frontier, transient = list(seen), []
    while frontier:
        x = frontier.pop()
        # x/den < beta; 0 never repays and 1 never slips, whatever beta is
        if x * beta.denominator < beta.numerator * den or x == 0 or x == den:
            continue
        transient.append(x)
        if len(transient) > MAX_TRANSIENT_STATES:
            raise ChainError(f"more than {MAX_TRANSIENT_STATES} transient states "
                             f"from {pi0} on the 1/{den} lattice; use coarser steps")
        for nxt in (min(x + up, den), max(x - down, 0)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    views = (tuple(Fraction(x, den) for x in sorted(group))
             for group in (transient, seen - set(transient)))
    return StateSpace(pi0, step, beta, den, *views)


@dataclass(frozen=True)
class AbsorbingChain:
    """rows[r] holds transient state r's moves as (target, numerator) pairs:
    target is a position in `space.states`, the probability numerator/den."""

    space: StateSpace
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def _float_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        # int / int is correctly rounded, as float(Fraction) is, so these are
        # the floats of the exact blocks bit for bit; shared, so read-only.
        na, nt = len(self.space.absorbing), len(self.rows)
        B, A = np.zeros((nt, nt)), np.zeros((nt, na))
        for r, moves in enumerate(self.rows):
            for target, num in moves:
                block, j = (A, target) if target < na else (B, target - na)
                block[r, j] += num / self.space.den
        B.flags.writeable = A.flags.writeable = False
        return B, A

    def b_matrix(self) -> np.ndarray:
        return self._float_blocks[0]

    def a_matrix(self) -> np.ndarray:
        return self._float_blocks[1]


def build_chain(space: StateSpace) -> AbsorbingChain:
    """Fill the transition rows: up with probability x, down with 1 - x."""
    den = space.den
    lattice = [s.numerator * (den // s.denominator) for s in space.states]
    col = {x: j for j, x in enumerate(lattice)}
    up, down = int(space.step.up * den), int(space.step.down * den)
    rows = []
    for x in lattice[len(space.absorbing):]:
        moves = ((col[min(x + up, den)], x), (col[max(x - down, 0)], den - x))
        if any(target == col[x] for target, _ in moves):
            raise ChainError(f"transient state {Fraction(x, den)} self-loops")
        if sum(num for _, num in moves) != den:
            raise ChainError(f"row for state {Fraction(x, den)} is not stochastic")
        rows.append(moves)
    return AbsorbingChain(space=space, rows=tuple(rows))


def _every_state_absorbs(chain: AbsorbingChain) -> None:
    # I - B is singular exactly when a transient state cannot reach an
    # absorbing one by moves of positive probability.  Rows ascend and
    # down-moves go lower, so on a lattice the first pass marks them all.
    na = len(chain.space.absorbing)
    absorbs, size = set(range(na)), -1
    while size < len(absorbs):
        size = len(absorbs)
        absorbs.update(na + r for r, moves in enumerate(chain.rows)
                       if any(num and t in absorbs for t, num in moves))
    for j, x in enumerate(chain.space.states):
        if j not in absorbs:
            raise ChainError(f"transient state {x} never reaches an absorbing state")


@dataclass(frozen=True)
class AbsorptionResult:
    start: Fraction
    absorbing_states: tuple[Fraction, ...]
    probabilities: tuple[float, ...]
    expected_steps: float

    def probability_of(self, state) -> float:
        """The probability of absorbing at one state, read by its value.

        No command calls it: the CLI writes the whole tuple.  It stays as
        public API because criterion 3 reads the probabilities by state.
        """
        state = _exact(state, "state")
        try:
            return self.probabilities[self.absorbing_states.index(state)]
        except ValueError:
            raise KeyError(f"{state} is not an absorbing state") from None


def absorption_probabilities(chain: AbsorbingChain, start) -> AbsorptionResult:
    """Absorption distribution and expected steps from a known state."""
    start = _exact(start, "start")
    space = chain.space
    if start in space.absorbing:
        probs = tuple(1.0 if s == start else 0.0 for s in space.absorbing)
        return AbsorptionResult(start, space.absorbing, probs, 0.0)
    if start not in space.transient:
        raise ValueError(f"{start} is not a state of this chain")
    B, A = chain.b_matrix(), chain.a_matrix()
    _every_state_absorbs(chain)
    M = np.eye(B.shape[0]) - B
    X = np.linalg.solve(M, A)
    steps = np.linalg.solve(M, np.ones(B.shape[0]))
    i = space.transient.index(start)
    probs = X[i]
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ChainError(f"absorption probabilities sum to {total}, not 1")
    return AbsorptionResult(start, space.absorbing,
                            tuple(float(p) for p in probs),
                            float(steps[i]))


def transient_mass(chain: AbsorbingChain, start, steps: int) -> float:
    """P(still transient after `steps`) = row of B^steps summed."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    start = _exact(start, "start")
    if start in chain.space.absorbing:
        return 0.0
    i = chain.space.transient.index(start)
    B = chain.b_matrix()
    v = np.ones(B.shape[0])
    for _ in range(steps):
        # Dense on purpose: BLAS dgemv fuses multiply-adds, so a two-move
        # sparse product rounds differently.  B @ 0 == 0, so stop at zero.
        v = B @ v
        if not v.any():
            break
    return float(v[i])
