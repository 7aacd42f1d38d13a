"""Exact absorbing-chain analysis of a single agent's score walk.

A walk with rational steps from a rational start stays on the multiples of
1/den, den = lcm of the denominators of pi0, up and down: state x is the
score x/den.  Scores clamp to 1 or 0 and freeze below beta, all absorbing.
Transient x moves up with probability x/den, down with (den - x)/den.  With
S = [[I, 0], [A, B]] (absorbing states first), (I - B) X = A gives the
absorption probabilities and (I - B) t = 1 the expected steps.  Fractions
are exact views of the ints; floats appear only in A, I - B and B, each
built from the int rows when it is needed, and in the linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

# enumerate_states' limit: the solve is O(n^3) and holds two dense n x n
# arrays, I - B and LAPACK's LU copy of it, about 268 MB at 4,096 states.
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
    def _a(self) -> np.ndarray:
        A = _float_block(self, 0, len(self.space.absorbing))
        A.flags.writeable = False
        return A

    @cached_property
    def _b(self) -> np.ndarray:
        B = _float_block(self, len(self.space.absorbing), len(self.rows))
        B.flags.writeable = False
        return B

    def b_matrix(self) -> np.ndarray:
        """B, shared and read-only, built on first use: n x n doubles,
        134 MB at the 4,096-state cap.  Only the transient mass and
        acceptance criterion 3 read it.  The solve never does, so its two
        n x n arrays are freed before the mass builds this third one."""
        return self._b

    def a_matrix(self) -> np.ndarray:
        """A, shared and read-only: n x (absorbing states) doubles."""
        return self._a


def _float_block(chain: AbsorbingChain, first: int, width: int,
                 sign: float = 1.0) -> np.ndarray:
    # sign times the rows' probabilities into states[first:first + width].
    # int / int is correctly rounded, as float(Fraction) is, and negation is
    # exact, so these are the floats of the exact blocks bit for bit.
    out = np.zeros((len(chain.rows), width))
    for r, moves in enumerate(chain.rows):
        for target, num in moves:
            if first <= target < first + width:
                out[r, target - first] += sign * (num / chain.space.den)
    return out


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


def _transient_row(chain: AbsorbingChain, start: Fraction) -> int | None:
    """start's row of B, or None when start absorbs."""
    space = chain.space
    if start in space.absorbing:
        return None
    if start not in space.transient:
        raise ValueError(f"{start} is not a state of this chain")
    return space.transient.index(start)


def absorption_probabilities(chain: AbsorbingChain, start) -> AbsorptionResult:
    """Absorption distribution and expected steps from a known state.

    Holds two n x n arrays at its peak, I - B and the LU copy that
    np.linalg.solve makes of it, about 268 MB at the 4,096-state cap, and
    never builds B.
    """
    start = _exact(start, "start")
    space = chain.space
    i = _transient_row(chain, start)
    if i is None:
        probs = tuple(1.0 if s == start else 0.0 for s in space.absorbing)
        return AbsorptionResult(start, space.absorbing, probs, 0.0)
    A = chain.a_matrix()
    _every_state_absorbs(chain)
    # I - B from the rows, bit for bit np.eye(n) - B without building B:
    # 0.0 - x == 0.0 + -x and 1.0 - x == -x + 1.0.
    nt = len(chain.rows)
    M = _float_block(chain, len(space.absorbing), nt, -1.0)
    M.flat[::nt + 1] += 1.0
    # Two solves, not one over stacked right-hand sides, which rounds
    # differently.
    X = np.linalg.solve(M, A)
    steps = np.linalg.solve(M, np.ones(nt))
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
    i = _transient_row(chain, _exact(start, "start"))
    if i is None:
        return 0.0
    B = chain.b_matrix()
    v, w = np.ones(B.shape[0]), np.empty(B.shape[0])
    for t in range(steps):
        # Dense on purpose: BLAS dgemv fuses multiply-adds, so a two-move
        # sparse product rounds differently.  B @ 0 == 0, so once v is all
        # zero the mass is final; looking every 64 steps stops at most 63
        # products late with the same value.
        np.matmul(B, v, out=w)
        v, w = w, v
        if t % 64 == 63 and not v.any():
            break
    return float(v[i])
