"""Independent slow-path oracles shared by the module and acceptance tests."""

import csv
import math
from fractions import Fraction as F

import numpy as np

from lendingdyn import (DynamicsParams, PolicyOutcome, RationalStep,
                        ScoreDistribution, apply_intervention,
                        optimal_threshold, utility)
from lendingdyn._random import step_uniforms, uniform_blocks
from lendingdyn.interventions import _replicate_seeds, _utility_values
from lendingdyn.risk import (APPLICATION_COLUMNS, TRAINING_COLUMNS, LoadResult,
                             LoanRecord, RowReject)


def exact_absorption(chain):
    """Independent oracle: Gauss-Jordan over Fractions on (I - B) X = A.

    One elimination reduces the system to the identity, so row i then holds
    the answer for transient state i.  Returns {start: (probs, steps)} for
    every transient start.
    """
    space = chain.space
    trans = list(space.transient)
    nt, na = len(trans), len(space.absorbing)
    # augmented system rows: [I - B | A | 1] solved for X and expected steps
    rows = []
    for i in range(nt):
        row = [(F(1) if i == j else F(0)) - chain.transient_block[i][j]
               for j in range(nt)]
        row += list(chain.absorbing_block[i]) + [F(1)]
        rows.append(row)
    for col in range(nt):
        piv = next(r for r in range(col, nt) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = F(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(nt):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return {start: ({s: rows[i][nt + j] for j, s in enumerate(space.absorbing)},
                    rows[i][nt + na])
            for i, start in enumerate(trans)}


def reference_chain(pi0: F, step: RationalStep, beta: F):
    """The chain built over Fractions alone: state sets, then dense blocks.

    Returns (transient, absorbing, B, A): both state tuples ascending, B and
    A as tuples of Fraction rows over them.  Clamped scores 0 and 1 absorb
    whatever beta is, since 0 never repays and 1 never slips.
    """
    def absorbing(x):
        return x < beta or x == 0 or x == 1

    def moves(x):
        return ((min(x + step.up, F(1)), x), (max(x - step.down, F(0)), 1 - x))

    seen, frontier = {pi0}, [pi0]
    while frontier:
        x = frontier.pop()
        if not absorbing(x):
            for nxt, _ in moves(x):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    trans = tuple(sorted(x for x in seen if not absorbing(x)))
    sinks = tuple(sorted(x for x in seen if absorbing(x)))
    t_index = {s: i for i, s in enumerate(trans)}
    a_index = {s: i for i, s in enumerate(sinks)}
    B = [[F(0)] * len(trans) for _ in trans]
    A = [[F(0)] * len(sinks) for _ in trans]
    for i, x in enumerate(trans):
        for target, prob in moves(x):
            if target in t_index:
                B[i][t_index[target]] += prob
            else:
                A[i][a_index[target]] += prob
    return trans, sinks, tuple(map(tuple, B)), tuple(map(tuple, A))


def mc_absorption(pi0: F, step: RationalStep, beta: F,
                  n_walks: int, seed: int, record_at=()):
    """Vectorized integer-lattice walk; exact comparisons, no float drift."""
    den = math.lcm(pi0.denominator, step.up.denominator,
                   step.down.denominator)
    up = int(step.up * den)
    down = int(step.down * den)
    beta_scaled = beta * den
    # x < beta on the integer lattice
    below = (math.ceil(beta_scaled) if beta_scaled.denominator > 1
             else int(beta_scaled))

    rng = np.random.default_rng(seed)
    states = np.full(n_walks, int(pi0 * den), dtype=np.int64)
    steps_taken = np.zeros(n_walks, dtype=np.int64)
    active = ~((states < below) | (states == 0) | (states == den))
    alive_at = {}
    for t in range(1, 100_000):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        u = rng.random(idx.size)
        pay = u < states[idx] / den
        states[idx] = np.where(pay,
                               np.minimum(states[idx] + up, den),
                               np.maximum(states[idx] - down, 0))
        steps_taken[idx] = t
        active[idx] = ~((states[idx] < below) | (states[idx] == 0)
                        | (states[idx] == den))
        if t in record_at:
            alive_at[t] = active.mean()
    else:
        raise AssertionError("walkers failed to absorb")
    for t in record_at:
        alive_at.setdefault(t, 0.0)
    probs = {}
    for s in sorted(set(states)):
        probs[F(int(s), den)] = float(np.mean(states == s))
    return probs, float(steps_taken.mean()), float(steps_taken.std(ddof=1)), alive_at


def reference_mean_curves(scores0, k, c, betas, blocks):
    """Per-threshold sweep: every beta steps its own copy of the population.

    blocks has shape (replicates, horizon, n); returns the horizon-end group
    means, shape (replicates, len(betas)).
    """
    n_reps, horizon, n = blocks.shape
    S = np.empty((n_reps, betas.size, n))
    S[:] = scores0
    b = betas[None, :, None]
    for t in range(horizon):
        S = reference_advance(S, blocks[:, t, None, :], b, k, c)
    return S.mean(axis=2)


def step_major_walk(scores0, blocks):
    """The array a grid walk lives in, from scores and uniform blocks of
    shape (rows, horizon, n): shape (horizon + 1, rows, n), C-ordered, with
    scores0 in slab 0 of every row and blocks[:, t] in slab t + 1."""
    rows, horizon, n = np.shape(blocks)
    walk = np.empty((horizon + 1, rows, n))
    walk[0] = scores0
    walk[1:] = np.transpose(blocks, (1, 0, 2))
    return walk


def reference_sweep_tail(betas, walk):
    """Horizon-end means of every row's walk at every threshold.

    walk[t] is every row's always-approved walk X[t], shape
    (horizon + 1, rows, n); betas ascending.  Returns shape
    (rows, len(betas)).  By the freeze identity an agent with threshold b
    ends at X[tau(b)], tau(b) = #{t < horizon : min(X_0..X_t) >= b}; along
    the betas tau does not increase, so an agent's finals are X[horizon],
    ..., X[0] in runs, one np.repeat of its reversed walk.  This is the
    full sweep the bounded search replaced, kept as its reference.
    """
    rows, n, nb = walk.shape[1], walk.shape[2], betas.size
    # rev[r, i] is agent i's walk in row r, reversed: X[horizon], ..., X[0]
    rev = np.ascontiguousarray(walk[::-1].transpose(1, 2, 0))
    runmin = np.minimum.accumulate(rev[:, :, :0:-1], axis=2)
    cleared = np.searchsorted(betas, runmin, side="right")
    runs = np.diff(cleared[:, :, ::-1], axis=2, prepend=0, append=nb)
    finals = np.repeat(rev.ravel(), runs.ravel()).reshape(rows, n, nb)
    # A C-ordered (rows, betas, agents) array, as simulate_group's mean.
    return np.ascontiguousarray(finals.transpose(0, 2, 1)).mean(axis=2)


def reference_threshold_counts(betas, walk):
    """C[t, r, i] = #{j : betas[j] <= min(X_0..X_t)} of agent i in row r,
    for walk[t] = X[t], shape (horizon + 1, rows, n): the counts of
    thresholds at or below each step's running minimum, shape
    (horizon, rows, n)."""
    runmin = np.minimum.accumulate(walk[:-1], axis=0)
    return np.searchsorted(betas, runmin, side="right")


def reference_approved_step(scores, u, k, c):
    """dynamics.approved_step as a branching np.where: +k where u < pi,
    else c * -k, then the clamp; a new array."""
    return np.clip(np.where(u < scores, k, c * -k) + scores, 0.0, 1.0)


def reference_advance(scores, u, beta, k, c):
    """One step of a group at threshold beta: np.where keeps a denied
    agent's score, bit for bit."""
    return np.where(scores >= beta, reference_approved_step(scores, u, k, c),
                    scores)


def reference_group_means(scores0, k, c_rows, c_hat, betas, blocks):
    """Every row's full sweep curve and its baseline mean: the sweep walk,
    a separate beta-hat frozen walk, and the whole-grid tail.  Returns
    curves, shape (rows, len(betas)), and base, shape (rows,)."""
    blocks = np.array(blocks, dtype=float)
    rows, horizon, _ = blocks.shape
    c_col = np.asarray(c_rows, dtype=float).reshape(-1, 1)
    bhat = optimal_threshold(k, c_hat).beta_hat
    base = np.repeat(scores0[None], rows, axis=0)
    x = scores0
    for t in range(horizon):
        u = blocks[:, t]
        base = reference_advance(base, u, bhat, k, c_hat)
        u[...] = reference_approved_step(x, u, k, c_col)
        x = u
    return (reference_sweep_tail(betas, step_major_walk(scores0, blocks)),
            base.mean(axis=1))


def reference_evaluate_cell(dist_a, dist_d, specs, seeds, weights, k,
                            horizon, n_seeds, per_group_beta, betas):
    """Outcomes of the full threshold search: the utility of every
    candidate from every threshold's exact replicate means, the last
    maximum winning."""
    c_hat = specs[0].baseline_c
    pre = DynamicsParams.uniform(k, c_hat, (dist_a.group, dist_d.group))
    posts = [apply_intervention(pre, spec, disadvantaged=dist_d.group)
             for spec in specs]
    rep_seeds = [s for seed in seeds for s in _replicate_seeds(seed, n_seeds)]
    spans = [slice(i * n_seeds, (i + 1) * n_seeds) for i in range(len(specs))]
    means, bases = [], []
    for slot, dist in ((0, dist_a), (1, dist_d)):
        c_rows = np.repeat([post.c_for(dist.group) for post in posts], n_seeds)
        curves, base = reference_group_means(
            dist.scores, k, c_rows, c_hat, betas,
            uniform_blocks(rep_seeds, horizon, slot, dist.n).transpose(1, 0, 2))
        means.append([curves[span].mean(axis=0) for span in spans])
        bases.append([float(np.mean(base[span])) for span in spans])
    if per_group_beta:
        cand_a, cand_d = np.indices((betas.size, betas.size)).reshape(2, -1)
    else:
        cand_a = cand_d = np.arange(betas.size)
    outcomes = []
    for spec, ma, md, base_a, base_d in zip(specs, *means, *bases):
        u_vals = _utility_values(ma[cand_a], md[cand_d], base_a, base_d,
                                 weights)
        best = np.flatnonzero(u_vals == u_vals.max())[-1]
        ia, id_ = cand_a[best], cand_d[best]
        mean_a, mean_d = float(ma[ia]), float(md[id_])
        outcomes.append(PolicyOutcome(
            kind=spec.kind, r=spec.r, baseline_c=spec.baseline_c,
            weights=weights,
            beta_by_group={dist_a.group: float(betas[ia]),
                           dist_d.group: float(betas[id_])},
            mean_a=mean_a, mean_d=mean_d, base_a=base_a, base_d=base_d,
            utility=utility(mean_a, mean_d, base_a, base_d, weights)))
    return outcomes


def reference_baseline_outcome(dist_a, dist_d, params, horizon, seed):
    """baseline_outcome as full-horizon walks at each group's beta-hat:
    every step draws and updates, with no settled stop."""
    out = {}
    for slot, dist in ((0, dist_a), (1, dist_d)):
        c = params.c_for(dist.group)
        bhat = optimal_threshold(params.k, c).beta_hat
        walk = reference_walk(dist.scores, bhat, params.k, c, horizon, seed,
                              slot)
        out[dist.group] = float(walk[-1].mean())
    return out


def reference_walk(scores0, beta, k, c, horizon, seed, slot):
    """The full-horizon population walk: every step draws and updates.

    Returns the horizon + 1 score arrays, the initial one first.
    """
    walk = [np.asarray(scores0, dtype=float)]
    for t in range(horizon):
        s = walk[-1]
        u = step_uniforms(seed, t, slot, s.size)
        walk.append(reference_advance(s, u, beta, k, c))
    return walk


def reference_settled(scores, beta, k, c):
    """Agent by agent: denied, or each reachable branch keeps its bytes.

    With u in [0, 1), the up branch (u < s) needs s > 0 and the down branch
    (u >= s) needs s < 1.
    """
    for s in np.asarray(scores, dtype=float):
        if s < beta:
            continue
        one = np.array([s])
        up = np.clip(one + k, 0.0, 1.0)
        down = np.clip(one + -c * k, 0.0, 1.0)
        if ((s > 0 and up.tobytes() != one.tobytes())
                or (s < 1 and down.tobytes() != one.tobytes())):
            return False
    return True


def reference_settled_step(walk, beta, k, c):
    """First step of a reference walk at which the group is settled."""
    return next((t for t, s in enumerate(walk[:-1])
                 if reference_settled(s, beta, k, c)), len(walk) - 1)


class _StartLines:
    """A csv.reader that remembers the file line its last row started on."""

    def __init__(self, fh):
        self.reader = csv.reader(fh)
        self.start = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.start = self.reader.line_num + 1
        return next(self.reader)

    @property
    def line_num(self):
        return self.reader.line_num


def _reference_purpose(raw: str) -> str:
    cleaned = raw.strip().lower()
    if cleaned in ("purchase", "refinance"):
        return cleaned
    return "other"


def reference_load_records(path, schema="training", keep_purpose="purchase"):
    """The row-by-row loader: one DictReader row, one LoanRecord at a time.

    A row's line is the file line it starts on.  Returns a LoadResult whose
    records are a tuple of LoanRecords.
    """
    if schema == "training":
        required = TRAINING_COLUMNS
    elif schema == "application":
        required = APPLICATION_COLUMNS
    else:
        raise ValueError(f"schema must be 'training' or 'application', got {schema!r}")

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = reader.reader = _StartLines(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        records: list[LoanRecord] = []
        rejects: list[RowReject] = []
        for row in reader:
            line = rows.start
            try:
                balance = float(row["balance"])
                ltv = float(row["ltv"])
                dti = float(row["dti"])
                units = int(row["units"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: unparseable numeric field: {exc}") from None
            purpose = _reference_purpose(row["purpose"] or "")
            late = group = None
            if schema == "training":
                raw_late = (row["late"] or "").strip()
                if raw_late not in ("0", "1"):
                    raise ValueError(f"{path}:{line}: late must be 0 or 1, got {raw_late!r}")
                late = raw_late == "1"
            else:
                group = (row["group"] or "").strip()
                if not group:
                    rejects.append(RowReject(line, "empty group label"))
                    continue
            try:
                record = LoanRecord(balance=balance, ltv=ltv, dti=dti,
                                    units=units, purpose=purpose,
                                    late=late, group=group)
            except ValueError as exc:
                rejects.append(RowReject(line, str(exc)))
                continue
            if keep_purpose is not None and purpose != keep_purpose:
                rejects.append(RowReject(line, f"purpose {purpose!r} filtered out"))
                continue
            records.append(record)
    if not records:
        raise ValueError(f"{path}: no usable rows after validation and filtering")
    return LoadResult(records=tuple(records), rejects=tuple(rejects))


def reference_read_score_csv(path, group="A"):
    """The row-by-row score reader: csv.reader rows, one float() at a time.

    Only row 0 may be a header; blank rows are skipped but still counted.
    """
    values = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            cell = row[0].strip()
            try:
                values.append(float(cell))
            except ValueError:
                if i > 0:
                    raise ValueError(f"non-numeric score {cell!r} in {path}") from None
                # header row
    if not values:
        raise ValueError(f"no scores found in {path}")
    return ScoreDistribution(group, np.asarray(values))
