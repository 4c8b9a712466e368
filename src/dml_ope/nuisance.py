"""Nuisance estimation: fold partitioning, the tabular nuisance fit, and the
backward Q recursion.

All nuisance models are tabular and time-invariant: counts are pooled across
steps. A fit first counts a row set ``(sa, rewards)``, its cell index ``s*A + a``
and rewards, into additive tables (visit counts, reward sums, transition counts
with s' read from the next cell, reward total), then fits from them. A cross-fit
complement's tables are the sum of the other folds' tables, so ``_cross_fits``,
the one cross-fit path, counts each fold once; DR-half's single fit on fold 1 is
DML's fold-0 fit at two folds. Unobserved cells fall back to the fitted rows'
mean reward, uniform transitions, and uniform (or smoothed) behavior rows so
the Q recursion is defined everywhere. A fit is the record ``(behavior, q)``.

Transition counts are a move pair: the sorted flat indices ``(s*A + a)*S + s'``
of the observed moves and their int64 counts, sorted by ``np.unique`` while
``moves * SORT_DIVISOR < S*A*S``, else in one dense table, whose row sums count
the visits of all but the last step. A complement's pair is the others' merged by
that rule, or, if a part took a dense table, all the parts' total less its own. The Q
recursion runs over the pair, so a step costs at most min(n*T, S*A*S)
operations; a cell without moves takes the mean of the next step's values,
the uniform row.

The private kernels (``_folds``, ``_count``, ``_cross_fits``, ``_fit``, ``_q_tables``)
take R stacked row sets (R, n, T+1), one per replication, whose cell indices are
offset by r*S*A, so a bin or move index belongs to one replication; one row set
is R = 1. The kernels check nothing: the public functions take datasets and
(S, A, S) tables, and check them.

Index dtypes: the kernels' cell index, and the moves built from it, are int32
while R*S*A*(S+1) is below ``INDEX_LIMIT``, and fold members while n is; else
int64. ``_count`` builds the moves from a step-contiguous (T+1, R, n) copy of
the cell index, whose columns read about 4x faster than the strided slices of
(R, n, T+1); neither a sort nor a count depends on the moves' order. Every move
pair, and the public ``make_folds`` and ``LoggedDataset.cells``, stay int64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (LoggedDataset, Policy, ValidationError, _read_array, check_dataset,
                  check_finite_nonnegative, check_folds, check_integer, check_policy_rows,
                  check_unit_interval)

# The size rule: on the 240-state lift's 115,200 cells, sorting the moves won
# at 12k (0.15 vs 0.39 ms) and lost to the dense table at 24k (0.37 vs 0.27 ms).
SORT_DIVISOR = 6
# An index is int32 while every value it, or a move index built from it, can take
# lies below this limit: int32 columns are read, sorted and built faster
# (BENCH_int32_index.json), and numpy wraps an overflow silently.
INDEX_LIMIT = 2**31


class SupportViolationError(ValidationError):
    """The evaluation policy puts mass on an action the behavior model rules out."""


@dataclass(frozen=True, eq=False)
class NuisanceEstimate:
    """A candidate record: the behavior policy and the per-step Q tables ``q`` of
    shape (T+1, S, A); ``mean_reward`` is ``q_T``."""

    behavior: Policy
    q: np.ndarray

    def __post_init__(self):
        if not isinstance(self.behavior, Policy):
            raise ValidationError(f"behavior must be a Policy, got {type(self.behavior).__name__}")
        object.__setattr__(self, "q", read_q(self.q, "q table"))
        if self.q.shape[1:] != self.behavior.table.shape:
            raise ValidationError(f"the q table has shape {self.q.shape}, the behavior policy "
                                  f"table {self.behavior.table.shape}")

    @property
    def mean_reward(self) -> np.ndarray:
        return self.q[-1]


def read_q(q, name: str) -> np.ndarray:
    """The (T+1, S, A) Q tables ``q`` that a public call is given, read; errors
    name them ``name``."""
    empty = f"{name} must hold at least one step, state and action, got shape {{}}"
    return _read_array(q, f"{name} entries must be real numbers",
                       (f"{name} must have shape (T+1, S, A)", empty, empty, empty),
                       f"{name} entries must be finite")


def _check_finite_q(q: np.ndarray) -> None:
    """Raise unless every entry of the Q tables ``q`` is finite."""
    if not np.all(np.isfinite(q)):
        raise ValidationError("q table entries must be finite")


def make_folds(n_trajectories: int, k: int, rng: np.random.Generator) -> tuple:
    """Uniformly random K-fold partition of {0..N-1} as a tuple of sorted index
    arrays, sizes differing by <= 1; earlier folds get the extras."""
    check_integer(n_trajectories, "n_trajectories")
    check_folds(k, n_trajectories, "k")
    return tuple(fold[0].astype(np.int64) for fold in _folds(n_trajectories, k, [rng]))


def _index_dtype(bound: int) -> type:
    """The dtype of an index whose values lie below ``bound``: int32 while
    ``bound`` is below ``INDEX_LIMIT``, else int64."""
    return np.int32 if bound < INDEX_LIMIT else np.int64


def _folds(n: int, k: int, rngs: list) -> list:
    """``make_folds`` for each generator of ``rngs``, stacked: k arrays of shape
    (R, n_k), row r the sorted indices of replication r's fold. The permutation
    is drawn as int64, whose draws are faster, and sorted as int32, faster too,
    while n is below ``INDEX_LIMIT``."""
    perms = np.stack([rng.permutation(n) for rng in rngs], dtype=_index_dtype(n))
    return [np.sort(fold, axis=1) for fold in np.array_split(perms, k, axis=1)]


def q_recursion(
    mean_reward: np.ndarray,
    transitions: np.ndarray,
    eval_policy: Policy,
    horizon: int,
    discount: float,
) -> np.ndarray:
    """The (T+1, S, A) array of the backward recursion q_T = mu and
    q_t = mu + discount * sum_{s',a'} P(s'|s,a) pi_e(a'|s') q_{t+1}(s',a').

    ``transitions`` is an (S, A, S) table of finite nonnegative weights, counts
    or probabilities: P(.|s,a) is row (s, a) over its total, and a row of total
    0 is uniform. ``mean_reward`` must be finite, ``horizon`` an integer >= 0
    and ``discount`` in [0, 1]; Q tables that overflow raise.
    """
    check_integer(horizon, "horizon", 0)
    mean_reward = _read_array(mean_reward, "mean_reward entries must be real numbers",
                              finite="mean_reward entries must be finite")
    if mean_reward.shape != eval_policy.table.shape:
        raise ValidationError("eval policy shape does not match mean_reward")
    check_unit_interval(discount, "discount")
    weights = "transition weights must be finite and >= 0"
    transitions = _read_array(transitions, "transition weights must be real numbers",
                              finite=weights)
    shape = eval_policy.table.shape + (eval_policy.num_states,)
    if transitions.shape != shape:
        raise ValidationError(f"transitions must have shape (S, A, S) = {shape}, "
                              f"got {transitions.shape}")
    if not np.all(transitions >= 0):
        raise ValidationError(weights)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        q = _q_tables(mean_reward[None], _nonzero(transitions.ravel()), eval_policy, horizon,
                      discount)[:, 0]
    _check_finite_q(q)
    return q


def _q_tables(mu: np.ndarray, moves: tuple, eval_policy: Policy, horizon: int,
              discount: float) -> np.ndarray:
    """``q_recursion``, unchecked, of R stacked mean-reward tables ``mu`` (R, S, A),
    shape (T+1, R, S, A). The move pair holds the moves of all R, each replication's
    indices offset by r*S*A*S, so one ``bincount`` per step serves them all."""
    idx, weights = moves
    reps, num_states, num_actions = mu.shape
    cells = reps * num_states * num_actions
    # // on the index is faster than divmod; s' goes into the (R*S,) values of all R.
    sa = idx // num_states
    s_next = idx - sa * num_states
    s_next += sa // (num_states * num_actions) * num_states
    weights = weights.astype(float)
    totals = np.bincount(sa, weights, minlength=cells).reshape(reps, -1)
    values = np.empty((horizon + 1, reps, num_states, num_actions))
    values[horizon] = mu
    for t in range(horizon - 1, -1, -1):
        v_next = (eval_policy.table * values[t + 1]).sum(axis=2)
        moved = np.bincount(sa, weights * v_next.ravel().take(s_next), minlength=cells)
        expected = _ratio(moved.reshape(reps, -1), totals, v_next.mean(axis=1, keepdims=True))
        values[t] = mu + discount * expected.reshape(mu.shape)
    return values


def check_support(behavior: np.ndarray, eval_policy: Policy) -> None:
    """Raise before any score evaluation if pi_e has mass where the behavior table,
    one (S, A) table or R stacked ones, has none."""
    check_table_shape(behavior.shape[-2:], eval_policy, "behavior policy")
    bad = (eval_policy.table > 0) & (behavior == 0)
    if np.any(bad):
        *_, s, a = np.argwhere(bad)[0]
        raise SupportViolationError(
            f"behavior policy assigns zero probability to action {a} in state {s} "
            "while the evaluation policy does not"
        )


def check_table_shape(shape: tuple, eval_policy: Policy, name: str) -> None:
    """Raise unless ``shape``, that of the ``name`` table, is the evaluation policy's."""
    if shape != eval_policy.table.shape:
        raise ValidationError(f"the {name} table has shape {shape}, the evaluation policy "
                              f"table {eval_policy.table.shape}")


def _ratio(num: np.ndarray, den: np.ndarray, fallback: float) -> np.ndarray:
    """``num / den`` where ``den > 0``, else ``fallback``; shaped like ``num``."""
    return np.divide(num, den, out=np.full(num.shape, fallback), where=den > 0)


def _count(sa: np.ndarray, rewards: np.ndarray, eval_policy: Policy) -> tuple:
    """The count tables of R stacked row sets, their cell indices ``sa``, offset by
    r*S*A, and rewards (R, n, T+1): visit counts and reward sums per replication
    and ``s*A + a``, and the reward totals; and the one move pair of their
    transitions ``(s*A + a)*S + s'``, offset by r*S*A*S. A move's next state s' is
    read from its next cell; a bin sums only its own replication's rewards, in
    row-major order. The moves take the dtype of ``sa``; the pair's indices are
    int64 on either route."""
    num_states, num_actions = eval_policy.table.shape
    reps = len(sa)
    cells = reps * eval_policy.table.size
    steps = np.ascontiguousarray(sa.transpose(2, 0, 1))
    moves = steps[:-1] * num_states
    moves += steps[1:] // num_actions  # r*S + s', a gather from a state table is slower
    if reps > 1:
        moves -= np.arange(0, reps * num_states, num_states).reshape(-1, 1)
    size = cells * num_states
    if moves.size * SORT_DIVISOR < size:
        idx, counts = np.unique(moves, return_counts=True)
        pair = idx.astype(np.int64, copy=False), counts
        visits = np.bincount(sa.ravel(), minlength=cells)
    else:
        pair = _nonzero(table := np.bincount(moves.ravel(), minlength=size))
        visits = table.reshape(cells, num_states).sum(axis=1)
        visits += np.bincount(steps[-1].ravel(), minlength=cells)
    with np.errstate(over="ignore"):  # an infinite total fails _fit's Q check
        total = rewards.sum(axis=(-2, -1))
    return (visits.reshape(reps, -1),
            np.bincount(sa.ravel(), weights=rewards.ravel(), minlength=cells).reshape(reps, -1),
            total), pair


def _cross_fits(parts: list, eval_policy: Policy, discount: float,
                known_behavior: Policy | None, alpha: float):
    """For each of ``parts``, two or more stacked row sets of one horizon, the
    ``_fit`` on the others: each part is counted once, and a complement's tables
    are the others' summed in part order, its move pair theirs merged, or the
    total of all the pairs less its own where a part took a dense table."""
    reps, _, steps = parts[0][0].shape
    size = eval_policy.table.size * eval_policy.num_states
    tables, pairs = zip(*(_count(*part, eval_policy) for part in parts))
    total = None
    if len(parts) > 2 and max(sa[..., 1:].size for sa, _ in parts) * SORT_DIVISOR >= reps * size:
        total = np.zeros(reps * size, dtype=np.int64)  # no larger than that part's table
        for idx, counts in pairs:
            total[idx] += counts
    for k, (idx, counts) in enumerate(pairs):
        if total is None:
            moves = _merge(pairs[:k] + pairs[k + 1:], size, reps)
        else:  # exact: the counts are integers, and a pair's indices distinct
            total[idx] -= counts
            moves = _nonzero(total)
            total[idx] += counts
        yield _fit([sum(column[1:], column[0]) for column in zip(*tables[:k], *tables[k + 1:])],
                   moves, steps - 1, eval_policy, discount, known_behavior, alpha)


def _merge(pairs: tuple, size: int, reps: int = 1) -> tuple:
    """The move pair of the sum of ``pairs`` of ``reps`` stacked replications:
    one pair as it is; more, by ``_count``'s size rule, sorted and summed per
    index, or added into one int64 table of ``size`` cells, a replication at a
    time, which is exact as each pair's indices are distinct. The table is one
    replication's, so a chunk's merge needs no more memory."""
    if len(pairs) == 1:
        return pairs[0]
    if sum(len(i) for i, _ in pairs) * SORT_DIVISOR < reps * size:
        idx, counts = (np.concatenate(column) for column in zip(*pairs))
        order = np.argsort(idx)
        idx, counts = idx[order], counts[order]
        first = np.flatnonzero(np.diff(idx, prepend=-1))
        return idx[first], np.add.reduceat(counts, first)
    cuts = [np.searchsorted(i, np.arange(reps + 1) * size) for i, _ in pairs]
    dense = np.empty(size, dtype=np.int64)
    idx, counts = [], []
    for r in range(reps):
        dense.fill(0)
        for (i, c), cut in zip(pairs, cuts):
            at = slice(cut[r], cut[r + 1])
            dense[i[at] - r * size] += c[at]
        found, found_counts = _nonzero(dense)
        found += r * size
        idx.append(found)
        counts.append(found_counts)
    return np.concatenate(idx), np.concatenate(counts)


def _nonzero(dense: np.ndarray) -> tuple:
    """The move pair of a dense table of counts or weights; flatnonzero is faster
    on a mask."""
    idx = np.flatnonzero(dense != 0)
    return idx, dense[idx]


def _fit(tables, moves: tuple, horizon: int, eval_policy: Policy, discount: float,
         known_behavior: Policy | None, alpha: float) -> tuple:
    """The nuisances of R row sets from their count tables, as ``_count`` stacks
    them, and their move pair: the behavior tables, the known (S, A) one or the
    fitted (R, S, A) ones, and the Q tables (T+1, R, S, A). Unobserved reward cells
    fall back to the row set's mean reward, its reward total over its visits."""
    counts, sums, reward_total = tables
    num_states, num_actions = eval_policy.table.shape
    counts = counts.reshape(-1, num_states, num_actions)
    if known_behavior is not None:
        behavior = known_behavior.table
    else:
        smoothed = counts + alpha
        behavior = _ratio(smoothed, smoothed.sum(axis=-1, keepdims=True), 1.0 / num_actions)
        check_policy_rows(behavior)
    check_support(behavior, eval_policy)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        fallback = np.reshape(reward_total / counts.sum(axis=(1, 2)), (-1, 1, 1))
        q = _q_tables(_ratio(sums.reshape(counts.shape), counts, fallback), moves, eval_policy,
                      horizon, discount)
    _check_finite_q(q)
    return behavior, q


def _estimate_record(behavior: np.ndarray, q: np.ndarray) -> NuisanceEstimate:
    """The record of a one-replication ``_fit``."""
    return NuisanceEstimate(Policy(table=behavior.reshape(q.shape[2:])), q[:, 0])


def fit_nuisance(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    known_behavior: Policy | None = None,
    smoothing_alpha: float = 0.5,
) -> NuisanceEstimate:
    """Fit one nuisance tuple on every row of ``data``; the fit draws nothing.
    ``smoothing_alpha`` is added to each behavior count; > 0 keeps every propensity > 0."""
    check_dataset(data, "data")
    check_unit_interval(discount, "discount")
    check_finite_nonnegative(smoothing_alpha, "smoothing_alpha")
    rows = data.cells(eval_policy, "evaluation")[None], data.rewards[None]
    return _estimate_record(*_fit(*_count(*rows, eval_policy), data.horizon, eval_policy,
                                  discount, known_behavior, smoothing_alpha))


def fit_nuisances(
    parts: list,
    eval_policy: Policy,
    discount: float,
    known_behavior: Policy | None = None,
    smoothing_alpha: float = 0.5,
) -> list[NuisanceEstimate]:
    """For each of ``parts``, two or more datasets of one horizon, the fit on
    the other parts."""
    for k, part in enumerate(parts):
        check_dataset(part, f"parts[{k}]")
    check_unit_interval(discount, "discount")
    check_finite_nonnegative(smoothing_alpha, "smoothing_alpha")
    if len(parts) < 2:
        raise ValidationError(f"fit_nuisances needs two or more parts, got {len(parts)}")
    horizons = sorted({part.horizon for part in parts})
    if len(horizons) > 1:
        raise ValidationError(f"the parts must share one horizon, got horizons {horizons}")
    stacked = [(part.cells(eval_policy, "evaluation")[None], part.rewards[None])
               for part in parts]
    return [_estimate_record(*fit) for fit in _cross_fits(stacked, eval_policy, discount,
                                                          known_behavior, smoothing_alpha)]
