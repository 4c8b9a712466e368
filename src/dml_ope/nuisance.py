"""Nuisance estimation: fold partitioning, the tabular nuisance fit, and the
backward Q recursion.

All nuisance models are tabular and time-invariant: counts are pooled across
steps. A fit first counts its rows into additive tables (visit counts, reward
sums, transition counts, reward total), then fits from them. A cross-fit
complement's tables are the sum of the other folds' tables, so
``fit_nuisances`` counts each fold once; DR-half's single fit on fold 1 is
DML's fold-0 fit at two folds. Unobserved cells fall back to the fitted rows'
mean reward, uniform transitions, and uniform (or smoothed) behavior rows so
the Q recursion is defined everywhere.

The Q recursion runs over the nonzero entries of the transition weights
only, so a step costs at most min(n*T, S*A*S) operations and a fit builds no
dense float ``(S, A, S)`` table. A cell without moves takes the mean of the
next step's values, which is the uniform fallback. A fit's ``transitions``
table is built from its transition counts only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import LoggedDataset, Policy, ValidationError, check_folds


class SupportViolationError(ValidationError):
    """The evaluation policy puts mass on an action the behavior model rules out."""


@dataclass(frozen=True)
class NuisanceConfig:
    """Knobs for the tabular nuisance fit.

    smoothing_alpha: additive smoothing for the behavior-policy counts.
        alpha > 0 keeps every fitted propensity strictly positive.
    """

    smoothing_alpha: float = 0.5

    def __post_init__(self):
        if not 0 <= self.smoothing_alpha < np.inf:
            raise ValidationError(f"smoothing_alpha must be finite and >= 0, "
                                  f"got {self.smoothing_alpha!r}")


@dataclass(frozen=True, eq=False)
class NuisanceEstimate:
    """A candidate tuple: the behavior policy, the per-step Q tables ``q`` of
    shape (T+1, S, A), and the nonnegative ``(S, A, S)`` transition weights
    ``moves`` they were built from (a fit's counts, or probabilities).

    ``mean_reward`` is ``q_T``; ``transitions`` is built from ``moves`` when
    first read, with uniform rows where a cell has no moves.
    """

    behavior: Policy
    q: np.ndarray
    moves: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if self.q.ndim != 3:
            raise ValidationError("q table must have shape (T+1, S, A)")
        if not np.all(np.isfinite(self.q)):
            raise ValidationError("q table entries must be finite")

    @property
    def mean_reward(self) -> np.ndarray:
        return self.q[-1]

    @cached_property
    def transitions(self) -> np.ndarray:
        moves = self.moves
        return _ratio(moves, moves.sum(axis=2, keepdims=True), 1.0 / moves.shape[2])


def make_folds(n_trajectories: int, k: int, rng: np.random.Generator) -> tuple:
    """Uniformly random K-fold partition of {0..N-1} as a tuple of sorted index
    arrays, sizes differing by <= 1; earlier folds get the extras."""
    check_folds(k, n_trajectories, "k")
    perm = rng.permutation(n_trajectories)
    return tuple(np.sort(f) for f in np.array_split(perm, k))


def q_recursion(
    mean_reward: np.ndarray,
    transitions: np.ndarray,
    eval_policy: Policy,
    horizon: int,
    discount: float,
) -> np.ndarray:
    """The (T+1, S, A) array of the backward recursion q_T = mu and
    q_t = mu + discount * sum_{s',a'} P(s'|s,a) pi_e(a'|s') q_{t+1}(s',a').

    ``transitions`` holds nonnegative ``(S, A, S)`` weights, probabilities or
    counts: P(.|s,a) is row (s, a) over its total, and a row of total 0 is
    uniform. Each step sums over the nonzero weights only.
    """
    mean_reward = np.asarray(mean_reward, dtype=float)
    transitions = np.asarray(transitions)
    num_states, num_actions = mean_reward.shape
    if transitions.shape != (num_states, num_actions, num_states):
        raise ValidationError("transitions shape does not match mean_reward")
    if eval_policy.table.shape != (num_states, num_actions):
        raise ValidationError("eval policy shape does not match mean_reward")
    cells = num_states * num_actions
    # The flat index (s*A + a)*S + s' of each nonzero weight; flatnonzero is
    # faster on a mask than on the numbers, and // on the index than divmod.
    flat = transitions.ravel()
    idx = np.flatnonzero(flat != 0)
    sa = idx // num_states
    s_next = idx - sa * num_states
    weights = flat[idx].astype(float)
    totals = np.bincount(sa, weights, minlength=cells)
    values = np.empty((horizon + 1, num_states, num_actions))
    values[horizon] = mean_reward
    for t in range(horizon - 1, -1, -1):
        v_next = (eval_policy.table * values[t + 1]).sum(axis=1)
        moved = np.bincount(sa, weights * v_next.take(s_next), minlength=cells)
        expected = _ratio(moved, totals, v_next.mean()).reshape(num_states, num_actions)
        values[t] = mean_reward + discount * expected
    return values


def check_support(behavior: Policy, eval_policy: Policy) -> None:
    """Raise before any score evaluation if pi_e has mass where behavior has none."""
    check_table_shape(behavior.table.shape, eval_policy, "behavior policy")
    bad = (eval_policy.table > 0) & (behavior.table == 0)
    if np.any(bad):
        s, a = np.argwhere(bad)[0]
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


def _count(data: LoggedDataset, eval_policy: Policy) -> tuple:
    """The additive count tables of ``data``, one np.bincount each: visit counts
    and reward sums (rewards summed in row-major order) per ``s*A + a``,
    transition counts per ``(s*A + a)*S + s'``; and the reward total."""
    num_states, num_actions = eval_policy.table.shape
    cells = num_states * num_actions
    sa = data.cells(eval_policy, "evaluation")
    moves = (sa[:, :-1] * num_states + data.states[:, 1:]).ravel()
    return (np.bincount(sa.ravel(), minlength=cells),
            np.bincount(sa.ravel(), weights=data.rewards.ravel(), minlength=cells),
            np.bincount(moves, minlength=cells * num_states),
            data.rewards.sum())


def _fit(tables, horizon: int, eval_policy: Policy, discount: float,
         known_behavior: Policy | None, config: NuisanceConfig) -> NuisanceEstimate:
    """The nuisance tuple of a row set's count tables; unobserved reward cells
    fall back to its mean reward, the reward total over the visits."""
    counts, sums, next_counts, reward_total = tables
    num_states, num_actions = eval_policy.table.shape
    counts = counts.reshape(num_states, num_actions)
    if known_behavior is not None:
        behavior = known_behavior
    else:
        smoothed = counts + config.smoothing_alpha
        behavior = Policy(table=_ratio(smoothed, smoothed.sum(axis=1, keepdims=True),
                                       1.0 / num_actions))
    check_support(behavior, eval_policy)
    mu = _ratio(sums.reshape(counts.shape), counts, reward_total / counts.sum())
    moves = next_counts.reshape(num_states, num_actions, num_states)
    q = q_recursion(mu, moves, eval_policy, horizon, discount)
    return NuisanceEstimate(behavior, q, moves)


def fit_nuisance(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
) -> NuisanceEstimate:
    """Fit one nuisance tuple on every row of ``data``; the fit draws nothing."""
    return _fit(_count(data, eval_policy), data.horizon, eval_policy, discount,
                known_behavior, config)


def fit_nuisances(
    parts: list,
    eval_policy: Policy,
    discount: float,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
) -> list[NuisanceEstimate]:
    """For each of ``parts`` (at least two datasets of one horizon), the fit on
    the other parts: their count tables, each counted once, summed in part order."""
    tables = [_count(part, eval_policy) for part in parts]
    return [_fit([sum(column[1:], column[0]) for column in zip(*tables[:k], *tables[k + 1:])],
                 part.horizon, eval_policy, discount, known_behavior, config)
            for k, part in enumerate(parts)]
