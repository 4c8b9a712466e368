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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import LoggedDataset, Policy, ValidationError


class SupportViolationError(ValueError):
    """The evaluation policy puts mass on an action the behavior model rules out."""


@dataclass(frozen=True)
class NuisanceConfig:
    """Knobs for the tabular nuisance fit.

    smoothing_alpha: additive smoothing for the behavior-policy counts.
        alpha > 0 keeps every fitted propensity strictly positive.
    """

    smoothing_alpha: float = 0.5

    def __post_init__(self):
        if self.smoothing_alpha < 0:
            raise ValidationError("smoothing_alpha must be >= 0")


@dataclass(frozen=True, eq=False)
class QTable:
    """Per-step state-action value tables, shape (T+1, S, A)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 3:
            raise ValidationError("q table must have shape (T+1, S, A)")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("q table entries must be finite")


@dataclass(frozen=True, eq=False)
class NuisanceEstimate:
    """A candidate tuple: behavior policy, per-step Q tables, and the
    mean-reward/transition tables the Q tables were built from."""

    behavior: Policy
    q: QTable
    mean_reward: np.ndarray
    transitions: np.ndarray


def make_folds(n_trajectories: int, k: int, rng: np.random.Generator) -> tuple:
    """Uniformly random K-fold partition of {0..N-1} as a tuple of sorted index
    arrays, sizes differing by <= 1; earlier folds get the extras."""
    if k < 2:
        raise ValidationError("need at least 2 folds")
    if k > n_trajectories:
        raise ValidationError("more folds than trajectories")
    perm = rng.permutation(n_trajectories)
    return tuple(np.sort(f) for f in np.array_split(perm, k))


def q_recursion(
    mean_reward: np.ndarray,
    transitions: np.ndarray,
    eval_policy: Policy,
    horizon: int,
    discount: float,
) -> QTable:
    """Backward recursion: q_T = mu and
    q_t = mu + discount * sum_{s',a'} P(s'|s,a) pi_e(a'|s') q_{t+1}(s',a')."""
    mean_reward = np.asarray(mean_reward, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    num_states, num_actions = mean_reward.shape
    if transitions.shape != (num_states, num_actions, num_states):
        raise ValidationError("transitions shape does not match mean_reward")
    if eval_policy.table.shape != (num_states, num_actions):
        raise ValidationError("eval policy shape does not match mean_reward")
    values = np.empty((horizon + 1, num_states, num_actions))
    for t in range(horizon, -1, -1):
        values[t] = mean_reward
        if t < horizon:
            v_next = (eval_policy.table * values[t + 1]).sum(axis=1)
            values[t] += discount * (transitions @ v_next)
    return QTable(values=values)


def check_support(behavior: Policy, eval_policy: Policy) -> None:
    """Raise before any score evaluation if pi_e has mass where behavior has none."""
    bad = (eval_policy.table > 0) & (behavior.table == 0)
    if np.any(bad):
        s, a = np.argwhere(bad)[0]
        raise SupportViolationError(
            f"behavior policy assigns zero probability to action {a} in state {s} "
            "while the evaluation policy does not"
        )


def check_ids(data: LoggedDataset, policy: Policy, which: str) -> None:
    """Raise if a logged state or action id lies outside ``policy``'s table;
    negative ids would otherwise index from the end of the table."""
    for field, ids, size, what in (("s", data.states, policy.num_states, "states"),
                                   ("a", data.actions, policy.num_actions, "actions")):
        low, high = ids.min(), ids.max()
        if low < 0 or high >= size:
            raise ValidationError(
                f"'{field}' id {low if low < 0 else high} is outside the {which} policy "
                f"table of {size} {what}"
            )


def _ratio(num: np.ndarray, den: np.ndarray, fallback: float) -> np.ndarray:
    """``num / den`` where ``den > 0``, else ``fallback``; shaped like ``num``."""
    return np.divide(num, den, out=np.full(num.shape, fallback), where=den > 0)


def _count(data: LoggedDataset, eval_policy: Policy) -> tuple:
    """The additive count tables of ``data``, one np.bincount each: visit counts
    and reward sums (rewards summed in row-major order) per ``s*A + a``,
    transition counts per ``(s*A + a)*S + s'``; and the reward total."""
    num_states, num_actions = eval_policy.table.shape
    # An action id >= A would alias into the next state's cells of the flat index.
    check_ids(data, eval_policy, "evaluation")
    cells = num_states * num_actions
    sa = data.states * num_actions + data.actions
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
    next_counts = next_counts.reshape(num_states, num_actions, num_states)
    trans = _ratio(next_counts, next_counts.sum(axis=2, keepdims=True), 1.0 / num_states)
    q = q_recursion(mu, trans, eval_policy, horizon, discount)
    return NuisanceEstimate(behavior=behavior, q=q, mean_reward=mu, transitions=trans)


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
