"""Nuisance estimation: fold partitioning, the tabular nuisance fit, and the
backward Q recursion.

All nuisance models are tabular and time-invariant: counts are pooled across
steps. Unobserved cells fall back to the global mean reward, uniform
transitions, and uniform (or smoothed) behavior rows so the Q recursion is
defined everywhere.
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


def fit_nuisance(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
) -> NuisanceEstimate:
    """Fit one nuisance tuple on every row of ``data``; the fit draws nothing.

    Every table is counted with np.bincount over flat cell indices: ``s*A + a``
    for the behavior counts and reward sums, ``(s*A + a)*S + s'`` for the
    transition counts. Rewards are summed in row-major order of the data.
    """
    num_states, num_actions = eval_policy.table.shape
    # An action id >= A would alias into the next state's cells of the flat index.
    check_ids(data, eval_policy, "evaluation")
    cells = num_states * num_actions
    sa = data.states * num_actions + data.actions
    counts = np.bincount(sa.ravel(), minlength=cells).reshape(num_states, num_actions)
    if known_behavior is not None:
        behavior = known_behavior
    else:
        smoothed = counts + config.smoothing_alpha
        totals = smoothed.sum(axis=1, keepdims=True)
        behavior = Policy(table=np.where(
            totals > 0, smoothed / np.where(totals > 0, totals, 1.0), 1.0 / num_actions
        ))
    check_support(behavior, eval_policy)
    sums = np.bincount(sa.ravel(), weights=data.rewards.ravel(), minlength=cells)
    mu = np.where(counts > 0, sums.reshape(counts.shape) / np.where(counts > 0, counts, 1),
                  float(data.rewards.mean()))
    moves = (sa[:, :-1] * num_states + data.states[:, 1:]).ravel()
    next_counts = np.bincount(moves, minlength=cells * num_states).reshape(
        num_states, num_actions, num_states
    )
    totals = next_counts.sum(axis=2, keepdims=True)
    trans = np.where(totals > 0, next_counts / np.where(totals > 0, totals, 1), 1.0 / num_states)
    q = q_recursion(mu, trans, eval_policy, data.horizon, discount)
    return NuisanceEstimate(behavior=behavior, q=q, mean_reward=mu, transitions=trans)
