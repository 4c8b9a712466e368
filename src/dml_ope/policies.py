"""Policy families used as behavior and evaluation policies.

All constructors take an (S, A) score/mean table and return a validated
Policy. Argmax ties always break to the lowest action index so that every
construction is deterministic.
"""
from __future__ import annotations

import numpy as np

from .mdp import Policy, ValidationError, as_real, check_integer, check_unit_interval


def _table(values, name: str) -> np.ndarray:
    """``values`` as a float (S, A) table of real entries, at least one state and
    one action, all finite."""
    table = np.asarray(as_real(values, f"{name} must be real numbers"), dtype=float)
    if table.ndim != 2 or 0 in table.shape:
        raise ValidationError(f"{name} must be a nonempty (S, A) table")
    if not np.all(np.isfinite(table)):
        raise ValidationError(f"{name} must be finite")
    return table


def epsilon_greedy_policy(scores: np.ndarray, epsilon: float) -> Policy:
    """Argmax action gets 1 - eps + eps/|A|, every other action eps/|A|."""
    scores = _table(scores, "scores")
    check_unit_interval(epsilon, "epsilon")
    num_states, num_actions = scores.shape
    table = np.full((num_states, num_actions), epsilon / num_actions)
    table[np.arange(num_states), scores.argmax(axis=1)] += 1.0 - epsilon
    return Policy(table=table)


def softmax_policy(scores: np.ndarray) -> Policy:
    """Row-wise softmax of the scores, computed with max-subtraction."""
    scores = _table(scores, "scores")
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return Policy(table=weights / weights.sum(axis=1, keepdims=True))


def greedy_policy(means: np.ndarray) -> Policy:
    """Deterministic policy placing all mass on the per-state argmax mean."""
    means = _table(means, "means")
    table = np.zeros_like(means)
    table[np.arange(means.shape[0]), means.argmax(axis=1)] = 1.0
    return Policy(table=table)


def thompson_gaussian_policy(
    means: np.ndarray,
    variances: np.ndarray,
    rng: np.random.Generator,
    draws: int = 100_000,
) -> Policy:
    """Monte Carlo Thompson-sampling propensities under independent Gaussians.

    Per state, each action's probability is the frequency (over ``draws``
    rounds) with which its sampled reward attains the maximum.
    """
    if np.shape(means) != np.shape(variances) or np.ndim(means) != 2:
        raise ValidationError("means and variances must be matching (S, A) tables")
    means, variances = _table(means, "means"), _table(variances, "variances")
    if np.any(variances < 0):
        raise ValidationError("variances must be nonnegative")
    check_integer(draws, "draws", 1)
    num_states, num_actions = means.shape
    table = np.empty((num_states, num_actions))
    std = np.sqrt(variances)
    for s in range(num_states):
        samples = means[s] + rng.standard_normal((draws, num_actions)) * std[s]
        winners = samples.argmax(axis=1)  # argmax ties go to the lowest index
        counts = np.bincount(winners, minlength=num_actions)
        row = counts / draws
        row[row.argmax()] += 1.0 - row.sum()  # force the row to sum exactly to 1
        table[s] = row
    return Policy(table=table)
