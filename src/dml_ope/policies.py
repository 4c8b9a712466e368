"""Policy families used as behavior and evaluation policies.

All constructors take an (S, A) score/mean table and return a validated
Policy. Argmax ties always break to the lowest action index so that every
construction is deterministic.
"""
from __future__ import annotations

import numpy as np

from .mdp import Policy, ValidationError, _read_array, check_integer, check_unit_interval


def _rules(name: str, shape: str = "") -> tuple:
    """``_read_array``'s rules for the nonempty finite (S, A) table ``name``;
    ``shape``, if given, is the error for another number of dimensions."""
    table = f"{name} must be a nonempty (S, A) table"
    return f"{name} must be real numbers", (shape or table, table, table), f"{name} must be finite"


def epsilon_greedy_policy(scores: np.ndarray, epsilon: float) -> Policy:
    """Argmax action gets 1 - eps + eps/|A|, every other action eps/|A|."""
    scores = _read_array(scores, *_rules("scores"))
    check_unit_interval(epsilon, "epsilon")
    num_states, num_actions = scores.shape
    table = np.full((num_states, num_actions), epsilon / num_actions)
    table[np.arange(num_states), scores.argmax(axis=1)] += 1.0 - epsilon
    return Policy(table=table)


def softmax_policy(scores: np.ndarray) -> Policy:
    """Row-wise softmax of the scores, computed with max-subtraction."""
    scores = _read_array(scores, *_rules("scores"))
    shifted = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    return Policy(table=weights / weights.sum(axis=1, keepdims=True))


def greedy_policy(means: np.ndarray) -> Policy:
    """Deterministic policy placing all mass on the per-state argmax mean."""
    means = _read_array(means, *_rules("means"))
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
    matching = "means and variances must be matching (S, A) tables"
    means, variances = (_read_array(values, *_rules(name, matching))
                        for values, name in ((means, "means"), (variances, "variances")))
    if means.shape != variances.shape:
        raise ValidationError(matching)
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
