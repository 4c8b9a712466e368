"""Finite tabular MDPs, trajectory sampling, and exact enumeration oracles.

All probability tables are dense numpy arrays indexed by 0-based state and
action ids. Everything here is exactly computable: rewards have finite
support, so mean/variance tables and full trajectory enumeration are exact.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_TOL = 1e-12
DEFAULT_ENUMERATION_CAP = 10_000_000


class ValidationError(ValueError):
    """Malformed MDP, policy, or dataset input."""


class EnumerationCapError(RuntimeError):
    """Exact enumeration would exceed the configured outcome cap."""


def _check_prob_rows(table: np.ndarray, name: str) -> None:
    """Raise for the first row along the last axis that is not a distribution.

    A NaN entry fails. ``name`` is formatted with the bad row's index, as in
    "policy row {}".
    """
    rows = table.reshape(math.prod(table.shape[:-1]), table.shape[-1])
    negative = np.any(rows < 0, axis=1)
    bad = np.flatnonzero(negative | ~(np.abs(rows.sum(axis=1) - 1.0) <= PROB_TOL))
    if bad.size:
        i = bad[0]
        where = name.format(*np.unravel_index(i, table.shape[:-1]))
        if negative[i]:
            raise ValidationError(f"{where} has negative entries")
        raise ValidationError(f"{where} sums to {float(rows[i].sum())!r}, expected 1")


@dataclass(frozen=True, eq=False)
class RewardSpec:
    """Finite-support reward distribution for one (state, action) pair."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", np.asarray(self.support, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.support.ndim != 1 or self.support.shape != self.probs.shape:
            raise ValidationError("reward support and probs must be 1-d and equal length")
        if not np.all(np.isfinite(self.support)):
            raise ValidationError("reward support must be finite")
        _check_prob_rows(self.probs, "reward probs")

    @property
    def mean(self) -> float:
        return float(self.support @ self.probs)

    @property
    def variance(self) -> float:
        return float(((self.support - self.mean) ** 2) @ self.probs)


@dataclass(frozen=True, eq=False)
class Policy:
    """State-indexed action distribution table, shape (num_states, num_actions)."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.ndim != 2 or self.table.shape[1] < 1:
            raise ValidationError("policy table must be 2-d with at least one action")
        _check_prob_rows(self.table, "policy row {}")

    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_actions(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """Finite state/action MDP with finite-support rewards and a fixed horizon.

    ``horizon`` is the last step index; trajectories have ``horizon + 1`` steps.
    ``discount`` has no default: it must be chosen explicitly.
    """

    num_states: int
    num_actions: int
    horizon: int
    discount: float
    initial_dist: np.ndarray
    transitions: np.ndarray  # (S, A, S)
    rewards: tuple  # rewards[s][a] -> RewardSpec

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise ValidationError("num_states and num_actions must be positive")
        if self.horizon < 0:
            raise ValidationError("horizon must be >= 0")
        if not 0.0 <= self.discount <= 1.0:
            raise ValidationError("discount must lie in [0, 1]")
        object.__setattr__(self, "initial_dist", np.asarray(self.initial_dist, dtype=float))
        object.__setattr__(self, "transitions", np.asarray(self.transitions, dtype=float))
        if self.initial_dist.shape != (self.num_states,):
            raise ValidationError("initial_dist has wrong shape")
        _check_prob_rows(self.initial_dist, "initial_dist")
        if self.transitions.shape != (self.num_states, self.num_actions, self.num_states):
            raise ValidationError("transitions has wrong shape")
        _check_prob_rows(self.transitions, "transitions[{}][{}]")
        rewards = tuple(tuple(row) for row in self.rewards)
        if len(rewards) != self.num_states or any(len(row) != self.num_actions for row in rewards):
            raise ValidationError("rewards must be defined for every (state, action) pair")
        object.__setattr__(self, "rewards", rewards)
        # Padded reward arrays for vectorized sampling/enumeration.
        width = max(spec.support.size for row in rewards for spec in row)
        sup = np.zeros((self.num_states, self.num_actions, width))
        prb = np.zeros((self.num_states, self.num_actions, width))
        for s in range(self.num_states):
            for a in range(self.num_actions):
                spec = rewards[s][a]
                sup[s, a, : spec.support.size] = spec.support
                prb[s, a, : spec.probs.size] = spec.probs
        object.__setattr__(self, "_reward_support", sup)
        object.__setattr__(self, "_reward_probs", prb)

    def check_policy(self, policy: Policy) -> None:
        if policy.table.shape != (self.num_states, self.num_actions):
            raise ValidationError(
                f"policy shape {policy.table.shape} does not match MDP "
                f"({self.num_states}, {self.num_actions})"
            )


@dataclass(frozen=True, eq=False)
class LoggedDataset:
    """A batch of trajectories with a uniform horizon, stored as (N, T+1) arrays."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    propensities: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.int64))
        object.__setattr__(self, "actions", np.asarray(self.actions, dtype=np.int64))
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=float))
        if self.states.ndim != 2 or self.states.shape[0] < 1:
            raise ValidationError("dataset must be nonempty")
        if self.actions.shape != self.states.shape or self.rewards.shape != self.states.shape:
            raise ValidationError("dataset arrays must share one (N, T+1) shape")
        if self.propensities is not None:
            p = np.asarray(self.propensities, dtype=float)
            if p.shape != self.states.shape:
                raise ValidationError("propensities shape mismatch")
            if np.any(p <= 0) or np.any(p > 1):
                raise ValidationError("propensities must lie in (0, 1]")
            object.__setattr__(self, "propensities", p)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    def subset(self, indices: np.ndarray) -> "LoggedDataset":
        """The trajectories at ``indices``, without propensities: no score reads them."""
        idx = np.asarray(indices, dtype=np.int64)
        return LoggedDataset(
            states=self.states[idx],
            actions=self.actions[idx],
            rewards=self.rewards[idx],
        )


def mean_reward_table(mdp: TabularMdp) -> np.ndarray:
    """Exact mean reward per (state, action)."""
    return np.array([[spec.mean for spec in row] for row in mdp.rewards])


def reward_variance_table(mdp: TabularMdp) -> np.ndarray:
    """Exact reward variance per (state, action)."""
    return np.array([[spec.variance for spec in row] for row in mdp.rewards])


def _categorical_rows(prob_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one index per row from row-wise categorical distributions."""
    cum = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, prob_rows.shape[1] - 1)


def sample_dataset(
    mdp: TabularMdp, policy: Policy, n: int, rng: np.random.Generator
) -> LoggedDataset:
    """Sample ``n`` i.i.d. trajectories under ``policy`` (vectorized across episodes)."""
    mdp.check_policy(policy)
    if n < 1:
        raise ValidationError("need at least one trajectory")
    steps = mdp.horizon + 1
    states = np.empty((n, steps), dtype=np.int64)
    actions = np.empty((n, steps), dtype=np.int64)
    rewards = np.empty((n, steps))
    props = np.empty((n, steps))
    for t in range(steps):
        if t == 0:
            row = np.broadcast_to(mdp.initial_dist, (n, mdp.num_states))
            s = _categorical_rows(row, rng)
        else:
            s = _categorical_rows(mdp.transitions[states[:, t - 1], actions[:, t - 1]], rng)
        a = _categorical_rows(policy.table[s], rng)
        r_idx = _categorical_rows(mdp._reward_probs[s, a], rng)
        states[:, t] = s
        actions[:, t] = a
        rewards[:, t] = mdp._reward_support[s, a, r_idx]
        props[:, t] = policy.table[s, a]
    return LoggedDataset(states=states, actions=actions, rewards=rewards, propensities=props)


def enumerate_dataset(
    mdp: TabularMdp,
    policy: Policy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[LoggedDataset, np.ndarray]:
    """Enumerate every positive-probability trajectory under (mdp, policy).

    Returns the outcomes stacked as a LoggedDataset plus the exact probability
    of each row. Raises EnumerationCapError if the outcome count exceeds ``cap``.
    """
    mdp.check_policy(policy)
    steps = mdp.horizon + 1
    states = np.empty((1, 0), dtype=np.int64)
    actions = np.empty((1, 0), dtype=np.int64)
    rewards = np.empty((1, 0))
    probs = np.ones(1)

    def expand(prob_rows: np.ndarray):
        # Branch every partial trajectory over the categorical rows, dropping
        # zero-probability branches. Returns (kept parent index, branch value, prob).
        nonlocal states, actions, rewards, probs
        width = prob_rows.shape[1]
        parent = np.repeat(np.arange(prob_rows.shape[0]), width)
        branch = np.tile(np.arange(width), prob_rows.shape[0])
        p = probs[parent] * prob_rows[parent, branch]
        keep = prob_rows[parent, branch] > 0
        parent, branch, p = parent[keep], branch[keep], p[keep]
        if parent.size > cap:
            raise EnumerationCapError(f"enumeration exceeds cap of {cap} outcomes")
        states = states[parent]
        actions = actions[parent]
        rewards = rewards[parent]
        probs = p
        return parent, branch

    for t in range(steps):
        if t == 0:
            _, s = expand(mdp.initial_dist[None, :])
        else:
            _, s = expand(mdp.transitions[states[:, -1], actions[:, -1]])
        states = np.column_stack([states, s])
        _, a = expand(policy.table[states[:, -1]])
        actions = np.column_stack([actions, a])
        parent, r_idx = expand(mdp._reward_probs[states[:, -1], actions[:, -1]])
        rewards = np.column_stack([rewards, mdp._reward_support[states[:, -1], actions[:, -1], r_idx]])

    props = policy.table[states, actions]
    data = LoggedDataset(states=states, actions=actions, rewards=rewards, propensities=props)
    return data, probs


def exact_policy_value(mdp: TabularMdp, policy: Policy) -> float:
    """Exact discounted value of ``policy`` via backward dynamic programming."""
    mdp.check_policy(policy)
    mu = mean_reward_table(mdp)
    v_next = np.zeros(mdp.num_states)
    for t in range(mdp.horizon, -1, -1):
        q = mu.copy()
        if t < mdp.horizon:
            q += mdp.discount * (mdp.transitions @ v_next)
        v_next = (policy.table * q).sum(axis=1)
    return float(mdp.initial_dist @ v_next)


def mdp_to_dict(mdp: TabularMdp) -> dict:
    return {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "horizon": mdp.horizon,
        "discount": mdp.discount,
        "initial_dist": mdp.initial_dist.tolist(),
        "transitions": mdp.transitions.tolist(),
        "rewards": [
            [{"support": spec.support.tolist(), "probs": spec.probs.tolist()} for spec in row]
            for row in mdp.rewards
        ],
    }


def check_keys(obj: dict, allowed: set, where: str) -> None:
    """Raise unless ``obj`` is a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def json_field(obj: dict, key: str, where: str, kind=float, default=...):
    """``obj[key]`` as ``kind`` (float, int, str or np.ndarray), or ``default``
    if absent or null (required if ``default`` is ``...``). A float must be a
    finite JSON number and an int an integral one, never a boolean or a string:
    50.7 or true is an error, not 50 or 1. Errors name the key."""
    value = obj.get(key)
    if value is None:
        if default is ...:
            raise ValidationError(f"{where}: missing field '{key}'")
        return default
    if kind is str:
        return str(value)
    if kind is np.ndarray:
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"{where}: '{key}' must be an array of numbers") from None
    got = json.dumps(value, default=str)
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is int and not (number and value % 1 == 0):
        raise ValidationError(f"{where}: '{key}' must be an integer, got {got}")
    if not number:
        raise ValidationError(f"{where}: '{key}' must be a number, got {got}")
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{where}: '{key}' must be finite, got {got}")
    return kind(value)


def mdp_from_dict(obj: dict) -> TabularMdp:
    """Build a TabularMdp from the JSON spec format; errors name the offending path."""
    where = "MDP spec"
    check_keys(obj, {"num_states", "num_actions", "horizon", "discount",
                     "initial_dist", "transitions", "rewards"}, where)
    num_states = json_field(obj, "num_states", where, int)
    num_actions = json_field(obj, "num_actions", where, int)
    rewards = []
    raw_rewards = obj.get("rewards")
    if not isinstance(raw_rewards, list) or len(raw_rewards) != num_states:
        raise ValidationError(f"{where}: 'rewards' must be an array with one row per state")
    for s, row in enumerate(raw_rewards):
        if not isinstance(row, list) or len(row) != num_actions:
            raise ValidationError(f"rewards[{s}]: expected one entry per action")
        specs = []
        for a, cell in enumerate(row):
            try:
                specs.append(RewardSpec(support=cell["support"], probs=cell["probs"]))
            except ValidationError as exc:
                raise ValidationError(f"rewards[{s}][{a}]: {exc}") from exc
            except (KeyError, TypeError, ValueError):
                raise ValidationError(f"rewards[{s}][{a}] needs numeric 'support' and 'probs'")
        rewards.append(specs)
    return TabularMdp(
        num_states=num_states,
        num_actions=num_actions,
        horizon=json_field(obj, "horizon", where, int),
        discount=json_field(obj, "discount", where),
        initial_dist=json_field(obj, "initial_dist", where, np.ndarray),
        transitions=json_field(obj, "transitions", where, np.ndarray),
        rewards=rewards,
    )


def load_mdp(path: str | Path) -> TabularMdp:
    with open(path) as fh:
        return mdp_from_dict(json.load(fh))
