"""Shared builders for test MDP instances and policies."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from dml_ope import (
    LoggedDataset,
    NuisanceEstimate,
    Policy,
    TabularMdp,
    experiment_config_from_dict,
    mean_reward_table,
    q_recursion,
)
from dml_ope.experiments import _scenario

NOISY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "noisy_nuisance.json"


def one_row(states: list, actions: list, rewards: list) -> LoggedDataset:
    """A 1-row dataset holding one trajectory, without propensities."""
    return LoggedDataset(states=[states], actions=[actions], rewards=[rewards])


def select(data: LoggedDataset, indices) -> LoggedDataset:
    """The trajectories of ``data`` at ``indices``, without propensities."""
    return LoggedDataset(states=data.states[indices], actions=data.actions[indices],
                         rewards=data.rewards[indices])


def digest(value) -> str:
    """The sha256 hex digest of ``value``: an array's little-endian float64 bytes,
    anything else's JSON text with sorted keys."""
    if isinstance(value, np.ndarray):
        raw = value.astype("<f8").tobytes()
    else:
        raw = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


def row_steps(data: LoggedDataset, i: int = 0) -> list[tuple]:
    """(state, action, reward, propensity) tuples of row ``i``; propensity None if unlogged."""
    steps = data.horizon + 1
    props = [None] * steps if data.propensities is None else data.propensities[i].tolist()
    return list(zip(data.states[i].tolist(), data.actions[i].tolist(),
                    data.rewards[i].tolist(), props))


def bernoulli(p) -> dict:
    """TabularMdp's reward keywords for a reward of 1 with probability ``p[s][a]``, else 0."""
    p = np.asarray(p, dtype=float)
    return {"reward_support": np.broadcast_to([0.0, 1.0], p.shape + (2,)),
            "reward_probs": np.stack([1.0 - p, p], axis=-1)}


def point_mass(r) -> dict:
    """TabularMdp's reward keywords for the reward ``r[s][a]`` with probability 1."""
    r = np.asarray(r, dtype=float)
    return {"reward_support": r[..., None], "reward_probs": np.ones(r.shape + (1,))}


def random_mdp(
    rng: np.random.Generator,
    num_states: int,
    num_actions: int,
    horizon: int,
    discount: float = 0.9,
) -> TabularMdp:
    """Random enumerable MDP with Bernoulli rewards, click rates in [0.1, 0.9]."""
    transitions = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    click_rates = [[rng.uniform(0.1, 0.9) for _ in range(num_actions)]
                   for _ in range(num_states)]
    return TabularMdp(
        num_states=num_states,
        num_actions=num_actions,
        horizon=horizon,
        discount=discount,
        initial_dist=rng.dirichlet(np.ones(num_states)),
        transitions=transitions,
        **bernoulli(click_rates),
    )


def random_policy(rng: np.random.Generator, num_states: int, num_actions: int) -> Policy:
    """Strictly positive random policy (Dirichlet rows, floored away from zero)."""
    table = 0.1 + rng.dirichlet(np.ones(num_actions), size=num_states)
    return Policy(table=table / table.sum(axis=1, keepdims=True))


def true_nuisance(mdp: TabularMdp, behavior: Policy, evaluation: Policy) -> NuisanceEstimate:
    """``behavior`` with the true Q tables of ``evaluation``, from the MDP's
    transition probabilities."""
    q = q_recursion(mean_reward_table(mdp), mdp.transitions, evaluation, mdp.horizon,
                    mdp.discount)
    return NuisanceEstimate(behavior, q)


def three_state_mdp(discount: float = 0.9) -> TabularMdp:
    """Fixed 3-state / 2-action / horizon-2 instance used across calibration tests."""
    transitions = np.array(
        [
            [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]],
            [[0.3, 0.4, 0.3], [0.1, 0.2, 0.7]],
            [[0.5, 0.25, 0.25], [0.3, 0.3, 0.4]],
        ]
    )
    return TabularMdp(
        num_states=3,
        num_actions=2,
        horizon=2,
        discount=discount,
        initial_dist=[0.5, 0.3, 0.2],
        transitions=transitions,
        **bernoulli([[0.7, 0.3], [0.5, 0.6], [0.2, 0.8]]),
    )


def three_state_policies() -> tuple[Policy, Policy]:
    behavior = Policy(table=[[0.6, 0.4], [0.5, 0.5], [0.3, 0.7]])
    evaluation = Policy(table=[[0.8, 0.2], [0.4, 0.6], [0.7, 0.3]])
    return behavior, evaluation


def bandit_mdp() -> TabularMdp:
    """Horizon-0 (contextual bandit) instance with two contexts and two arms."""
    return TabularMdp(
        num_states=2,
        num_actions=2,
        horizon=0,
        discount=1.0,
        initial_dist=[0.55, 0.45],
        transitions=np.full((2, 2, 2), 0.5),
        **bernoulli([[0.6, 0.3], [0.4, 0.8]]),
    )


def bandit_policies() -> tuple[Policy, Policy]:
    behavior = Policy(table=[[0.5, 0.5], [0.6, 0.4]])
    evaluation = Policy(table=[[0.75, 0.25], [0.3, 0.7]])
    return behavior, evaluation


def noisy_lift() -> tuple[TabularMdp, Policy, Policy]:
    """The noise-state lift of ``configs/noisy_nuisance.json`` (240 product states)
    with its lifted behavior and evaluation policies."""
    with open(NOISY_CONFIG) as fh:
        return _scenario(experiment_config_from_dict(json.load(fh), base_dir=NOISY_CONFIG.parent))
