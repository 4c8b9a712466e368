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
    mdp_to_dict,
    mean_reward_table,
    policy_to_dict,
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


# Per reader, where each unusual literal goes in its document; [] is the top object.
_SLOTS = {
    "mdp": {"nan_literal": ["discount"], "infinity_literal": ["transitions", 0, 0, 0],
            "overflow_1e400": ["transitions", 1, 0, 0], "int_20_digits": ["num_states"],
            "negative_int_20_digits": ["initial_dist", 0], "lone_surrogate_key": []},
    "policy": {"nan_literal": ["table", 0, 0], "infinity_literal": ["table", 0, 1],
               "overflow_1e400": ["table", 1, 0], "int_20_digits": ["table", 1, 1],
               "negative_int_20_digits": ["table", 2, 0], "lone_surrogate_key": []},
    "config": {"nan_literal": ["discount"], "infinity_literal": ["mdp", "transitions", 0, 0, 0],
               "overflow_1e400": ["nuisance", "smoothing_alpha"],
               "int_20_digits": ["mdp", "num_states"],
               "negative_int_20_digits": ["mdp", "initial_dist", 0], "lone_surrogate_key": []},
    "cells": {"nan_literal": [0, "estimate"], "infinity_literal": [0, "actual"],
              "overflow_1e400": [0, "n_impressions"], "int_20_digits": [0, "campaign"],
              "negative_int_20_digits": [0, "n_ope"], "lone_surrogate_key": [0]},
}
_LITERALS = {"nan_literal": "NaN", "infinity_literal": "Infinity", "overflow_1e400": "1e400",
             "int_20_digits": "12345678901234567890",
             "negative_int_20_digits": "-12345678901234567890"}
UNUSUAL_CASES = [*_LITERALS, "lone_surrogate_key", "bom", "invalid_utf8_byte",
                 "crlf_syntax_error", "cr_syntax_error"]


def unusual_input(which: str, case: str) -> bytes:
    """A valid document of ``which``'s reader ("mdp", "policy", "config" or "cells",
    built from ``three_state_mdp`` and ``three_state_policies``) made unusual by
    ``case``: a literal or a key that orjson refuses or reads otherwise, a BOM, an
    invalid UTF-8 byte, or a syntax error on the fourth line of CRLF or CR text."""
    mdp = mdp_to_dict(three_state_mdp())
    behavior, evaluation = map(policy_to_dict, three_state_policies())
    doc = {
        "mdp": mdp,
        "policy": behavior,
        "config": {"mdp": mdp, "behavior_policy": behavior, "evaluation_policy": evaluation,
                   "n_trajectories": 10, "replications": 2, "nuisance": {"smoothing_alpha": 0.5}},
        "cells": [{"campaign": "a", "batch": "1", "estimate": 0.55, "actual": 0.5,
                   "n_impressions": 10_000, "ope_variance": 0.25, "n_ope": 5_000}],
    }[which]
    if case in _SLOTS[which]:
        key = case == "lone_surrogate_key"  # "@@" is a new key, else the slot's value
        *parents, last = [*_SLOTS[which][case], "@@"] if key else _SLOTS[which][case]
        slot = doc
        for step in parents:
            slot = slot[step]
        slot[last] = 0 if key else "@@"
        return json.dumps(doc).replace('"@@"', _LITERALS.get(case, '"\\ud800"')).encode()
    text = json.dumps(doc, indent=1)
    if case == "bom":
        return b"\xef\xbb\xbf" + text.encode()
    if case == "invalid_utf8_byte":
        raw = text.encode()
        return raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2:]
    lines = text.split("\n")
    lines[3] += " @"
    return {"crlf_syntax_error": "\r\n", "cr_syntax_error": "\r"}[case].join(lines).encode()
