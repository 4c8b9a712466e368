import numpy as np
import pytest

from dml_ope import (
    LoggedDataset,
    Policy,
    SupportViolationError,
    ValidationError,
    enumerate_dataset,
    fit_nuisance,
    make_folds,
    mean_reward_table,
    q_recursion,
    sample_dataset,
)
from dml_ope.nuisance import NuisanceConfig

from helpers import random_mdp, random_policy, three_state_mdp, three_state_policies


def single_state_dataset(actions, rewards=None):
    n = len(actions)
    rewards = rewards if rewards is not None else [0.0] * n
    return LoggedDataset(
        states=np.zeros((n, 1), dtype=int),
        actions=np.array(actions)[:, None],
        rewards=np.array(rewards, dtype=float)[:, None],
    )


def fit_tables(data, num_states, num_actions, smoothing=0.5):
    """fit_nuisance under an evaluation policy that always plays action 0."""
    eval_policy = Policy(table=np.eye(num_actions)[np.zeros(num_states, dtype=int)])
    return fit_nuisance(data, eval_policy, 1.0, config=NuisanceConfig(smoothing_alpha=smoothing))


def fit_per_fold(data, folds, eval_policy, discount, **kwargs):
    """One fit per fold on its complement, the other folds in fold order."""
    return [
        fit_nuisance(data.subset(np.concatenate(folds[:k] + folds[k + 1:])),
                     eval_policy, discount, **kwargs)
        for k in range(len(folds))
    ]


class TestFolds:
    def test_partition_properties(self):
        folds = make_folds(4, 2, np.random.default_rng(0))
        joined = np.sort(np.concatenate(folds))
        assert joined.tolist() == [0, 1, 2, 3]
        assert {folds[0].size, folds[1].size} == {2}

    def test_uneven_split_sizes(self):
        folds = make_folds(5, 2, np.random.default_rng(1))
        assert [f.size for f in folds] == [3, 2]

    def test_deterministic(self):
        a = make_folds(20, 4, np.random.default_rng(7))
        b = make_folds(20, 4, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            make_folds(3, 1, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            make_folds(3, 4, np.random.default_rng(0))


class TestBehaviorEstimate:
    def test_empirical_frequency(self):
        data = single_state_dataset([0, 0, 1])
        policy = fit_tables(data, 1, 2, smoothing=0.0).behavior
        assert np.allclose(policy.table, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_large_smoothing_approaches_uniform(self):
        data = single_state_dataset([0, 0, 0, 0])
        policy = fit_tables(data, 1, 2, smoothing=1e9).behavior
        assert np.allclose(policy.table, 0.5, atol=1e-6)

    def test_additive_smoothing_formula(self):
        data = single_state_dataset([0, 0, 0, 1])
        policy = fit_tables(data, 1, 2, smoothing=0.5).behavior
        assert np.allclose(policy.table, [[0.7, 0.3]], atol=1e-12)

    def test_unvisited_state_uniform(self):
        data = single_state_dataset([0, 0])
        policy = fit_tables(data, 2, 2, smoothing=0.0).behavior
        assert np.allclose(policy.table[1], [0.5, 0.5], atol=1e-12)

    def test_smoothed_rows_positive_and_normalized(self):
        data = sample_dataset(three_state_mdp(), three_state_policies()[0], 40,
                              np.random.default_rng(3))
        policy = fit_tables(data, 3, 2, smoothing=0.5).behavior
        assert np.all(policy.table > 0)
        assert np.allclose(policy.table.sum(axis=1), 1.0, atol=1e-12)


class TestRewardAndTransitionEstimates:
    def test_sample_mean(self):
        data = single_state_dataset([0, 0, 0, 0], rewards=[1, 0, 1, 1])
        mu = fit_tables(data, 1, 1).mean_reward
        assert mu[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_unobserved_gets_global_mean(self):
        data = single_state_dataset([0, 0], rewards=[2.0, -1.0])
        mu = fit_tables(data, 2, 2).mean_reward
        assert mu[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert mu[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_transition_frequencies(self):
        data = LoggedDataset(
            states=np.array([[0, 1], [0, 1], [0, 2]]),
            actions=np.zeros((3, 2), dtype=int),
            rewards=np.zeros((3, 2)),
        )
        trans = fit_tables(data, 3, 1).transitions
        assert np.allclose(trans[0, 0], [0.0, 2 / 3, 1 / 3], atol=1e-12)

    def test_unobserved_transition_uniform(self):
        data = single_state_dataset([0])
        trans = fit_tables(data, 4, 1).transitions
        assert np.allclose(trans, 0.25, atol=1e-12)


class TestQRecursion:
    def test_horizon_zero_is_mean_reward(self):
        mdp = three_state_mdp()
        mu = mean_reward_table(mdp)
        q = q_recursion(mu, mdp.transitions, three_state_policies()[1], 0, 0.9)
        assert np.allclose(q.values[0], mu, atol=1e-12)

    def test_zero_discount_collapses(self):
        mdp = three_state_mdp()
        mu = mean_reward_table(mdp)
        q = q_recursion(mu, mdp.transitions, three_state_policies()[1], 2, 0.0)
        for t in range(3):
            assert np.allclose(q.values[t], mu, atol=1e-12)

    def test_matches_enumeration_conditionals(self):
        # q_0(s, a) equals the enumeration expectation of the discounted return
        # given (S_0, A_0) = (s, a) under the evaluation policy.
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 2, 2, 1)
        policy = random_policy(rng, 2, 2)
        q = q_recursion(mean_reward_table(mdp), mdp.transitions, policy,
                        mdp.horizon, mdp.discount)
        data, probs = enumerate_dataset(mdp, policy)
        disc = mdp.discount ** np.arange(mdp.horizon + 1)
        returns = (data.rewards * disc).sum(axis=1)
        for s in range(2):
            for a in range(2):
                mask = (data.states[:, 0] == s) & (data.actions[:, 0] == a)
                cond = float(returns[mask] @ probs[mask] / probs[mask].sum())
                assert q.values[0, s, a] == pytest.approx(cond, abs=1e-10)

    def test_linear_in_mean_reward(self):
        mdp = three_state_mdp()
        policy = three_state_policies()[1]
        mu = mean_reward_table(mdp)
        q1 = q_recursion(mu, mdp.transitions, policy, 2, 0.9)
        q3 = q_recursion(3.0 * mu, mdp.transitions, policy, 2, 0.9)
        assert np.allclose(3.0 * q1.values, q3.values, atol=1e-12)


class TestFitNuisances:
    def test_known_behavior_passthrough(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 60, np.random.default_rng(2))
        folds = make_folds(60, 3, np.random.default_rng(3))
        etas = fit_per_fold(data, folds, evaluation, 0.9, known_behavior=behavior)
        for eta in etas:
            assert np.array_equal(eta.behavior.table, behavior.table)

    def test_fold_independence(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 40, np.random.default_rng(6))
        folds = make_folds(40, 2, np.random.default_rng(7))
        etas = fit_per_fold(data, folds, evaluation, 0.9)
        # Mutating rewards inside fold 1 must not change fold 1's nuisances,
        # which are fitted on the complement.
        mutated = LoggedDataset(
            states=data.states,
            actions=data.actions,
            rewards=data.rewards + np.isin(np.arange(40), folds[1])[:, None] * 10.0,
        )
        etas_mut = fit_per_fold(mutated, folds, evaluation, 0.9)
        assert np.array_equal(etas[1].mean_reward, etas_mut[1].mean_reward)
        assert np.array_equal(etas[1].q.values, etas_mut[1].q.values)

    def test_monte_carlo_consistency(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10_000, np.random.default_rng(8))
        folds = make_folds(10_000, 2, np.random.default_rng(9))
        eta = fit_per_fold(data, folds, evaluation, 0.9)[0]
        assert np.max(np.abs(eta.mean_reward - mean_reward_table(mdp))) < 0.05

    def test_support_violation_raised(self):
        # Behavior never plays action 1, evaluation policy needs it.
        data = LoggedDataset(states=[[0], [0]], actions=[[0], [0]], rewards=[[1.0], [1.0]])
        folds = make_folds(2, 2, np.random.default_rng(0))
        evaluation = Policy(table=[[0.5, 0.5]])
        with pytest.raises(SupportViolationError):
            fit_per_fold(data, folds, evaluation, 1.0,
                         config=NuisanceConfig(smoothing_alpha=0.0))

    def test_tables_match_add_at_reference(self):
        # The bincount tables equal a per-element np.add.at accumulation bit for
        # bit; non-integer rewards make the summation order visible.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        sampled = sample_dataset(mdp, behavior, 500, np.random.default_rng(12))
        data = LoggedDataset(states=sampled.states, actions=sampled.actions,
                             rewards=np.random.default_rng(13).normal(size=sampled.rewards.shape))
        eta = fit_nuisance(data, evaluation, 0.9)
        idx = (data.states.ravel(), data.actions.ravel())
        counts, sums, moves = np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 3))
        np.add.at(counts, idx, 1.0)
        np.add.at(sums, idx, data.rewards.ravel())
        np.add.at(moves, (data.states[:, :-1].ravel(), data.actions[:, :-1].ravel(),
                          data.states[:, 1:].ravel()), 1.0)
        assert counts.min() > 0 and moves.sum(axis=2).min() > 0
        smoothed = counts + 0.5
        assert np.array_equal(eta.behavior.table, smoothed / smoothed.sum(axis=1, keepdims=True))
        assert np.array_equal(eta.mean_reward, sums / counts)
        assert np.array_equal(eta.transitions, moves / moves.sum(axis=2, keepdims=True))

