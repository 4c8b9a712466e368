import numpy as np
import pytest

from dml_ope import (
    LoggedDataset,
    Policy,
    SupportViolationError,
    ValidationError,
    enumerate_dataset,
    fit_nuisance,
    fit_nuisances,
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


def uneven_dataset(n, seed):
    """Random rows over states 0..3 of a 5-state table, so state 4 is never
    visited, with non-dyadic rewards in [0.1, 1)."""
    rng = np.random.default_rng(seed)
    shape = (n, 3)
    return LoggedDataset(states=rng.integers(0, 4, shape), actions=rng.integers(0, 2, shape),
                         rewards=rng.uniform(0.1, 1.0, shape))


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


class TestCountTables:
    FIELDS = ("behavior", "q", "mean_reward", "transitions")

    @staticmethod
    def tables(eta):
        return (eta.behavior.table, eta.q.values, eta.mean_reward, eta.transitions)

    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    def test_two_folds_equal_per_fold_fits_bit_for_bit(self, known):
        data = uneven_dataset(41, seed=0)
        evaluation = random_policy(np.random.default_rng(1), 5, 2)
        behavior = random_policy(np.random.default_rng(2), 5, 2) if known else None
        folds = make_folds(data.n, 2, np.random.default_rng(3))
        fits = fit_nuisances([data.subset(f) for f in folds], evaluation, 0.9,
                             known_behavior=behavior)
        reference = fit_per_fold(data, folds, evaluation, 0.9, known_behavior=behavior)
        for fit, ref in zip(fits, reference, strict=True):
            # State 4 is unobserved: its rewards fall back to the fitted rows' mean.
            assert np.array_equal(fit.mean_reward[4], np.full(2, ref.mean_reward[4, 0]))
            for name, got, want in zip(self.FIELDS, self.tables(fit), self.tables(ref)):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("k", [3, 5])
    def test_more_folds_match_per_fold_fits(self, k):
        data = uneven_dataset(200, seed=4)
        evaluation = random_policy(np.random.default_rng(5), 5, 2)
        folds = make_folds(data.n, k, np.random.default_rng(6))
        fits = fit_nuisances([data.subset(f) for f in folds], evaluation, 0.9)
        reference = fit_per_fold(data, folds, evaluation, 0.9)
        assert len(fits) == k
        for fit, ref in zip(fits, reference, strict=True):
            for got, want in zip(self.tables(fit), self.tables(ref)):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_unobserved_reward_cell_falls_back_to_mean_reward(self):
        data = uneven_dataset(30, seed=7)
        evaluation = random_policy(np.random.default_rng(8), 5, 2)
        eta = fit_nuisance(data, evaluation, 0.9)
        assert np.array_equal(eta.mean_reward[4], np.full(2, data.rewards.mean()))
        assert np.array_equal(eta.transitions[4], np.full((2, 5), 0.2))
