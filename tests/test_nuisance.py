import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dml_ope import (
    LoggedDataset,
    NuisanceEstimate,
    Policy,
    SupportViolationError,
    ValidationError,
    dml_estimate,
    enumerate_dataset,
    fit_nuisance,
    fit_nuisances,
    make_folds,
    mean_reward_table,
    q_recursion,
    sample_dataset,
)
from dml_ope import nuisance
from dml_ope.estimators import _cells
from dml_ope.nuisance import _count, _fit, _merge

from helpers import (noisy_lift, random_mdp, random_policy, select, three_state_mdp,
                     three_state_policies)


def stacked(datasets, policy):
    """The stacked row set of ``datasets``, one replication each: the cell index
    (R, n, T+1) under ``policy``'s table, offset by r*S*A, and the rewards, as
    ``_count`` takes them."""
    columns = [np.stack([getattr(d, f) for d in datasets])
               for f in ("states", "actions", "rewards")]
    return _cells(columns[0], columns[1], policy), columns[2]


def single_state_dataset(actions, rewards=None):
    n = len(actions)
    rewards = rewards if rewards is not None else [0.0] * n
    return LoggedDataset(
        states=np.zeros((n, 1), dtype=int),
        actions=np.array(actions)[:, None],
        rewards=np.array(rewards, dtype=float)[:, None],
    )


def action_zero(num_states, num_actions):
    """The evaluation policy that always plays action 0."""
    return Policy(table=np.eye(num_actions)[np.zeros(num_states, dtype=int)])


def fit_tables(data, num_states, num_actions, smoothing=0.5):
    """fit_nuisance under an evaluation policy that always plays action 0."""
    return fit_nuisance(data, action_zero(num_states, num_actions), 1.0,
                        smoothing_alpha=smoothing)


def uneven_dataset(n, seed):
    """Random rows over states 0..3 of a 5-state table, so state 4 is never
    visited, with non-dyadic rewards in [0.1, 1)."""
    rng = np.random.default_rng(seed)
    shape = (n, 3)
    return LoggedDataset(states=rng.integers(0, 4, shape), actions=rng.integers(0, 2, shape),
                         rewards=rng.uniform(0.1, 1.0, shape))


def dense_q(mean_reward, transitions, eval_policy, horizon, discount):
    """The dense reference recursion: q_T = mu and q_t = mu + discount * (P @ v_{t+1})."""
    values = np.empty((horizon + 1,) + mean_reward.shape)
    values[horizon] = mean_reward
    for t in range(horizon - 1, -1, -1):
        v_next = (eval_policy.table * values[t + 1]).sum(axis=1)
        values[t] = mean_reward + discount * (transitions @ v_next)
    return values


def transition_table(moves):
    """The transitions of an (S, A, S) table of moves, its moves over their row
    totals with uniform rows where a cell has no moves, and the (S, A) mask of
    those cells."""
    totals = moves.sum(axis=2, keepdims=True)
    trans = np.divide(moves, totals, out=np.full(moves.shape, 1.0 / moves.shape[2]),
                      where=totals > 0)
    return trans, totals[..., 0] == 0


def counted_transitions(data, num_states, num_actions):
    """The transition table of ``data`` from per-move accumulation, and its mask
    of cells without moves."""
    moves = np.zeros((num_states, num_actions, num_states))
    np.add.at(moves, (data.states[:, :-1], data.actions[:, :-1], data.states[:, 1:]), 1.0)
    return transition_table(moves)


def fitted_transitions(data, num_states, num_actions):
    """The transition table of the move pair a fit of ``data`` counts."""
    policy = action_zero(num_states, num_actions)
    idx, counts = _count(*stacked([data], policy), policy)[1]
    moves = np.zeros(num_states * num_actions * num_states)
    moves[idx] = counts
    return transition_table(moves.reshape(num_states, num_actions, num_states))[0]


def fit_per_fold(data, folds, eval_policy, discount, **kwargs):
    """One fit per fold on its complement, the other folds in fold order."""
    return [
        fit_nuisance(select(data, np.concatenate(folds[:k] + folds[k + 1:])),
                     eval_policy, discount, **kwargs)
        for k in range(len(folds))
    ]


def complement_moves(data, folds, eval_policy):
    """For each fold, the move pair that ``fit_nuisances`` fits its complement
    with, built from the folds' pairs, and the pair counted on the complement's
    rows."""
    fitted = []
    with mock.patch.object(nuisance, "_fit",
                           side_effect=lambda tables, moves, *_: fitted.append(moves)):
        list(nuisance._cross_fits([stacked([select(data, f)], eval_policy) for f in folds],
                                  eval_policy, 0.9, None, 0.5))
    return [(moves, _count(*stacked([select(data, np.concatenate(folds[:k] + folds[k + 1:]))],
                                    eval_policy), eval_policy)[1])
            for k, moves in enumerate(fitted)]


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

    @pytest.mark.parametrize("n, k, message", [
        (3, 1, "k must lie in [2, 3] for 3 rows, got 1"),
        (3, 4, "k must lie in [2, 3] for 3 rows, got 4"),
        (5, 2.5, "k must be an integer, got 2.5"),
        (5.0, 2, "n_trajectories must be an integer, got 5.0"),
    ], ids=["one", "above_rows", "fractional", "float_rows"])
    def test_rejects_bad_k(self, n, k, message):
        # A fractional k would split into floor(k) folds.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_folds(n, k, np.random.default_rng(0))


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

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_smoothing_must_be_finite_and_nonnegative(self, alpha):
        with pytest.raises(ValidationError,
                           match=f"^smoothing_alpha must be finite and >= 0, got {alpha}$"):
            fit_tables(single_state_dataset([0, 1]), 1, 2, smoothing=alpha)

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
        trans = fitted_transitions(data, 3, 1)
        assert np.allclose(trans[0, 0], [0.0, 2 / 3, 1 / 3], atol=1e-12)

    def test_unobserved_transition_uniform(self):
        data = single_state_dataset([0])
        trans = fitted_transitions(data, 4, 1)
        assert np.allclose(trans, 0.25, atol=1e-12)


class TestNuisanceEstimate:
    def test_q_must_be_three_dimensional(self):
        with pytest.raises(ValidationError, match=r"^q table must have shape \(T\+1, S, A\)$"):
            NuisanceEstimate(Policy(table=[[0.5, 0.5]]), np.zeros((1, 2)))

    def test_q_must_be_finite(self):
        with pytest.raises(ValidationError, match="^q table entries must be finite$"):
            NuisanceEstimate(Policy(table=[[0.5, 0.5]]), [[[0.0, np.nan]]])

    @pytest.mark.parametrize("q, bad", [
        (np.array([[[True, False]]]), "True"),
        (np.array([[[0.5, 1.0]]]) + 0j, "(0.5+0j)"),
        (np.array([[["0.5", "1"]]]), "'0.5'"),
    ], ids=["bool", "complex", "text"])
    def test_q_must_be_real_numbers(self, q, bad):
        # A bool read as 1.0 or 0.0, a complex number lost its imaginary part with
        # only numpy's ComplexWarning, and text ended in numpy's bare ValueError.
        message = f"q table entries must be real numbers, got {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            NuisanceEstimate(Policy(table=[[0.5, 0.5]]), q)

    @pytest.mark.parametrize("behavior, q, message", [
        (Policy(table=[[0.5, 0.5]] * 3), np.zeros((4, 5, 6)),
         "the q table has shape (4, 5, 6), the behavior policy table (3, 2)"),
        (Policy(table=[[0.5, 0.5]] * 3), np.zeros((1, 2, 2)),
         "the q table has shape (1, 2, 2), the behavior policy table (3, 2)"),
        ([[0.5, 0.5]], np.zeros((1, 1, 2)), "behavior must be a Policy, got list"),
    ], ids=["other_shape", "fewer_states", "table_not_policy"])
    def test_q_and_behavior_must_fit(self, behavior, q, message):
        # Each was accepted; a mismatch surfaced only when an estimator read q.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            NuisanceEstimate(behavior, q)


class TestQRecursion:
    def test_horizon_zero_is_mean_reward(self):
        mdp = three_state_mdp()
        mu = mean_reward_table(mdp)
        q = q_recursion(mu, mdp.transitions, three_state_policies()[1], 0, 0.9)
        assert np.allclose(q[0], mu, atol=1e-12)
        with pytest.raises(ValidationError, match="eval policy shape does not match mean_reward"):
            q_recursion(mu, mdp.transitions, Policy(table=[[0.5, 0.5]]), 0, 0.9)

    @pytest.mark.parametrize("shape, bad, message", [
        ((4, 2, 4), None, r"^transitions must have shape \(S, A, S\) = \(3, 2, 3\), "
                          r"got \(4, 2, 4\)$"),
        ((3, 2), None, r"got \(3, 2\)$"),
        ((3, 2, 3), -0.5, "^transition weights must be finite and >= 0$"),
        ((3, 2, 3), np.nan, "^transition weights must be finite and >= 0$"),
        ((3, 2, 3), np.inf, "^transition weights must be finite and >= 0$"),
        ((3, 2, 4), None, r"got \(3, 2, 4\)$"),
        ((3, 3, 3), None, r"got \(3, 3, 3\)$"),
        ((3, 2, 3, 1), None, r"got \(3, 2, 3, 1\)$"),
        ((3, 2, 3), -np.inf, "^transition weights must be finite and >= 0$"),
    ], ids=["larger-table", "2-d", "negative-weight", "nan-weight", "inf-weight",
            "next-state-axis", "action-axis", "4-d", "minus-inf-weight"])
    def test_malformed_transitions_named(self, shape, bad, message):
        mu = mean_reward_table(three_state_mdp())
        transitions = np.ones(shape)
        if bad is not None:
            transitions[0, 1, 2] = bad
        with pytest.raises(ValidationError, match=message):
            q_recursion(mu, transitions, three_state_policies()[1], 2, 0.9)

    @pytest.mark.parametrize("shape", [(3,), (1, 3, 2), (2, 3)], ids=["1-d", "3-d", "transposed"])
    def test_mean_reward_of_another_shape_named(self, shape):
        mdp = three_state_mdp()
        with pytest.raises(ValidationError, match="eval policy shape does not match mean_reward"):
            q_recursion(np.zeros(shape), mdp.transitions, three_state_policies()[1],
                        2, 0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_mean_reward_named(self, bad):
        mdp = three_state_mdp()
        mu = mean_reward_table(mdp)
        mu[1, 0] = bad
        with pytest.raises(ValidationError, match="mean_reward entries must be finite"):
            q_recursion(mu, mdp.transitions, three_state_policies()[1], 2, 0.9)

    @pytest.mark.parametrize("argument, kind, bad", [
        ("mean_reward", bool, "True"),
        ("mean_reward", complex, "(0.7+0j)"),
        ("mean_reward", str, "'0.7'"),
        ("transitions", bool, "True"),
        ("transitions", complex, "(0.6+0j)"),
        ("transitions", str, "'0.6'"),
    ], ids=["bool_mean_reward", "complex_mean_reward", "text_mean_reward",
            "bool_transitions", "complex_transitions", "text_transitions"])
    def test_arrays_must_be_real_numbers(self, argument, kind, bad):
        # A bool read as 1.0 or 0.0, a complex number lost its imaginary part with
        # only numpy's ComplexWarning, and text was read as the number it spells.
        mdp = three_state_mdp()
        arrays = {"mean_reward": mean_reward_table(mdp), "transitions": mdp.transitions}
        arrays[argument] = arrays[argument].astype(kind)
        rule = "mean_reward entries" if argument == "mean_reward" else "transition weights"
        message = f"{rule} must be real numbers, got {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            q_recursion(arrays["mean_reward"], arrays["transitions"],
                        three_state_policies()[1], 2, 0.9)

    def test_overflowing_q_tables_named(self):
        # Finite entries of 1e308 overflow at q_1 = mu + 0.9 * E[v_2]; the recursion
        # raises the fit's message rather than numpy's overflow warning.
        mdp = three_state_mdp()
        with pytest.raises(ValidationError, match="q table entries must be finite"):
            q_recursion(np.full((3, 2), 1e308), mdp.transitions,
                        three_state_policies()[1], 2, 0.9)

    @pytest.mark.parametrize("horizon, message", [
        (-1, "horizon must be >= 0, got -1"),
        (2.0, "horizon must be an integer, got 2.0"),
        (True, "horizon must be an integer, got True"),
    ], ids=["negative", "float", "bool"])
    def test_malformed_horizon_named(self, horizon, message):
        mdp = three_state_mdp()
        with pytest.raises(ValidationError, match=f"^{message}$"):
            q_recursion(mean_reward_table(mdp), mdp.transitions,
                        three_state_policies()[1], horizon, 0.9)

    def test_numpy_integer_horizon_accepted(self):
        mdp = three_state_mdp()
        args = mean_reward_table(mdp), mdp.transitions, three_state_policies()[1]
        np.testing.assert_array_equal(q_recursion(*args, np.int64(2), 0.9),
                                      q_recursion(*args, 2, 0.9))

    def test_weights_are_row_proportions(self):
        # Weights count as their share of their (s, a) row, so a zero weight is
        # no move and a row of zeros is uniform: the dense recursion with the
        # rows over their totals.
        mdp = three_state_mdp()
        mu = mean_reward_table(mdp)
        policy = three_state_policies()[1]
        weights = np.where(np.arange(18).reshape(3, 2, 3) % 2 == 0, 5.0 * mdp.transitions, 0.0)
        weights[1, 0] = 0.0
        np.testing.assert_allclose(
            q_recursion(mu, weights, policy, 2, 0.9),
            dense_q(mu, transition_table(weights)[0], policy, 2, 0.9), rtol=0, atol=1e-12)

    def test_zero_discount_collapses(self):
        mdp = three_state_mdp()
        mu = mean_reward_table(mdp)
        q = q_recursion(mu, mdp.transitions, three_state_policies()[1], 2, 0.0)
        for t in range(3):
            assert np.allclose(q[t], mu, atol=1e-12)

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
                assert q[0, s, a] == pytest.approx(cond, abs=1e-10)

    def test_linear_in_mean_reward(self):
        mdp = three_state_mdp()
        policy = three_state_policies()[1]
        mu = mean_reward_table(mdp)
        q1 = q_recursion(mu, mdp.transitions, policy, 2, 0.9)
        q3 = q_recursion(3.0 * mu, mdp.transitions, policy, 2, 0.9)
        assert np.allclose(3.0 * q1, q3, atol=1e-12)


class TestSparseRecursion:
    """The fit's Q recursion sums over the nonzero moves only; it must match the
    dense product with the fitted transition table, whose moveless rows are uniform."""

    def test_lift_fit_matches_dense_reference(self):
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 1000, np.random.default_rng(21))
        eta = fit_nuisance(data, evaluation, 0.9, known_behavior=behavior)
        trans, empty = counted_transitions(data, mdp.num_states, mdp.num_actions)
        assert np.any(empty) and not np.all(empty)
        np.testing.assert_allclose(
            eta.q, dense_q(eta.mean_reward, trans, evaluation, data.horizon, 0.9),
            rtol=0, atol=1e-12)
        assert np.array_equal(fitted_transitions(data, mdp.num_states, mdp.num_actions), trans)

    def test_cells_without_moves_take_the_mean_next_value(self):
        # (1, 0) and (2, 1) are visited only at the last step, so they have no moves.
        data = LoggedDataset(states=[[0, 1, 2], [0, 2, 2], [1, 0, 1]],
                             actions=[[0, 1, 0], [0, 0, 1], [1, 1, 0]],
                             rewards=[[0.3, 1.7, 0.2], [0.9, 0.4, 1.1], [0.6, 0.05, 0.8]])
        evaluation = random_policy(np.random.default_rng(22), 3, 2)
        eta = fit_nuisance(data, evaluation, 0.8)
        trans, empty = counted_transitions(data, 3, 2)
        assert np.argwhere(empty).tolist() == [[1, 0], [2, 1]]
        assert np.array_equal(fitted_transitions(data, 3, 2), trans)
        q = eta.q
        np.testing.assert_allclose(q, dense_q(eta.mean_reward, trans, evaluation, 2, 0.8),
                                   rtol=0, atol=1e-12)
        for t in range(2):
            v_next = (evaluation.table * q[t + 1]).sum(axis=1)
            np.testing.assert_allclose(q[t][empty], eta.mean_reward[empty] + 0.8 * v_next.mean(),
                                       rtol=0, atol=1e-12)

    def test_dense_table_goes_through_the_same_recursion(self):
        mdp, _, evaluation = noisy_lift()
        mu = mean_reward_table(mdp)
        np.testing.assert_allclose(
            q_recursion(mu, mdp.transitions, evaluation, mdp.horizon, 0.9),
            dense_q(mu, mdp.transitions, evaluation, mdp.horizon, 0.9), rtol=0, atol=1e-12)


class TestFitNuisances:
    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_parts_rejected(self, count):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(2))
        with pytest.raises(ValidationError,
                           match=f"fit_nuisances needs two or more parts, got {count}"):
            fit_nuisances([data] * count, evaluation, 0.9)

    def test_a_part_of_another_type_is_named(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(2))
        with pytest.raises(ValidationError,
                           match=r"^parts\[1\] must be a LoggedDataset, got tuple$"):
            fit_nuisances([data, (data.cells(evaluation, "evaluation"), data.rewards)],
                          evaluation, 0.9)

    def test_parts_of_different_horizons_rejected(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(2))
        shorter = LoggedDataset(states=data.states[:, :2], actions=data.actions[:, :2],
                                rewards=data.rewards[:, :2])
        with pytest.raises(ValidationError,
                           match=r"the parts must share one horizon, got horizons \[1, 2\]"):
            fit_nuisances([data, shorter], evaluation, 0.9)

    def test_overflowing_rewards_named(self):
        # Rewards of 1e308 overflow the reward total and the Q tables; the fits
        # raise the Q check's message, not numpy's overflow warning.
        evaluation = three_state_policies()[1]
        data = LoggedDataset(states=[[0, 1, 2]] * 4, actions=[[0, 1, 0]] * 4,
                             rewards=np.full((4, 3), 1e308))
        with pytest.raises(ValidationError, match="^q table entries must be finite$"):
            fit_nuisance(data, evaluation, 0.9)
        with pytest.raises(ValidationError, match="^q table entries must be finite$"):
            fit_nuisances([select(data, slice(0, 2)), select(data, slice(2, 4))], evaluation,
                          0.9)

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
        assert np.array_equal(etas[1].q, etas_mut[1].q)

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
            fit_per_fold(data, folds, evaluation, 1.0, smoothing_alpha=0.0)

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
        assert np.array_equal(fitted_transitions(data, 3, 2),
                              moves / moves.sum(axis=2, keepdims=True))


class TestCountTables:
    FIELDS = ("behavior", "q", "mean_reward")

    @staticmethod
    def tables(eta):
        return (eta.behavior.table, eta.q, eta.mean_reward)

    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    def test_two_folds_equal_per_fold_fits_bit_for_bit(self, known):
        data = uneven_dataset(41, seed=0)
        evaluation = random_policy(np.random.default_rng(1), 5, 2)
        behavior = random_policy(np.random.default_rng(2), 5, 2) if known else None
        folds = make_folds(data.n, 2, np.random.default_rng(3))
        fits = fit_nuisances([select(data, f) for f in folds], evaluation, 0.9,
                             known_behavior=behavior)
        reference = fit_per_fold(data, folds, evaluation, 0.9, known_behavior=behavior)
        for fit, ref in zip(fits, reference, strict=True):
            # State 4 is unobserved: its rewards fall back to the fitted rows' mean.
            assert np.array_equal(fit.mean_reward[4], np.full(2, ref.mean_reward[4, 0]))
            for name, got, want in zip(self.FIELDS, self.tables(fit), self.tables(ref)):
                assert np.array_equal(got, want), name
        for merged, counted in complement_moves(data, folds, evaluation):
            assert all(np.array_equal(got, want) for got, want in zip(merged, counted))

    @pytest.mark.parametrize("k", [3, 5])
    def test_more_folds_match_per_fold_fits(self, k):
        data = uneven_dataset(200, seed=4)
        evaluation = random_policy(np.random.default_rng(5), 5, 2)
        folds = make_folds(data.n, k, np.random.default_rng(6))
        fits = fit_nuisances([select(data, f) for f in folds], evaluation, 0.9)
        reference = fit_per_fold(data, folds, evaluation, 0.9)
        assert len(fits) == k
        for fit, ref in zip(fits, reference, strict=True):
            for got, want in zip(self.tables(fit), self.tables(ref)):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for merged, counted in complement_moves(data, folds, evaluation):
            assert all(np.array_equal(got, want) for got, want in zip(merged, counted))

    def test_unobserved_reward_cell_falls_back_to_mean_reward(self):
        data = uneven_dataset(30, seed=7)
        evaluation = random_policy(np.random.default_rng(8), 5, 2)
        eta = fit_nuisance(data, evaluation, 0.9)
        assert np.array_equal(eta.mean_reward[4], np.full(2, data.rewards.mean()))
        # State 4's cells have no moves, so they take mean(v_{t+1}): uniform rows.
        moves = _count(*stacked([data], evaluation), evaluation)[1][0]
        assert not np.any(moves // 10 == 4)
        for t in range(data.horizon):
            v_next = (evaluation.table * eta.q[t + 1]).sum(axis=1)
            assert np.array_equal(eta.q[t, 4], eta.mean_reward[4] + 0.9 * v_next.mean())


# SORT_DIVISOR values that send every count of at least one move to np.unique,
# or to the dense table.
ROUTES = {"sorted": 0, "dense": 2**62}


@st.composite
def keyed_parts(draw):
    """A table shape (S, A) and 2-4 parts of one horizon >= 1, each of random
    rows whose flat move keys are ``(s*A + a)*S + s'``."""
    num_states, num_actions = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    steps = draw(st.integers(2, 4))
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 12))
        ids = [draw(st.lists(st.integers(0, high - 1), min_size=n * steps, max_size=n * steps))
               for high in (num_states, num_actions)]
        states, actions = (np.reshape(x, (n, steps)) for x in ids)
        parts.append(LoggedDataset(states=states, actions=actions, rewards=np.zeros((n, steps))))
    return num_states, num_actions, parts


def dense_pair(parts, num_states, num_actions):
    """The move pair of the sum of each part's np.bincount of its move keys."""
    size = num_states * num_actions * num_states
    total = sum(np.bincount(((p.states[:, :-1] * num_actions + p.actions[:, :-1]) * num_states
                             + p.states[:, 1:]).ravel(), minlength=size) for p in parts)
    idx = np.flatnonzero(total)
    return idx, total[idx]


def assert_pairs_equal(got, want):
    assert all(g.dtype == np.int64 for g in got)
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@st.composite
def replicated_parts(draw, min_parts=2):
    """A table shape (S, A), a replication count R of 1 or 3, and ``min_parts`` to
    4 parts of one horizon >= 0, each R datasets of random rows of one size."""
    num_states, num_actions = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    reps, steps = draw(st.sampled_from([1, 3])), draw(st.integers(1, 4))
    parts = []
    for _ in range(draw(st.integers(min_parts, 4))):
        n = draw(st.integers(1, 12))
        part = []
        for _ in range(reps):
            states, actions = (np.reshape(draw(st.lists(st.integers(0, high - 1),
                                                        min_size=n * steps,
                                                        max_size=n * steps)), (n, steps))
                               for high in (num_states, num_actions))
            part.append(LoggedDataset(states=states, actions=actions,
                                      rewards=np.zeros((n, steps))))
        parts.append(part)
    return num_states, num_actions, parts


def stacked_dense_pair(replications, num_states, num_actions):
    """The move pair of R stacked replications, each given as its parts: replication
    r's is ``dense_pair`` of its parts, its indices offset by r*S*A*S."""
    size = num_states * num_actions * num_states
    pairs = [dense_pair(parts, num_states, num_actions) for parts in replications]
    return tuple(np.concatenate(column)
                 for column in zip(*[(idx + r * size, counts)
                                     for r, (idx, counts) in enumerate(pairs)]))


class TestMovePairs:
    """Both routes of the size rule, and the merge of two or more pairs, give the
    sorted nonzero flat indices and int64 counts of a dense np.bincount."""

    @settings(deadline=None)
    @given(keyed_parts())
    def test_count_routes_agree(self, drawn):
        num_states, num_actions, parts = drawn
        policy = action_zero(num_states, num_actions)
        for part in parts:
            for divisor in ROUTES.values():
                with mock.patch.object(nuisance, "SORT_DIVISOR", divisor):
                    pair = _count(*stacked([part], policy), policy)[1]
                assert_pairs_equal(pair, dense_pair([part], num_states, num_actions))

    @settings(deadline=None)
    @given(keyed_parts())
    def test_merge_is_the_dense_sum(self, drawn):
        num_states, num_actions, parts = drawn
        policy = action_zero(num_states, num_actions)
        pairs = tuple(_count(*stacked([p], policy), policy)[1] for p in parts)
        for divisor in ROUTES.values():
            with mock.patch.object(nuisance, "SORT_DIVISOR", divisor):
                merged = _merge(pairs, num_states * num_actions * num_states)
            assert_pairs_equal(merged, dense_pair(parts, num_states, num_actions))

    @settings(deadline=None)
    @given(keyed_parts())
    def test_stacked_merge_is_each_replications_dense_sum(self, drawn):
        # m stacked replications of m - 1 pairs: replication r's k-th pair is part
        # (k + r) mod m's, its indices offset by r*S*A*S, so each leaves out another part.
        num_states, num_actions, parts = drawn
        policy = action_zero(num_states, num_actions)
        size = num_states * num_actions * num_states
        pairs = [_count(*stacked([p], policy), policy)[1] for p in parts]
        m = len(parts)

        def stack(blocks):
            return tuple(np.concatenate(column) for column in zip(*blocks))

        shifted = tuple(stack([(pairs[(k + r) % m][0] + r * size, pairs[(k + r) % m][1])
                               for r in range(m)]) for k in range(m - 1))
        own = [dense_pair([parts[(k + r) % m] for k in range(m - 1)], num_states, num_actions)
               for r in range(m)]
        want = stack([(idx + r * size, counts) for r, (idx, counts) in enumerate(own)])
        for divisor in ROUTES.values():
            with mock.patch.object(nuisance, "SORT_DIVISOR", divisor):
                assert_pairs_equal(_merge(shifted, size, m), want)

    @settings(deadline=None)
    @given(replicated_parts())
    def test_visits_are_the_bincount_of_the_cells(self, drawn):
        # The dense route reads the visits of steps 0..T-1 from its move table and
        # adds step T's; a cell that no row visits counts 0 on either route.
        num_states, num_actions, parts = drawn
        policy = action_zero(num_states, num_actions)
        for part in parts:
            sa, rewards = stacked(part, policy)
            want = np.bincount(sa.ravel(), minlength=len(part) * policy.table.size)
            for divisor in ROUTES.values():
                with mock.patch.object(nuisance, "SORT_DIVISOR", divisor):
                    visits = _count(sa, rewards, policy)[0][0]
                assert visits.dtype == np.int64
                assert np.array_equal(visits, want.reshape(len(part), -1))

    @pytest.mark.parametrize("route", ROUTES)
    def test_visits_count_the_last_step_and_never_visited_cells(self, route):
        # State 2 is visited only at the last step, which no move starts from, and
        # state 3 never; the second replication visits state 1 only.
        policy = action_zero(4, 2)
        data = [LoggedDataset(states=[[0, 1, 2], [1, 0, 2]], actions=[[1, 0, 1], [0, 0, 0]],
                              rewards=np.zeros((2, 3))),
                LoggedDataset(states=[[1, 1, 1], [1, 1, 1]], actions=[[0, 0, 0], [0, 0, 1]],
                              rewards=np.zeros((2, 3)))]
        with mock.patch.object(nuisance, "SORT_DIVISOR", ROUTES[route]):
            visits = _count(*stacked(data, policy), policy)[0][0]
        assert visits.tolist() == [[1, 1, 2, 0, 1, 1, 0, 0], [0, 0, 5, 1, 0, 0, 0, 0]]

    @settings(deadline=None)
    @given(replicated_parts(min_parts=3))
    def test_each_complement_is_the_dense_sum_of_the_other_parts(self, drawn):
        # The move pair that _cross_fits fits each complement of 3-4 parts with,
        # replication by replication, to the bit.
        num_states, num_actions, parts = drawn
        policy = action_zero(num_states, num_actions)
        rows = [stacked(part, policy) for part in parts]
        for divisor in ROUTES.values():
            fitted = []
            with (mock.patch.object(nuisance, "SORT_DIVISOR", divisor),
                  mock.patch.object(nuisance, "_fit",
                                    side_effect=lambda tables, moves, *_: fitted.append(moves))):
                list(nuisance._cross_fits(rows, policy, 0.9, None, 0.5))
            assert len(fitted) == len(parts)
            for k, moves in enumerate(fitted):
                others = parts[:k] + parts[k + 1:]
                want = stacked_dense_pair(list(zip(*others)), num_states, num_actions)
                assert_pairs_equal(moves, want)

    def test_parts_straddling_the_rule_match_per_fold_fits_bit_for_bit(self):
        # 5 states, 2 actions: 50 cells, so under SORT_DIVISOR = 6 the 2- and 4-move
        # parts are sorted and the 80-move part goes through the dense table, so each
        # complement is the total of the three pairs less its own. Rewards in eighths
        # sum exactly in any order, so only the move pairs could make the fits differ.
        uneven = uneven_dataset(43, seed=9)
        data = LoggedDataset(states=uneven.states, actions=uneven.actions,
                             rewards=np.round(uneven.rewards * 8) / 8)
        evaluation = random_policy(np.random.default_rng(10), 5, 2)
        folds = (np.arange(0, 1), np.arange(1, 3), np.arange(3, 43))
        parts = [select(data, f) for f in folds]
        moves = [f.size * data.horizon for f in folds]
        assert nuisance.SORT_DIVISOR == 6 and moves == [2, 4, 80]
        fits = fit_nuisances(parts, evaluation, 0.9)
        for fit, ref in zip(fits, fit_per_fold(data, folds, evaluation, 0.9), strict=True):
            for got, want in zip(TestCountTables.tables(fit), TestCountTables.tables(ref)):
                assert np.array_equal(got, want)
        for merged, counted in complement_moves(data, folds, evaluation):
            assert_pairs_equal(merged, counted)

    def test_small_fit_builds_no_dense_move_table(self):
        # The lift's S*A*S = 115,200 cells take 921,600 bytes as a dense int64 table.
        mdp, _, evaluation = noisy_lift()
        data = sample_dataset(mdp, evaluation, 1000, np.random.default_rng(23))
        parts = [select(data, f) for f in make_folds(data.n, 2, np.random.default_rng(24))]
        tracemalloc.start()
        try:
            fit_nuisances(parts, evaluation, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mdp.num_states * mdp.num_actions * mdp.num_states * 8

    def test_a_merge_of_few_moves_builds_no_dense_move_table(self):
        # DML at k=3 merges two folds' move pairs for each complement: on 30 rows
        # of a 2,048-state policy, the dense S*A*S int64 table alone is 64 MiB
        # (72.4 MiB traced), against 0.6 MiB for the whole estimate at k=2.
        rng = np.random.default_rng(1)
        num_states = 2048
        data = LoggedDataset(states=rng.integers(0, num_states, (30, 3)),
                             actions=rng.integers(0, 2, (30, 3)),
                             rewards=rng.standard_normal((30, 3)))
        evaluation = Policy(table=np.full((num_states, 2), 0.5))
        tracemalloc.start()
        try:
            estimate = dml_estimate(data, evaluation, 0.9, np.random.default_rng(2), k_folds=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert estimate.to_dict() == {
            "estimator": "dml", "value": -0.29488598335919847, "variance": 1.4259757985258128,
            "std_error": 0.2180195555851059, "ci": [-0.7221964602314344, 0.13242449351303742],
            "level": 0.95, "n": 30}


@st.composite
def stacked_parts(draw):
    """A table shape (S, A), a replication count R of 1 or 3, and 2-3 parts of
    one horizon >= 0: each the stacked cell index (R, n, T+1), offset by r*S*A,
    and zero rewards of R row sets of random ids."""
    num_states, num_actions = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    reps, steps = draw(st.sampled_from([1, 3])), draw(st.integers(1, 4))
    policy = action_zero(num_states, num_actions)
    parts = []
    for _ in range(draw(st.integers(2, 3))):
        shape = (reps, draw(st.integers(1, 12)), steps)
        size = reps * shape[1] * steps
        states, actions = (np.reshape(draw(st.lists(st.integers(0, high - 1), min_size=size,
                                                    max_size=size)), shape)
                           for high in (num_states, num_actions))
        parts.append((_cells(states, actions, policy), np.zeros(shape)))
    return policy, reps, parts


class TestMovePairForm:
    """The move pairs that ``_count`` and ``_merge`` build are of the form
    ``_q_tables`` reads unchecked, that of ``_nonzero``'s pairs of a dense table:
    integer indices, strictly increasing and in [0, R*S*A*S), and positive int64
    counts that sum to the number of moves."""

    @staticmethod
    def assert_form(pair, size, moves):
        idx, counts = pair
        assert idx.dtype.kind == "i" and counts.dtype == np.int64
        assert idx.ndim == 1 and idx.shape == counts.shape
        assert np.all(idx[1:] > idx[:-1])
        assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < size)
        assert np.all(counts > 0) and counts.sum() == moves

    @settings(deadline=None)
    @given(stacked_parts())
    def test_counted_and_merged_pairs_are_checked_form(self, drawn):
        policy, reps, parts = drawn
        num_states = policy.num_states
        size = policy.table.size * num_states
        moves = [sa[..., 1:].size for sa, _ in parts]
        for divisor in ROUTES.values():
            with mock.patch.object(nuisance, "SORT_DIVISOR", divisor):
                pairs = [_count(*part, policy)[1] for part in parts]
            for pair, count in zip(pairs, moves):
                self.assert_form(pair, reps * size, count)
            for m in range(2, len(parts) + 1):
                self.assert_form(_merge(tuple(pairs[:m]), size, reps), reps * size,
                                 sum(moves[:m]))


class TestStackedFits:
    """R row sets counted and fitted as one stack, their cell indices offset by
    r*S*A, give each replication the tables, move pair and Q of its own fit, to
    the bit: a bin sums only its own rows, and every row sum is numpy's pairwise
    sum of that replication alone."""

    @pytest.mark.parametrize("scenario, n", [("lift", 40), ("lift", 1000), ("small", 300)],
                             ids=["lift_40", "lift_1000", "small_dense"])
    @pytest.mark.parametrize("known", [False, True], ids=["estimated", "known"])
    def test_each_replication_fits_as_alone(self, scenario, n, known):
        if scenario == "lift":
            mdp, behavior, evaluation = noisy_lift()
        else:  # 5 states, 2 actions: every count takes the dense route
            rng = np.random.default_rng(9)
            mdp = random_mdp(rng, 5, 2, 3)
            behavior, evaluation = random_policy(rng, 5, 2), random_policy(rng, 5, 2)
        datasets = [sample_dataset(mdp, behavior, n, np.random.default_rng(seed))
                    for seed in range(4)]
        known_behavior = behavior if known else None
        size = evaluation.table.size * mdp.num_states
        tables, (idx, counts) = _count(*stacked(datasets, evaluation), evaluation)
        fit = _fit(tables, (idx, counts), mdp.horizon, evaluation, 0.9, known_behavior, 0.5)
        for r, data in enumerate(datasets):
            own_tables, own_pair = _count(*stacked([data], evaluation), evaluation)
            for got, want in zip(tables, own_tables):
                assert got[r].tobytes() == want.tobytes()
            mine = (idx >= r * size) & (idx < (r + 1) * size)
            assert (idx[mine] - r * size).tobytes() == own_pair[0].tobytes()
            assert counts[mine].tobytes() == own_pair[1].tobytes()
            behavior_r, q_r = _fit(own_tables, own_pair, mdp.horizon, evaluation, 0.9,
                                   known_behavior, 0.5)
            assert fit[1][:, r].tobytes() == q_r[:, 0].tobytes()
            got_behavior = fit[0] if known else fit[0][r]
            assert got_behavior.tobytes() == behavior_r.reshape(got_behavior.shape).tobytes()

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("scenario", ["A1", "A2", "A3", "lift"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_next_state_read_from_the_cell_index(self, scenario, reps, route):
        # _count reads a move's next state s' from its next cell, sa // A less the
        # replication's r*S. The reference keeps the formula that read the states
        # column: sa[..., :-1]*S + states[..., 1:], offset by r*S*A*S through sa.
        if scenario == "lift":
            mdp, behavior, evaluation = noisy_lift()
        else:
            num_actions = int(scenario[1])
            rng = np.random.default_rng(num_actions)
            mdp = random_mdp(rng, 5, num_actions, 3)
            behavior, evaluation = (random_policy(rng, 5, num_actions) for _ in range(2))
        datasets = [sample_dataset(mdp, behavior, 200, np.random.default_rng(seed))
                    for seed in range(reps)]
        sa, rewards = stacked(datasets, evaluation)
        states = np.stack([d.states for d in datasets])
        want = np.unique(sa[..., :-1] * mdp.num_states + states[..., 1:], return_counts=True)
        with mock.patch.object(nuisance, "SORT_DIVISOR", ROUTES[route]):
            assert_pairs_equal(_count(sa, rewards, evaluation)[1], want)

    def test_support_checked_in_every_replication(self):
        # Only the second replication's fit leaves a cell of the evaluation
        # policy's support unvisited; its fit raises the message of a lone fit.
        data = [single_state_dataset([0, 1, 0]), single_state_dataset([0, 0, 0])]
        evaluation = Policy(table=[[0.5, 0.5]])
        with pytest.raises(SupportViolationError) as alone:
            fit_nuisance(data[1], evaluation, 1.0, smoothing_alpha=0.0)
        rows = stacked(data, evaluation)
        with pytest.raises(SupportViolationError) as together:
            _fit(*_count(*rows, evaluation), 0, evaluation, 1.0, None, 0.0)
        assert str(together.value) == str(alone.value)
