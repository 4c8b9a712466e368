import numpy as np
import pytest

from dml_ope import (
    Estimator,
    LoggedDataset,
    NuisanceEstimate,
    Policy,
    QTable,
    SupportViolationError,
    ValidationError,
    cb_efficiency_bound,
    dm_estimate,
    dml_estimate,
    dr_full_estimate,
    dr_half_estimate,
    exact_policy_value,
    fit_nuisance,
    fit_nuisances,
    ipw_estimate,
    make_folds,
    mean_reward_table,
    q_recursion,
    sample_dataset,
)
from dml_ope.estimators import _psi_ipw_scores, _psi_scores, _weight_matrix

from helpers import (
    bandit_mdp,
    bandit_policies,
    bernoulli,
    one_row,
    three_state_mdp,
    three_state_policies,
)


def oracle_nuisance(mdp, behavior, evaluation):
    mu = mean_reward_table(mdp)
    q = q_recursion(mu, mdp.transitions, evaluation, mdp.horizon, mdp.discount)
    return NuisanceEstimate(behavior=behavior, q=q, mean_reward=mu, transitions=mdp.transitions)


def zero_q_nuisance(behavior, horizon):
    shape = (horizon + 1,) + behavior.table.shape
    return NuisanceEstimate(
        behavior=behavior,
        q=QTable(values=np.zeros(shape)),
        mean_reward=np.zeros(behavior.table.shape),
        transitions=np.full(behavior.table.shape + (behavior.num_states,),
                            1.0 / behavior.num_states),
    )


class TestImportanceWeights:
    def test_identity_weights(self):
        row = one_row(states=[0, 1], actions=[0, 1], rewards=[0.0, 0.0])
        policy = Policy(table=[[0.3, 0.7], [0.6, 0.4]])
        assert np.allclose(_weight_matrix(row, policy, policy)[0], [1.0, 1.0], atol=1e-15)

    def test_uniform_behavior_doubling(self):
        row = one_row(states=[0, 0], actions=[1, 1], rewards=[0.0, 0.0])
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[0.0, 1.0]])
        assert _weight_matrix(row, evaluation, behavior)[0].tolist() == [2.0, 4.0]

    def test_zero_eval_mass_zeroes_weights(self):
        row = one_row(states=[0, 0], actions=[0, 1], rewards=[0.0, 0.0])
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[0.0, 1.0]])
        assert _weight_matrix(row, evaluation, behavior)[0].tolist() == [0.0, 0.0]

    def test_zero_behavior_propensity_raises(self):
        row = one_row(states=[0], actions=[1], rewards=[0.0])
        behavior = Policy(table=[[1.0, 0.0]])
        evaluation = Policy(table=[[0.5, 0.5]])
        with pytest.raises(SupportViolationError):
            _weight_matrix(row, evaluation, behavior)


class TestScores:
    def test_zero_q_reduces_to_ipw(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 200, np.random.default_rng(1))
        eta = zero_q_nuisance(behavior, mdp.horizon)
        for i in range(0, 200, 17):
            row = data.subset([i])
            assert _psi_scores(row, eta, evaluation, 0.9)[0] == pytest.approx(
                _psi_ipw_scores(row, behavior, evaluation, 0.9)[0], abs=1e-12
            )

    def test_hand_evaluated_bandit_score(self):
        # rho_0 = 0.9 / 0.45 = 2, R = 1, q(taken) = 0.5, sum_a pi_e q = 0.6
        row = one_row(states=[0], actions=[0], rewards=[1.0])
        eta = NuisanceEstimate(
            behavior=Policy(table=[[0.45, 0.55]]),
            q=QTable(values=[[[0.5, 1.5]]]),
            mean_reward=np.array([[0.5, 1.5]]),
            transitions=np.ones((1, 2, 1)),
        )
        evaluation = Policy(table=[[0.9, 0.1]])
        assert _psi_scores(row, eta, evaluation, 1.0)[0] == pytest.approx(1.6, abs=1e-12)

    def test_ipw_identity_policy_gives_return(self):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 20, np.random.default_rng(5))
        disc = 0.9 ** np.arange(3)
        for i in range(20):
            row = data.subset([i])
            expected = float((row.rewards[0] * disc).sum())
            assert _psi_ipw_scores(row, behavior, behavior, 0.9)[0] == pytest.approx(
                expected, abs=1e-12
            )

    def test_ipw_direct_sum(self):
        row = one_row(states=[0, 0], actions=[1, 1], rewards=[1.0, 1.0])
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[0.0, 1.0]])
        assert _psi_ipw_scores(row, behavior, evaluation, 1.0)[0] == pytest.approx(
            6.0, abs=1e-12
        )


class TestPointEstimators:
    def test_dm_constant_q(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 50, np.random.default_rng(2))
        eta = zero_q_nuisance(behavior, mdp.horizon)
        eta = NuisanceEstimate(
            behavior=eta.behavior,
            q=QTable(values=np.full_like(eta.q.values, 4.2)),
            mean_reward=eta.mean_reward,
            transitions=eta.transitions,
        )
        est = dm_estimate(data, eta, evaluation)
        assert est.value == pytest.approx(4.2, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-12)

    def test_dm_exact_on_enumeration_weighted_initial_states(self):
        # Initial distribution (0.25, 0.75) realized exactly by 1 + 3 copies.
        mdp = bandit_mdp()
        mdp = type(mdp)(
            num_states=2, num_actions=2, horizon=0, discount=1.0,
            initial_dist=[0.25, 0.75], transitions=mdp.transitions, rewards=mdp.rewards,
        )
        behavior, evaluation = bandit_policies()
        eta = oracle_nuisance(mdp, behavior, evaluation)
        data = LoggedDataset(
            states=np.array([[0], [1], [1], [1]]),
            actions=np.zeros((4, 1), dtype=int),
            rewards=np.zeros((4, 1)),
        )
        est = dm_estimate(data, eta, evaluation)
        assert est.value == pytest.approx(exact_policy_value(mdp, evaluation), abs=1e-10)

    def test_ipw_matches_mean_return_on_policy(self):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 400, np.random.default_rng(3))
        est = ipw_estimate(data, behavior, behavior, 0.9)
        disc = 0.9 ** np.arange(3)
        assert est.value == pytest.approx(float((data.rewards * disc).sum(1).mean()), abs=1e-12)

    def test_identical_trajectories_zero_variance(self):
        data = LoggedDataset(states=[[0]] * 5, actions=[[0]] * 5, rewards=[[1.0]] * 5)
        behavior = Policy(table=[[0.5, 0.5]])
        est = ipw_estimate(data, behavior, behavior, 1.0)
        assert est.variance == 0.0
        assert est.ci_low == est.ci_high == est.value


class TestDrVariants:
    def test_dr_full_with_zero_q_equals_ipw_on_estimated_behavior(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 100, np.random.default_rng(4))
        fitted_behavior = fit_nuisance(data, evaluation, 0.9).behavior
        eta = zero_q_nuisance(fitted_behavior, mdp.horizon)
        dr = dr_full_estimate(data, eta, evaluation, 0.9)
        ipw = ipw_estimate(data, fitted_behavior, evaluation, 0.9)
        assert dr.value == pytest.approx(ipw.value, abs=1e-12)
        assert dr.variance == pytest.approx(ipw.variance, abs=1e-12)

    def test_oracle_nuisances_make_dr_full_equal_dml(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 64, np.random.default_rng(6))
        eta = oracle_nuisance(mdp, behavior, evaluation)
        dr = dr_full_estimate(data, eta, evaluation, 0.9)
        dml = dml_estimate(data, evaluation, 0.9, np.random.default_rng(0),
                           k_folds=2, oracle_nuisance=eta)
        assert dr.value == pytest.approx(dml.value, abs=1e-12)

    def test_dr_half_smallest_split(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 2, np.random.default_rng(7))
        eta = oracle_nuisance(mdp, behavior, evaluation)
        est = dr_half_estimate(data, evaluation, 0.9, np.random.default_rng(1),
                               oracle_nuisance=eta)
        assert est.n == 1

    @pytest.mark.parametrize("n", [10, 11])
    def test_dr_half_scores_first_half(self, n):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, n, np.random.default_rng(8))
        eta = oracle_nuisance(mdp, behavior, evaluation)
        rng_seed = 42
        est = dr_half_estimate(data, evaluation, 0.9, np.random.default_rng(rng_seed),
                               oracle_nuisance=eta)
        perm = np.random.default_rng(rng_seed).permutation(n)
        idx = np.sort(perm[:(n + 1) // 2])
        expected = _psi_scores(data.subset(idx), eta, evaluation, 0.9).mean()
        assert est.value == pytest.approx(float(expected), abs=1e-12)
        assert est.n == (n + 1) // 2

    def test_dr_half_is_dml_fold_0_at_two_folds(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        sampled = sample_dataset(mdp, behavior, 31, np.random.default_rng(10))
        data = LoggedDataset(sampled.states, sampled.actions,
                             np.random.default_rng(11).uniform(size=sampled.rewards.shape))
        folds = make_folds(data.n, 2, np.random.default_rng(5))
        parts = [data.subset(f) for f in folds]
        scores = np.empty(data.n)
        for fold, part, eta in zip(folds, parts, fit_nuisances(parts, evaluation, 0.9)):
            scores[fold] = _psi_scores(part, eta, evaluation, 0.9)
        dml = dml_estimate(data, evaluation, 0.9, np.random.default_rng(5))
        half = dr_half_estimate(data, evaluation, 0.9, np.random.default_rng(5))
        assert dml.value == scores.mean()
        assert half.value == scores[folds[0]].mean()
        assert half.n == folds[0].size == 16


class TestDml:
    def test_oracle_injection_bypasses_fitting(self):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 100, np.random.default_rng(9))
        eta = oracle_nuisance(mdp, behavior, behavior)
        est = dml_estimate(data, behavior, 0.9, np.random.default_rng(2),
                           k_folds=2, oracle_nuisance=eta)
        scores = _psi_scores(data, eta, behavior, 0.9)
        assert est.value == pytest.approx(float(scores.mean()), abs=1e-10)
        assert est.variance == pytest.approx(float(((scores - scores.mean()) ** 2).mean()),
                                             abs=1e-10)

    def test_deterministic_given_seed(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 80, np.random.default_rng(10))
        a = dml_estimate(data, evaluation, 0.9, np.random.default_rng(5), k_folds=4)
        b = dml_estimate(data, evaluation, 0.9, np.random.default_rng(5), k_folds=4)
        assert a == b

    def test_k_larger_than_n_rejected(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 3, np.random.default_rng(11))
        with pytest.raises(ValidationError):
            dml_estimate(data, evaluation, 0.9, np.random.default_rng(0), k_folds=4)

    def test_ci_half_width_formula(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 100, np.random.default_rng(12))
        est = dml_estimate(data, evaluation, 0.9, np.random.default_rng(3), level=0.9)
        from statistics import NormalDist

        half = NormalDist().inv_cdf(0.95) * np.sqrt(est.variance / est.n)
        assert est.ci_high - est.value == pytest.approx(half, abs=1e-12)
        assert est.value - est.ci_low == pytest.approx(half, abs=1e-12)
        assert est.estimator is Estimator.DML


class TestEfficiencyBound:
    def test_degenerate_zero(self):
        mdp = type(bandit_mdp())(
            num_states=1, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 1, 1)),
            rewards=[[bernoulli(1.0)]],
        )
        point = Policy(table=[[1.0]])
        assert cb_efficiency_bound(mdp, point, point) == 0.0

    def test_single_arm_reduces_to_reward_variance(self):
        mdp = type(bandit_mdp())(
            num_states=1, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 1, 1)),
            rewards=[[bernoulli(0.7)]],
        )
        point = Policy(table=[[1.0]])
        assert cb_efficiency_bound(mdp, point, point) == pytest.approx(0.21, abs=1e-12)

    def test_requires_horizon_zero(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        with pytest.raises(ValidationError, match="horizon 0"):
            cb_efficiency_bound(mdp, behavior, evaluation)
