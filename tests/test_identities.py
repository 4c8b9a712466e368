"""Enumeration-based identity checks for the doubly robust score: exactness of
the value identity, robustness to either nuisance, step-wise reweighting
identities, and the numerical orthogonality of the score."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dml_ope import (
    Policy,
    ValidationError,
    enumerate_dataset,
    exact_policy_value,
    expected_psi,
    orthogonality_derivative,
)
from dml_ope.estimators import _psi_scores

from helpers import bernoulli, random_mdp, random_policy, three_state_mdp, true_nuisance


def random_instance(rng, horizon=None):
    num_states = int(rng.integers(2, 4))
    num_actions = int(rng.integers(2, 4))
    horizon = int(rng.integers(0, 3)) if horizon is None else horizon
    mdp = random_mdp(rng, num_states, num_actions, horizon, discount=float(rng.uniform(0.5, 1.0)))
    behavior = random_policy(rng, num_states, num_actions)
    evaluation = random_policy(rng, num_states, num_actions)
    return mdp, behavior, evaluation


class TestValueIdentities:
    def test_true_nuisances_recover_value(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng)
            eta = true_nuisance(mdp, behavior, evaluation)
            value = exact_policy_value(mdp, evaluation)
            assert expected_psi(mdp, behavior, behavior, eta.q,
                                evaluation) == pytest.approx(value, abs=1e-10)

    def test_control_variate_any_q(self):
        # True behavior policy plus an arbitrary q keeps the expectation exact.
        rng = np.random.default_rng(102)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng)
            eta = true_nuisance(mdp, behavior, evaluation)
            wild_q = rng.normal(scale=3.0, size=eta.q.shape)
            value = exact_policy_value(mdp, evaluation)
            assert expected_psi(mdp, behavior, behavior, wild_q, evaluation) == pytest.approx(
                value, abs=1e-10
            )

    def test_dual_robustness_any_positive_behavior(self):
        # True q plus an arbitrary strictly positive behavior table stays exact.
        rng = np.random.default_rng(103)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng)
            eta = true_nuisance(mdp, behavior, evaluation)
            wrong_behavior = random_policy(rng, mdp.num_states, mdp.num_actions)
            value = exact_policy_value(mdp, evaluation)
            assert expected_psi(mdp, behavior, wrong_behavior, eta.q,
                                evaluation) == pytest.approx(value, abs=1e-10)

    def test_ipw_identity_with_true_behavior(self):
        rng = np.random.default_rng(104)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng)
            value = exact_policy_value(mdp, evaluation)
            assert expected_psi(mdp, behavior, behavior, None, evaluation) == pytest.approx(
                value, abs=1e-10
            )

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2), st.floats(0.5, 1.0),
           st.integers(0, 2**32 - 1))
    def test_expected_scores_equal_the_exact_value(self, num_states, num_actions, horizon,
                                                   discount, seed):
        # The true Q with any strictly positive behavior candidate, and IPW with the
        # true behavior, have expectation v(pi_e) under the true behavior.
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, num_states, num_actions, horizon, discount=discount)
        behavior, evaluation, candidate = (random_policy(rng, num_states, num_actions)
                                           for _ in range(3))
        eta = true_nuisance(mdp, candidate, evaluation)
        value = exact_policy_value(mdp, evaluation)
        assert expected_psi(mdp, behavior, eta.behavior, eta.q,
                            evaluation) == pytest.approx(value, abs=1e-10)
        assert expected_psi(mdp, behavior, behavior, None, evaluation) == pytest.approx(
            value, abs=1e-10
        )


class TestStepwiseReweighting:
    def _weights(self, data, behavior, evaluation):
        ratios = evaluation.table[data.states, data.actions] / behavior.table[
            data.states, data.actions
        ]
        return np.cumprod(ratios, axis=1)

    def test_per_step_reward_identity(self):
        # E_b[rho_t R_t] = E_e[R_t] for every step.
        rng = np.random.default_rng(111)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng)
            data_b, probs_b = enumerate_dataset(mdp, behavior)
            data_e, probs_e = enumerate_dataset(mdp, evaluation)
            rho = self._weights(data_b, behavior, evaluation)
            for t in range(mdp.horizon + 1):
                lhs = float((rho[:, t] * data_b.rewards[:, t]) @ probs_b)
                rhs = float(data_e.rewards[:, t] @ probs_e)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_prefix_function_identity(self):
        # E_b[rho_t g(H_t)] = E_e[g(H_t)] for a nonlinear random prefix function.
        rng = np.random.default_rng(112)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng)
            coeffs = rng.normal(size=(mdp.horizon + 1, mdp.num_states, mdp.num_actions))
            data_b, probs_b = enumerate_dataset(mdp, behavior)
            data_e, probs_e = enumerate_dataset(mdp, evaluation)
            rho = self._weights(data_b, behavior, evaluation)

            def g(data, t):
                t_idx = np.arange(t + 1)[None, :]
                terms = 1.0 + 0.3 * coeffs[t_idx, data.states[:, : t + 1], data.actions[:, : t + 1]]
                return terms.prod(axis=1)

            for t in range(mdp.horizon + 1):
                lhs = float((rho[:, t] * g(data_b, t)) @ probs_b)
                rhs = float(g(data_e, t) @ probs_e)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_prefix_and_next_state_identity(self):
        # E_b[rho_{t-1} g(H_{t-1}, S_t)] = E_e[g(H_{t-1}, S_t)].
        rng = np.random.default_rng(113)
        for _ in range(5):
            mdp, behavior, evaluation = random_instance(rng, horizon=int(rng.integers(1, 4)))
            coeffs = rng.normal(size=(mdp.horizon + 1, mdp.num_states, mdp.num_actions))
            state_coeffs = rng.normal(size=mdp.num_states)
            data_b, probs_b = enumerate_dataset(mdp, behavior)
            data_e, probs_e = enumerate_dataset(mdp, evaluation)
            rho = self._weights(data_b, behavior, evaluation)

            def g(data, t):
                t_idx = np.arange(t)[None, :]
                prefix = (
                    1.0 + 0.3 * coeffs[t_idx, data.states[:, :t], data.actions[:, :t]]
                ).prod(axis=1)
                return prefix * state_coeffs[data.states[:, t]]

            for t in range(1, mdp.horizon + 1):
                lhs = float((rho[:, t - 1] * g(data_b, t)) @ probs_b)
                rhs = float(g(data_e, t) @ probs_e)
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestBanditSpecialization:
    def test_horizon_zero_score_matches_bandit_formula(self):
        rng = np.random.default_rng(121)
        mdp, behavior, evaluation = random_instance(rng, horizon=0)
        eta = true_nuisance(mdp, behavior, evaluation)
        data, _ = enumerate_dataset(mdp, behavior)
        scores = _psi_scores(data.cells(evaluation, "evaluation"), data.rewards, behavior,
                             eta.q, evaluation, mdp.discount)
        mu = eta.mean_reward
        s0, a0 = data.states[:, 0], data.actions[:, 0]
        weight = evaluation.table[s0, a0] / behavior.table[s0, a0]
        direct = (evaluation.table[s0] * mu[s0]).sum(axis=1)
        expected = weight * (data.rewards[:, 0] - mu[s0, a0]) + direct
        assert np.allclose(scores, expected, atol=1e-12)


class TestOrthogonality:
    def test_zero_direction(self):
        mdp = three_state_mdp()
        rng = np.random.default_rng(131)
        behavior = random_policy(rng, 3, 2)
        evaluation = random_policy(rng, 3, 2)
        eta = true_nuisance(mdp, behavior, evaluation)
        assert orthogonality_derivative(mdp, evaluation, behavior, eta.q, behavior, eta.q) == 0.0

    def test_dml_score_is_orthogonal(self):
        rng = np.random.default_rng(132)
        mdp, behavior, evaluation = random_instance(rng)
        eta = true_nuisance(mdp, behavior, evaluation)
        for _ in range(5):
            alt_behavior = random_policy(rng, mdp.num_states, mdp.num_actions)
            deriv = orthogonality_derivative(mdp, evaluation, behavior, eta.q, alt_behavior,
                                             rng.normal(size=eta.q.shape), step=1e-4)
            assert abs(deriv) < 1e-6

    def test_ipw_score_is_not_orthogonal(self):
        # Witness: one context, two arms, deterministic rewards (1, 0),
        # uniform behavior, evaluation concentrated on the rewarding arm.
        mdp = random_mdp(np.random.default_rng(0), 1, 2, 0, discount=1.0)
        mdp = type(mdp)(
            num_states=1, num_actions=2, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.full((1, 2, 1), 1.0),
            **bernoulli([[1.0, 0.0]]),
        )
        behavior = Policy(table=[[0.5, 0.5]])
        evaluation = Policy(table=[[1.0, 0.0]])
        deriv = orthogonality_derivative(mdp, evaluation, behavior, None,
                                         Policy(table=[[0.75, 0.25]]), None, step=1e-4)
        assert abs(deriv) > 1e-3

    @pytest.mark.parametrize("alt, match", [
        ("alt_q", "each alt shaped as its base: got q (3, 3, 2), alt_q (1, 3, 2), "
                  "behavior (3, 2), alt (3, 2)"),
        ("alt_behavior", "each alt shaped as its base: got q (3, 3, 2), alt_q (3, 3, 2), "
                         "behavior (3, 2), alt (1, 2)"),
    ], ids=["alt_q", "alt_behavior"])
    def test_alt_shaped_unlike_its_base_rejected(self, alt, match):
        # Either would broadcast against its base along the line.
        mdp = three_state_mdp()
        rng = np.random.default_rng(134)
        behavior = random_policy(rng, 3, 2)
        evaluation = random_policy(rng, 3, 2)
        q = true_nuisance(mdp, behavior, evaluation).q
        alts = {"alt_behavior": behavior, "alt_q": q, alt: (
            q[:1] if alt == "alt_q" else Policy(table=[[0.5, 0.5]]))}
        with pytest.raises(ValidationError, match=f"{re.escape(match)}$"):
            orthogonality_derivative(mdp, evaluation, behavior, q, **alts)

    @pytest.mark.parametrize("none_side", ["q", "alt_q"])
    def test_exactly_one_q_none_rejected(self, none_side):
        # q = alt_q = None is the IPW score; one None alone names no score.
        mdp = three_state_mdp()
        rng = np.random.default_rng(133)
        behavior = random_policy(rng, 3, 2)
        evaluation = random_policy(rng, 3, 2)
        q = true_nuisance(mdp, behavior, evaluation).q
        qs = (None, q) if none_side == "q" else (q, None)
        with pytest.raises(ValidationError, match="q and alt_q must both be arrays or both be"):
            orthogonality_derivative(mdp, evaluation, behavior, qs[0], behavior, qs[1])
