import math
import re
from statistics import NormalDist

import numpy as np
import pytest

from dml_ope import (
    ValidationError,
    epsilon_greedy_policy,
    greedy_policy,
    softmax_policy,
    thompson_gaussian_policy,
)


class TestEpsilonGreedy:
    def test_full_exploration_is_uniform(self):
        policy = epsilon_greedy_policy([[3.0, 1.0, 0.0]], epsilon=1.0)
        assert np.allclose(policy.table, 1.0 / 3.0, atol=1e-12)

    def test_zero_epsilon_is_argmax(self):
        policy = epsilon_greedy_policy([[3.0, 1.0], [0.0, 2.0]], epsilon=0.0)
        assert policy.table.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_example_values(self):
        policy = epsilon_greedy_policy([[3.0, 1.0]], epsilon=0.1)
        assert np.allclose(policy.table, [[0.95, 0.05]], atol=1e-12)

    def test_ties_break_low(self):
        policy = epsilon_greedy_policy([[1.0, 1.0]], epsilon=0.0)
        assert policy.table.tolist() == [[1.0, 0.0]]

    def test_argmax_stable_across_epsilons(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(5, 3))
        for eps in (0.0, 0.2, 0.7):
            policy = epsilon_greedy_policy(scores, eps)
            assert np.array_equal(policy.table.argmax(axis=1), scores.argmax(axis=1))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValidationError):
            epsilon_greedy_policy([[1.0, 2.0]], epsilon=1.5)


class TestSoftmax:
    def test_equal_scores_uniform(self):
        policy = softmax_policy([[2.0, 2.0, 2.0]])
        assert np.allclose(policy.table, 1.0 / 3.0, atol=1e-12)

    def test_log_three(self):
        policy = softmax_policy([[0.0, math.log(3.0)]])
        assert np.allclose(policy.table, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(4, 3))
        shifted = scores + rng.normal(size=(4, 1))
        assert np.allclose(softmax_policy(scores).table, softmax_policy(shifted).table, atol=1e-12)

    def test_overflow_safe(self):
        policy = softmax_policy([[1000.0, 999.0]])
        assert np.all(np.isfinite(policy.table))


class TestGreedy:
    def test_single_action(self):
        assert greedy_policy([[0.4]]).table.tolist() == [[1.0]]

    def test_argmax(self):
        assert greedy_policy([[0.2, 0.7]]).table.tolist() == [[0.0, 1.0]]

    def test_tie_breaks_low(self):
        assert greedy_policy([[0.5, 0.5]]).table.tolist() == [[1.0, 0.0]]


class TestThompsonGaussian:
    def test_single_action(self):
        policy = thompson_gaussian_policy([[1.0]], [[2.0]], np.random.default_rng(0), draws=10)
        assert policy.table.tolist() == [[1.0]]

    def test_symmetric_arms(self):
        policy = thompson_gaussian_policy(
            [[0.0, 0.0]], [[1.0, 1.0]], np.random.default_rng(3), draws=100_000
        )
        assert abs(policy.table[0, 0] - 0.5) < 0.01

    def test_matches_closed_form_win_probability(self):
        # P(X > Y) for X~N(1,1), Y~N(0,1) is Phi(1/sqrt(2))
        policy = thompson_gaussian_policy(
            [[1.0, 0.0]], [[1.0, 1.0]], np.random.default_rng(11), draws=1_000_000
        )
        expected = NormalDist().cdf(1.0 / math.sqrt(2.0))
        assert abs(policy.table[0, 0] - expected) < 0.003

    def test_reproducible(self):
        args = ([[0.3, 0.1], [0.0, 0.5]], [[0.5, 1.0], [2.0, 0.1]])
        a = thompson_gaussian_policy(*args, np.random.default_rng(9), draws=5000)
        b = thompson_gaussian_policy(*args, np.random.default_rng(9), draws=5000)
        assert np.array_equal(a.table, b.table)

    def test_rows_sum_exactly_to_one(self):
        policy = thompson_gaussian_policy(
            [[0.3, 0.1, 0.2]], [[0.5, 1.0, 0.2]], np.random.default_rng(2), draws=997
        )
        assert policy.table.sum(axis=1).tolist() == [1.0]

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            thompson_gaussian_policy([[0.0]], [[-1.0]], np.random.default_rng(0))


class TestInputErrors:
    @pytest.mark.parametrize("build, message", [
        (lambda: epsilon_greedy_policy([1.0, 2.0], 0.1), "scores must be a nonempty (S, A) table"),
        (lambda: epsilon_greedy_policy(np.zeros((2, 0)), 0.1),
         "scores must be a nonempty (S, A) table"),
        (lambda: epsilon_greedy_policy([[1.0, np.nan]], 0.1), "scores must be finite"),
        (lambda: softmax_policy([[np.inf, 0.0]]), "scores must be finite"),
        (lambda: greedy_policy([[0.0, np.nan]]), "means must be finite"),
        (lambda: thompson_gaussian_policy([[0.0, 1.0]], [[1.0]], np.random.default_rng(0)),
         "means and variances must be matching (S, A) tables"),
        (lambda: thompson_gaussian_policy([0.0], [1.0], np.random.default_rng(0)),
         "means and variances must be matching (S, A) tables"),
        # Each ended in numpy's AxisError or a bare ValueError, or was accepted.
        (lambda: softmax_policy([1.0, 2.0]), "scores must be a nonempty (S, A) table"),
        (lambda: softmax_policy(np.zeros((2, 0))), "scores must be a nonempty (S, A) table"),
        (lambda: greedy_policy([1.0, 2.0]), "means must be a nonempty (S, A) table"),
        (lambda: greedy_policy(np.zeros((2, 0))), "means must be a nonempty (S, A) table"),
        (lambda: thompson_gaussian_policy(np.zeros((2, 0)), np.zeros((2, 0)),
                                          np.random.default_rng(0)),
         "means must be a nonempty (S, A) table"),
        (lambda: thompson_gaussian_policy([[0.0, np.nan]], [[1.0, 1.0]],
                                          np.random.default_rng(0)), "means must be finite"),
        (lambda: thompson_gaussian_policy([[0.0, 1.0]], [[1.0, np.inf]],
                                          np.random.default_rng(0)), "variances must be finite"),
        (lambda: thompson_gaussian_policy([[0.0, 1.0]], [[1.0, -np.inf]],
                                          np.random.default_rng(0)), "variances must be finite"),
        (lambda: thompson_gaussian_policy([[0.0, 1.0]], [[1.0, -1.0]],
                                          np.random.default_rng(0)),
         "variances must be nonnegative"),
    ], ids=["epsilon_1d", "epsilon_no_actions", "epsilon_nan", "softmax_inf", "greedy_nan",
            "thompson_shapes", "thompson_1d", "softmax_1d", "softmax_no_actions", "greedy_1d",
            "greedy_no_actions", "thompson_no_actions", "thompson_nan_mean",
            "thompson_inf_variance", "thompson_minus_inf_variance", "thompson_negative_variance"])
    def test_message(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
