import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from dml_ope import (
    EnumerationCapError,
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    enumerate_dataset,
    evaluate_dataset,
    exact_policy_value,
    lift_policy,
    load_mdp,
    mdp_from_dict,
    mdp_to_dict,
    mean_reward_table,
    relative_rmse_se,
    reward_variance_table,
    sample_dataset,
    thompson_gaussian_policy,
    with_noise_states,
)
from dml_ope import mdp
from dml_ope.mdp import (check_at_least, check_finite_nonnegative, check_folds, check_integer,
                         check_level, check_unit_interval, sized_by)

from helpers import (
    bernoulli,
    noisy_lift,
    point_mass,
    random_mdp,
    random_policy,
    row_steps,
    three_state_mdp,
    three_state_policies,
)


def _evaluate(**changes) -> dict:
    """``evaluate_dataset`` of 20 three-state rows by IPW, with ``changes`` to its
    discount, level and smoothing."""
    behavior, evaluation = three_state_policies()
    data = sample_dataset(three_state_mdp(), behavior, 20, np.random.default_rng(0))
    return evaluate_dataset(data, evaluation, rng=np.random.default_rng(1),
                            **{"discount": 0.9, "estimators": ("ipw",), **changes})


def constant_mdp(horizon: int, reward: float = 1.0, discount: float = 1.0) -> TabularMdp:
    return TabularMdp(
        num_states=1,
        num_actions=1,
        horizon=horizon,
        discount=discount,
        initial_dist=[1.0],
        transitions=np.ones((1, 1, 1)),
        **point_mass([[reward]]),
    )


def one_cell_mdp(support: list, probs: list) -> TabularMdp:
    """One state, one action and horizon 0, with one reward distribution."""
    return TabularMdp(num_states=1, num_actions=1, horizon=0, discount=1.0, initial_dist=[1.0],
                      transitions=np.ones((1, 1, 1)), reward_support=[[support]],
                      reward_probs=[[probs]])


class TestValidation:
    def test_reward_spec_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            one_cell_mdp([0.0, 1.0], [0.5, 0.4])

    def test_reward_spec_rejects_infinite_support(self):
        with pytest.raises(ValidationError):
            one_cell_mdp([np.inf], [1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_support_names_the_cell(self, bad):
        support = np.zeros((2, 3, 2))
        support[1, 2, 1] = bad
        with pytest.raises(ValidationError,
                           match=r"^rewards\[1\]\[2\]: reward support must be finite$"):
            TabularMdp(num_states=2, num_actions=3, horizon=0, discount=1.0,
                       initial_dist=[0.5, 0.5], transitions=np.full((2, 3, 2), 0.5),
                       reward_support=support, reward_probs=np.full((2, 3, 2), 0.5))

    @pytest.mark.parametrize("support_shape, probs_shape", [
        ((2, 3, 2), (2, 3, 3)), ((2, 3, 2), (2, 3)), ((3, 2, 2), (3, 2, 2)), ((2, 3), (2, 3)),
    ], ids=["widths", "probs_2d", "swapped_cells", "both_2d"])
    def test_reward_shape_mismatch_names_both_arrays(self, support_shape, probs_shape):
        message = (f"reward_support {support_shape} and reward_probs {probs_shape} must share "
                   f"one (S, A, W) shape with (S, A) = (2, 3)")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TabularMdp(num_states=2, num_actions=3, horizon=0, discount=1.0,
                       initial_dist=[0.5, 0.5], transitions=np.full((2, 3, 2), 0.5),
                       reward_support=np.zeros(support_shape), reward_probs=np.ones(probs_shape))

    @pytest.mark.parametrize("num_states, num_actions", [(0, 2), (0, -2), (2, 0)])
    def test_empty_spec_exits_on_the_counts(self, num_states, num_actions):
        obj = {**mdp_to_dict(three_state_mdp()), "num_states": num_states,
               "num_actions": num_actions, "rewards": [[]] * num_states}
        with pytest.raises(ValidationError,
                           match="^num_states and num_actions must be positive$"):
            mdp_from_dict(obj)

    @pytest.mark.parametrize("table", [[0.5, 0.5], [[]]], ids=["one_dimensional", "no_action"])
    def test_policy_table_must_be_2d_with_an_action(self, table):
        with pytest.raises(ValidationError,
                           match="^policy table must be 2-d with at least one action$"):
            Policy(table=table)

    @pytest.mark.parametrize("table, message", [
        (np.zeros((0, 2)), "policy table must hold at least one state"),
        ([["a"]], "policy table entries must be real numbers, got 'a'"),
        ([["1"]], "policy table entries must be real numbers, got '1'"),
        ([[True]], "policy table entries must be real numbers, got True"),
        ([[1 + 0j]], "policy table entries must be real numbers, got (1+0j)"),
    ], ids=["no_state", "text", "number_text", "bool", "complex"])
    def test_policy_table_must_be_real_with_a_state(self, table, message):
        # Each was accepted as a policy, or ended in numpy's bare ValueError.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Policy(table=table)

    def test_policy_rows_must_be_distributions(self):
        with pytest.raises(ValidationError):
            Policy(table=[[0.5, 0.6]])
        with pytest.raises(ValidationError):
            Policy(table=[[1.2, -0.2]])
        with pytest.raises(ValidationError, match=r"policy row 1"):
            Policy(table=[[0.5, 0.5], [float("nan"), 1.0]])

    @pytest.mark.parametrize("probs, match", [
        ([1.2, -0.2], r"reward probs has negative entries"),
        ([0.5, 0.4], r"reward probs sums to 0\.9, expected 1"),
        ([float("nan"), 1.0], r"reward probs sums to nan, expected 1"),
    ], ids=["negative", "bad_sum", "nan"])
    def test_reward_probs_checked(self, probs, match):
        with pytest.raises(ValidationError, match=match):
            one_cell_mdp([0.0, 1.0], probs)

    @pytest.mark.parametrize("initial, match", [
        ([1.2, -0.2], r"initial_dist has negative entries"),
        ([0.5, 0.4], r"initial_dist sums to 0\.9, expected 1"),
        ([float("nan"), 1.0], r"initial_dist sums to nan, expected 1"),
    ], ids=["negative", "bad_sum", "nan"])
    def test_initial_dist_checked(self, initial, match):
        with pytest.raises(ValidationError, match=match):
            TabularMdp(
                num_states=2, num_actions=1, horizon=0, discount=1.0,
                initial_dist=initial, transitions=np.full((2, 1, 2), 0.5),
                **point_mass([[0.0], [0.0]]),
            )

    @pytest.mark.parametrize("changes, message", [
        ({"initial_dist": [1.0]}, "initial_dist has wrong shape"),
        ({"transitions": np.full((2, 1, 1), 1.0)}, "transitions has wrong shape"),
    ], ids=["initial_dist", "transitions"])
    def test_mdp_array_shapes_checked(self, changes, message):
        fields = dict(num_states=2, num_actions=1, horizon=0, discount=1.0,
                      initial_dist=[0.5, 0.5], transitions=np.full((2, 1, 2), 0.5),
                      **point_mass([[0.0], [0.0]]))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TabularMdp(**{**fields, **changes})

    @pytest.mark.parametrize("field, values, bad", [
        ("initial_dist", np.array([True, False]), "True"),
        ("initial_dist", np.array([0.5, 0.5]) + 0j, "(0.5+0j)"),
        ("initial_dist", np.array(["0.5", "0.5"]), "'0.5'"),
        ("transitions", np.full((2, 1, 2), True), "True"),
        ("transitions", np.full((2, 1, 2), 0.5 + 0j), "(0.5+0j)"),
        ("transitions", np.full((2, 1, 2), "0.5"), "'0.5'"),
        ("reward_support", np.full((2, 1, 1), True), "True"),
        ("reward_support", np.full((2, 1, 1), 1j), "1j"),
        ("reward_support", np.full((2, 1, 1), "1"), "'1'"),
        ("reward_probs", np.full((2, 1, 1), True), "True"),
        ("reward_probs", np.full((2, 1, 1), 1 + 0j), "(1+0j)"),
        ("reward_probs", np.full((2, 1, 1), "1"), "'1'"),
    ], ids=["bool_initial_dist", "complex_initial_dist", "text_initial_dist",
            "bool_transitions", "complex_transitions", "text_transitions",
            "bool_reward_support", "complex_reward_support", "text_reward_support",
            "bool_reward_probs", "complex_reward_probs", "text_reward_probs"])
    def test_mdp_arrays_must_be_real_numbers(self, field, values, bad):
        # A bool read as 1.0 or 0.0, so [True, False] passed as a distribution, and a
        # complex number lost its imaginary part with only numpy's ComplexWarning.
        fields = dict(num_states=2, num_actions=1, horizon=0, discount=1.0,
                      initial_dist=[0.5, 0.5], transitions=np.full((2, 1, 2), 0.5),
                      **point_mass([[0.0], [0.0]]))
        message = f"{field} entries must be real numbers, got {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TabularMdp(**{**fields, field: values})

    def test_transition_rows_checked_with_path(self):
        bad = np.ones((2, 1, 2)) * 0.5
        bad[1, 0] = [0.7, 0.7]
        with pytest.raises(ValidationError, match=r"transitions\[1\]\[0\]"):
            TabularMdp(
                num_states=2, num_actions=1, horizon=0, discount=1.0,
                initial_dist=[0.5, 0.5], transitions=bad,
                **point_mass([[0.0], [0.0]]),
            )

    @pytest.mark.parametrize("changes, match", [
        ({"discount": 1.5}, r"discount must lie in \[0, 1\]"),
        ({"horizon": -1}, "horizon must be >= 0"),
    ], ids=["discount_1.5", "horizon_-1"])
    def test_horizon_and_discount_checked(self, changes, match):
        fields = dict(num_states=1, num_actions=1, horizon=0, discount=1.0, initial_dist=[1.0],
                      transitions=[[[1.0]]], **point_mass([[0.0]]))
        with pytest.raises(ValidationError, match=match):
            TabularMdp(**{**fields, **changes})

    @pytest.mark.parametrize("field, ids, bad", [
        ("states", [[0.7, 1.9]], "0.7"),
        ("actions", [[0.0, 1.5]], "1.5"),
        ("states", [[0.0, float("nan")]], "nan"),
        ("actions", [[float("inf"), 0.0]], "inf"),
        # A bool array was read as ids 1 and 0, and an id past int64's range as
        # -2**63: silently from uint64, with a RuntimeWarning from a float.
        ("states", [[True, False]], "True"),
        ("actions", np.array([[2**63, 0]], dtype=np.uint64), "9223372036854775808"),
        ("states", [[1e20, 0.0]], "1e+20"),
        ("actions", [[1.0, None]], "None"),
        # Text was read as the numbers it spells, or ended in numpy's ValueError.
        ("states", [["1", "2"]], "'1'"),
        ("actions", [[1, "a"]], "'1'"),
        ("states", np.array([[0, "1"]], dtype=object), "'1'"),
        ("actions", np.array([[b"0", b"1"]]), "b'0'"),
        ("states", np.array([[0, True]], dtype=object), "True"),
        # A complex id lost its imaginary part with only numpy's ComplexWarning.
        ("states", [[0, 1 + 0j]], "0j"),
        ("actions", np.array([[0, 1j]], dtype=object), "1j"),
    ], ids=["fractional_state", "fractional_action", "nan_state", "inf_action", "bool_state",
            "uint64_past_int64_action", "float_past_int64_state", "none_action",
            "string_state", "mixed_string_action", "object_string_state", "bytes_action",
            "object_bool_state", "complex_state", "object_complex_action"])
    def test_dataset_ids_must_be_integral(self, field, ids, bad):
        # A float id used to be truncated: [[0.7, 1.9]] read as states [[0, 1]].
        columns = {"states": [[0, 1]], "actions": [[0, 1]], field: ids}
        match = re.escape(f"dataset {field} must be integer ids, got {bad}")
        with pytest.raises(ValidationError, match=f"^{match}$"):
            LoggedDataset(**columns, rewards=[[0.0, 0.0]])
        # Whole floats and numbers in an object array are ids, and int64 ids are
        # kept without a copy.
        assert LoggedDataset(states=[[0.0, 2.0]], actions=np.array([[1, 0]], dtype=object),
                             rewards=[[0.0, 0.0]]).states.tolist() == [[0, 2]]
        ids = np.array([[0, 1]])
        assert LoggedDataset(ids, ids, [[0.0, 0.0]]).states is ids

    @pytest.mark.parametrize("field", ["rewards", "propensities"])
    def test_dataset_values_of_a_numeric_dtype_are_read(self, field):
        # Integer, unsigned and float arrays, and numbers in an object array.
        for numbers in ([[1, 1]], np.array([[1, 1]], dtype=np.uint8), [[0.5, 1.0]],
                        np.array([[0.5, 1]], dtype=object)):
            columns = {"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[0.0, 0.0]],
                       field: numbers}
            data = LoggedDataset(**columns)
            assert getattr(data, field).tolist() == np.asarray(numbers, dtype=float).tolist()

    @pytest.mark.parametrize("p", [float("nan"), 0.0, 1.5, -0.1])
    def test_dataset_propensities_in_unit_interval(self, p):
        with pytest.raises(ValidationError, match=re.escape("propensities must lie in (0, 1]")):
            LoggedDataset(states=[[0, 1]], actions=[[0, 1]], rewards=[[0.0, 0.0]],
                          propensities=[[0.5, p]])

    @pytest.mark.parametrize("columns, message", [
        ({"states": [0, 1], "actions": [0, 1], "rewards": [0.0, 0.0]},
         "dataset states must be a 2-d (N, T+1) array, got shape (2,)"),
        ({"states": np.zeros((3, 0)), "actions": np.zeros((3, 0)), "rewards": np.zeros((3, 0))},
         "dataset states must hold at least one step per row"),
        ({"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[0.0, float("nan")]]},
         "dataset rewards must be finite, got nan"),
        ({"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[float("inf"), 1.0]]},
         "dataset rewards must be finite, got inf"),
        ({"states": [[0], [1]], "actions": [[0], [1]], "rewards": [[1.0], [-np.inf]]},
         "dataset rewards must be finite, got -inf"),
        ({"states": np.zeros((1, 2, 1)), "actions": np.zeros((1, 2, 1)),
          "rewards": np.zeros((1, 2, 1))},
         "dataset states must be a 2-d (N, T+1) array, got shape (1, 2, 1)"),
        # Text was read as the numbers it spells, or ended in numpy's ValueError;
        # a bool read as 1.0 or 0.0, and a complex number lost its imaginary part.
        *[({"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[0.0, 0.0]], field: values},
           f"dataset {field} must be real numbers, got {bad}")
          for field, values, bad in [
              ("rewards", [["0", "1"]], "'0'"),
              ("rewards", [["a", "1"]], "'a'"),
              ("rewards", np.array([[b"0", b"1"]]), "b'0'"),
              ("rewards", [[True, False]], "True"),
              ("rewards", [[0.0, 1 + 0j]], "0j"),
              ("rewards", np.array([[0.0, "1"]], dtype=object), "'1'"),
              ("rewards", np.array([[0.0, None]], dtype=object), "None"),
              ("propensities", [["0.5", "1"]], "'0.5'"),
              ("propensities", [[True, True]], "True"),
              ("propensities", [[0.5, 1 + 0j]], "(0.5+0j)")]],
    ], ids=["one_dimensional", "no_steps", "nan_reward", "inf_reward", "neg_inf_reward",
            "three_dimensional", "string_rewards", "text_rewards", "bytes_rewards",
            "bool_rewards", "complex_rewards", "object_string_reward", "object_none_reward",
            "string_propensities", "bool_propensities", "complex_propensities"])
    def test_dataset_no_estimator_can_score_rejected(self, columns, message):
        # Each was accepted, and failed later in an estimator or a nuisance check.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            LoggedDataset(**columns)

    @pytest.mark.parametrize("columns, message", [
        ({"states": np.zeros((0, 2)), "actions": np.zeros((0, 2)), "rewards": np.zeros((0, 2))},
         "dataset must be nonempty"),
        ({"states": [[0, 1]], "actions": [[0, 1, 0]], "rewards": [[0.0, 0.0]]},
         "dataset arrays must share one (N, T+1) shape"),
        ({"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[0.0], [0.0]]},
         "dataset arrays must share one (N, T+1) shape"),
        ({"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[0.0, 0.0]],
          "propensities": [[0.5]]}, "propensities shape mismatch"),
        ({"states": [[0, 1]], "actions": [[0, 1]], "rewards": [[0.0]]},
         "dataset arrays must share one (N, T+1) shape"),
        ({"states": [[0, 1], [1, 0]], "actions": [[0, 1], [1, 0]], "rewards": [[0.0, 0.0]]},
         "dataset arrays must share one (N, T+1) shape"),
    ], ids=["no_rows", "actions_shape", "rewards_shape", "propensities_shape",
            "rewards_fewer_steps", "rewards_fewer_rows"])
    def test_dataset_shapes_checked(self, columns, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            LoggedDataset(**columns)

    def test_policy_dimension_mismatch(self):
        mdp = constant_mdp(1)
        with pytest.raises(ValidationError):
            sample_dataset(mdp, Policy(table=[[0.5, 0.5]]), 1, np.random.default_rng(0))


class TestRunParameterRules:
    @pytest.mark.parametrize("check, args, message", [
        (check_unit_interval, (1.5, "gamma"), "gamma must lie in [0, 1], got 1.5"),
        (check_unit_interval, (float("nan"), "gamma"), "gamma must lie in [0, 1], got nan"),
        (check_level, (1.0, "--level"), "--level must lie in (0, 1), got 1.0"),
        (check_level, (float("nan"), "--level"), "--level must lie in (0, 1), got nan"),
        (check_folds, (1, 5, "k"), "k must lie in [2, 5] for 5 rows, got 1"),
        (check_folds, (6, 5, "k"), "k must lie in [2, 5] for 5 rows, got 6"),
        (check_folds, (2.5, 5, "k"), "k must be an integer, got 2.5"),
        (check_folds, (True, 5, "k"), "k must be an integer, got True"),
        (check_integer, (2.0, "n"), "n must be an integer, got 2.0"),
        (check_integer, (False, "n"), "n must be an integer, got False"),
        (check_integer, (0, "n", 1), "n must be >= 1, got 0"),
        (check_at_least, (-1, 0, "'seed'"), "'seed' must be >= 0, got -1"),
        (check_at_least, (float("nan"), 0, "x"), "x must be >= 0, got nan"),
        (check_finite_nonnegative, (-1.0, "--alpha"), "--alpha must be finite and >= 0, got -1.0"),
        (check_finite_nonnegative, (float("inf"), "a"), "a must be finite and >= 0, got inf"),
        (check_finite_nonnegative, (float("nan"), "a"), "a must be finite and >= 0, got nan"),
    ])
    def test_message_names_the_parameter_and_the_value(self, check, args, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check(*args)

    @pytest.mark.parametrize("check, args", [
        (check_unit_interval, (0.0, "x")), (check_unit_interval, (1.0, "x")),
        (check_level, (0.5, "x")), (check_folds, (2, 2, "x")), (check_folds, (5, 5, "x")),
        (check_at_least, (0, 0, "x")), (check_finite_nonnegative, (0.0, "x")),
        (check_integer, (np.int64(3), "x", 3)), (check_integer, (-5, "x")),
    ])
    def test_edges_pass(self, check, args):
        check(*args)

    @pytest.mark.parametrize("check, low", [
        (check_unit_interval, ()), (check_level, ()), (check_finite_nonnegative, ()),
        (check_at_least, (0,)),
    ], ids=["unit_interval", "level", "finite_nonnegative", "at_least"])
    @pytest.mark.parametrize("value", ["0.5", None, True, b"1", [0.5]],
                             ids=["text", "none", "bool", "bytes", "list"])
    def test_a_scalar_rule_refuses_a_bool_or_a_non_number(self, check, low, value):
        # Text and None ended in a bare TypeError, and True read as 1.
        message = f"x must be a real number, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check(value, *low, "x")

    @pytest.mark.parametrize("build, message", [
        (lambda: _evaluate(discount="0.5"),
         "discount must be a real number, got '0.5'"),
        (lambda: _evaluate(discount=True),
         "discount must be a real number, got True"),
        (lambda: _evaluate(level=None),
         "level must be a real number, got None"),
        (lambda: dataclasses.replace(three_state_mdp(), discount="0.9"),
         "discount must be a real number, got '0.9'"),
        (lambda: _evaluate(smoothing_alpha="1"),
         "smoothing_alpha must be a real number, got '1'"),
        (lambda: _evaluate(smoothing_alpha=True),
         "smoothing_alpha must be a real number, got True"),
    ], ids=["text_discount", "bool_discount", "none_level", "text_mdp_discount",
            "text_smoothing_alpha", "bool_smoothing_alpha"])
    def test_a_public_scalar_must_be_a_real_number(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    # numpy's MemoryError comes before any page is touched; here it is raised by
    # hand, so nothing is allocated.
    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 21.3 PiB"),
                                       ValueError("Maximum allowed dimension exceeded")])
    def test_refused_allocation_names_the_count(self, error):
        message = f"--n must size arrays numpy can allocate ({error}), got {10**15}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            with sized_by(10**15, "--n"):
                raise error

    # Each ran before: True as 1, a fractional size to numpy's TypeError, and
    # num_states=3.0 as 3.
    @pytest.mark.parametrize("call, message", [
        (lambda: dataclasses.replace(three_state_mdp(), horizon=True),
         "horizon must be an integer, got True"),
        (lambda: dataclasses.replace(three_state_mdp(), horizon=1.5),
         "horizon must be an integer, got 1.5"),
        (lambda: dataclasses.replace(three_state_mdp(), num_states=3.0),
         "num_states must be an integer, got 3.0"),
        (lambda: dataclasses.replace(three_state_mdp(), num_actions=2.0),
         "num_actions must be an integer, got 2.0"),
        (lambda: sample_dataset(three_state_mdp(), Policy(table=[[0.5, 0.5]] * 3), True,
                                np.random.default_rng(0)), "n must be an integer, got True"),
        (lambda: with_noise_states(three_state_mdp(), 1.5),
         "num_noise_states must be an integer, got 1.5"),
        (lambda: lift_policy(Policy(table=[[0.5, 0.5]]), 1.5),
         "num_noise_states must be an integer, got 1.5"),
        (lambda: lift_policy(Policy(table=[[0.5, 0.5]]), True),
         "num_noise_states must be an integer, got True"),
        (lambda: with_noise_states(three_state_mdp(), 2, seed=-1), "seed must be >= 0, got -1"),
        (lambda: with_noise_states(three_state_mdp(), 2, seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda: relative_rmse_se([], np.random.default_rng(0), sims=2.5),
         "sims must be an integer, got 2.5"),
        (lambda: thompson_gaussian_policy([[0.0]], [[1.0]], np.random.default_rng(0), draws=2.5),
         "draws must be an integer, got 2.5"),
    ], ids=["horizon_bool", "horizon_fractional", "num_states_float", "num_actions_float",
            "sample_n_bool", "noise_states_fractional", "lift_fractional", "lift_bool",
            "noise_seed_negative", "noise_seed_fractional", "sims_fractional",
            "draws_fractional"])
    def test_library_sizes_must_be_integers(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_validation_error_in_a_sized_block_passes_unchanged(self):
        with pytest.raises(ValidationError, match="^x must be >= 1, got 0$"):
            with sized_by(5, "--n"):
                check_at_least(0, 1, "x")


class TestReadJson:
    def test_parse_errors_name_the_path(self, tmp_path):
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps({**mdp_to_dict(three_state_mdp()), "discount": 2.0}))
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: discount must lie in"):
            load_mdp(path)


class TestRewardTables:
    def test_mean_weighted(self):
        mdp = TabularMdp(
            num_states=1, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 1, 1)),
            **bernoulli([[0.7]]),
        )
        assert mean_reward_table(mdp)[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert reward_variance_table(mdp)[0, 0] == pytest.approx(0.21, abs=1e-12)

    def test_point_mass(self):
        mdp = constant_mdp(0, reward=5.0)
        assert mean_reward_table(mdp)[0, 0] == 5.0
        assert reward_variance_table(mdp)[0, 0] == 0.0

    def test_three_point_mean(self):
        mdp = one_cell_mdp([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        assert mean_reward_table(mdp)[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_bernoulli_half_variance(self):
        support, probs = bernoulli([[0.5]]).values()
        mdp = one_cell_mdp(support[0, 0], probs[0, 0])
        assert reward_variance_table(mdp)[0, 0] == pytest.approx(0.25, abs=1e-12)


class TestSampling:
    def test_deterministic_chain(self):
        mdp = constant_mdp(2)
        data = sample_dataset(mdp, Policy(table=[[1.0]]), 1, np.random.default_rng(3))
        assert row_steps(data) == [(0, 0, 1.0, 1.0)] * 3

    def test_same_seed_same_trajectory(self):
        mdp = three_state_mdp()
        policy = random_policy(np.random.default_rng(5), 3, 2)
        a = sample_dataset(mdp, policy, 1, np.random.default_rng(11))
        b = sample_dataset(mdp, policy, 1, np.random.default_rng(11))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_initial_state_frequencies(self):
        mdp = TabularMdp(
            num_states=2, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[0.5, 0.5], transitions=np.full((2, 1, 2), 0.5),
            **point_mass([[0.0], [0.0]]),
        )
        data = sample_dataset(mdp, Policy(table=[[1.0], [1.0]]), 100_000,
                              np.random.default_rng(17))
        freq = (data.states[:, 0] == 0).mean()
        assert abs(freq - 0.5) < 0.01

    def test_dataset_propensities_filled(self):
        mdp = three_state_mdp()
        policy = random_policy(np.random.default_rng(1), 3, 2)
        data = sample_dataset(mdp, policy, 50, np.random.default_rng(2))
        assert data.propensities is not None
        expected = policy.table[data.states, data.actions]
        assert np.array_equal(data.propensities, expected)

    def test_draw_above_a_short_row_never_lands_on_zero_probability(self):
        # Every row sums to 1 - 5e-13, within PROB_TOL, and ends in a zero
        # entry (the reward rows in a padded slot of the 3-point spec's width).
        # The largest draw below 1 must still pick the last positive entry.
        class LargestDraw:
            def random(self, n):
                return np.full(n, 1 - 2**-53)

        short = [0.5, 0.5 - 5e-13, 0.0]
        support, probs = np.tile([1.0, 2.0, 0.0], (3, 3, 1)), np.tile(short, (3, 3, 1))
        support[2, 0], probs[2, 0] = [0.0, 1.0, 2.0], [0.25, 0.5, 0.25]
        mdp = TabularMdp(num_states=3, num_actions=3, horizon=1, discount=1.0,
                         initial_dist=short, transitions=np.tile(short, (3, 3, 1)),
                         reward_support=support, reward_probs=probs)
        data = sample_dataset(mdp, Policy(table=[short] * 3), 4, LargestDraw())
        assert row_steps(data) == [(1, 1, 2.0, 0.5 - 5e-13)] * 2
        assert np.all(data.states == 1) and np.all(data.rewards == 2.0)


def digest(array: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


class TestPinnedDraws:
    """The arrays one seed draws on the 240-state lift of configs/noisy_nuisance.json,
    pinned so that a change to the sampler must keep every draw."""

    def test_first_rows(self):
        mdp, behavior, evaluation = noisy_lift()
        data = sample_dataset(mdp, behavior, 3, np.random.default_rng(7))
        assert data.states.tolist() == [[113, 106, 133], [198, 44, 232], [153, 104, 60]]
        assert data.actions.tolist() == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
        assert data.rewards.tolist() == [[-0.4, 1.2000000000000002, -0.4], [1.0, 1.0, 1.0],
                                         [2.6, 1.2000000000000002, -0.6000000000000001]]
        assert data.propensities.tolist() == [[0.7, 0.7, 0.7], [0.85, 0.8, 0.85],
                                              [0.3, 0.7, 0.8]]
        data = sample_dataset(mdp, evaluation, 3, np.random.default_rng(7))
        assert data.states.tolist() == [[113, 106, 133], [198, 134, 238], [153, 104, 87]]
        assert data.actions.tolist() == [[0, 0, 0], [1, 1, 1], [1, 1, 0]]
        assert data.rewards.tolist() == [[-0.4, 1.2000000000000002, -0.4], [3.8, 2.6, 3.8],
                                         [2.6, 2.6, -0.4]]
        assert data.propensities.tolist() == [[0.3, 0.3, 0.3], [0.85, 0.7, 0.85],
                                              [0.7, 0.7, 0.3]]

    @pytest.mark.parametrize("which, expected", [
        (1, ("92d967f9485a6c391ffb4605662217a59f727e304f27ad06afe1056816058002",
             "947995056bd10956c677841e99313ef1c6e82820dedc44b37bf34eb187584edf",
             "96fe997f5ae16b8759c0d3cfbd48f31fde17dd46ba804fa9cd6fe051cd2273fa",
             "835717335fb87ed8cf733cb55ff7ef9df34aeda69ac71da73dd79340bd2dccea")),
        (2, ("e8395b9f0905e468718c94cd9284d94287dd25b3551d0d98a0663cbb359addfa",
             "3bdbb8263a32c7b903f6c11e589f7f716c0ad94c49ab95d088f711b160b9a9c1",
             "3aae53a927bb039080f0b97c40b280cdd2d40f2cec0204d0ca71f2edcdd92614",
             "ce9df169ed45ba555dfd6c7481e840f6d73cc567e4600df2ade6206d146d1427")),
    ], ids=["behavior", "evaluation"])
    def test_array_digests(self, which, expected):
        lift = noisy_lift()
        data = sample_dataset(lift[0], lift[which], 400, np.random.default_rng(7))
        assert (digest(data.states, "<i8"), digest(data.actions, "<i8"),
                digest(data.rewards, "<f8"), digest(data.propensities, "<f8")) == expected


# Cells of 1, 2 and 3 reward outcomes, as the JSON spec gives them.
MIXED_WIDTH = {
    "num_states": 2, "num_actions": 2, "horizon": 2, "discount": 0.9,
    "initial_dist": [0.6, 0.4],
    "transitions": [[[0.7, 0.3], [0.2, 0.8]], [[0.45, 0.55], [0.9, 0.1]]],
    "rewards": [[{"support": [1.3], "probs": [1.0]},
                 {"support": [-0.6, 1.1], "probs": [0.35, 0.65]}],
                [{"support": [-1.1, 0.3, 2.7], "probs": [0.15, 0.6, 0.25]},
                 {"support": [0.1, 0.7], "probs": [0.55, 0.45]}]],
}
MIXED_WIDTH_POLICY = Policy(table=[[0.35, 0.65], [0.8, 0.2]])


class TestPinnedRewards:
    """The reward tables, DP values and enumeration read from the reward model,
    pinned on the 240-state lift and on a mixed-width MDP so that a change to how
    rewards are stored must keep every byte."""

    def test_mixed_width_tables_and_value(self):
        mdp = mdp_from_dict(MIXED_WIDTH)
        assert exact_policy_value(mdp, MIXED_WIDTH_POLICY) == 1.9127354150375
        assert (digest(mean_reward_table(mdp), "<f8"),
                digest(reward_variance_table(mdp), "<f8")) == (
            "42ed8a492c8f7442999553ac9ff9bf12291cddc06d480697f21c4bf9cc327fd4",
            "9876199ce15b4995f5ff37edbc3f44c66701e5c990ea241d28e32d2585c75644")

    def test_mixed_width_enumeration(self):
        data, probs = enumerate_dataset(mdp_from_dict(MIXED_WIDTH), MIXED_WIDTH_POLICY)
        assert data.n == 512
        assert (digest(data.rewards, "<f8"), digest(probs, "<f8")) == (
            "bb7751cef60edbdf8d6f8806f137883bbfaeabd9c29b2f4e51db6743eb10fa14",
            "5b1b985077aa85a668ef94879cb8ed7731fbe5669a9d08fdbf7cda5abf99b7d6")

    def test_lift_tables_and_values(self):
        mdp, behavior, evaluation = noisy_lift()
        values = np.array([exact_policy_value(mdp, behavior), exact_policy_value(mdp, evaluation)])
        assert values.tolist() == [1.9337433425000001, 5.464742319999999]
        assert (digest(mean_reward_table(mdp), "<f8"),
                digest(reward_variance_table(mdp), "<f8")) == (
            "b09520337ffce66bbe67a5fcbb813ef2d4302f1498ad53cf1dd03ba76d434655",
            "49e31b944532a0e1c9a942732cdf61ebd338b55e03213289f2c56787cb1ed4f0")

    def test_lift_json(self):
        text = json.dumps(mdp_to_dict(noisy_lift()[0]))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8514d78b4de3f6012091526b0de66c2c5207072b5e06d625830886aee22dc6bc")


class TestEnumeration:
    def test_degenerate_chain(self):
        data, probs = enumerate_dataset(constant_mdp(0), Policy(table=[[1.0]]))
        assert len(probs) == 1
        prob = probs[0]
        assert prob == 1.0
        assert row_steps(data) == [(0, 0, 1.0, 1.0)]

    def test_uniform_two_action_chain(self):
        mdp = TabularMdp(
            num_states=1, num_actions=2, horizon=1, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 2, 1)),
            **point_mass([[0.0, 1.0]]),
        )
        _, probs = enumerate_dataset(mdp, Policy(table=[[0.5, 0.5]]))
        assert len(probs) == 4
        assert all(prob == pytest.approx(0.25, abs=1e-15) for prob in probs)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            mdp = random_mdp(rng, 3, 2, 2)
            policy = random_policy(rng, 3, 2)
            _, probs = enumerate_dataset(mdp, policy)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_cap_enforced(self):
        mdp = three_state_mdp()
        policy = random_policy(np.random.default_rng(0), 3, 2)
        with pytest.raises(EnumerationCapError):
            enumerate_dataset(mdp, policy, cap=10)


class TestExactValue:
    def test_geometric_sum(self):
        mdp = constant_mdp(3, reward=2.0, discount=0.5)
        expected = 2.0 * sum(0.5**t for t in range(4))
        assert exact_policy_value(mdp, Policy(table=[[1.0]])) == pytest.approx(expected, abs=1e-12)

    def test_zero_discount_only_step_zero(self):
        mdp = three_state_mdp(discount=0.0)
        policy = random_policy(np.random.default_rng(9), 3, 2)
        mu = mean_reward_table(mdp)
        expected = float(mdp.initial_dist @ (policy.table * mu).sum(axis=1))
        assert exact_policy_value(mdp, policy) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            mdp = random_mdp(rng, 3, 2, 2)
            policy = random_policy(rng, 3, 2)
            data, probs = enumerate_dataset(mdp, policy)
            disc = mdp.discount ** np.arange(mdp.horizon + 1)
            expected = float((data.rewards * disc).sum(axis=1) @ probs)
            assert exact_policy_value(mdp, policy) == pytest.approx(expected, abs=1e-10)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mdp = three_state_mdp()
        path = tmp_path / "mdp.json"
        import json

        path.write_text(json.dumps(mdp_to_dict(mdp)))
        loaded = load_mdp(path)
        assert np.array_equal(loaded.transitions, mdp.transitions)
        assert np.array_equal(loaded.initial_dist, mdp.initial_dist)
        assert np.array_equal(loaded.reward_support, mdp.reward_support)
        assert np.array_equal(loaded.reward_probs, mdp.reward_probs)

    def test_mixed_width_round_trip(self):
        mdp = mdp_from_dict(MIXED_WIDTH)
        # Shorter cells are padded to the widest cell with outcome 0.0 at probability 0.
        assert mdp.reward_support.shape == (2, 2, 3)
        assert mdp.reward_support[0].tolist() == [[1.3, 0.0, 0.0], [-0.6, 1.1, 0.0]]
        assert mdp.reward_probs[0].tolist() == [[1.0, 0.0, 0.0], [0.35, 0.65, 0.0]]
        obj = mdp_to_dict(mdp)
        assert obj["rewards"][0][0] == {"support": [1.3, 0.0, 0.0], "probs": [1.0, 0.0, 0.0]}
        back = mdp_from_dict(obj)
        for field in ("initial_dist", "transitions", "reward_support", "reward_probs"):
            assert np.array_equal(getattr(back, field), getattr(mdp, field))
        assert mdp_to_dict(back) == obj

    def test_error_names_path(self):
        obj = mdp_to_dict(three_state_mdp())
        obj["rewards"][1][0]["probs"] = [0.3, 0.3]
        with pytest.raises(ValidationError, match=r"rewards\[1\]\[0\]"):
            mdp_from_dict(obj)

    @pytest.mark.parametrize("cells, plain", [
        ([[{"support": [1.3], "probs": [1.0]}, {"support": [-0.6, 1], "probs": [0.35, 0.65]}],
          [{"support": [-0.0, 0.3, 2**70], "probs": [0.15, 0.6, 0.25]},
           {"support": [0.1, 0.7], "probs": [0.55, 0.45], "note": 1}]], True),
        ([[{"support": [0.5, True], "probs": [0.5, 0.5]}]], False),  # numpy reads it as floats
        ([[{"support": [1, 2], "probs": [1, 0]}]], True),
    ], ids=["mixed_width", "a_bool_among_floats", "ints"])
    def test_the_one_pass_reward_reader_reads_as_the_cell_reader(self, cells, plain):
        read = mdp._plain_reward_cells(cells, len(cells[0]))
        assert (read is not None) == plain
        expected = mdp._reward_cells(cells, len(cells[0]))
        for got, want in zip(read or expected, expected):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_the_one_pass_reward_reader_reads_the_lift(self):
        rows = mdp_to_dict(noisy_lift()[0])["rewards"]
        read, expected = mdp._plain_reward_cells(rows, 2), mdp._reward_cells(rows, 2)
        for got, want in zip(read, expected):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_a_cell_error_comes_before_a_later_row_error(self):
        obj = mdp_to_dict(three_state_mdp())
        obj["rewards"][0][1]["probs"] = [1.0, 0.0, 0.0]
        obj["rewards"][2] = obj["rewards"][2][:1]
        with pytest.raises(ValidationError, match=r"^rewards\[0\]\[1\]: reward support and "
                                                  r"probs must be 1-d, nonempty and of equal "
                                                  r"length$"):
            mdp_from_dict(obj)

    def test_integer_beyond_the_float_range_rejected(self):
        # json.loads reads 1e400 written as digits as an int that no float holds.
        obj = mdp_to_dict(three_state_mdp())
        obj["rewards"][1][0]["support"] = [0, 10**400]
        with pytest.raises(ValidationError,
                           match=r"^rewards\[1\]\[0\] needs numeric 'support' and 'probs'$"):
            mdp_from_dict(obj)
        obj = mdp_to_dict(three_state_mdp())
        obj["initial_dist"] = [10**400, 0, 0]
        with pytest.raises(ValidationError,
                           match="^MDP spec: 'initial_dist' must be an array of numbers$"):
            mdp_from_dict(obj)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_a_discount_that_json_reads_as_non_finite_is_named(self, text):
        # json.loads reads NaN and the infinities as floats.
        obj = {**mdp_to_dict(three_state_mdp()), "discount": json.loads(text)}
        with pytest.raises(ValidationError,
                           match=f"^MDP spec: 'discount' must be finite, got {text}$"):
            mdp_from_dict(obj)

    def test_unknown_fields_rejected(self):
        obj = mdp_to_dict(three_state_mdp())
        obj["extra"] = 1
        with pytest.raises(ValidationError, match="unknown"):
            mdp_from_dict(obj)
