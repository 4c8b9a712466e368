import numpy as np
import pytest

from dml_ope import (
    EnumerationCapError,
    Policy,
    RewardSpec,
    TabularMdp,
    ValidationError,
    enumerate_dataset,
    exact_policy_value,
    load_mdp,
    mdp_from_dict,
    mdp_to_dict,
    mean_reward_table,
    reward_variance_table,
    sample_dataset,
)

from helpers import bernoulli, point_mass, random_mdp, random_policy, row_steps, three_state_mdp


def constant_mdp(horizon: int, reward: float = 1.0, discount: float = 1.0) -> TabularMdp:
    return TabularMdp(
        num_states=1,
        num_actions=1,
        horizon=horizon,
        discount=discount,
        initial_dist=[1.0],
        transitions=np.ones((1, 1, 1)),
        rewards=[[point_mass(reward)]],
    )


class TestValidation:
    def test_reward_spec_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            RewardSpec(support=[0.0, 1.0], probs=[0.5, 0.4])

    def test_reward_spec_rejects_infinite_support(self):
        with pytest.raises(ValidationError):
            RewardSpec(support=[np.inf], probs=[1.0])

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
            RewardSpec(support=[0.0, 1.0], probs=probs)

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
                rewards=[[point_mass(0.0)], [point_mass(0.0)]],
            )

    def test_transition_rows_checked_with_path(self):
        bad = np.ones((2, 1, 2)) * 0.5
        bad[1, 0] = [0.7, 0.7]
        with pytest.raises(ValidationError, match=r"transitions\[1\]\[0\]"):
            TabularMdp(
                num_states=2, num_actions=1, horizon=0, discount=1.0,
                initial_dist=[0.5, 0.5], transitions=bad,
                rewards=[[point_mass(0.0)], [point_mass(0.0)]],
            )

    def test_policy_dimension_mismatch(self):
        mdp = constant_mdp(1)
        with pytest.raises(ValidationError):
            sample_dataset(mdp, Policy(table=[[0.5, 0.5]]), 1, np.random.default_rng(0))


class TestRewardTables:
    def test_mean_weighted(self):
        mdp = TabularMdp(
            num_states=1, num_actions=1, horizon=0, discount=1.0,
            initial_dist=[1.0], transitions=np.ones((1, 1, 1)),
            rewards=[[bernoulli(0.7)]],
        )
        assert mean_reward_table(mdp)[0, 0] == pytest.approx(0.7, abs=1e-12)
        assert reward_variance_table(mdp)[0, 0] == pytest.approx(0.21, abs=1e-12)

    def test_point_mass(self):
        mdp = constant_mdp(0, reward=5.0)
        assert mean_reward_table(mdp)[0, 0] == 5.0
        assert reward_variance_table(mdp)[0, 0] == 0.0

    def test_three_point_mean(self):
        spec = RewardSpec(support=[-1.0, 0.0, 2.0], probs=[0.25, 0.5, 0.25])
        assert spec.mean == pytest.approx(0.25, abs=1e-12)

    def test_bernoulli_half_variance(self):
        assert bernoulli(0.5).variance == pytest.approx(0.25, abs=1e-12)


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
            rewards=[[point_mass(0.0)], [point_mass(0.0)]],
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
            rewards=[[point_mass(0.0), point_mass(1.0)]],
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
        assert loaded.rewards[2][1].probs.tolist() == mdp.rewards[2][1].probs.tolist()

    def test_error_names_path(self):
        obj = mdp_to_dict(three_state_mdp())
        obj["rewards"][1][0]["probs"] = [0.3, 0.3]
        with pytest.raises(ValidationError, match=r"rewards\[1\]\[0\]"):
            mdp_from_dict(obj)

    def test_unknown_fields_rejected(self):
        obj = mdp_to_dict(three_state_mdp())
        obj["extra"] = 1
        with pytest.raises(ValidationError, match="unknown"):
            mdp_from_dict(obj)
