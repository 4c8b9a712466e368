"""The sampler's inverse-CDF search against the rule it replaced.

The reference rule gathers each trajectory's probability row, takes its
``cumsum`` and counts the entries below ``u``, clamped to the last index. The
search over stored cumulative tables must return the same index for every
``u``, and ``sample_dataset`` must draw the same arrays from the same seed.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dml_ope import Policy, TabularMdp, mdp_from_dict, sample_dataset
from dml_ope.mdp import _inverse_cdf, _sample

from helpers import noisy_lift, point_mass


def reference_draw(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The count of entries of each gathered row below ``u``, clamped to ``W - 1``."""
    return np.minimum((u[:, None] > cum_rows).sum(axis=1), cum_rows.shape[1] - 1)


def reference_sample(mdp: TabularMdp, policy: Policy, n: int, rng: np.random.Generator):
    """States, actions, rewards and propensities drawn by the reference rule on
    per-trajectory gathered rows, one ``rng.random(n)`` per draw."""

    def draw(prob_rows):
        return reference_draw(np.cumsum(prob_rows, axis=1), rng.random(prob_rows.shape[0]))

    steps = mdp.horizon + 1
    states = np.empty((n, steps), dtype=np.int64)
    actions = np.empty((n, steps), dtype=np.int64)
    rewards = np.empty((n, steps))
    for t in range(steps):
        if t == 0:
            s = draw(np.broadcast_to(mdp.initial_dist, (n, mdp.num_states)))
        else:
            s = draw(mdp.transitions[states[:, t - 1], actions[:, t - 1]])
        a = draw(policy.table[s])
        r_idx = draw(mdp.reward_probs[s, a])
        states[:, t], actions[:, t] = s, a
        rewards[:, t] = mdp.reward_support[s, a, r_idx]
    return states, actions, rewards, policy.table[states, actions]


def assert_same_draws(mdp, policy, n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    data = sample_dataset(mdp, policy, n, rng)
    expected = reference_sample(mdp, policy, n, ref_rng)
    for got, want in zip((data.states, data.actions, data.rewards, data.propensities), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # Both consumed the generator equally.
    assert rng.random() == ref_rng.random()


def assert_search_matches(prob_rows: np.ndarray, u: np.ndarray):
    """Search every row of ``prob_rows`` at every ``u`` against the reference."""
    cum = np.cumsum(prob_rows, axis=1)
    rows = np.repeat(np.arange(cum.shape[0]), u.size)
    uu = np.tile(u, cum.shape[0])
    assert np.array_equal(_inverse_cdf(cum, rows, uu), reference_draw(cum[rows], uu))


class TestSearchEdges:
    def test_u_on_cumulative_boundaries(self):
        probs = np.array([[0.25, 0.25, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0]])
        cum = np.cumsum(probs, axis=1)
        edges = np.unique(np.concatenate([cum.ravel(), [0.0]]))
        u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        assert_search_matches(probs, u)

    def test_padded_reward_rows_with_trailing_zeros(self):
        mdp = mdp_from_dict({
            "num_states": 1, "num_actions": 3, "horizon": 1, "discount": 1.0,
            "initial_dist": [1.0], "transitions": [[[1.0], [1.0], [1.0]]],
            "rewards": [[{"support": [2.0], "probs": [1.0]},
                         {"support": [0.0, 1.0], "probs": [0.3, 0.7]},
                         {"support": [-1.0, 0.0, 5.0, 9.0], "probs": [0.1, 0.2, 0.3, 0.4]}]],
        })
        assert mdp.reward_probs[0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
        cum = mdp._reward_cum
        u = np.concatenate([cum.ravel(), np.nextafter(cum.ravel(), 2.0),
                            np.linspace(0.0, 1.0, 101)])
        assert_search_matches(mdp.reward_probs.reshape(3, 4), u)
        for seed in range(5):
            assert_same_draws(mdp, Policy(table=[[0.2, 0.3, 0.5]]), 200, seed)

    def test_rows_summing_just_below_one_clamp_to_last_index(self):
        probs = np.array([[0.2, 0.3, 0.5 - 5e-13]])
        Policy(table=probs)  # within the validation tolerance
        cum = np.cumsum(probs, axis=1)
        # Values of rng.random() above the last cumulative entry.
        above = np.array([np.nextafter(cum[0, -1], 2.0), 1.0 - 2.0**-53])
        assert np.all(above > cum[0, -1]) and np.all(above < 1.0)
        assert _inverse_cdf(cum, np.zeros(2, dtype=np.int64), above).tolist() == [2, 2]
        assert_search_matches(probs, np.concatenate([above, cum[0], [0.0]]))
        # A row of ten 0.1 ends at the largest double below 1.
        assert_search_matches(np.full((1, 10), 0.1), np.array([1.0 - 2.0**-53, 0.9, 0.3]))

    def test_single_column_rows(self):
        # One action and one-point reward support: every draw is index 0,
        # and each still takes its own rng.random(n).
        assert_search_matches(np.ones((2, 1)), np.array([0.0, 0.5, 1.0, 1.5]))
        mdp = TabularMdp(
            num_states=2, num_actions=1, horizon=2, discount=1.0, initial_dist=[0.4, 0.6],
            transitions=[[[0.5, 0.5]], [[0.9, 0.1]]],
            **point_mass([[1.0], [-2.0]]),
        )
        for seed in range(5):
            assert_same_draws(mdp, Policy(table=[[1.0], [1.0]]), 50, seed)

    @pytest.mark.parametrize("which", [1, 2], ids=["behavior", "evaluation"])
    def test_noisy_lift(self, which):
        lift = noisy_lift()
        for seed in range(3):
            assert_same_draws(lift[0], lift[which], 500, seed)


@st.composite
def distribution(draw, width: int) -> np.ndarray:
    weights = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width).filter(any))
    return np.array(weights, dtype=float) / sum(weights)


@st.composite
def small_scenarios(draw):
    num_states = draw(st.integers(1, 4))
    num_actions = draw(st.integers(1, 3))
    rewards = []
    for _ in range(num_states):
        row = []
        for _ in range(num_actions):
            width = draw(st.integers(1, 3))
            support = draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))
            row.append({"support": support, "probs": draw(distribution(width)).tolist()})
        rewards.append(row)
    # The JSON spec format takes cells of different widths and pads them.
    mdp = mdp_from_dict({
        "num_states": num_states,
        "num_actions": num_actions,
        "horizon": draw(st.integers(0, 2)),
        "discount": 1.0,
        "initial_dist": draw(distribution(num_states)).tolist(),
        "transitions": [[draw(distribution(num_states)).tolist() for _ in range(num_actions)]
                        for _ in range(num_states)],
        "rewards": rewards,
    })
    policy = Policy(table=[draw(distribution(num_actions)) for _ in range(num_states)])
    return mdp, policy


@settings(deadline=None)
@given(small_scenarios(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_sample_dataset_equals_reference_rule(scenario, n, seed):
    mdp, policy = scenario
    assert_same_draws(mdp, policy, n, seed)


@settings(deadline=None)
@given(small_scenarios(), st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_draws_equal_each_generators_own(scenario, n, reps, seed):
    # Each replication's rows of one stacked call are those sample_dataset
    # draws from its generator alone.
    mdp, policy = scenario
    seeds = np.random.SeedSequence(seed).spawn(reps)
    stacked = _sample(mdp, policy, n, [np.random.default_rng(s) for s in seeds])
    for r, s in enumerate(seeds):
        data = sample_dataset(mdp, policy, n, np.random.default_rng(s))
        for got, want in zip(stacked, (data.states, data.actions, data.rewards,
                                       data.propensities)):
            assert got[r].tobytes() == want.tobytes()
