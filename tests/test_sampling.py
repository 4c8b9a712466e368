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
from dml_ope.mdp import GUIDE_COST_LEVELS, _cdf_table, _inverse_cdf, _sample, _search_table

from helpers import noisy_lift, point_mass


def reference_draw(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The count of entries of each gathered row below ``u``, clamped to ``W - 1``."""
    return np.minimum((u[:, None] > cum_rows).sum(axis=1), cum_rows.shape[1] - 1)


def search_table(cum: np.ndarray):
    """The sampler's search table of the cumulative table ``cum`` as it is."""
    return _search_table(cum.shape,
                         lambda first, stop, out=None: np.positive(cum[first:stop], out=out))


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
    assert_cum_search_matches(np.cumsum(prob_rows, axis=1), u)


def assert_cum_search_matches(cum: np.ndarray, u: np.ndarray):
    """Search every row of the cumulative table ``cum`` at every ``u`` against
    the reference."""
    rows = np.repeat(np.arange(cum.shape[0]), u.size)
    uu = np.tile(u, cum.shape[0])
    assert np.array_equal(_inverse_cdf(search_table(cum), rows, uu),
                          reference_draw(cum[rows], uu))


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
        cum = np.cumsum(mdp.reward_probs.reshape(3, 4), axis=1)
        assert np.array_equal(mdp._reward_cdf.entries[:, :3], cum[:, :3])
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
        assert _inverse_cdf(search_table(cum), np.zeros(2, dtype=np.int64),
                            above).tolist() == [2, 2]
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


def guided_table(prob_rows: np.ndarray):
    """The search table of ``prob_rows``' ``cumsum``, which must keep its guide."""
    table = search_table(np.cumsum(prob_rows, axis=1))
    assert table.guide is not None
    return table


def special_u(buckets: int) -> np.ndarray:
    """Every bucket edge ``j / G`` and its neighbours, and values outside [0, 1)."""
    edges = np.arange(buckets + 1) / buckets
    return np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                           [0.0, -0.0, 5e-324, -1e-300, -1.0, -np.inf, 1.0 - 2.0**-53,
                            1.0, 2.0, np.inf, np.nan]])


class TestGuidedSearch:
    """Tables wide enough to keep a guide start each search in the bucket of
    ``u`` and must still return the reference index for every ``u``."""

    def test_size_rule(self):
        lift, behavior, _ = noisy_lift()
        transitions = lift._transition_cdf
        assert transitions.guide is not None and transitions.guide.dtype == np.uint8
        assert transitions.levels + GUIDE_COST_LEVELS <= (240 - 1).bit_length()
        assert lift._initial_cdf.guide is not None
        # Two-column tables, the lift's rewards and policies, search plainly.
        for table in (lift._reward_cdf, _cdf_table(behavior.table)):
            assert table.guide is None and table.levels == 1
        rng = np.random.default_rng(0)
        for width in range(1, 5):  # too narrow for a guide to save two levels
            table = search_table(np.cumsum(rng.dirichlet(np.ones(width), size=3), axis=1))
            assert table.guide is None and table.levels == (width - 1).bit_length()

    def test_table_layout(self):
        # guide[r, j] counts the first W - 1 entries <= (j - 1) / G; the entries
        # end in +inf so that a guided search never reads the next row.
        probs = np.random.default_rng(1).dirichlet(np.full(40, 0.3), size=5)
        cum = np.cumsum(probs, axis=1)
        table = guided_table(probs)
        buckets = table.guide.shape[1] - 2
        assert buckets == 64  # the smallest power of two >= W - 1 = 39
        low, high = (np.arange(buckets + 2) - 1) / buckets, np.arange(buckets + 2) / buckets
        assert np.array_equal(table.guide, (cum[:, None, :-1] <= low[:, None]).sum(axis=2))
        assert table.entries.shape == (5, 39 + 2**table.levels)
        assert np.array_equal(table.entries[:, :39], cum[:, :-1])
        assert np.all(table.entries[:, 39:] == np.inf)
        # A bucket's window, the entries strictly inside it, takes levels probes.
        inside = (cum[:, None, :-1] > low[:, None]) & (cum[:, None, :-1] < high[:, None])
        inside[:, -1] = cum[:, :-1] > 1.0
        assert 2**table.levels > inside.sum(axis=2).max() >= 2**(table.levels - 1)

    @pytest.mark.parametrize("width", [9, 17, 40, 129, 240, 300])
    def test_u_on_bucket_edges(self, width):
        probs = np.random.default_rng(width).dirichlet(np.ones(width), size=4)
        table = guided_table(probs)
        cum = np.cumsum(probs, axis=1)
        u = np.concatenate([special_u(table.guide.shape[1] - 2), cum.ravel(),
                            np.nextafter(cum.ravel(), 2.0), np.nextafter(cum.ravel(), -1.0)])
        assert_search_matches(probs, u)

    def test_long_runs_of_zero_probability(self):
        # A zero run repeats one cumulative entry. Inside a bucket it widens the
        # bucket's window, and the search takes more levels: 24 entries of k/11
        # take 5. On a bucket edge it widens none: leading 0s, the 1.0s ending a
        # row and runs of 0.25 and 0.75 leave one level, or none.
        spaced = np.zeros((3, 257))
        spaced[0, ::24] = 1.0
        spaced[1, 200:] = 1.0
        spaced[2, [0, 100, 200]] = [0.25, 0.5, 0.25]
        spaced /= spaced.sum(axis=1, keepdims=True)
        cum = np.cumsum(spaced, axis=1)
        assert guided_table(spaced).levels == 5
        assert guided_table(spaced[1:]).levels == 1
        assert guided_table(spaced[2:]).levels == 0
        assert_search_matches(spaced, np.concatenate([special_u(256), cum.ravel(),
                                                      np.nextafter(cum.ravel(), 2.0)]))
        # 201 entries of 1/3 need 8 levels, one fewer than a plain search.
        third = np.zeros((1, 257))
        third[0, [0, 201]] = [1 / 3, 2 / 3]
        table = search_table(np.cumsum(third, axis=1))
        assert table.guide is None and table.levels == 9
        assert_search_matches(third, np.concatenate([special_u(256), [1 / 3, 2 / 3]]))

    def test_entries_above_one(self):
        # A row may sum past 1 within PROB_TOL, so entries above 1 must stay
        # inside the last bucket, u > 1, even on its would-be edges (j / G for
        # j > G); here they are far above 1 to put some on those edges.
        steps = np.concatenate([np.full(20, 1 / 32), np.full(12, 1 / 64), [0.0] * 8,
                                np.full(24, 1 / 64)])
        cum = np.cumsum(steps)[None]
        assert cum[0, -1] > 1 + 1 / 64
        table = search_table(cum)
        assert table.guide is not None and table.guide.shape[1] == 64 + 2
        u = np.concatenate([special_u(64), cum.ravel(), np.nextafter(cum.ravel(), 3.0),
                            np.linspace(1.0, 2.0, 65)])
        assert_cum_search_matches(cum, u)

    def test_rows_summing_just_below_one(self):
        # Fifty entries of 0.02, the last 5e-13 short, within the validation
        # tolerance: a draw above the last entry clamps to the last index.
        probs = np.full((1, 50), 0.02)
        probs[0, -1] -= 5e-13
        Policy(table=probs)
        cum = np.cumsum(probs, axis=1)
        table = guided_table(probs)
        above = np.array([np.nextafter(cum[0, -2], 2.0), np.nextafter(cum[0, -1], 2.0),
                          1.0 - 2.0**-53])
        assert _inverse_cdf(table, np.zeros(3, dtype=np.int64), above).tolist() == [49] * 3
        assert_search_matches(probs, np.concatenate([above, cum[0], special_u(64)]))
        # A short row ending in zeros: the sampler's table holds 1.0 from the
        # last positive entry on, on the last bucket's edge, so the guide stays
        # and no draw below 1 lands on a zero.
        short = np.zeros((1, 40))
        short[0, :20] = 0.05
        short[0, 19] -= 5e-13
        sampler = _cdf_table(short)
        assert sampler.guide is not None
        draws = _inverse_cdf(sampler, np.zeros(2, dtype=np.int64),
                             np.array([np.nextafter(np.cumsum(short)[19], 2.0), 1.0 - 2.0**-53]))
        assert draws.tolist() == [19, 19]

    def test_stacked_replications_on_the_lift(self):
        lift, behavior, _ = noisy_lift()
        seeds = np.random.SeedSequence(11).spawn(3)
        rngs = [np.random.default_rng(s) for s in seeds]
        stacked = _sample(lift, behavior, 200, rngs)
        for r, s in enumerate(seeds):
            ref_rng = np.random.default_rng(s)
            expected = reference_sample(lift, behavior, 200, ref_rng)
            for got, want in zip(stacked, expected):
                assert got[r].dtype == want.dtype
                assert got[r].tobytes() == want.tobytes()
            assert rngs[r].random() == ref_rng.random()


@st.composite
def sparse_distribution(draw, width: int) -> np.ndarray:
    """A distribution of ``width`` entries, most of them 0 when ``zeros`` is high,
    so that long zero runs make wide buckets."""
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 5, width) * (rng.random(width) >= zeros)
    weights[rng.integers(width)] += 1
    return weights / weights.sum()


@settings(deadline=None)
@given(st.integers(1, 300).flatmap(
           lambda width: st.lists(sparse_distribution(width), min_size=1, max_size=4)),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
       st.integers(0, 2**32 - 1))
def test_search_equals_reference_on_wide_tables(rows, extra_u, seed):
    probs = np.array(rows)
    cum = np.cumsum(probs, axis=1)
    buckets = 1 << max(probs.shape[1] - 2, 0).bit_length()
    u = np.concatenate([special_u(buckets), cum.ravel(), np.nextafter(cum.ravel(), 2.0),
                        np.random.default_rng(seed).random(50), extra_u])
    assert_search_matches(probs, u)


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


@st.composite
def wide_scenarios(draw):
    """MDPs and policies whose transition, reward and policy rows are wide
    enough to keep a guide, with long zero runs."""
    num_states = draw(st.integers(9, 40))
    num_actions = draw(st.integers(1, 10))
    width = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [draw(sparse_distribution(num_states)) for _ in range(num_actions + 1)]
    transitions = np.array([[rows[rng.integers(len(rows))] for _ in range(num_actions)]
                            for _ in range(num_states)])
    reward_probs = np.array([draw(sparse_distribution(width)) for _ in range(num_actions)])
    mdp = TabularMdp(
        num_states=num_states, num_actions=num_actions, horizon=draw(st.integers(1, 2)),
        discount=1.0, initial_dist=draw(sparse_distribution(num_states)),
        transitions=transitions,
        reward_support=rng.integers(-3, 4, (num_states, num_actions, width)),
        reward_probs=reward_probs[rng.integers(num_actions, size=(num_states, num_actions))],
    )
    policy = Policy(table=[draw(sparse_distribution(num_actions)) for _ in range(num_states)])
    return mdp, policy


@settings(deadline=None, max_examples=50)
@given(wide_scenarios(), st.integers(1, 40), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_stacked_wide_draws_equal_reference_rule(scenario, n, reps, seed):
    # Each replication of a stacked call draws what the reference rule draws
    # from its generator, which ends in the same state.
    mdp, policy = scenario
    seeds = np.random.SeedSequence(seed).spawn(reps)
    rngs = [np.random.default_rng(s) for s in seeds]
    stacked = _sample(mdp, policy, n, rngs)
    for r, s in enumerate(seeds):
        ref_rng = np.random.default_rng(s)
        for got, want in zip(stacked, reference_sample(mdp, policy, n, ref_rng)):
            assert got[r].dtype == want.dtype
            assert got[r].tobytes() == want.tobytes()
        assert rngs[r].random() == ref_rng.random()
