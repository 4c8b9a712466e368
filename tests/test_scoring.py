"""The step walk of ``_psi_scores`` against the whole-matrix rule it replaced.

The reference rule takes the evaluation and behavior propensities of every
logged step into ``(N, T+1)`` arrays, divides them, takes ``cumprod`` along the
steps, gathers ``q_t(s_t, a_t)`` and ``v_t(s_t)`` by row and step, and sums each
row with numpy. The step walk must return the same bytes and dtype for every
row set, and raise the same errors. The reference reads ``v_t(s_t)`` by the
dataset's own states, passed beside the row set ``(sa, rewards)``, where the walk
reads it by the cell index.
"""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dml_ope import (
    LoggedDataset,
    Policy,
    SupportViolationError,
    ValidationError,
    fit_nuisance,
    sample_dataset,
)
from dml_ope.estimators import (
    _cells,
    _check_q,
    _control,
    _fold_rows,
    _psi_scores,
    _ratios,
    _walk,
)
from dml_ope.nuisance import _folds, check_table_shape

from helpers import noisy_lift, random_mdp, random_policy


def reference_weights(pe: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Cumulative importance weights rho_t per trajectory, shape (N, T+1), from the
    evaluation and behavior propensities ``pe`` and ``pb`` of each logged step."""
    if np.any(pb <= 0):
        raise SupportViolationError("zero behavior propensity on a realized action")
    rho = pe / pb
    return np.cumprod(rho, axis=1, out=rho)


def reference_scores(rows, states, behavior, q, eval_policy, discount):
    sa, rewards = rows
    t = np.arange(sa.shape[1])
    check_table_shape(behavior.table.shape, eval_policy, "behavior policy")
    rho = reference_weights(eval_policy.table.take(sa), behavior.table.take(sa))
    disc = discount ** t
    if q is None:
        return (rho * rewards * disc).sum(axis=1)
    _check_q(q, t.size, eval_policy)
    terms = rho * (rewards - q.reshape(t.size, -1).T[sa, t])  # q_t(s_t, a_t)
    rho[:, 1:] = rho[:, :-1]  # rho_{t-1}, with rho_{-1} = 1
    rho[:, 0] = 1.0
    terms += rho * np.einsum("tsa,sa->ts", q, eval_policy.table).T[states, t]  # v_t(s_t)
    return (terms * disc).sum(axis=1)


def assert_same_scores(rows, states, behavior, q, evaluation, discount):
    try:
        want = reference_scores(rows, states, behavior, q, evaluation, discount)
    except ValidationError as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            _psi_scores(*rows, behavior, q, evaluation, discount)
        return
    got = _psi_scores(*rows, behavior, q, evaluation, discount)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# Signed zeros, subnormals and values of mixed magnitude: a sum or product taken
# in another order rounds, or signs a zero, differently.
VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                   0.1, 1.0, -2.5, 3.0, 1e8, -7e-3])


def entries(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Half ``VALUES``, half standard normals."""
    return np.where(rng.random(shape) < 0.5, rng.choice(VALUES, shape),
                    rng.standard_normal(shape))


def with_rewards(data: LoggedDataset, rng: np.random.Generator) -> LoggedDataset:
    """``data``'s states and actions with rewards drawn by ``entries``."""
    return LoggedDataset(states=data.states, actions=data.actions,
                         rewards=entries(rng, data.rewards.shape))


@st.composite
def distribution(draw, width: int) -> np.ndarray:
    """A probability row that may hold zeros."""
    weights = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width).filter(any))
    return np.array(weights, dtype=float) / sum(weights)


def policy(draw, num_states: int, num_actions: int) -> Policy:
    return Policy(table=[draw(distribution(num_actions)) for _ in range(num_states)])


@st.composite
def scoring_cases(draw):
    num_states, num_actions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # Rows of 7 steps and fewer numpy sums in order; from 8, in pairwise lanes
    # with a tail past each block of 8.
    horizon = draw(st.sampled_from([0, 1, 2, 3, 6, 7, 8, 11]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logging = policy(draw, num_states, num_actions)
    data = with_rewards(sample_dataset(random_mdp(rng, num_states, num_actions, horizon),
                                       logging, draw(st.integers(1, 40)), rng), rng)
    # The logging policy's zeros lie away from the realized path; another
    # behavior table's zeros may lie on it.
    behavior = logging if draw(st.booleans()) else policy(draw, num_states, num_actions)
    evaluation = policy(draw, num_states, num_actions)
    q = entries(rng, (horizon + 1, num_states, num_actions)) if draw(st.booleans()) else None
    folds = _folds(data.n, 2, [rng]) if data.n >= 2 else [np.arange(1)[None]]
    return data, behavior, evaluation, q, folds, draw(st.sampled_from([0.0, 0.5, 1.0]))


@settings(deadline=None)
@given(scoring_cases())
def test_step_walk_equals_reference_rule(case):
    data, behavior, evaluation, q, folds, discount = case
    whole = data.cells(evaluation, "evaluation"), data.rewards
    assert_same_scores(whole, data.states, behavior, q, evaluation, discount)
    # Every other row, as strided views.
    every_other = slice(None, None, 2)
    assert_same_scores(tuple(x[every_other] for x in whole), data.states[every_other],
                       behavior, q, evaluation, discount)
    # The row sets of non-contiguous folds, as the cross-fit gathers them.
    for *part, states in _fold_rows(tuple(x[None] for x in (*whole, data.states)), folds):
        assert_same_scores(tuple(x[0] for x in part), states[0], behavior, q, evaluation,
                           discount)


@pytest.mark.parametrize("horizon", [2, 8])
@pytest.mark.parametrize("replications", [1, 3])
@pytest.mark.parametrize("n", [8191, 8192, 8193, 2 * 8192 + 1])
def test_stacked_walk_across_row_blocks_equals_reference_rule(n, replications, horizon):
    # Row sets on either side of the walk's block edges at 8,192 rows, stacked
    # as the study stacks replications, each with its own behavior table and
    # Q: every replication's IPW and DR scores equal the reference rule's. Rows
    # of 9 steps take numpy's pairwise lanes.
    rng = np.random.default_rng([n, replications, horizon])
    num_states, num_actions = 4, 3
    mdp = random_mdp(rng, num_states, num_actions, horizon)
    evaluation = random_policy(rng, num_states, num_actions)
    behaviors = [random_policy(rng, num_states, num_actions)
                 for _ in range(replications)]
    datasets = [with_rewards(sample_dataset(mdp, b, n, rng), rng) for b in behaviors]
    qs = entries(rng, (horizon + 1, replications, num_states, num_actions))
    states, actions, rewards = (np.stack([getattr(d, name) for d in datasets])
                                for name in ("states", "actions", "rewards"))
    sa = _cells(states, actions, evaluation)
    ratio = _ratios(np.stack([b.table for b in behaviors]), evaluation, sa)
    ipw, dr = _walk(sa, rewards, ratio, [None, _control(qs, evaluation)], mdp.discount)
    for r, data in enumerate(datasets):
        rows = data.cells(evaluation, "evaluation"), data.rewards
        for got, q in ((ipw[r], None), (dr[r], qs[:, r])):
            want = reference_scores(rows, data.states, behaviors[r], q, evaluation,
                                    mdp.discount)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def lift_rows():
    mdp, behavior, evaluation = noisy_lift()
    data = sample_dataset(mdp, behavior, 50_000, np.random.default_rng(3))
    eta = fit_nuisance(data, evaluation, mdp.discount)
    return (data.cells(evaluation, "evaluation"), data.rewards), eta, evaluation, mdp.discount


def peak_columns(lift_rows, control: str) -> float:
    """The tracemalloc peak of one ``_psi_scores`` call, in float columns of N rows."""
    rows, eta, evaluation, discount = lift_rows
    q = eta.q if control == "dr" else None
    tracemalloc.start()
    try:
        _psi_scores(*rows, eta.behavior, q, evaluation, discount)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (rows[0].shape[0] * 8)


@pytest.mark.parametrize("control, columns", [("dr", 8.5), ("ipw", 7.0)])
def test_peak_memory_in_row_columns(lift_rows, control, columns):
    # The whole-matrix rule peaked at 10.0 (DR) and 9.2 (IPW) on these 3-step
    # rows; a step walk over whole 1-d columns peaked at 7.0 and 5.0.
    assert peak_columns(lift_rows, control) <= columns


@pytest.mark.parametrize("control", ["dr", "ipw"])
def test_blocked_walk_peak_memory(lift_rows, control):
    # The walk takes 8,192 of the 50,000 rows at a time, so beside the scores
    # it holds one block's columns: it peaks at 2.0 (DR) and 1.7 (IPW).
    assert peak_columns(lift_rows, control) <= 3.0
