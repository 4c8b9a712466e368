"""Finite tabular MDPs, trajectory sampling, and exact enumeration oracles.

All probability tables are dense numpy arrays indexed by 0-based state and
action ids. Everything here is exactly computable: rewards have finite
support, so mean/variance tables and full trajectory enumeration are exact.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

PROB_TOL = 1e-12
DEFAULT_ENUMERATION_CAP = 10_000_000
# A guide's bucket lookup costs about one level of a plain search (7.5 against
# 6.3 ms per level on average, per 5e5 draws from the 240-state lift's
# transitions), so a table keeps its guide only when it saves two levels or more.
GUIDE_COST_LEVELS = 2
# A guide is built this many cumulative entries at a time; at 1 << 18, the whole
# 240-state lift's transitions at once, the MSE-study benchmark's peak RSS read
# 2.5 MiB higher.
GUIDE_BLOCK = 1 << 15


class ValidationError(ValueError):
    """Malformed MDP, policy, or dataset input."""


class EnumerationCapError(RuntimeError):
    """Exact enumeration would exceed the configured outcome cap."""


# Run-parameter rules. Each raises "<name> must ..., got <value>", where ``name``
# is the flag or key the user gave the value by; NaN fails every rule.


def check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")


def check_level(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {value}")


def check_folds(k: int, n: int, name: str) -> None:
    check_integer(k, name)
    if not 2 <= k <= n:
        raise ValidationError(f"{name} must lie in [2, {n}] for {n} rows, got {k}")


def check_at_least(value: float, low: int, name: str) -> None:
    if not value >= low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")


def check_integer(value: int, name: str, low: float = -math.inf) -> None:
    """The rule of every count, size and seed: an integer that is not a bool, at
    least ``low``. numpy refuses a float as a size, and reads True as 1."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    check_at_least(value, low, name)


def check_finite_nonnegative(value: float, name: str) -> None:
    if not 0 <= value < np.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def check_dataset(value, name: str) -> None:
    """The rule of every public call's dataset; the error names the type given."""
    if not isinstance(value, LoggedDataset):
        raise ValidationError(f"{name} must be a LoggedDataset, got {type(value).__name__}")


def as_real(values, rule: str) -> np.ndarray:
    """``values`` as an array, after raising "<rule>, got <value>" for its first
    entry that is no real number: text, bytes, a bool, a complex number or None.
    The dtype's kind decides in O(1), unless the array holds Python objects."""
    given = np.asarray(values)
    kind = given.dtype.kind
    if kind in "iuf":
        return given
    if kind == "O":
        odd = [x for x in given.ravel().tolist()
               if not isinstance(x, numbers.Real) or isinstance(x, bool)]
    else:  # text, bytes, bools or complex numbers: no entry is a real number
        odd = given.ravel()[:1].tolist()
    if odd:
        raise ValidationError(f"{rule}, got {odd[0]!r}")
    return given


@contextmanager
def sized_by(value: int, name: str):
    """Re-raise numpy's refusal to shape or allocate an array in the block, whose
    size ``value`` set, as a ValidationError naming ``name``."""
    try:
        yield
    except ValidationError:
        raise
    except (MemoryError, ValueError) as exc:
        raise ValidationError(f"{name} must size arrays numpy can allocate ({exc}), "
                              f"got {value}") from None


def _check_prob_rows(table: np.ndarray, name: str) -> None:
    """Raise for the first row along the last axis that is not a distribution.

    A NaN entry fails. ``name`` is formatted with the bad row's index, as in
    "policy row {}".
    """
    rows = table.reshape(math.prod(table.shape[:-1]), table.shape[-1])
    negative = np.any(rows < 0, axis=1)
    bad = np.flatnonzero(negative | ~(np.abs(rows.sum(axis=1) - 1.0) <= PROB_TOL))
    if bad.size:
        i = bad[0]
        where = name.format(*np.unravel_index(i, table.shape[:-1]))
        if negative[i]:
            raise ValidationError(f"{where} has negative entries")
        raise ValidationError(f"{where} sums to {float(rows[i].sum())!r}, expected 1")


def check_policy_rows(table: np.ndarray) -> None:
    """Raise for the first state whose action row of ``table``, one (S, A) policy
    table or R stacked ones, is not a distribution, naming the state."""
    _check_prob_rows(table, f"policy row {{{table.ndim - 2}}}")


class CdfTable(NamedTuple):
    """A sampler's cumulative table, searched by ``_inverse_cdf``.

    ``entries`` (R, stride) holds the first ``W - 1`` cumulative sums of each row
    of a ``(R, W)`` cumulative table, then ``+inf`` up to the stride, so no probe
    reads another row: a search of ``levels`` probes from index ``i`` reads up to
    ``i + 2**levels - 2``. ``guide`` is None, or (R, G + 2) with ``guide[r, j]``
    the count of those entries ``<= (j - 1) / G``, G a power of two.
    """

    entries: np.ndarray
    guide: np.ndarray | None
    levels: int


def _cdf_table(probs: np.ndarray) -> CdfTable:
    """The search table of the row-wise ``cumsum`` of ``probs`` along its last axis.

    Each row's entries from its last positive-probability index onward are set
    to exactly 1.0: a row may sum to less than 1 within ``PROB_TOL``, and no
    draw ``u < 1`` may then land past that index on a zero-probability entry.
    """
    rows = probs.reshape(-1, probs.shape[-1])
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)

    def cumulative(first: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        cum = np.cumsum(rows[first:stop], axis=1, out=out)
        cum[np.arange(rows.shape[1]) >= last[first:stop, None]] = 1.0
        return cum

    return _search_table(rows.shape, cumulative)


def _search_table(shape: tuple, cumulative) -> CdfTable:
    """The ``CdfTable`` of an (R, W) table of non-decreasing rows of entries >= 0,
    whose rows ``first:stop`` ``cumulative(first, stop, out=None)`` returns, written
    into ``out`` if given.

    The guide reads the rows a block at a time, and the rows are then written
    into the entries, so no full-size copy of the table is made besides them.
    A plain search takes ``(W - 1).bit_length()`` levels from each row's start;
    a table wide enough for a guide to save ``GUIDE_COST_LEVELS`` of them keeps
    the one ``_guide`` builds.
    """
    num_rows, width = shape
    guide, levels = None, (width - 1).bit_length()
    if levels > GUIDE_COST_LEVELS:
        guide, levels = _guide(shape, cumulative, levels)
    entries = np.empty((num_rows, (1 << levels) + (0 if guide is None else width - 1)))
    cumulative(0, num_rows, out=entries[:, :width])  # the stride is at least W
    entries[:, width - 1:] = np.inf
    return CdfTable(entries, guide, levels)


def _guide(shape: tuple, cumulative, levels: int) -> tuple:
    """The guide of ``_search_table``'s rows and its search levels, or
    ``(None, levels)`` if it would not save ``GUIDE_COST_LEVELS`` of the plain
    search's ``levels``.

    The bucket ``j = ceil(u * G)``, clipped to [0, G + 1], holds every ``u`` with
    ``(j - 1) / G < u <= j / G`` (the last bucket ``u > 1``, the first ``u <= 0``),
    so its answer is at least ``guide[r, j]`` and exceeds it by at most the
    entries strictly inside the bucket, its window. An entry on an edge
    ``j / G``, such as a run of 0s or of the 1.0s that end a row, widens no
    window. A guided search takes the levels of the widest window. The rows are
    taken ``GUIDE_BLOCK`` entries at a time, so no temporary outgrows that.
    """
    num_rows, width = shape
    buckets = 1 << (width - 2).bit_length()  # G, the smallest power of two >= W - 1
    span = buckets + 3
    guide = np.empty((num_rows, buckets + 2), dtype=np.min_scalar_type(width - 1))
    guided = 0
    block = max(1, GUIDE_BLOCK // width)
    for first in range(0, num_rows, block):
        # Exact, as G is a power of two; entries above 1 fall inside bucket G + 1.
        scaled = cumulative(first, first + block)[:, :-1] * buckets
        np.minimum(scaled, buckets + 0.5, out=scaled)
        keys = np.ceil(scaled)
        edge = keys == scaled
        # Row r's entry x takes slot r * (G + 3) + ceil(x * G) + 1, so the cumsum
        # of the row's slot counts is its guide, with one slot to spare.
        keys += np.arange(1, len(keys) * span, span, dtype=float)[:, None]
        slots = keys.astype(np.intp)
        # The rows are sorted, so a window of m entries is a key that repeats at
        # a distance of m - 1; an edge entry's key is NaN and equals none. While
        # the guide is worth keeping, m <= (W - 1) / 2, less than one row.
        np.copyto(keys, np.nan, where=edge)
        flat = keys.ravel()
        while (guided + GUIDE_COST_LEVELS <= levels
               and np.any(flat[(1 << guided) - 1:] == flat[:flat.size + 1 - (1 << guided)])):
            guided += 1
        if guided + GUIDE_COST_LEVELS > levels:
            return None, levels
        counts = np.bincount(slots.ravel(), minlength=len(keys) * span).reshape(-1, span)
        np.cumsum(counts[:, :-1], axis=1, out=guide[first:first + block])
    return guide, guided


@dataclass(frozen=True, eq=False)
class Policy:
    """State-indexed action distribution table, shape (num_states, num_actions)."""

    table: np.ndarray

    def __post_init__(self):
        table = as_real(self.table, "policy table entries must be real numbers")
        object.__setattr__(self, "table", np.asarray(table, dtype=float))
        if self.table.ndim != 2 or self.table.shape[1] < 1:
            raise ValidationError("policy table must be 2-d with at least one action")
        if self.table.shape[0] < 1:
            raise ValidationError("policy table must hold at least one state")
        check_policy_rows(self.table)

    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_actions(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """Finite state/action MDP with finite-support rewards and a fixed horizon.

    ``horizon`` is the last step index; trajectories have ``horizon + 1`` steps.
    ``discount`` has no default: it must be chosen explicitly. The reward of
    ``(s, a)`` is ``reward_support[s, a, i]`` with probability
    ``reward_probs[s, a, i]``; a cell with fewer than ``W`` outcomes is padded
    with outcome 0.0 at probability 0.
    """

    num_states: int
    num_actions: int
    horizon: int
    discount: float
    initial_dist: np.ndarray
    transitions: np.ndarray  # (S, A, S)
    reward_support: np.ndarray  # (S, A, W)
    reward_probs: np.ndarray  # (S, A, W)

    def __post_init__(self):
        for field in ("num_states", "num_actions", "horizon"):
            check_integer(getattr(self, field), field)
        if self.num_states < 1 or self.num_actions < 1:
            raise ValidationError("num_states and num_actions must be positive")
        for field in ("reward_support", "reward_probs"):
            object.__setattr__(self, field,
                               np.ascontiguousarray(getattr(self, field), dtype=float))
        support, probs = self.reward_support, self.reward_probs
        if (support.ndim != 3 or support.shape[:2] != (self.num_states, self.num_actions)
                or probs.shape != support.shape):
            raise ValidationError(
                f"reward_support {support.shape} and reward_probs {probs.shape} must share "
                f"one (S, A, W) shape with (S, A) = ({self.num_states}, {self.num_actions})")
        finite = np.isfinite(support).all(axis=2)
        if not finite.all():
            s, a = np.argwhere(~finite)[0]
            raise ValidationError(f"rewards[{s}][{a}]: reward support must be finite")
        _check_prob_rows(probs, "rewards[{}][{}]: reward probs")
        check_at_least(self.horizon, 0, "horizon")
        check_unit_interval(self.discount, "discount")
        object.__setattr__(self, "initial_dist", np.asarray(self.initial_dist, dtype=float))
        object.__setattr__(self, "transitions", np.asarray(self.transitions, dtype=float))
        if self.initial_dist.shape != (self.num_states,):
            raise ValidationError("initial_dist has wrong shape")
        _check_prob_rows(self.initial_dist, "initial_dist")
        if self.transitions.shape != (self.num_states, self.num_actions, self.num_states):
            raise ValidationError("transitions has wrong shape")
        _check_prob_rows(self.transitions, "transitions[{}][{}]")
        # CDF tables for sampling: the initial distribution's one row, then one
        # row per flat (s * A + a) index.
        object.__setattr__(self, "_initial_cdf", _cdf_table(self.initial_dist))
        object.__setattr__(self, "_transition_cdf", _cdf_table(self.transitions))
        object.__setattr__(self, "_reward_cdf", _cdf_table(probs))

    def check_policy(self, policy: Policy, name: str = "policy") -> None:
        if policy.table.shape != (self.num_states, self.num_actions):
            raise ValidationError(
                f"{name} shape {policy.table.shape} does not match MDP "
                f"({self.num_states}, {self.num_actions})"
            )


@dataclass(frozen=True, eq=False)
class LoggedDataset:
    """A batch of trajectories with a uniform horizon, stored as (N, T+1) arrays."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    propensities: np.ndarray | None = None

    def __post_init__(self):
        for field in ("states", "actions"):
            # Sampling and ingest pass int64, kept without a copy.
            given = ids = as_real(getattr(self, field), f"dataset {field} must be integer ids")
            kind = given.dtype.kind
            if kind == "u":
                ids = given.astype(np.int64)
                whole = ids >= 0  # an id past int64's range wraps to a negative one
            elif kind != "i":  # a float must be a whole int64
                ids = given.astype(float)
                whole = (np.floor(ids) == ids) & (ids >= -2.0**63)
                whole &= ids < 2.0**63
            if kind != "i" and not whole.all():
                raise ValidationError(f"dataset {field} must be integer ids, "
                                      f"got {given[~whole][0]}")
            object.__setattr__(self, field, np.asarray(ids, dtype=np.int64))
        for field in ("rewards", "propensities"):
            if getattr(self, field) is not None:
                given = as_real(getattr(self, field), f"dataset {field} must be real numbers")
                object.__setattr__(self, field, np.asarray(given, dtype=float))
        if self.states.ndim != 2:
            raise ValidationError(f"dataset states must be a 2-d (N, T+1) array, "
                                  f"got shape {self.states.shape}")
        if self.states.shape[0] < 1:
            raise ValidationError("dataset must be nonempty")
        if self.states.shape[1] < 1:
            raise ValidationError("dataset states must hold at least one step per row")
        if self.actions.shape != self.states.shape or self.rewards.shape != self.states.shape:
            raise ValidationError("dataset arrays must share one (N, T+1) shape")
        if not np.isfinite(self.rewards).all():
            raise ValidationError(f"dataset rewards must be finite, "
                                  f"got {self.rewards[~np.isfinite(self.rewards)][0]}")
        if self.propensities is not None:
            p = self.propensities
            if p.shape != self.states.shape:
                raise ValidationError("propensities shape mismatch")
            if not np.all((p > 0) & (p <= 1)):
                raise ValidationError("propensities must lie in (0, 1]")

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    def check_ids(self, policy: Policy, which: str) -> None:
        """Raise unless every state and action id lies inside ``policy``'s ``(S, A)``
        table: a negative id would read from its end, and an action id >= A from the
        next state."""
        for field, ids, size, what in (("s", self.states, policy.num_states, "states"),
                                       ("a", self.actions, policy.num_actions, "actions")):
            low, high = ids.min(), ids.max()
            if low < 0 or high >= size:
                raise ValidationError(
                    f"'{field}' id {low if low < 0 else high} is outside the {which} policy "
                    f"table of {size} {what}"
                )

    def cells(self, policy: Policy, which: str) -> np.ndarray:
        """The flat cell index ``states * A + actions`` of every step into ``policy``'s
        ``(S, A)`` table, shape (N, T+1), after ``check_ids``."""
        self.check_ids(policy, which)
        return self.states * policy.num_actions + self.actions


def _cell_dot(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``values[s, a] @ probs[s, a]`` for every cell, as one stacked matmul: it sums
    in the order of a per-cell dot, which ``(values * probs).sum(-1)`` does not."""
    return (values[..., None, :] @ probs[..., None])[..., 0, 0]


def mean_reward_table(mdp: TabularMdp) -> np.ndarray:
    """Exact mean reward per (state, action)."""
    return _cell_dot(mdp.reward_support, mdp.reward_probs)


def reward_variance_table(mdp: TabularMdp) -> np.ndarray:
    """Exact reward variance per (state, action)."""
    deviation = mdp.reward_support - mean_reward_table(mdp)[..., None]
    return _cell_dot(deviation**2, mdp.reward_probs)


def _inverse_cdf(table: CdfTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each ``k``, the first ``i`` with ``cum[rows[k], i] >= u[k]``, clamped to ``W - 1``,
    where ``cum`` (R, W) is the cumulative table that ``table`` was built from.

    A branchless search runs over all ``k`` at once on the first ``W - 1``
    entries of each row, which is the clamp to ``W - 1``. It counts the entries
    below ``u`` from a start, in ``table.levels`` probes of 2**(levels-1), ..., 1
    entries: from the row's start, or from ``guide[r, j]``, the count of entries
    ``<= (j - 1) / G < u`` for ``j = ceil(u * G)`` clipped to [0, G + 1], which
    is exact because G is a power of two. The rows are non-decreasing, so the
    result equals ``min((u[:, None] > cum[rows]).sum(1), W - 1)`` without the
    ``(n, W)`` gather.
    """
    entries, guide, levels = table
    start = rows * entries.shape[1]
    if guide is None:
        pos = start.copy()
    else:
        span = guide.shape[1]
        with np.errstate(over="ignore"):  # u * G = inf lands in the last bucket
            j = u * (span - 2)
        np.ceil(j, out=j)
        np.fmax(j, 0.0, out=j)  # fmax, not clip: a NaN u goes to bucket 0
        np.fmin(j, span - 1, out=j)
        key = rows * span
        np.add(key, j, out=key, casting="unsafe")  # j is integral
        del j  # neither array stays alive through the search
        pos = start + guide.ravel()[key]
        del key
    flat = entries.ravel()
    for level in range(levels - 1, 0, -1):
        step = 1 << level
        np.add(pos, step, out=pos, where=flat[step - 1:][pos] < u)
    if levels:
        pos += flat[pos] < u
    return pos - start


def sample_dataset(
    mdp: TabularMdp, policy: Policy, n: int, rng: np.random.Generator
) -> LoggedDataset:
    """Sample ``n`` i.i.d. trajectories under ``policy`` (vectorized across episodes).

    Every state, action and reward index is one inverse-CDF draw from
    ``rng.random(n)``, in that order at each step.
    """
    states, actions, rewards, props = (x[0] for x in _sample(mdp, policy, n, [rng]))
    return LoggedDataset(states=states, actions=actions, rewards=rewards, propensities=props)


def _sample(mdp: TabularMdp, policy: Policy, n: int, rngs: list) -> tuple:
    """``sample_dataset`` for each generator of ``rngs``, stacked: the states,
    actions, rewards and propensities of ``n`` trajectories per generator, as
    (R, n, T+1) arrays. Each generator fills its own ``random(n)`` for the state,
    action and reward draws of a step, so a replication's draws do not depend on
    the others; the inverse-CDF searches run once over all R*n rows."""
    mdp.check_policy(policy)
    check_integer(n, "n", 1)
    shape = (len(rngs), n, mdp.horizon + 1)
    states = np.empty(shape, dtype=np.int64)
    actions = np.empty(shape, dtype=np.int64)
    rewards = np.empty(shape)
    props = np.empty(shape)
    policy_cdf = _cdf_table(policy.table)
    support = mdp.reward_support.reshape(-1, mdp.reward_support.shape[2])

    def draws() -> np.ndarray:
        return np.concatenate([rng.random(n) for rng in rngs])

    sa = np.zeros(len(rngs) * n, dtype=np.int64)  # at t = 0, row 0 of the one-row initial table
    for t in range(shape[2]):
        cdf = mdp._initial_cdf if t == 0 else mdp._transition_cdf
        s = _inverse_cdf(cdf, sa, draws())
        a = _inverse_cdf(policy_cdf, s, draws())
        sa = s * mdp.num_actions + a
        r_idx = _inverse_cdf(mdp._reward_cdf, sa, draws())
        states[..., t] = s.reshape(shape[:2])
        actions[..., t] = a.reshape(shape[:2])
        rewards[..., t] = support[sa, r_idx].reshape(shape[:2])
        props[..., t] = policy.table.take(sa).reshape(shape[:2])
    return states, actions, rewards, props


def enumerate_dataset(
    mdp: TabularMdp,
    policy: Policy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[LoggedDataset, np.ndarray]:
    """Enumerate every positive-probability trajectory under (mdp, policy).

    Returns the outcomes stacked as a LoggedDataset plus the exact probability
    of each row. Raises EnumerationCapError if the outcome count exceeds ``cap``.
    """
    mdp.check_policy(policy)
    steps = mdp.horizon + 1
    states = np.empty((1, 0), dtype=np.int64)
    actions = np.empty((1, 0), dtype=np.int64)
    rewards = np.empty((1, 0))
    probs = np.ones(1)

    def expand(prob_rows: np.ndarray):
        # Branch every partial trajectory over the categorical rows, dropping
        # zero-probability branches. Returns (kept parent index, branch value, prob).
        nonlocal states, actions, rewards, probs
        width = prob_rows.shape[1]
        parent = np.repeat(np.arange(prob_rows.shape[0]), width)
        branch = np.tile(np.arange(width), prob_rows.shape[0])
        p = probs[parent] * prob_rows[parent, branch]
        keep = prob_rows[parent, branch] > 0
        parent, branch, p = parent[keep], branch[keep], p[keep]
        if parent.size > cap:
            raise EnumerationCapError(f"enumeration exceeds cap of {cap} outcomes")
        states = states[parent]
        actions = actions[parent]
        rewards = rewards[parent]
        probs = p
        return parent, branch

    for t in range(steps):
        if t == 0:
            _, s = expand(mdp.initial_dist[None, :])
        else:
            _, s = expand(mdp.transitions[states[:, -1], actions[:, -1]])
        states = np.column_stack([states, s])
        _, a = expand(policy.table[states[:, -1]])
        actions = np.column_stack([actions, a])
        parent, r_idx = expand(mdp.reward_probs[states[:, -1], actions[:, -1]])
        rewards = np.column_stack(
            [rewards, mdp.reward_support[states[:, -1], actions[:, -1], r_idx]])

    props = policy.table[states, actions]
    data = LoggedDataset(states=states, actions=actions, rewards=rewards, propensities=props)
    return data, probs


def exact_policy_value(mdp: TabularMdp, policy: Policy) -> float:
    """Exact discounted value of ``policy`` via backward dynamic programming."""
    mdp.check_policy(policy)
    return _policy_value(mdp, policy, mdp.discount)


def _policy_value(mdp: TabularMdp, policy: Policy, discount: float) -> float:
    """``exact_policy_value`` at ``discount`` in place of the MDP's, unchecked."""
    mu = mean_reward_table(mdp)
    v_next = np.zeros(mdp.num_states)
    for t in range(mdp.horizon, -1, -1):
        q = mu.copy()
        if t < mdp.horizon:
            q += discount * (mdp.transitions @ v_next)
        v_next = (policy.table * q).sum(axis=1)
    return float(mdp.initial_dist @ v_next)


def mdp_to_dict(mdp: TabularMdp) -> dict:
    return {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "horizon": mdp.horizon,
        "discount": mdp.discount,
        "initial_dist": mdp.initial_dist.tolist(),
        "transitions": mdp.transitions.tolist(),
        "rewards": [
            [{"support": support, "probs": probs} for support, probs in zip(*row)]
            for row in zip(mdp.reward_support.tolist(), mdp.reward_probs.tolist())
        ],
    }


def check_keys(obj: dict, allowed: set, where: str) -> None:
    """Raise unless ``obj`` is a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def json_field(obj: dict, key: str, where: str, kind=float, default=...):
    """``obj[key]`` as ``kind`` (float, int, str or np.ndarray), or ``default``
    if absent or null (required if ``default`` is ``...``). A float must be a
    finite JSON number and an int an integral one, never a boolean or a string:
    50.7 or true is an error, not 50 or 1. A str must be a JSON string. Errors
    name the key."""
    value = obj.get(key)
    if value is None:
        if default is ...:
            raise ValidationError(f"{where}: missing field '{key}'")
        return default
    if kind is np.ndarray:
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{where}: '{key}' must be an array of numbers") from None
    got = json.dumps(value, default=str)
    if kind is str:
        if not isinstance(value, str):
            raise ValidationError(f"{where}: '{key}' must be a string, got {got}")
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind is int and not (number and value % 1 == 0):
        raise ValidationError(f"{where}: '{key}' must be an integer, got {got}")
    if not number:
        raise ValidationError(f"{where}: '{key}' must be a number, got {got}")
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{where}: '{key}' must be finite, got {got}")
    return kind(value)


def mdp_from_dict(obj: dict) -> TabularMdp:
    """Build a TabularMdp from the JSON spec format; errors name the offending path."""
    where = "MDP spec"
    check_keys(obj, {"num_states", "num_actions", "horizon", "discount",
                     "initial_dist", "transitions", "rewards"}, where)
    num_states = json_field(obj, "num_states", where, int)
    num_actions = json_field(obj, "num_actions", where, int)
    raw_rewards = obj.get("rewards")
    if not isinstance(raw_rewards, list) or len(raw_rewards) != num_states:
        raise ValidationError(f"{where}: 'rewards' must be an array with one row per state")
    cells = {}  # (s, a) -> (support, probs), 1-d and of equal length
    for s, row in enumerate(raw_rewards):
        if not isinstance(row, list) or len(row) != num_actions:
            raise ValidationError(f"rewards[{s}]: expected one entry per action")
        for a, cell in enumerate(row):
            try:
                support, probs = (np.asarray(cell[k], dtype=float) for k in ("support", "probs"))
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ValidationError(f"rewards[{s}][{a}] needs numeric 'support' and 'probs'")
            if support.ndim != 1 or support.shape != probs.shape:
                raise ValidationError(
                    f"rewards[{s}][{a}]: reward support and probs must be 1-d and equal length")
            cells[s, a] = support, probs
    width = max((support.size for support, _ in cells.values()), default=0)
    # num_actions < 0 only comes with no rows, and TabularMdp rejects it.
    shape = (num_states, max(num_actions, 0), width)
    reward_support, reward_probs = np.zeros(shape), np.zeros(shape)
    for (s, a), (support, probs) in cells.items():
        reward_support[s, a, :support.size] = support
        reward_probs[s, a, :probs.size] = probs
    return TabularMdp(
        num_states=num_states,
        num_actions=num_actions,
        horizon=json_field(obj, "horizon", where, int),
        discount=json_field(obj, "discount", where),
        initial_dist=json_field(obj, "initial_dist", where, np.ndarray),
        transitions=json_field(obj, "transitions", where, np.ndarray),
        reward_support=reward_support,
        reward_probs=reward_probs,
    )


def read_json(path: str | Path, parse):
    """``parse`` of the JSON in the UTF-8 file at ``path``; a directory, text that is
    not UTF-8 JSON and a ValidationError of ``parse`` raise one that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (IsADirectoryError, UnicodeDecodeError, json.JSONDecodeError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_mdp(path: str | Path) -> TabularMdp:
    return read_json(path, mdp_from_dict)
