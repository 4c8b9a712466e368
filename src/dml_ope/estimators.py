"""Per-trajectory scores, the five value estimators, variance/CI construction,
the contextual-bandit efficiency bound, and the numerical orthogonality check.

The doubly robust score combines cumulative importance weights with a
Q-function control variate; the DML estimator cross-fits its nuisances through
``nuisance._cross_fits`` and reports a normal-approximation confidence interval
from the pooled score variance. Every public estimator takes a ``LoggedDataset``
and builds its row set ``(sa, rewards)``, the cell index and rewards, once; the
private kernels take the row set, and DR-half and DML gather a fold's once.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .mdp import (
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    check_dataset,
    check_finite_nonnegative,
    check_folds,
    check_level,
    check_unit_interval,
    enumerate_dataset,
    exact_policy_value,
    mean_reward_table,
    reward_variance_table,
)
from .nuisance import (
    NuisanceEstimate,
    SupportViolationError,
    _count,
    _cross_fits,
    _fit,
    _folds,
    _index_dtype,
    check_support,
    check_table_shape,
    read_q,
)


# Rows, or table cells, per step of a chunk of the MSE study's stacked replications,
# and rows per block of the step walk. A larger chunk spreads each numpy call's fixed
# cost over more replications; at 8,192 its arrays stay a few MiB
# (BENCH_stacked_replications.json probes 2^12 to 2^15), and a block's step columns,
# 64 KiB each, stay in a core's L2 cache (BENCH_blocked_walk.json sweeps 2^10 to 2^15).
ROW_BUDGET = 8192


class Estimator(str, Enum):
    DM = "dm"
    IPW = "ipw"
    DR_FULL = "dr_full"
    DR_HALF = "dr_half"
    DML = "dml"


@dataclass(frozen=True)
class ValueEstimate:
    """Point estimate with its variance and normal-approximation CI."""

    value: float
    variance: float
    n: int
    ci_low: float
    ci_high: float
    estimator: Estimator
    level: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValidationError("variance must be nonnegative")
        if not self.ci_low <= self.value <= self.ci_high:
            raise ValidationError("confidence interval must contain the point estimate")

    @property
    def std_error(self) -> float:
        return float(np.sqrt(self.variance / self.n))

    def covers(self, truth: float) -> bool:
        return self.ci_low <= truth <= self.ci_high

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator.value,
            "value": self.value,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci": [self.ci_low, self.ci_high],
            "level": self.level,
            "n": self.n,
        }


def _finalize(scores: np.ndarray, estimator: Estimator, level: float) -> list[ValueEstimate]:
    """The estimate of each of R stacked score rows (R, n): the mean, the plug-in
    variance and the normal-approximation CI at ``level``. Each row's mean and
    variance must be finite; the first that is not is named."""
    check_level(level, "level")
    with np.errstate(over="ignore", invalid="ignore"):
        values = scores.mean(axis=-1)
        variances = np.mean((scores - values[:, None]) ** 2, axis=-1)
    for name, stats in (("mean", values), ("variance", variances)):
        bad = np.flatnonzero(~np.isfinite(stats))
        if bad.size:
            raise ValidationError(f"{estimator.value} scores are not finite: their {name} is "
                                  f"{float(stats[bad[0]])}")
    n = scores.shape[-1]
    halves = NormalDist().inv_cdf((1.0 + level) / 2.0) * np.sqrt(variances / n)
    return [ValueEstimate(value=float(value), variance=float(variance), n=n,
                          ci_low=float(value - half), ci_high=float(value + half),
                          estimator=estimator, level=level)
            for value, variance, half in zip(values, variances, halves)]


def _check_q(q: np.ndarray, steps: int, eval_policy: Policy) -> None:
    """Raise unless ``q`` holds one (S, A) table of ``eval_policy``'s shape per step."""
    if q.shape[0] != steps:
        raise ValidationError("q table does not span the dataset horizon")
    check_table_shape(q.shape[1:], eval_policy, "per-step q")


def _ratios(behavior: np.ndarray, eval_policy: Policy, sa: np.ndarray) -> np.ndarray:
    """The flat table of pe/pb for R stacked row sets, to read with their cell
    index ``sa`` (R, n, T+1), offset by r*S*A; ``behavior`` is one (S, A) table or
    R stacked ones. Raise if a row visits a cell of zero behavior propensity; a
    ratio that overflows is left infinite, for ``_finalize`` to name its scores."""
    pb = np.broadcast_to(behavior, sa.shape[:1] + eval_policy.table.shape)
    zero = pb <= 0
    if zero.any() and zero.ravel().take(sa).any():
        raise SupportViolationError("zero behavior propensity on a realized action")
    with np.errstate(over="ignore"):
        return np.divide(eval_policy.table, pb, out=np.zeros(zero.shape), where=~zero).ravel()


def _control(q: np.ndarray, eval_policy: Policy) -> tuple:
    """The Q control variate of R stacked (T+1, R, S, A) tables, as per-step flat
    tables read with the offset cell index: q_t, and v_t(s) = sum_a pe(a|s) q_t(s, a)
    repeated over the actions of s."""
    v = np.einsum("trsa,sa->trs", q, eval_policy.table)
    steps = q.shape[0]
    return (q.reshape(steps, -1),
            np.repeat(v, eval_policy.num_actions, axis=-1).reshape(steps, -1))


def _walk(sa: np.ndarray, rewards: np.ndarray, ratio: np.ndarray, controls: list,
          discount: float) -> list:
    """The doubly robust scores (R, n) of R stacked row sets for each of
    ``controls``: a ``_control`` pair, or None for the IPW score, Q = 0. One walk
    over the steps on columns of the offset cell index ``sa`` serves them all:
    rho_t = rho_{t-1} * pe/pb, and step t adds disc_t * (rho_t * (r_t - q_t(s_t, a_t))
    + rho_{t-1} * v_t(s_t)); step 0 skips its products by rho_{-1} = disc_0 = 1.0.

    Each row's cells carry their replication's offset, so the R row sets are
    walked as one (R*n, T+1) row set, ROW_BUDGET rows (views) at a time, and a
    block's columns stay in cache; a row's arithmetic does not depend on its block.
    A score that overflows is left infinite for ``_finalize`` to name."""
    steps = sa.shape[-1]
    disc = discount ** np.arange(steps)
    sa_rows, reward_rows = sa.reshape(-1, steps), rewards.reshape(-1, steps)
    scores = [np.zeros(len(sa_rows)) for _ in controls]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(sa_rows), ROW_BUDGET):
            block = slice(start, start + ROW_BUDGET)
            block_sa, block_rewards = sa_rows[block], reward_rows[block]
            # The bytes of numpy's row sum: it adds fewer than 8 steps in order from 0.0,
            # so the scores collect them in place; from 8 it adds in pairwise lanes, so
            # each step is kept and the block's rows are summed.
            psis = [score[block, None] if steps < 8 else np.zeros((len(block_sa), steps))
                    for score in scores]
            for t in range(steps):
                cell, reward = block_sa[:, t], block_rewards[:, t]
                rho = ratio.take(cell) * rho_prev if t else ratio.take(cell)
                for psi, control in zip(psis, controls):
                    if control is None:
                        term = rho * reward
                    else:
                        q, v = control
                        term = (reward - q[t].take(cell)) * rho
                        term += v[t].take(cell) * rho_prev if t else v[t].take(cell)
                    if t:
                        term *= disc[t]
                    psi[:, t % psi.shape[-1]] += term
                rho_prev = rho
            if steps >= 8:
                for score, psi in zip(scores, psis):
                    psi.sum(axis=-1, out=score[block])
    return [score.reshape(sa.shape[:-1]) for score in scores]


def _psi_scores(sa: np.ndarray, rewards: np.ndarray, behavior: Policy, q: np.ndarray | None,
                eval_policy: Policy, discount: float) -> np.ndarray:
    """Vectorized doubly robust score per trajectory of the row set ``(sa, rewards)``
    with the (T+1, S, A) Q array ``q`` as control variate; ``q=None`` is the IPW
    score, Q = 0. The walk reads v_t(s_t) by the cell index."""
    check_table_shape(behavior.table.shape, eval_policy, "behavior policy")
    ratio = _ratios(behavior.table, eval_policy, sa[None])
    if q is not None:
        _check_q(q, sa.shape[1], eval_policy)
        q = _control(q[:, None], eval_policy)
    return _walk(sa[None], rewards[None], ratio, [q], discount)[0][0]


def _fold_rows(rows: tuple, folds: list) -> list:
    """Each fold's rows of the R stacked arrays ``rows`` (R, n, T+1), by (R, n_k)
    folds, each row of which indexes its own replication's rows; take beats
    indexing."""
    n = rows[0].shape[-2]
    return [tuple(x.reshape(-1, x.shape[-1]).take(_offset(fold, n).ravel(), axis=0)
                  .reshape(fold.shape + x.shape[-1:]) for x in rows) for fold in folds]


def _offset(index: np.ndarray, step: int) -> np.ndarray:
    """``index`` (R, ...) plus r*step in row r, to read R stacked tables; one row as is."""
    if len(index) == 1:
        return index
    return index + (np.arange(len(index)) * step).reshape((-1,) + (1,) * (index.ndim - 1))


def _cells(states: np.ndarray, actions: np.ndarray, eval_policy: Policy) -> np.ndarray:
    """The cell index ``s*A + a`` of R stacked datasets (R, n, T+1), replication r's
    offset by r*S*A into the R stacked (S, A) tables.

    The index is int32 while R*S*A*(S+1) is below ``nuisance.INDEX_LIMIT``, else
    int64: ``_count``'s largest move intermediate, R*S*A*S + R*S - 1, then fits."""
    limit = len(states) * eval_policy.table.size * (eval_policy.num_states + 1)
    sa = np.multiply(states, eval_policy.num_actions, dtype=_index_dtype(limit))
    sa += actions
    if len(sa) > 1:
        sa += (np.arange(len(sa)) * eval_policy.table.size).reshape(-1, 1, 1)
    return sa


def _dm_scores(sa: np.ndarray, q: np.ndarray, eval_policy: Policy) -> np.ndarray:
    """The fitted initial-state value of each stacked row, v_0(s_0), read by its cell."""
    v0 = (eval_policy.table * q[0]).sum(axis=-1)
    return np.repeat(v0, eval_policy.num_actions, axis=-1).ravel().take(sa[..., 0])


def _full_data(rows: tuple, wanted: set, eval_policy: Policy, discount: float,
               known_behavior: Policy | None, alpha: float, level: float) -> dict:
    """DM, IPW and DR-full, those ``wanted``, of R stacked row sets. DM and DR-full
    score on the full-data fit; IPW reads the known behavior, else that fit's, the
    table DR-full reads, so the two share one walk."""
    sa, rewards = rows
    behavior = None if known_behavior is None else known_behavior.table
    if wanted & {Estimator.DM, Estimator.DR_FULL} or (behavior is None
                                                      and Estimator.IPW in wanted):
        behavior, q = _fit(*_count(sa, rewards, eval_policy), sa.shape[-1] - 1,
                           eval_policy, discount, known_behavior, alpha)
    done = {}
    if Estimator.DM in wanted:
        done[Estimator.DM] = _finalize(_dm_scores(sa, q, eval_policy), Estimator.DM, level)
    walked = [e for e in (Estimator.IPW, Estimator.DR_FULL) if e in wanted]
    if walked:
        controls = [None if e is Estimator.IPW else _control(q, eval_policy) for e in walked]
        ratio = _ratios(behavior, eval_policy, sa)
        for e, scores in zip(walked, _walk(sa, rewards, ratio, controls, discount)):
            done[e] = _finalize(scores, e, level)
    return done


def _dr_half(rows: tuple, rngs: list, eval_policy: Policy, discount: float,
             known_behavior: Policy | None, alpha: float, level: float) -> list:
    """``dr_half_estimate`` of R stacked row sets, replication r splitting with
    ``rngs[r]``. The fitted fold's rows are released before the scored fold's are
    gathered."""
    scored, fitted = _folds(rows[0].shape[1], 2, rngs)
    behavior, q = _fit(*_count(*_fold_rows(rows, [fitted])[0], eval_policy),
                       rows[0].shape[-1] - 1, eval_policy, discount, known_behavior, alpha)
    sa, rewards = _fold_rows(rows, [scored])[0]
    scores = _walk(sa, rewards, _ratios(behavior, eval_policy, sa), [_control(q, eval_policy)],
                   discount)[0]
    return _finalize(scores, Estimator.DR_HALF, level)


def _dml(cells: list, rewards: np.ndarray, folds: list, eval_policy: Policy, discount: float,
         known_behavior: Policy | None, alpha: float, level: float) -> list:
    """``dml_estimate`` of R stacked row sets, given as the cell index of each
    (R, n_k) fold in ``folds`` and the full rewards (R, n, T+1). Each fold's
    rewards are gathered once, for its count and its walk, and the fold is scored
    with ``_cross_fits``'s fit on the other folds."""
    parts = list(zip(cells, [part for part, in _fold_rows((rewards,), folds)]))
    scores = np.empty(rewards.shape[:2])
    fits = _cross_fits(parts, eval_policy, discount, known_behavior, alpha)
    for fold, (sa, fold_rewards), (behavior, q) in zip(folds, parts, fits):
        psi = _walk(sa, fold_rewards, _ratios(behavior, eval_policy, sa),
                    [_control(q, eval_policy)], discount)[0]
        scores.put(_offset(fold, scores.shape[1]), psi)
    return _finalize(scores, Estimator.DML, level)


def _estimate(columns: tuple, rngs: dict, names, eval_policy: Policy, discount: float,
              known_behavior: Policy | None, k_folds: int, alpha: float,
              level: float) -> dict:
    """The named estimates of R stacked datasets, their columns ``(states, actions,
    rewards)`` of shape (R, n, T+1), whose ids the caller has checked: for each
    name, in the order of ``names``, the list of R estimates.

    ``rngs`` maps DR-half and DML, those named, to one generator per replication,
    from which they split their folds; the other estimators draw nothing. The full
    cell index is built here once. DML runs last, and the full index is released
    once its folds' cell indices are gathered, before they are fitted.
    """
    wanted = {Estimator(name) for name in names}
    states, actions, rewards = columns
    sa = _cells(states, actions, eval_policy)
    rows = sa, rewards
    done = _full_data(rows, wanted, eval_policy, discount, known_behavior, alpha, level)
    if Estimator.DR_HALF in wanted:
        done[Estimator.DR_HALF] = _dr_half(rows, rngs[Estimator.DR_HALF], eval_policy,
                                           discount, known_behavior, alpha, level)
    if Estimator.DML in wanted:
        folds = _folds(states.shape[1], k_folds, rngs[Estimator.DML])
        cells = [part for part, in _fold_rows((sa,), folds)]
        del rows, sa
        done[Estimator.DML] = _dml(cells, rewards, folds, eval_policy, discount,
                                   known_behavior, alpha, level)
    return {name: done[Estimator(name)] for name in names}


def dm_estimate(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    level: float = 0.95,
) -> ValueEstimate:
    """Direct method: average the fitted initial-state value over the dataset."""
    check_dataset(data, "data")
    sa = data.cells(eval_policy, "evaluation")
    _check_q(eta.q, data.horizon + 1, eval_policy)
    return _finalize(_dm_scores(sa[None], eta.q[:, None], eval_policy), Estimator.DM,
                     level)[0]


def ipw_estimate(
    data: LoggedDataset,
    behavior: Policy,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    check_dataset(data, "data")
    check_unit_interval(discount, "discount")
    scores = _psi_scores(data.cells(eval_policy, "evaluation"), data.rewards, behavior, None,
                         eval_policy, discount)
    return _finalize(scores[None], Estimator.IPW, level)[0]


def dr_full_estimate(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    """Doubly robust score averaged over the same rows ``eta`` was fit on."""
    check_dataset(data, "data")
    check_unit_interval(discount, "discount")
    scores = _psi_scores(data.cells(eval_policy, "evaluation"), data.rewards, eta.behavior,
                         eta.q, eval_policy, discount)
    return _finalize(scores[None], Estimator.DR_FULL, level)[0]


def dr_half_estimate(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    known_behavior: Policy | None = None,
    smoothing_alpha: float = 0.5,
    level: float = 0.95,
) -> ValueEstimate:
    """Score fold 0 of a 2-fold split, its first (n+1)//2 rows, with nuisances
    fitted on fold 1: DML's fold-0 fit at k_folds=2."""
    check_dataset(data, "data")
    check_unit_interval(discount, "discount")
    check_finite_nonnegative(smoothing_alpha, "smoothing_alpha")
    if data.n < 2:
        raise ValidationError(f"dr_half_estimate needs 2 rows or more, got {data.n}")
    rows = data.cells(eval_policy, "evaluation")[None], data.rewards[None]
    return _dr_half(rows, [rng], eval_policy, discount, known_behavior, smoothing_alpha, level)[0]


def dml_estimate(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    k_folds: int = 2,
    known_behavior: Policy | None = None,
    smoothing_alpha: float = 0.5,
    level: float = 0.95,
) -> ValueEstimate:
    """Cross-fitted doubly robust estimator with the pooled variance estimator.

    ``_estimate``'s DML: each fold's rows are cut once and scored with nuisances
    fitted on the other folds; the value is the pooled mean of all N scores, which
    matches the per-fold double average whenever the folds are equal-sized.
    """
    check_dataset(data, "data")
    check_unit_interval(discount, "discount")
    check_finite_nonnegative(smoothing_alpha, "smoothing_alpha")
    check_folds(k_folds, data.n, "k_folds")
    data.check_ids(eval_policy, "evaluation")
    columns = data.states[None], data.actions[None], data.rewards[None]
    return _estimate(columns, {Estimator.DML: [rng]}, ("dml",), eval_policy, discount,
                     known_behavior, k_folds, smoothing_alpha, level)["dml"][0]


def cb_efficiency_bound(mdp: TabularMdp, behavior: Policy, eval_policy: Policy) -> float:
    """Exact semiparametric efficiency bound for the horizon-0 (bandit) case."""
    if mdp.horizon != 0:
        raise ValidationError("efficiency bound requires horizon 0")
    mdp.check_policy(behavior)
    mdp.check_policy(eval_policy)
    check_support(behavior.table, eval_policy)
    mu = mean_reward_table(mdp)
    var_r = reward_variance_table(mdp)
    value = exact_policy_value(mdp, eval_policy)
    pe, pb = eval_policy.table, behavior.table
    ratio = np.where(pe > 0, pe**2 / np.where(pb > 0, pb, 1.0), 0.0)
    per_state = (ratio * var_r).sum(axis=1) + ((pe * mu).sum(axis=1) - value) ** 2
    return float(mdp.initial_dist @ per_state)


def expected_psi(
    mdp: TabularMdp,
    logging_policy: Policy,
    behavior: Policy,
    q: np.ndarray | None,
    eval_policy: Policy,
) -> float:
    """Exact E_{H~logging_policy}[psi(H; behavior, q)] by trajectory enumeration;
    ``q=None`` is the IPW score."""
    q = None if q is None else read_q(q, "q")
    data, probs = enumerate_dataset(mdp, logging_policy)
    rows = data.cells(eval_policy, "evaluation"), data.rewards
    return float(_psi_scores(*rows, behavior, q, eval_policy, mdp.discount) @ probs)


def orthogonality_derivative(
    mdp: TabularMdp,
    eval_policy: Policy,
    behavior: Policy,
    q: np.ndarray | None,
    alt_behavior: Policy,
    alt_q: np.ndarray | None,
    step: float = 1e-4,
) -> float:
    """Central-difference derivative of the enumerated score expectation along
    the line from ``(behavior, q)`` to ``(alt_behavior, alt_q)``, at the first pair.
    ``q = alt_q = None`` differentiates the IPW score.

    ``behavior`` must be the true behavior policy: the expectation is taken under it.
    """
    q, alt_q = (None if x is None else read_q(x, name)
                for x, name in ((q, "q"), (alt_q, "alt_q")))
    if np.shape(alt_q) != np.shape(q) or alt_behavior.table.shape != behavior.table.shape:
        raise ValidationError(f"q and alt_q must both be arrays or both be None (IPW), each alt "
                              f"shaped as its base: got q {np.shape(q)}, alt_q {np.shape(alt_q)}, "
                              f"behavior {behavior.table.shape}, alt {alt_behavior.table.shape}")
    data, probs = enumerate_dataset(mdp, behavior)
    rows = data.cells(eval_policy, "evaluation"), data.rewards

    def g(r: float) -> float:
        mixed = Policy(table=(1 - r) * behavior.table + r * alt_behavior.table)
        mixed_q = None if q is None else (1 - r) * q + r * alt_q
        return float(_psi_scores(*rows, mixed, mixed_q, eval_policy, mdp.discount) @ probs)

    return (g(step) - g(-step)) / (2.0 * step)
