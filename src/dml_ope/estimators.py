"""Per-trajectory scores, the five value estimators, variance/CI construction,
the contextual-bandit efficiency bound, and the numerical orthogonality check.

The doubly robust score combines cumulative importance weights with a
Q-function control variate; the DML estimator cross-fits its nuisances and
reports a normal-approximation confidence interval from the pooled score
variance.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .mdp import (
    Policy,
    TabularMdp,
    ValidationError,
    check_level,
    enumerate_dataset,
    exact_policy_value,
    mean_reward_table,
    reward_variance_table,
)
from .nuisance import (
    NuisanceConfig,
    NuisanceEstimate,
    SupportViolationError,
    _count,
    _fit,
    check_support,
    check_table_shape,
    fit_nuisances,
    make_folds,
)


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


def _finalize(scores: np.ndarray, estimator: Estimator, level: float) -> ValueEstimate:
    check_level(level, "level")
    value = float(scores.mean())
    if not np.isfinite(value):
        raise ValidationError(f"{estimator.value} scores are not finite: their mean is {value}")
    with np.errstate(over="ignore"):
        variance = float(np.mean((scores - value) ** 2))
    if not np.isfinite(variance):
        raise ValidationError(f"{estimator.value} scores are not finite: their variance is "
                              f"{variance}")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = z * np.sqrt(variance / scores.size)
    return ValueEstimate(
        value=value,
        variance=variance,
        n=scores.size,
        ci_low=value - half,
        ci_high=value + half,
        estimator=estimator,
        level=level,
    )


def _check_q(q: np.ndarray, steps: int, eval_policy: Policy) -> None:
    """Raise unless ``q`` holds one (S, A) table of ``eval_policy``'s shape per step."""
    if q.shape[0] != steps:
        raise ValidationError("q table does not span the dataset horizon")
    check_table_shape(q.shape[1:], eval_policy, "per-step q")


def _psi_scores(sa: np.ndarray, states: np.ndarray, rewards: np.ndarray, behavior: Policy,
                q: np.ndarray | None, eval_policy: Policy, discount: float) -> np.ndarray:
    """Vectorized doubly robust score per trajectory of the row set ``(sa, states,
    rewards)`` with the (T+1, S, A) Q array ``q`` as control variate; ``q=None`` is the
    IPW score, Q = 0. It walks the steps on columns of the cell index ``sa``, left
    unchanged: rho_t = rho_{t-1} * pe/pb, and step t adds
    disc_t * (rho_t * (r_t - q_t(s_t, a_t)) + rho_{t-1} * v_t(s_t))."""
    check_table_shape(behavior.table.shape, eval_policy, "behavior policy")
    zero = behavior.table <= 0
    if zero.any() and zero.take(sa).any():
        raise SupportViolationError("zero behavior propensity on a realized action")
    ratio = np.divide(eval_policy.table, behavior.table, out=np.zeros(zero.shape), where=~zero)
    steps = sa.shape[1]
    if q is not None:
        _check_q(q, steps, eval_policy)
        v = np.einsum("tsa,sa->ts", q, eval_policy.table)
    disc = discount ** np.arange(steps)
    # The bytes of numpy's row sum: it adds fewer than 8 steps in order from 0.0, so
    # one column collects them; from 8 it adds in pairwise lanes, so each step is kept.
    psi = np.zeros((sa.shape[0], 1 if steps < 8 else steps))
    rho_prev = 1.0
    for t in range(steps):
        rho = ratio.take(sa[:, t]) * rho_prev
        term = rho * rewards[:, t] if q is None else (
            (rewards[:, t] - q[t].take(sa[:, t])) * rho + v[t].take(states[:, t]) * rho_prev)
        term *= disc[t]
        psi[:, t % psi.shape[1]] += term
        rho_prev = rho
    return psi.sum(axis=1)


def _fold_rows(rows: tuple, folds: tuple) -> list:
    """Each fold's row set ``(sa, states, rewards)`` of ``rows``; take beats indexing."""
    return [tuple(x.take(fold, axis=0) for x in rows) for fold in folds]


def dm_estimate(
    rows: tuple,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    level: float = 0.95,
) -> ValueEstimate:
    """Direct method: average the fitted initial-state value over the row set."""
    _check_q(eta.q, rows[0].shape[1], eval_policy)
    v0 = (eval_policy.table * eta.q[0]).sum(axis=1)
    return _finalize(v0.take(rows[1][:, 0]), Estimator.DM, level)


def ipw_estimate(
    rows: tuple,
    behavior: Policy,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    scores = _psi_scores(*rows, behavior, None, eval_policy, discount)
    return _finalize(scores, Estimator.IPW, level)


def dr_full_estimate(
    rows: tuple,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    """Doubly robust score averaged over the same rows ``eta`` was fit on."""
    scores = _psi_scores(*rows, eta.behavior, eta.q, eval_policy, discount)
    return _finalize(scores, Estimator.DR_FULL, level)


def dr_half_estimate(
    rows: tuple,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
    level: float = 0.95,
) -> ValueEstimate:
    """Score fold 0 of a 2-fold split, its first (n+1)//2 rows, with nuisances
    fitted on fold 1: DML's fold-0 fit at k_folds=2."""
    n, steps = rows[0].shape
    scored, fitted = _fold_rows(rows, make_folds(n, 2, rng))
    eta = _fit(*_count(*fitted, eval_policy), steps - 1, eval_policy, discount,
               known_behavior, config)
    scores = _psi_scores(*scored, eta.behavior, eta.q, eval_policy, discount)
    return _finalize(scores, Estimator.DR_HALF, level)


def dml_estimate(
    rows: tuple,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    k_folds: int = 2,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
    level: float = 0.95,
) -> ValueEstimate:
    """Cross-fitted doubly robust estimator with the pooled variance estimator.

    Each fold's rows are cut once and scored with nuisances fitted on the other
    folds (``fit_nuisances``); the value is the pooled mean of all N scores,
    which matches the per-fold double average whenever the folds are equal-sized.
    """
    n = rows[0].shape[0]
    folds = make_folds(n, k_folds, rng)
    parts = _fold_rows(rows, folds)
    etas = fit_nuisances(parts, eval_policy, discount, known_behavior=known_behavior,
                         config=config)
    scores = np.empty(n)
    for fold, part, eta in zip(folds, parts, etas):
        scores[fold] = _psi_scores(*part, eta.behavior, eta.q, eval_policy, discount)
    return _finalize(scores, Estimator.DML, level)


def cb_efficiency_bound(mdp: TabularMdp, behavior: Policy, eval_policy: Policy) -> float:
    """Exact semiparametric efficiency bound for the horizon-0 (bandit) case."""
    if mdp.horizon != 0:
        raise ValidationError("efficiency bound requires horizon 0")
    mdp.check_policy(behavior)
    mdp.check_policy(eval_policy)
    check_support(behavior, eval_policy)
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
    data, probs = enumerate_dataset(mdp, logging_policy)
    rows = data.cells(eval_policy, "evaluation"), data.states, data.rewards
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
    if np.shape(alt_q) != np.shape(q) or alt_behavior.table.shape != behavior.table.shape:
        raise ValidationError(f"q and alt_q must both be arrays or both be None (IPW), each alt "
                              f"shaped as its base: got q {np.shape(q)}, alt_q {np.shape(alt_q)}, "
                              f"behavior {behavior.table.shape}, alt {alt_behavior.table.shape}")
    data, probs = enumerate_dataset(mdp, behavior)
    rows = data.cells(eval_policy, "evaluation"), data.states, data.rewards

    def g(r: float) -> float:
        mixed = Policy(table=(1 - r) * behavior.table + r * alt_behavior.table)
        mixed_q = None if q is None else (1 - r) * q + r * alt_q
        return float(_psi_scores(*rows, mixed, mixed_q, eval_policy, mdp.discount) @ probs)

    return (g(step) - g(-step)) / (2.0 * step)
