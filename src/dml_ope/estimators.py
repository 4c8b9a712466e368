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
    LoggedDataset,
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
    check_support,
    check_table_shape,
    fit_nuisance,
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
    variance = float(np.mean((scores - value) ** 2))
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


def _weight_matrix(pe: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Cumulative importance weights rho_t per trajectory, shape (N, T+1), from the
    evaluation and behavior propensities ``pe`` and ``pb`` of each logged step."""
    if np.any(pb <= 0):
        raise SupportViolationError("zero behavior propensity on a realized action")
    rho = pe / pb
    return np.cumprod(rho, axis=1, out=rho)


def _psi_scores(
    data: LoggedDataset,
    behavior: Policy,
    q: np.ndarray | None,
    eval_policy: Policy,
    discount: float,
) -> np.ndarray:
    """Vectorized doubly robust score per trajectory with the (T+1, S, A) Q array
    ``q`` as control variate; ``q=None`` is the control variate Q = 0, the IPW score.
    Every table is read through the dataset's flat cell index."""
    steps = data.horizon + 1
    sa = data.cells(eval_policy, "evaluation")
    check_table_shape(behavior.table.shape, eval_policy, "behavior policy")
    rho = _weight_matrix(eval_policy.table.take(sa), behavior.table.take(sa))
    disc = discount ** np.arange(steps)
    if q is None:
        return (rho * data.rewards * disc).sum(axis=1)
    if q.shape[0] != steps:
        raise ValidationError("q table does not span the dataset horizon")
    check_table_shape(q.shape[1:], eval_policy, "per-step q")
    num_states, num_actions = eval_policy.table.shape
    sa += np.arange(steps) * (num_states * num_actions)  # t*S*A + s*A + a, into q
    terms = rho * (data.rewards - q.take(sa))
    np.add(data.states, np.arange(steps) * num_states, out=sa)  # t*S + s, into v_t(s)
    rho[:, 1:] = rho[:, :-1]  # rho_{t-1}, with rho_{-1} = 1
    rho[:, 0] = 1.0
    terms += rho * np.einsum("tsa,sa->ts", q, eval_policy.table).take(sa)
    return (terms * disc).sum(axis=1)


def dm_estimate(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    level: float = 0.95,
) -> ValueEstimate:
    """Direct method: average the fitted initial-state value over the data."""
    data.cells(eval_policy, "evaluation")
    check_table_shape(eta.q.shape[1:], eval_policy, "per-step q")
    v0 = (eval_policy.table * eta.q[0]).sum(axis=1)
    return _finalize(v0.take(data.states[:, 0]), Estimator.DM, level)


def ipw_estimate(
    data: LoggedDataset,
    behavior: Policy,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    scores = _psi_scores(data, behavior, None, eval_policy, discount)
    return _finalize(scores, Estimator.IPW, level)


def dr_full_estimate(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    """Doubly robust score averaged over the same data ``eta`` was fit on."""
    scores = _psi_scores(data, eta.behavior, eta.q, eval_policy, discount)
    return _finalize(scores, Estimator.DR_FULL, level)


def dr_half_estimate(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
    level: float = 0.95,
) -> ValueEstimate:
    """Score fold 0 of a 2-fold split, its first (n+1)//2 rows, with nuisances
    fitted on fold 1: DML's fold-0 fit at k_folds=2."""
    scored, fitted = (data.subset(f) for f in make_folds(data.n, 2, rng))
    eta = fit_nuisance(fitted, eval_policy, discount, known_behavior=known_behavior,
                       config=config)
    scores = _psi_scores(scored, eta.behavior, eta.q, eval_policy, discount)
    return _finalize(scores, Estimator.DR_HALF, level)


def dml_estimate(
    data: LoggedDataset,
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
    folds = make_folds(data.n, k_folds, rng)
    parts = [data.subset(fold) for fold in folds]
    etas = fit_nuisances(parts, eval_policy, discount, known_behavior=known_behavior,
                         config=config)
    scores = np.empty(data.n)
    for fold, part, eta in zip(folds, parts, etas):
        scores[fold] = _psi_scores(part, eta.behavior, eta.q, eval_policy, discount)
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
    return float(_psi_scores(data, behavior, q, eval_policy, mdp.discount) @ probs)


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
    if (q is None) != (alt_q is None):
        raise ValidationError("q and alt_q must both be arrays or both be None (IPW)")
    data, probs = enumerate_dataset(mdp, behavior)

    def g(r: float) -> float:
        mixed = Policy(table=(1 - r) * behavior.table + r * alt_behavior.table)
        mixed_q = None if q is None else (1 - r) * q + r * alt_q
        return float(_psi_scores(data, mixed, mixed_q, eval_policy, mdp.discount) @ probs)

    return (g(step) - g(-step)) / (2.0 * step)
