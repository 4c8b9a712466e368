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
    DEFAULT_ENUMERATION_CAP,
    LoggedDataset,
    Policy,
    TabularMdp,
    ValidationError,
    enumerate_dataset,
    exact_policy_value,
    mean_reward_table,
    reward_variance_table,
)
from .nuisance import (
    NuisanceConfig,
    NuisanceEstimate,
    QTable,
    SupportViolationError,
    check_support,
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


class ScoreKind(str, Enum):
    """Which per-trajectory score the orthogonality check differentiates."""

    DML_PSI = "dml_psi"
    IPW_PSI = "ipw_psi"


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
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must lie in (0, 1)")
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


def _weight_matrix(data: LoggedDataset, eval_policy: Policy, behavior: Policy) -> np.ndarray:
    """Cumulative importance weights rho_t per trajectory, shape (N, T+1)."""
    pb = behavior.table[data.states, data.actions]
    if np.any(pb <= 0):
        raise SupportViolationError("zero behavior propensity on a realized action")
    pe = eval_policy.table[data.states, data.actions]
    return np.cumprod(pe / pb, axis=1)


def _psi_scores(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    discount: float,
) -> np.ndarray:
    """Vectorized doubly robust score per trajectory."""
    steps = data.horizon + 1
    rho = _weight_matrix(data, eval_policy, eta.behavior)
    rho_prev = np.concatenate([np.ones((data.n, 1)), rho[:, :-1]], axis=1)
    qv = eta.q.values
    if qv.shape[0] != steps:
        raise ValidationError("q table does not span the dataset horizon")
    t_idx = np.arange(steps)[None, :]
    q_taken = qv[t_idx, data.states, data.actions]
    v = np.einsum("tsa,sa->ts", qv, eval_policy.table)
    v_state = v[t_idx, data.states]
    disc = discount ** np.arange(steps)
    terms = rho * (data.rewards - q_taken) + rho_prev * v_state
    return (terms * disc).sum(axis=1)


def _psi_ipw_scores(
    data: LoggedDataset, behavior: Policy, eval_policy: Policy, discount: float
) -> np.ndarray:
    rho = _weight_matrix(data, eval_policy, behavior)
    disc = discount ** np.arange(data.horizon + 1)
    return (rho * data.rewards * disc).sum(axis=1)


def dm_estimate(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    level: float = 0.95,
) -> ValueEstimate:
    """Direct method: average the fitted initial-state value over the data."""
    v0 = (eval_policy.table * eta.q.values[0]).sum(axis=1)
    return _finalize(v0[data.states[:, 0]], Estimator.DM, level)


def ipw_estimate(
    data: LoggedDataset,
    behavior: Policy,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    scores = _psi_ipw_scores(data, behavior, eval_policy, discount)
    return _finalize(scores, Estimator.IPW, level)


def dr_full_estimate(
    data: LoggedDataset,
    eta: NuisanceEstimate,
    eval_policy: Policy,
    discount: float,
    level: float = 0.95,
) -> ValueEstimate:
    """Doubly robust score averaged over the same data ``eta`` was fit on."""
    scores = _psi_scores(data, eta, eval_policy, discount)
    return _finalize(scores, Estimator.DR_FULL, level)


def dr_half_estimate(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
    oracle_nuisance: NuisanceEstimate | None = None,
    level: float = 0.95,
) -> ValueEstimate:
    """Score fold 0 of a 2-fold split, its first (n+1)//2 rows, with nuisances
    fitted on fold 1: DML's fold-0 fit at k_folds=2."""
    scored, fitted = (data.subset(f) for f in make_folds(data.n, 2, rng))
    eta = oracle_nuisance or fit_nuisance(fitted, eval_policy, discount,
                                          known_behavior=known_behavior, config=config)
    return _finalize(_psi_scores(scored, eta, eval_policy, discount), Estimator.DR_HALF, level)


def dml_estimate(
    data: LoggedDataset,
    eval_policy: Policy,
    discount: float,
    rng: np.random.Generator,
    k_folds: int = 2,
    known_behavior: Policy | None = None,
    config: NuisanceConfig = NuisanceConfig(),
    oracle_nuisance: NuisanceEstimate | None = None,
    level: float = 0.95,
) -> ValueEstimate:
    """Cross-fitted doubly robust estimator with the pooled variance estimator.

    Each fold's rows are cut once and scored with nuisances fitted on the other
    folds (``fit_nuisances``); the value is the pooled mean of all N scores,
    which matches the per-fold double average whenever the folds are equal-sized.
    """
    folds = make_folds(data.n, k_folds, rng)
    parts = [data.subset(fold) for fold in folds]
    etas = [oracle_nuisance] * k_folds if oracle_nuisance else fit_nuisances(
        parts, eval_policy, discount, known_behavior=known_behavior, config=config)
    scores = np.empty(data.n)
    for fold, part, eta in zip(folds, parts, etas):
        scores[fold] = _psi_scores(part, eta, eval_policy, discount)
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
    eta: NuisanceEstimate,
    eval_policy: Policy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Exact E_{H~logging_policy}[psi(H; eta)] by trajectory enumeration."""
    data, probs = enumerate_dataset(mdp, logging_policy, cap=cap)
    return float(_psi_scores(data, eta, eval_policy, mdp.discount) @ probs)


def expected_psi_ipw(
    mdp: TabularMdp,
    logging_policy: Policy,
    behavior_candidate: Policy,
    eval_policy: Policy,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Exact E_{H~logging_policy}[psi_ipw(H; behavior_candidate)] by enumeration."""
    data, probs = enumerate_dataset(mdp, logging_policy, cap=cap)
    return float(_psi_ipw_scores(data, behavior_candidate, eval_policy, mdp.discount) @ probs)


def _mix_eta(eta_true: NuisanceEstimate, eta_alt: NuisanceEstimate, r: float) -> NuisanceEstimate:
    behavior = Policy(table=(1 - r) * eta_true.behavior.table + r * eta_alt.behavior.table)
    q = QTable(values=(1 - r) * eta_true.q.values + r * eta_alt.q.values)
    return NuisanceEstimate(
        behavior=behavior,
        q=q,
        mean_reward=(1 - r) * eta_true.mean_reward + r * eta_alt.mean_reward,
        transitions=(1 - r) * eta_true.transitions + r * eta_alt.transitions,
    )


def orthogonality_derivative(
    mdp: TabularMdp,
    eval_policy: Policy,
    eta_true: NuisanceEstimate,
    eta_alt: NuisanceEstimate,
    score: ScoreKind = ScoreKind.DML_PSI,
    step: float = 1e-4,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Central-difference derivative of the enumerated score expectation along
    the perturbation direction eta_alt - eta_true, evaluated at the truth.

    ``eta_true.behavior`` must be the true behavior policy: the expectation is
    taken under it.
    """
    data, probs = enumerate_dataset(mdp, eta_true.behavior, cap=cap)

    def g(r: float) -> float:
        eta_r = _mix_eta(eta_true, eta_alt, r)
        if score is ScoreKind.DML_PSI:
            scores = _psi_scores(data, eta_r, eval_policy, mdp.discount)
        else:
            scores = _psi_ipw_scores(data, eta_r.behavior, eval_policy, mdp.discount)
        return float(scores @ probs)

    return (g(step) - g(-step)) / (2.0 * step)
