"""Debiased off-policy evaluation for tabular sequential decision policies."""

from .mdp import (
    EnumerationCapError,
    LoggedDataset,
    Policy,
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
from .policies import (
    epsilon_greedy_policy,
    greedy_policy,
    softmax_policy,
    thompson_gaussian_policy,
)
from .nuisance import (
    NuisanceEstimate,
    SupportViolationError,
    fit_nuisance,
    fit_nuisances,
    make_folds,
    q_recursion,
)
from .estimators import (
    Estimator,
    ValueEstimate,
    cb_efficiency_bound,
    dm_estimate,
    dml_estimate,
    dr_full_estimate,
    dr_half_estimate,
    expected_psi,
    ipw_estimate,
    orthogonality_derivative,
)
from .experiments import (
    CampaignBatchCell,
    EstimatorMse,
    ExperimentConfig,
    MseReport,
    cell_from_dict,
    evaluate_dataset,
    experiment_config_from_dict,
    ground_truth_value,
    ingest_jsonl,
    lift_policy,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    relative_rmse,
    relative_rmse_se,
    run_mse_experiment,
    with_noise_states,
    write_jsonl,
)

__all__ = [name for name in dir() if not name.startswith("_")]
