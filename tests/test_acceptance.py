"""End-to-end acceptance checks. Each test prints one PASS/FAIL summary line
(visible with pytest -s or in captured output) and asserts the same condition.

Covered, in order: exact value identities, step reweighting identities, score
orthogonality, confidence interval coverage, the bandit variance bound, the
half-split variance ratio, the estimator MSE ordering under noisy nuisances,
the relative-RMSE metric, and CLI byte determinism.
"""
import dataclasses
import json

import numpy as np
import pytest

from dml_ope import (
    CampaignBatchCell,
    ExperimentConfig,
    Policy,
    TabularMdp,
    cb_efficiency_bound,
    dml_estimate,
    dr_half_estimate,
    enumerate_dataset,
    exact_policy_value,
    expected_psi,
    mdp_to_dict,
    orthogonality_derivative,
    policy_to_dict,
    relative_rmse,
    relative_rmse_se,
    run_mse_experiment,
    sample_dataset,
)
from dml_ope.cli import cli_main

from helpers import (
    bandit_mdp,
    bandit_policies,
    bernoulli,
    digest,
    random_mdp,
    random_policy,
    three_state_mdp,
    three_state_policies,
    true_nuisance,
)


def check(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def random_instance(rng):
    num_states = int(rng.integers(2, 5))
    num_actions = int(rng.integers(2, 4))
    horizon = int(rng.integers(0, 4))
    mdp = random_mdp(rng, num_states, num_actions, horizon, discount=float(rng.uniform(0.5, 1.0)))
    behavior = random_policy(rng, num_states, num_actions)
    evaluation = random_policy(rng, num_states, num_actions)
    return mdp, behavior, evaluation


def test_value_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        mdp, behavior, evaluation = random_instance(rng)
        value = exact_policy_value(mdp, evaluation)
        eta = true_nuisance(mdp, behavior, evaluation)
        eta_wild_q = dataclasses.replace(eta, q=rng.normal(scale=3.0, size=eta.q.shape))
        wrong_b = random_policy(rng, mdp.num_states, mdp.num_actions)
        eta_wrong_b = dataclasses.replace(eta, behavior=wrong_b)
        for eta_case in (eta, eta_wild_q, eta_wrong_b):
            worst = max(worst, abs(expected_psi(mdp, behavior, eta_case.behavior, eta_case.q,
                                                evaluation) - value))
    check("value identities", worst < 1e-10,
          f"max |E[score] - value| = {worst:.2e} over 20 instances x 3 nuisance cases")


def test_step_reweighting_identity_suite():
    rng = np.random.default_rng(2025)
    worst = 0.0
    instances = 0
    while instances < 24:
        mdp, behavior, evaluation = random_instance(rng)
        data_b, probs_b = enumerate_dataset(mdp, behavior)
        data_e, probs_e = enumerate_dataset(mdp, evaluation)
        ratios = evaluation.table[data_b.states, data_b.actions] / behavior.table[
            data_b.states, data_b.actions
        ]
        rho = np.cumprod(ratios, axis=1)
        coeffs = 1.0 + 0.3 * rng.normal(size=(mdp.horizon + 1, mdp.num_states, mdp.num_actions))
        state_coeffs = rng.normal(size=mdp.num_states)

        def prefix(data, t):
            t_idx = np.arange(t + 1)[None, :]
            return coeffs[t_idx, data.states[:, : t + 1], data.actions[:, : t + 1]].prod(axis=1)

        # Per-step reward reweighting.
        for t in range(mdp.horizon + 1):
            lhs = float((rho[:, t] * data_b.rewards[:, t]) @ probs_b)
            rhs = float(data_e.rewards[:, t] @ probs_e)
            worst = max(worst, abs(lhs - rhs))
        # Discounted-return reweighting (the whole-trajectory version).
        value = exact_policy_value(mdp, evaluation)
        worst = max(worst, abs(expected_psi(mdp, behavior, behavior, None, evaluation) - value))
        # Prefix-history functions.
        for t in range(mdp.horizon + 1):
            lhs = float((rho[:, t] * prefix(data_b, t)) @ probs_b)
            rhs = float(prefix(data_e, t) @ probs_e)
            worst = max(worst, abs(lhs - rhs))
        # Prefix plus next state, one step behind on the weight.
        for t in range(1, mdp.horizon + 1):
            gb = prefix(data_b, t - 1) * state_coeffs[data_b.states[:, t]]
            ge = prefix(data_e, t - 1) * state_coeffs[data_e.states[:, t]]
            lhs = float((rho[:, t - 1] * gb) @ probs_b)
            rhs = float(ge @ probs_e)
            worst = max(worst, abs(lhs - rhs))
        instances += 1
    check("step reweighting identities", worst < 1e-10,
          f"max identity violation = {worst:.2e} over {instances} instances")


def test_orthogonality_suite():
    rng = np.random.default_rng(2026)
    worst_dml = 0.0
    for _ in range(3):
        mdp, behavior, evaluation = random_instance(rng)
        eta = true_nuisance(mdp, behavior, evaluation)
        for _ in range(10):
            alt = dataclasses.replace(
                eta,
                behavior=random_policy(rng, mdp.num_states, mdp.num_actions),
                q=rng.normal(size=eta.q.shape),
            )
            deriv = orthogonality_derivative(mdp, evaluation, eta.behavior, eta.q,
                                             alt.behavior, alt.q, step=1e-4)
            worst_dml = max(worst_dml, abs(deriv))
    # Witness: the weight-only score is sensitive to behavior perturbations.
    witness = TabularMdp(
        num_states=1, num_actions=2, horizon=0, discount=1.0,
        initial_dist=[1.0], transitions=np.full((1, 2, 1), 1.0),
        **bernoulli([[1.0, 0.0]]),
    )
    w_behavior = Policy(table=[[0.5, 0.5]])
    w_eval = Policy(table=[[1.0, 0.0]])
    w_eta = true_nuisance(witness, w_behavior, w_eval)
    w_alt = dataclasses.replace(w_eta, behavior=Policy(table=[[0.75, 0.25]]))
    ipw_deriv = abs(orthogonality_derivative(witness, w_eval, w_eta.behavior, None,
                                             w_alt.behavior, None, step=1e-4))
    ok = worst_dml < 1e-6 and ipw_deriv > 1e-3
    check("score orthogonality", ok,
          f"max |orthogonal derivative| = {worst_dml:.2e} over 30 directions, "
          f"weight-only witness derivative = {ipw_deriv:.3f}")


# The sha256 of each gate's estimates: the DML reports of test_ci_coverage, and
# the bandit's DML and DR-half values by replication count.
CI_COVERAGE_DIGEST = "7b49dfb16ad139a887a571b86c917ab26304df05feb7192caa75ce43d9d02189"
BANDIT_DIGESTS = {
    1000: "9a31672c3225812c4d69226f18339a4291fc45ce6b4de98f14248e0fb77b963b",
    500: "d0ee73cf22ee4ded3381d7a3b24d1fdbd28f5ddbd664e36114e2fdc140c0b895",
}


def test_ci_coverage():
    reps, n = 1000, 5000
    mdp = three_state_mdp()
    behavior, evaluation = three_state_policies()
    truth = exact_policy_value(mdp, evaluation)
    hits, reports = 0, []
    for child in np.random.SeedSequence(42).spawn(reps):
        rng = np.random.default_rng(child)
        data = sample_dataset(mdp, behavior, n, rng)
        est = dml_estimate(data, evaluation, 0.9, rng, k_folds=2)
        hits += est.covers(truth)
        reports.append(est.to_dict())
    coverage = hits / reps
    check("confidence interval coverage", 0.92 <= coverage <= 0.97,
          f"95% CI coverage = {coverage:.3f} over {reps} replications of N={n}")
    # The estimates themselves, to the last bit.
    assert digest(reports) == CI_COVERAGE_DIGEST


def _bandit_dml_and_half_values(reps: int, n: int):
    mdp = bandit_mdp()
    behavior, evaluation = bandit_policies()
    dml_vals, half_vals = [], []
    for child in np.random.SeedSequence(7).spawn(reps):
        rng = np.random.default_rng(child)
        data = sample_dataset(mdp, behavior, n, rng)
        dml_vals.append(dml_estimate(data, evaluation, 1.0, rng, k_folds=2).value)
        half_vals.append(dr_half_estimate(data, evaluation, 1.0, rng).value)
    return np.array(dml_vals), np.array(half_vals)


def test_bandit_variance_bound():
    reps, n = 1000, 5000
    mdp = bandit_mdp()
    behavior, evaluation = bandit_policies()
    bound = cb_efficiency_bound(mdp, behavior, evaluation)
    vals, halves = _bandit_dml_and_half_values(reps, n)
    ratio = n * vals.var() / bound
    check("bandit variance bound", 0.85 <= ratio <= 1.15,
          f"N x var / bound = {ratio:.3f} over {reps} replications of N={n}")
    assert digest(np.stack([vals, halves])) == BANDIT_DIGESTS[reps]


def test_half_split_variance_ratio():
    reps, n = 500, 5000
    vals, halves = _bandit_dml_and_half_values(reps, n)
    ratio = halves.var() / vals.var()
    check("half-split variance ratio", 1.5 <= ratio <= 2.5,
          f"var(half-split) / var(cross-fit) = {ratio:.2f} over {reps} replications")
    assert digest(np.stack([vals, halves])) == BANDIT_DIGESTS[reps]


def noisy_nuisance_config() -> ExperimentConfig:
    """High-dimensional scenario: reward-irrelevant noise states multiply the
    state space so the per-cell Q fit interpolates its own data, while the
    known behavior policy rarely logs the actions the evaluation policy takes.
    """
    d = 0.8
    means = np.array([[0.2, 2.6], [0.4, 1.8], [0.2, 3.0]])
    mdp = TabularMdp(
        num_states=3, num_actions=2, horizon=2, discount=0.9,
        initial_dist=[0.5, 0.3, 0.2],
        transitions=np.array([
            [[0.6, 0.3, 0.1], [0.1, 0.6, 0.3]],
            [[0.3, 0.5, 0.2], [0.2, 0.2, 0.6]],
            [[0.5, 0.25, 0.25], [0.1, 0.3, 0.6]],
        ]),
        reward_support=np.stack([means - d, means + d], axis=-1),
        reward_probs=np.full((3, 2, 2), 0.5),
    )
    return ExperimentConfig(
        mdp=mdp,
        behavior_policy=Policy(table=[[0.8, 0.2], [0.7, 0.3], [0.85, 0.15]]),
        evaluation_policy=Policy(table=[[0.2, 0.8], [0.3, 0.7], [0.15, 0.85]]),
        n_trajectories=1000,
        replications=200,
        estimators=("dml", "dr_half", "dr_full", "ipw"),
        k_folds=2,
        seed=11,
        behavior_known=True,
        noise_states=80,
        noise_seed=3,
        smoothing_alpha=0.5,
    )


def test_mse_ordering_under_noisy_nuisances():
    report = run_mse_experiment(noisy_nuisance_config())
    res = report.results

    def gap_sds(a, b):
        return (res[b].mse - res[a].mse) / np.sqrt(
            res[a].se_of_mse**2 + res[b].se_of_mse**2
        )

    g1 = gap_sds("dml", "dr_half")
    g2 = gap_sds("dr_half", "ipw")
    full_worse = res["dml"].mse < res["dr_full"].mse
    ok = g1 > 2.0 and g2 > 2.0 and full_worse
    check("noisy-nuisance MSE ordering", ok,
          "mse dml={:.3f} < dr_half={:.3f} < ipw={:.3f} (gaps {:.1f}, {:.1f} pooled SEs), "
          "dr_full={:.3f} {} dml".format(
              res["dml"].mse, res["dr_half"].mse, res["ipw"].mse, g1, g2,
              res["dr_full"].mse, ">" if full_worse else "<="))


def test_relative_rmse_metric():
    def cell(estimate, actual, weight, **extra):
        return CampaignBatchCell(campaign="c", batch="b", estimate=estimate,
                                 actual=actual, n_impressions=weight, **extra)

    single = abs(relative_rmse([cell(1.2, 1.0, 500.0)]) - 0.2)
    pair = abs(relative_rmse([cell(1.1, 1.0, 100.0), cell(1.3, 1.0, 100.0)])
               - np.sqrt(0.05))
    # Independent simulation oracle for the standard error, coded from the
    # sampling model directly: both draws centered at the estimate.
    target = cell(0.5, 0.5, 1000.0, ope_variance=0.25, n_ope=625.0)
    se = relative_rmse_se([target], np.random.default_rng(3))
    oracle_rng = np.random.default_rng(987654)
    sd_est = np.sqrt(0.25 / 625.0)
    sd_actual = np.sqrt(0.5 * 0.5 / 1000.0)
    x = 0.5 + sd_est * oracle_rng.standard_normal(1_000_000)
    y = 0.5 + sd_actual * oracle_rng.standard_normal(1_000_000)
    oracle = np.abs((x - y) / y).std()
    rel_err = abs(se - oracle) / oracle
    ok = single < 1e-12 and pair < 1e-12 and rel_err < 0.03
    check("relative-RMSE metric", ok,
          f"hand-value errors = {single:.1e}, {pair:.1e}; "
          f"SE = {se:.5f} vs oracle {oracle:.5f} ({100 * rel_err:.2f}% off)")


def test_cli_determinism(tmp_path):
    mdp = three_state_mdp()
    behavior, evaluation = three_state_policies()
    (tmp_path / "mdp.json").write_text(json.dumps(mdp_to_dict(mdp)))
    (tmp_path / "behavior.json").write_text(json.dumps(policy_to_dict(behavior)))
    (tmp_path / "eval.json").write_text(json.dumps(policy_to_dict(evaluation)))
    b_mdp, (b_beh, b_eval) = bandit_mdp(), bandit_policies()
    (tmp_path / "bandit.json").write_text(json.dumps(mdp_to_dict(b_mdp)))
    (tmp_path / "bandit_b.json").write_text(json.dumps(policy_to_dict(b_beh)))
    (tmp_path / "bandit_e.json").write_text(json.dumps(policy_to_dict(b_eval)))
    (tmp_path / "config.json").write_text(json.dumps({
        "mdp": "mdp.json", "behavior_policy": "behavior.json",
        "evaluation_policy": "eval.json", "n_trajectories": 40,
        "replications": 3, "estimators": ["dml", "ipw"], "seed": 6,
    }))
    (tmp_path / "cells.json").write_text(json.dumps([
        {"campaign": "a", "batch": "1", "estimate": 0.55, "actual": 0.5,
         "n_impressions": 10_000, "ope_variance": 0.25, "n_ope": 5_000},
    ]))
    assert cli_main([
        "simulate", "--mdp", str(tmp_path / "mdp.json"),
        "--policy", str(tmp_path / "behavior.json"), "--n", "30", "--seed", "1",
        "--output", str(tmp_path / "data.jsonl"),
    ]) == 0
    commands = {
        "simulate": ["simulate", "--mdp", str(tmp_path / "mdp.json"),
                     "--policy", str(tmp_path / "behavior.json"), "--n", "30", "--seed", "1"],
        "evaluate": ["evaluate", "--data", str(tmp_path / "data.jsonl"),
                     "--eval-policy", str(tmp_path / "eval.json"),
                     "--discount", "0.9", "--estimator", "dml", "--estimator", "ipw",
                     "--seed", "2"],
        "experiment": ["experiment", "--config", str(tmp_path / "config.json")],
        "bound": ["bound", "--mdp", str(tmp_path / "bandit.json"),
                  "--behavior-policy", str(tmp_path / "bandit_b.json"),
                  "--eval-policy", str(tmp_path / "bandit_e.json")],
        "rmse": ["rmse", "--cells", str(tmp_path / "cells.json"),
                 "--sims", "2000", "--seed", "5"],
    }
    unstable = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        assert cli_main(argv + ["--output", str(out_a)]) == 0
        assert cli_main(argv + ["--output", str(out_b)]) == 0
        if out_a.read_bytes() != out_b.read_bytes():
            unstable.append(name)
    check("CLI determinism", not unstable,
          "all five subcommands byte-identical across repeated runs"
          if not unstable else f"unstable subcommands: {unstable}")
