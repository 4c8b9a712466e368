import dataclasses
import json

import numpy as np
import pytest

from dml_ope import (
    CampaignBatchCell,
    Estimator,
    ExperimentConfig,
    LoggedDataset,
    Policy,
    ValidationError,
    cell_from_dict,
    dr_full_estimate,
    evaluate_dataset,
    exact_policy_value,
    experiment_config_from_dict,
    fit_nuisance,
    ground_truth_value,
    ingest_jsonl,
    lift_policy,
    mdp_from_dict,
    mdp_to_dict,
    policy_to_dict,
    relative_rmse,
    relative_rmse_se,
    run_mse_experiment,
    sample_dataset,
    with_noise_states,
    write_jsonl,
)

from helpers import three_state_mdp, three_state_policies


def small_config(**overrides):
    mdp = three_state_mdp()
    behavior, evaluation = three_state_policies()
    defaults = dict(
        mdp=mdp,
        behavior_policy=behavior,
        evaluation_policy=evaluation,
        n_trajectories=80,
        replications=8,
        estimators=(Estimator.DML.value,),
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestJsonlRoundTrip:
    def test_write_then_ingest(self, tmp_path):
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 25, np.random.default_rng(1))
        path = tmp_path / "data.jsonl"
        write_jsonl(data, path)
        loaded = ingest_jsonl(path)
        assert np.array_equal(loaded.states, data.states)
        assert np.array_equal(loaded.actions, data.actions)
        assert np.array_equal(loaded.rewards, data.rewards)
        assert loaded.propensities is not None
        assert np.allclose(loaded.propensities, data.propensities, atol=1e-15)

    def test_string_labels_sorted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            {"steps": [{"s": "home", "a": "show", "r": 1.0}]},
            {"steps": [{"s": "cart", "a": "hide", "r": 0.0}]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        data = ingest_jsonl(path)
        # "cart" < "home" and "hide" < "show" in sorted order.
        assert data.states[:, 0].tolist() == [1, 0]
        assert data.actions[:, 0].tolist() == [1, 0]
        assert data.propensities is None

    def test_explicit_label_maps(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"steps": [{"s": "x", "a": "y", "r": 2.0}]}) + "\n")
        data = ingest_jsonl(path, state_map={"x": 3}, action_map={"y": 1})
        assert data.states[0, 0] == 3
        assert data.actions[0, 0] == 1

    def test_missing_label_in_map(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"steps": [{"s": "x", "a": 0, "r": 0.0}]}) + "\n")
        with pytest.raises(ValidationError, match="state label map"):
            ingest_jsonl(path, state_map={"other": 0})

    def test_ragged_horizon_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            {"steps": [{"s": 0, "a": 0, "r": 0.0}, {"s": 0, "a": 0, "r": 0.0}]},
            {"steps": [{"s": 0, "a": 0, "r": 0.0}]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest_jsonl(path)

    def test_bad_propensity_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"steps": [{"s": 0, "a": 0, "r": 0.0, "p": 0.0}]}) + "\n")
        with pytest.raises(ValidationError, match="propensity"):
            ingest_jsonl(path)

    def test_missing_step_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"steps": [{"s": 0, "a": 0}]}) + "\n")
        with pytest.raises(ValidationError, match="line 1: step 0"):
            ingest_jsonl(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"steps": [\n')
        with pytest.raises(ValidationError, match="invalid JSON"):
            ingest_jsonl(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("\n")
        with pytest.raises(ValidationError, match="empty dataset"):
            ingest_jsonl(path)

    def test_partial_propensities_dropped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            {"steps": [{"s": 0, "a": 0, "r": 0.0, "p": 0.5}]},
            {"steps": [{"s": 0, "a": 0, "r": 0.0}]},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        assert ingest_jsonl(path).propensities is None

    def test_golden_bytes(self, tmp_path):
        data = LoggedDataset(
            states=[[0, 2], [1, 0]],
            actions=[[1, 0], [0, 1]],
            rewards=[[-0.6000000000000001, 1.0], [0.0, 2.5]],
            propensities=[[0.25, 1.0], [0.1, 0.75]],
        )
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        assert path.read_text() == (
            '{"steps": [{"s": 0, "a": 1, "r": -0.6000000000000001, "p": 0.25}, '
            '{"s": 2, "a": 0, "r": 1.0, "p": 1.0}]}\n'
            '{"steps": [{"s": 1, "a": 0, "r": 0.0, "p": 0.1}, '
            '{"s": 0, "a": 1, "r": 2.5, "p": 0.75}]}\n'
        )

    def test_golden_bytes_without_propensities(self, tmp_path):
        data = LoggedDataset(states=[[0, 2]], actions=[[1, 0]], rewards=[[-0.6000000000000001, 3]])
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        assert path.read_text() == (
            '{"steps": [{"s": 0, "a": 1, "r": -0.6000000000000001, "p": null}, '
            '{"s": 2, "a": 0, "r": 3.0, "p": null}]}\n'
        )

    def test_write_across_blocks(self, tmp_path):
        # More rows than one encoding block, so block boundaries are crossed.
        mdp = three_state_mdp()
        behavior, _ = three_state_policies()
        data = sample_dataset(mdp, behavior, 9000, np.random.default_rng(2))
        path = tmp_path / "d.jsonl"
        write_jsonl(data, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 9000
        for i in (0, 4095, 4096, 8999):
            expected = [
                {"s": int(s), "a": int(a), "r": float(r), "p": float(p)}
                for s, a, r, p in zip(data.states[i], data.actions[i], data.rewards[i],
                                      data.propensities[i])
            ]
            assert lines[i] == json.dumps({"steps": expected})
        loaded = ingest_jsonl(path)
        assert np.array_equal(loaded.states, data.states)
        assert np.array_equal(loaded.rewards, data.rewards)

    @pytest.mark.parametrize("lines, match", [
        (['[{"s": 0, "a": 0, "r": 0.0}]'], "line 1: expected an object with a 'steps'"),
        (['{"steps": [{"s": 0, "a": 0, "r": "1.0"}]}'], "line 1: step 0: 'r' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": null}]}'], "line 1: step 0: 'r' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": true}]}'], "line 1: step 0: 'r' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": 1.0}, {"s": 0, "a": 0, "r": 0.0}]}',
          '{"steps": [{"s": 0, "a": 0, "r": 1.0}, {"s": 0, "a": 0, "r": NaN}]}'],
         "line 2: step 1: 'r' must be finite, got NaN"),
        (['{"steps": [{"s": 0, "a": 0, "r": -Infinity}]}'], "line 1: step 0: 'r' must be finite"),
        (['{"steps": [{"s": 0, "a": 0, "r": 0.0, "p": 0.5}]}',
          '{"steps": [{"s": 0, "a": 0, "r": 0.0, "p": "0.5"}]}'],
         "line 2: step 0: 'p' must be a number"),
        (['{"steps": [{"s": 0, "a": 0, "r": 1%s}]}' % ("0" * 400)],
         "line 1: step 0: 'r' is beyond the float range"),
    ], ids=["non_object_line", "string_r", "null_r", "bool_r", "nan_r", "infinite_r", "string_p",
            "huge_r"])
    def test_bad_value_names_line_and_field(self, tmp_path, lines, match):
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=match):
            ingest_jsonl(path)

    @pytest.mark.parametrize("labels, match", [
        ([(True, 0)], "line 1: step 0: 's' must be an integer"),
        ([(0, 0), (1, False)], "line 2: step 0: 'a' must be an integer"),
        ([(0.5, 0)], "line 1: step 0: 's' must be an integer"),
        ([(0, 0), ("home", 0)], "line 2: step 0: 's' mixes integer and string"),
        ([(0, "show"), (0, 1)], "line 2: step 0: 'a' mixes integer and string"),
        ([(0, -1)], "line 1: step 0: 'a' integer action label -1"),
        ([(0, 0), (2**63, 0)], "line 2: step 0: 's' integer state label 9223372036854775808"),
    ], ids=["true_state", "false_action", "fractional_state", "mixed_states", "mixed_actions",
            "negative_action", "huge_state"])
    def test_bad_label_names_line_and_field(self, tmp_path, labels, match):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(
            json.dumps({"steps": [{"s": s, "a": a, "r": 0.0}]}) + "\n" for s, a in labels
        ))
        with pytest.raises(ValidationError, match=match):
            ingest_jsonl(path)


class TestNoiseStates:
    def test_value_preserved_under_lifting(self):
        mdp = three_state_mdp()
        _, evaluation = three_state_policies()
        base_value = exact_policy_value(mdp, evaluation)
        for z in (1, 2, 5):
            big = with_noise_states(mdp, z, seed=4)
            lifted = lift_policy(evaluation, z)
            assert exact_policy_value(big, lifted) == pytest.approx(base_value, abs=1e-10)

    def test_product_dimensions(self):
        big = with_noise_states(three_state_mdp(), 4, seed=0)
        assert big.num_states == 12
        assert big.transitions.shape == (12, 2, 12)
        assert abs(big.initial_dist.sum() - 1.0) < 1e-12

    def test_rewards_ignore_noise_coordinate(self):
        mdp = three_state_mdp()
        big = with_noise_states(mdp, 3, seed=0)
        for s in range(3):
            for z in range(3):
                for a in range(2):
                    assert big.rewards[s * 3 + z][a] is mdp.rewards[s][a]

    def test_rejects_zero_noise_states(self):
        with pytest.raises(ValidationError):
            with_noise_states(three_state_mdp(), 0)


class TestEvaluateDataset:
    def test_all_estimators_run(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 60, np.random.default_rng(3))
        names = tuple(e.value for e in Estimator)
        results = evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(4))
        assert set(results) == set(names)
        for est in results.values():
            assert np.isfinite(est.value)
            assert est.ci_low <= est.value <= est.ci_high

    @pytest.mark.parametrize("known, k_folds, expected", [
        (False, 3, {
            "dm": (1.6100684668585297, 0.0004611546665899453, 0.0030369546147084427,
                   [1.6041161451910184, 1.616020788526041], 50),
            "ipw": (1.622406033130107, 1.5913760310990803, 0.17840269230586628,
                    [1.272743181465628, 1.9720688847945858], 50),
            "dr_full": (1.5656610294637796, 0.7036363695042551, 0.11862852688154356,
                        [1.3331533892369127, 1.7981686696906465], 50),
            "dr_half": (1.738104277008832, 0.4873008310498749, 0.1396138719540254,
                        [1.4644661162367556, 2.0117424377809083], 25),
            "dml": (1.6535586435325653, 1.1455772545654879, 0.15136560075297742,
                    [1.3568875175584607, 1.95022976950667], 50),
        }),
        (True, 2, {
            "dm": (1.6100684668585297, 0.0004611546665899453, 0.0030369546147084427,
                   [1.6041161451910184, 1.616020788526041], 50),
            "ipw": (1.7409113819241986, 1.7873941069094301, 0.18907110339284688,
                    [1.37033882875697, 2.111483935091427], 50),
            "dr_full": (1.5767662171602632, 0.6853504767114241, 0.1170769385243246,
                        [1.347299634232377, 1.8062328000881493], 50),
            "dr_half": (1.7199003530710724, 0.7526408350611048, 0.1735097501653558,
                        [1.3798274917804325, 2.059973214361712], 25),
            "dml": (1.582631249311413, 0.7568603729210214, 0.12303335912841049,
                    [1.3414902965227462, 1.8237722021000797], 50),
        }),
    ], ids=["estimated_behavior_k3", "known_behavior_k2"])
    def test_golden_reports(self, known, k_folds, expected):
        # Exact reports of all five estimators, pinned so that refactors of the
        # nuisance fit and the dispatch keep every number to the last bit.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 50, np.random.default_rng(11))
        names = tuple(e.value for e in Estimator)
        results = evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(12),
                                   known_behavior=behavior if known else None, k_folds=k_folds)
        assert {name: est.to_dict() for name, est in results.items()} == {
            name: {"estimator": name, "value": value, "variance": variance,
                   "std_error": std_error, "ci": ci, "level": 0.95, "n": n}
            for name, (value, variance, std_error, ci, n) in expected.items()
        }

    def test_dr_full_on_shared_fit_equals_a_fresh_fit(self):
        # DR-full scores on the full-data fit that DM and IPW share; scoring on
        # a fit made for DR-full alone gives the same report.
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 60, np.random.default_rng(3))
        results = evaluate_dataset(data, evaluation, 0.9, ("dm", "dr_full"),
                                   np.random.default_rng(4))
        fresh = dr_full_estimate(data, fit_nuisance(data, evaluation, 0.9), evaluation, 0.9)
        assert results["dr_full"].to_dict() == fresh.to_dict()

    @pytest.mark.parametrize("states, actions, behavior, match", [
        ([[0], [3]], [[0], [1]], None,
         r"'s' id 3 is outside the evaluation policy table of 3 states"),
        ([[0], [-1]], [[0], [1]], Policy(table=[[0.5, 0.5]] * 3),
         r"'s' id -1 is outside the evaluation policy table of 3 states"),
        ([[0], [1]], [[1], [0]], Policy(table=[[1.0]] * 3),
         r"'a' id 1 is outside the behavior policy table of 1 actions"),
    ], ids=["state_outside_eval", "negative_state", "action_outside_behavior"])
    def test_id_outside_policy_table_rejected(self, states, actions, behavior, match):
        _, evaluation = three_state_policies()
        data = LoggedDataset(states=states, actions=actions, rewards=[[1.0], [0.0]])
        with pytest.raises(ValidationError, match=match):
            evaluate_dataset(data, evaluation, 0.9, ("ipw", "dml"), np.random.default_rng(0),
                             known_behavior=behavior)

    def test_unknown_estimator_rejected(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="unknown estimator"):
            evaluate_dataset(data, evaluation, 0.9, ("magic",), np.random.default_rng(0))

    @pytest.mark.parametrize("names, match", [
        ((), "estimators: name at least one estimator"),
        (("ipw", "ipw"), "estimators: estimator 'ipw' is given more than once"),
    ], ids=["empty", "repeated"])
    def test_empty_or_repeated_estimators_rejected(self, names, match):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        data = sample_dataset(mdp, behavior, 10, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=match):
            evaluate_dataset(data, evaluation, 0.9, names, np.random.default_rng(0))


class TestMseExperiment:
    def test_mse_decomposition(self):
        report = run_mse_experiment(small_config(estimators=(
            Estimator.DML.value, Estimator.IPW.value,
        )))
        for res in report.results.values():
            assert res.mse == pytest.approx(res.bias**2 + res.variance, abs=1e-9)

    def test_deterministic_given_seed(self):
        a = run_mse_experiment(small_config())
        b = run_mse_experiment(small_config())
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_golden_report(self, monkeypatch, threads):
        # The exact report of all five estimators on a lifted scenario, pinned
        # so that refactors of the replication loop keep every number to the
        # last bit, whatever the worker count.
        monkeypatch.setenv("OPE_DML_THREADS", threads)
        config = small_config(replications=5, noise_states=2,
                              estimators=tuple(e.value for e in Estimator))
        expected = {
            "dm": (0.004403230113240969, 0.002552592337097819, 0.015018849990010574,
                   0.0041776642582185275),
            "dml": (0.009716233719799511, 0.004044765901463048, 0.02360893462963287,
                    0.009158851925453229),
            "dr_full": (0.008282966000540494, 0.0037663592693061186, 0.02592966206645797,
                        0.007610618625659769),
            "dr_half": (0.05540871914861981, 0.020784993994229936, 0.03460419373745505,
                        0.054211268924400494),
            "ipw": (0.020730830190644867, 0.005593177720371591, 0.00035610535857388825,
                    0.020730703379618465),
        }
        assert run_mse_experiment(config).to_dict() == {
            "ground_truth": 1.460341175,
            "ground_truth_method": "dp_exact",
            "replications": 5,
            "n_trajectories": 80,
            "results": {
                name: {"estimator": name, "mse": mse, "se_of_mse": se, "bias": bias,
                       "variance": variance, "replications": 5}
                for name, (mse, se, bias, variance) in expected.items()
            },
        }

    @pytest.mark.parametrize("replications", [6, 5, 1])
    def test_report_independent_of_worker_count(self, monkeypatch, replications):
        # 5 splits unevenly over 2 workers; 1 leaves a worker with nothing to do.
        config = small_config(replications=replications, estimators=("dml", "ipw", "dr_half"))
        monkeypatch.setenv("OPE_DML_THREADS", "1")
        one = json.dumps(run_mse_experiment(config).to_dict(), sort_keys=True)
        monkeypatch.setenv("OPE_DML_THREADS", "2")
        two = json.dumps(run_mse_experiment(config).to_dict(), sort_keys=True)
        assert one == two

    def test_single_replication_has_no_se(self):
        report = run_mse_experiment(small_config(replications=1))
        res = report.results[Estimator.DML.value]
        assert res.se_of_mse is None
        assert res.replications == 1

    def test_ground_truth_methods_agree(self):
        config = small_config(ground_truth_method="on_policy_rollout",
                              ground_truth_n=200_000, ground_truth_seed=7)
        rollout = ground_truth_value(config)
        exact = exact_policy_value(config.mdp, config.evaluation_policy)
        assert abs(rollout - exact) < 0.02

    def test_dp_truth_uses_the_discount_override(self):
        config = small_config(discount=0.5)
        rollout = ground_truth_value(dataclasses.replace(
            config, ground_truth_method="on_policy_rollout", ground_truth_n=200_000,
            ground_truth_seed=7,
        ))
        rebuilt = mdp_from_dict({**mdp_to_dict(config.mdp), "discount": 0.5})
        exact = ground_truth_value(config)
        assert exact == pytest.approx(exact_policy_value(rebuilt, config.evaluation_policy),
                                      abs=1e-12)
        assert abs(rollout - exact) < 0.02

    def test_report_serializes(self):
        report = run_mse_experiment(small_config(replications=2))
        obj = report.to_dict()
        json.dumps(obj)
        assert obj["replications"] == 2
        assert obj["n_trajectories"] == 80


class TestConfigParsing:
    def config_dict(self):
        mdp = three_state_mdp()
        behavior, evaluation = three_state_policies()
        return {
            "mdp": mdp_to_dict(mdp),
            "behavior_policy": policy_to_dict(behavior),
            "evaluation_policy": policy_to_dict(evaluation),
            "n_trajectories": 40,
            "replications": 3,
            "estimators": ["dml", "ipw"],
            "nuisance": {"k_folds": 2, "smoothing_alpha": 0.5, "behavior_policy": "known"},
            "ground_truth": {"method": "dp_exact"},
        }

    def test_inline_components(self):
        config = experiment_config_from_dict(self.config_dict())
        assert config.n_trajectories == 40
        assert config.behavior_known
        assert config.estimators == ("dml", "ipw")

    def test_path_components(self, tmp_path):
        obj = self.config_dict()
        (tmp_path / "mdp.json").write_text(json.dumps(obj["mdp"]))
        obj["mdp"] = "mdp.json"
        config = experiment_config_from_dict(obj, base_dir=tmp_path)
        assert config.mdp.num_states == 3

    def test_unknown_top_level_key(self):
        obj = self.config_dict()
        obj["bogus"] = 1
        with pytest.raises(ValidationError, match="unknown keys"):
            experiment_config_from_dict(obj)

    def test_unknown_nuisance_key(self):
        obj = self.config_dict()
        obj["nuisance"]["typo"] = 1
        with pytest.raises(ValidationError, match="nuisance config"):
            experiment_config_from_dict(obj)

    def test_bad_behavior_mode(self):
        obj = self.config_dict()
        obj["nuisance"]["behavior_policy"] = "guessed"
        with pytest.raises(ValidationError, match="known.*estimated"):
            experiment_config_from_dict(obj)

    def test_noise_states_block(self):
        obj = self.config_dict()
        obj["noise_states"] = {"count": 3, "seed": 2}
        config = experiment_config_from_dict(obj)
        assert config.noise_states == 3
        assert config.noise_seed == 2


class TestRelativeRmse:
    def cell(self, estimate, actual, weight, **extra):
        return CampaignBatchCell(campaign="c", batch="b", estimate=estimate,
                                 actual=actual, n_impressions=weight, **extra)

    def test_single_cell(self):
        assert relative_rmse([self.cell(1.2, 1.0, 500.0)]) == pytest.approx(0.2, abs=1e-12)

    def test_two_cells_weighted(self):
        cells = [self.cell(1.1, 1.0, 100.0), self.cell(1.3, 1.0, 100.0)]
        assert relative_rmse(cells) == pytest.approx(np.sqrt(0.05), abs=1e-12)

    def test_weight_scale_invariance(self):
        cells_a = [self.cell(0.9, 1.0, 10.0), self.cell(2.4, 2.0, 30.0)]
        cells_b = [self.cell(0.9, 1.0, 1000.0), self.cell(2.4, 2.0, 3000.0)]
        assert relative_rmse(cells_a) == pytest.approx(relative_rmse(cells_b), abs=1e-12)

    def test_value_scale_invariance(self):
        cells_a = [self.cell(0.9, 1.0, 10.0), self.cell(2.4, 2.0, 30.0)]
        cells_b = [self.cell(4.5, 5.0, 10.0), self.cell(12.0, 10.0, 30.0)]
        assert relative_rmse(cells_a) == pytest.approx(relative_rmse(cells_b), abs=1e-12)

    def test_rejects_zero_actual(self):
        with pytest.raises(ValidationError):
            self.cell(0.5, 0.0, 10.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            relative_rmse([])

    def test_cell_from_dict_round_trip(self):
        obj = {"campaign": "a", "batch": "1", "estimate": 0.4, "actual": 0.5,
               "n_impressions": 2000, "ope_variance": 0.2, "n_ope": 1500}
        cell = cell_from_dict(obj)
        assert cell.estimate == 0.4
        assert cell.online_variance is None

    def test_cell_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            cell_from_dict({"campaign": "a", "batch": "1", "estimate": 0.4,
                            "actual": 0.5, "n_impressions": 10, "oops": 1})

    def test_cell_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            cell_from_dict({"campaign": "a", "batch": "1"})


class TestRelativeRmseSe:
    def cell(self, **extra):
        base = dict(campaign="c", batch="b", estimate=0.5, actual=0.5,
                    n_impressions=1000.0, ope_variance=0.25, n_ope=400.0)
        base.update(extra)
        return CampaignBatchCell(**base)

    def test_zero_variances_give_zero_se(self):
        cell = self.cell(ope_variance=0.0, online_variance=0.0)
        se = relative_rmse_se([cell], np.random.default_rng(0), sims=100)
        assert se == 0.0

    def test_deterministic(self):
        cells = [self.cell(), self.cell(estimate=0.3, actual=0.35)]
        a = relative_rmse_se(cells, np.random.default_rng(5), sims=2000)
        b = relative_rmse_se(cells, np.random.default_rng(5), sims=2000)
        assert a == b

    def test_requires_variance_fields(self):
        cell = self.cell(ope_variance=None, n_ope=None)
        with pytest.raises(ValidationError, match="ope_variance"):
            relative_rmse_se([cell], np.random.default_rng(0))

    def test_shrinks_with_more_data(self):
        # Larger samples on both sides shrink simulation spread.
        loose = self.cell(n_ope=50.0, n_impressions=100.0)
        tight = self.cell(n_ope=50_000.0, n_impressions=100_000.0)
        rng = np.random.default_rng(8)
        assert relative_rmse_se([tight], rng, sims=20_000) < relative_rmse_se(
            [loose], np.random.default_rng(8), sims=20_000
        )
