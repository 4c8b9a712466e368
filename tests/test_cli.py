import json
import re

import pytest

from dml_ope import mdp_to_dict, policy_to_dict
from dml_ope.cli import cli_main

from helpers import bandit_mdp, bandit_policies, three_state_mdp, three_state_policies

_MDP = mdp_to_dict(three_state_mdp())


@pytest.fixture
def workspace(tmp_path):
    mdp = three_state_mdp()
    behavior, evaluation = three_state_policies()
    (tmp_path / "mdp.json").write_text(json.dumps(mdp_to_dict(mdp)))
    (tmp_path / "behavior.json").write_text(json.dumps(policy_to_dict(behavior)))
    (tmp_path / "eval.json").write_text(json.dumps(policy_to_dict(evaluation)))
    return tmp_path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_jsonl(self, workspace, capsys):
        out = workspace / "data.jsonl"
        code, _, _ = run(
            capsys, "simulate", "--mdp", str(workspace / "mdp.json"),
            "--policy", str(workspace / "behavior.json"),
            "--n", "20", "--seed", "3", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert len(first["steps"]) == 3
        assert set(first["steps"][0]) == {"s", "a", "r", "p"}

    def test_deterministic_bytes(self, workspace, capsys):
        args = ["simulate", "--mdp", str(workspace / "mdp.json"),
                "--policy", str(workspace / "behavior.json"), "--n", "15", "--seed", "9"]
        a, b = workspace / "a.jsonl", workspace / "b.jsonl"
        assert cli_main(args + ["--output", str(a)]) == 0
        assert cli_main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_mdp_file(self, workspace, capsys):
        code, _, err = run(
            capsys, "simulate", "--mdp", str(workspace / "nope.json"),
            "--policy", str(workspace / "behavior.json"),
            "--n", "5", "--output", str(workspace / "x.jsonl"),
        )
        assert code == 1
        assert "error" in err


class TestEvaluate:
    def simulate(self, workspace, n=60):
        out = workspace / "data.jsonl"
        assert cli_main([
            "simulate", "--mdp", str(workspace / "mdp.json"),
            "--policy", str(workspace / "behavior.json"),
            "--n", str(n), "--seed", "1", "--output", str(out),
        ]) == 0
        return out

    def test_pipeline_all_estimators(self, workspace, capsys):
        data = self.simulate(workspace)
        argv = ["evaluate", "--data", str(data),
                "--eval-policy", str(workspace / "eval.json"),
                "--behavior-policy", str(workspace / "behavior.json"),
                "--discount", "0.9", "--seed", "2"]
        for name in ("dm", "ipw", "dr_full", "dr_half", "dml"):
            argv += ["--estimator", name]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        names = [r["estimator"] for r in report["reports"]]
        assert names == sorted(["dm", "ipw", "dr_full", "dr_half", "dml"])
        for r in report["reports"]:
            assert r["ci"][0] <= r["value"] <= r["ci"][1]
            assert r["config_echo"]["behavior_policy"] == "known"

    def test_default_estimator_is_dml(self, workspace, capsys):
        data = self.simulate(workspace)
        code, out, _ = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9",
        )
        assert code == 0
        report = json.loads(out)
        assert [r["estimator"] for r in report["reports"]] == ["dml"]
        assert report["reports"][0]["config_echo"]["behavior_policy"] == "estimated"

    def test_deterministic_output_bytes(self, workspace, capsys):
        data = self.simulate(workspace)
        argv = ["evaluate", "--data", str(data),
                "--eval-policy", str(workspace / "eval.json"),
                "--discount", "0.9", "--estimator", "dml", "--seed", "4"]
        a, b = workspace / "r1.json", workspace / "r2.json"
        assert cli_main(argv + ["--output", str(a)]) == 0
        assert cli_main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_discount_required(self, workspace, capsys):
        data = self.simulate(workspace, n=10)
        code, _, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"),
        )
        assert code == 1
        assert "discount" in err

    def test_unknown_estimator(self, workspace, capsys):
        data = self.simulate(workspace, n=10)
        code, _, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"),
            "--discount", "0.9", "--estimator", "magic",
        )
        assert code == 1
        assert "unknown estimator" in err

    def test_repeated_estimator_flag_exits_1(self, workspace, capsys):
        data = self.simulate(workspace, n=10)
        code, out, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"),
            "--discount", "0.9", "--estimator", "dml", "--estimator", "dml",
        )
        assert code == 1
        assert out == ""
        assert "--estimator: estimator 'dml' is given more than once" in err

    def evaluate_file(self, workspace, capsys, lines, *extra):
        data = workspace / "bad.jsonl"
        data.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        return run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9", *extra,
        )

    def test_bad_value_exits_1_with_line_and_field(self, workspace, capsys):
        lines = [{"steps": [{"s": 0, "a": 0, "r": 1.0}]}, {"steps": [{"s": 0, "a": 0, "r": "x"}]}]
        code, out, err = self.evaluate_file(workspace, capsys, lines)
        assert code == 1
        assert out == ""
        assert "line 2: step 0: 'r' must be a number" in err
        assert f"error: {workspace / 'bad.jsonl'}: line 2" in err

    def test_state_outside_eval_table(self, workspace, capsys):
        lines = [{"steps": [{"s": 3, "a": 0, "r": 1.0}]}, {"steps": [{"s": 0, "a": 1, "r": 0.0}]}]
        code, _, err = self.evaluate_file(workspace, capsys, lines)
        assert code == 1
        assert "'s' id 3 is outside the evaluation policy table of 3 states" in err

    def test_action_outside_eval_table(self, workspace, capsys):
        lines = [{"steps": [{"s": 0, "a": 2, "r": 1.0}]}, {"steps": [{"s": 1, "a": 0, "r": 0.0}]}]
        code, _, err = self.evaluate_file(workspace, capsys, lines)
        assert code == 1
        assert "'a' id 2 is outside the evaluation policy table of 2 actions" in err

    def test_action_outside_behavior_table(self, workspace, capsys):
        (workspace / "one_action.json").write_text(json.dumps({"table": [[1.0]] * 3}))
        lines = [{"steps": [{"s": 0, "a": 1, "r": 1.0}]}, {"steps": [{"s": 1, "a": 0, "r": 0.0}]}]
        code, _, err = self.evaluate_file(
            workspace, capsys, lines, "--behavior-policy", str(workspace / "one_action.json"),
        )
        assert code == 1
        assert "'a' id 1 is outside the behavior policy table of 1 actions" in err

    @pytest.mark.parametrize("discount", ["1.5", "-0.1", "nan"])
    def test_discount_outside_unit_interval(self, workspace, capsys, discount):
        data = self.simulate(workspace, n=10)
        code, out, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"), "--discount", discount,
        )
        assert code == 1
        assert out == ""
        assert "--discount" in err and "[0, 1]" in err


class TestExperiment:
    def test_runs_config(self, workspace, capsys):
        config = {
            "mdp": "mdp.json",
            "behavior_policy": "behavior.json",
            "evaluation_policy": "eval.json",
            "n_trajectories": 40,
            "replications": 3,
            "estimators": ["dml", "ipw"],
            "seed": 6,
        }
        path = workspace / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "experiment", "--config", str(path))
        assert code == 0
        report = json.loads(out)
        assert set(report["results"]) == {"dml", "ipw"}
        assert report["replications"] == 3
        for res in report["results"].values():
            assert res["mse"] >= 0.0

    def test_invalid_config_key(self, workspace, capsys):
        path = workspace / "config.json"
        path.write_text(json.dumps({"mdp": "mdp.json", "oops": 1}))
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert "unknown keys" in err

    @staticmethod
    def small_config(workspace, **changes):
        """A two-replication config file; a key changed to None is left out."""
        config = {"mdp": "mdp.json", "behavior_policy": "behavior.json",
                  "evaluation_policy": "eval.json", "n_trajectories": 40, "replications": 2,
                  **changes}
        path = workspace / "config.json"
        path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        return path

    @pytest.mark.parametrize("change, match", [
        ({"n_trajectories": None}, "experiment config: missing field 'n_trajectories'"),
        ({"n_trajectories": "many"},
         "experiment config: 'n_trajectories' must be an integer, got \"many\""),
        ({"nuisance": 2}, "nuisance config must be an object"),
        # k_folds is read from the nuisance block only, and seed from the top level only.
        ({"k_folds": 2}, "experiment config: unknown keys \\['k_folds'\\]"),
        ({"nuisance": {"seed": 3}}, "nuisance config: unknown keys \\['seed'\\]"),
        ({"n_trajectories": 50.7},
         "experiment config: 'n_trajectories' must be an integer, got 50.7"),
        ({"replications": True}, "experiment config: 'replications' must be an integer, got true"),
        ({"noise_states": {"count": -1}}, "noise_states: 'count' must be >= 0, got -1"),
        ({"discount": 1.5}, "experiment config: 'discount' must lie in \\[0, 1\\], got 1.5"),
        ({"mdp": {**_MDP, "num_states": 3.7}}, "MDP spec: 'num_states' must be an integer, got 3.7"),
        ({"estimators": 5},
         "experiment config: 'estimators' must be an array of estimator names, got 5"),
        ({"estimators": "dml"},
         "experiment config: 'estimators' must be an array of estimator names, got \"dml\""),
        ({"mdp": {**_MDP, "transitions": "x"}},
         "MDP spec: 'transitions' must be an array of numbers"),
        ({"behavior_policy": {"table": "x"}}, "policy spec: 'table' must be an array of numbers"),
        # fit_subsample was removed: the nuisance fit uses every row it is given.
        ({"nuisance": {"fit_subsample": 0.5}},
         "nuisance config: unknown keys \\['fit_subsample'\\]"),
        ({"estimators": []}, "experiment config: 'estimators': name at least one estimator"),
        ({"estimators": ["dml", "ipw", "dml"]},
         "experiment config: 'estimators': estimator 'dml' is given more than once"),
    ], ids=["missing_n_trajectories", "string_n_trajectories", "non_object_nuisance",
            "top_level_k_folds", "nuisance_seed", "fractional_n_trajectories",
            "boolean_replications", "negative_noise_count", "discount_above_1",
            "fractional_mdp_num_states", "number_estimators", "string_estimators",
            "string_mdp_transitions", "string_policy_table", "nuisance_fit_subsample",
            "empty_estimators", "repeated_estimators"])
    def test_malformed_config_exits_1_naming_the_key(self, workspace, capsys, change, match):
        path = self.small_config(workspace, **change)
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert re.search(match, err)

    def test_non_integer_thread_count_exits_1(self, workspace, capsys, monkeypatch):
        path = self.small_config(workspace)
        monkeypatch.setenv("OPE_DML_THREADS", "abc")
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert "OPE_DML_THREADS must be an integer, got 'abc'" in err


class TestBound:
    def test_bandit_bound(self, tmp_path, capsys):
        behavior, evaluation = bandit_policies()
        (tmp_path / "mdp.json").write_text(json.dumps(mdp_to_dict(bandit_mdp())))
        (tmp_path / "behavior.json").write_text(json.dumps(policy_to_dict(behavior)))
        (tmp_path / "eval.json").write_text(json.dumps(policy_to_dict(evaluation)))
        code, out, _ = run(
            capsys, "bound", "--mdp", str(tmp_path / "mdp.json"),
            "--behavior-policy", str(tmp_path / "behavior.json"),
            "--eval-policy", str(tmp_path / "eval.json"),
        )
        assert code == 0
        assert json.loads(out)["efficiency_bound"] > 0.0

    def test_positive_horizon_rejected(self, workspace, capsys):
        code, _, err = run(
            capsys, "bound", "--mdp", str(workspace / "mdp.json"),
            "--behavior-policy", str(workspace / "behavior.json"),
            "--eval-policy", str(workspace / "eval.json"),
        )
        assert code == 1
        assert "horizon 0" in err


class TestRmse:
    def cells_file(self, tmp_path, with_variance=True):
        cells = [
            {"campaign": "a", "batch": "1", "estimate": 0.55, "actual": 0.5,
             "n_impressions": 10_000},
            {"campaign": "a", "batch": "2", "estimate": 0.42, "actual": 0.45,
             "n_impressions": 20_000},
        ]
        if with_variance:
            for cell in cells:
                cell["ope_variance"] = 0.25
                cell["n_ope"] = 5_000
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(cells))
        return path

    def test_value_and_se(self, tmp_path, capsys):
        path = self.cells_file(tmp_path)
        code, out, _ = run(capsys, "rmse", "--cells", str(path), "--sims", "5000")
        assert code == 0
        report = json.loads(out)
        assert report["relative_rmse"] > 0.0
        assert report["standard_error"] > 0.0
        assert report["sims"] == 5000

    def test_se_omitted_without_variance(self, tmp_path, capsys):
        path = self.cells_file(tmp_path, with_variance=False)
        code, out, _ = run(capsys, "rmse", "--cells", str(path))
        assert code == 0
        assert "standard_error" not in json.loads(out)

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = self.cells_file(tmp_path)
        argv = ["rmse", "--cells", str(path), "--sims", "3000", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(argv + ["--output", str(a)]) == 0
        assert cli_main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_number_estimate_exits_1_naming_the_field(self, tmp_path, capsys):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps([{"campaign": "a", "batch": "1", "estimate": "x",
                                     "actual": 0.5, "n_impressions": 100}]))
        code, _, err = run(capsys, "rmse", "--cells", str(path))
        assert code == 1
        assert "cell: 'estimate' must be a number, got \"x\"" in err

    @pytest.mark.parametrize("change, match", [
        ({"ope_variance": -0.5}, "cell: 'ope_variance' must be >= 0, got -0.5"),
        ({"n_ope": -100}, "cell: 'n_ope' must be positive, got -100"),
        ({"n_ope": 0}, "cell: 'n_ope' must be positive, got 0"),
        ({"online_variance": -0.1}, "cell: 'online_variance' must be >= 0, got -0.1"),
        ({"actual": 1.5}, "cell: the default 'online_variance', actual*(1-actual), "
                          "needs 'actual' in [0, 1]"),
    ], ids=["negative_ope_variance", "negative_n_ope", "zero_n_ope",
            "negative_online_variance", "negative_default_online_variance"])
    def test_bad_variance_input_exits_1_naming_the_field(self, tmp_path, capsys, change, match):
        path = self.cells_file(tmp_path)
        cells = json.loads(path.read_text())
        cells[1].update(change)
        path.write_text(json.dumps(cells))
        code, out, err = run(capsys, "rmse", "--cells", str(path), "--sims", "100")
        assert code == 1
        assert out == ""
        assert match in err

    def test_non_array_file(self, tmp_path, capsys):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"not": "a list"}))
        code, _, err = run(capsys, "rmse", "--cells", str(path))
        assert code == 1
        assert "array" in err


class TestUsage:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1
