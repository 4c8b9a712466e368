import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dml_ope import cli, experiments, mdp_to_dict, policy_to_dict
from dml_ope.cli import cli_main

from helpers import (NOISY_CONFIG, bandit_mdp, bandit_policies, noisy_lift, three_state_mdp,
                     three_state_policies, unusual_input)

_MDP = mdp_to_dict(three_state_mdp())


def too_big(name, value):
    """The pattern of the error for a count whose arrays numpy refuses, with
    numpy's own reason left open."""
    return re.escape(f"{name} must size arrays numpy can allocate (") + r".+" + re.escape(
        f"), got {value}")


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

    def test_lift_bytes_pinned(self, tmp_path, capsys):
        # The JSONL one seed writes on the 240-state lift of configs/noisy_nuisance.json.
        mdp, behavior, _ = noisy_lift()
        (tmp_path / "mdp.json").write_text(json.dumps(mdp_to_dict(mdp)))
        (tmp_path / "behavior.json").write_text(json.dumps(policy_to_dict(behavior)))
        out = tmp_path / "data.jsonl"
        code, _, _ = run(
            capsys, "simulate", "--mdp", str(tmp_path / "mdp.json"),
            "--policy", str(tmp_path / "behavior.json"),
            "--n", "300", "--seed", "5", "--output", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d88b4e9be786b0f28a1c3ebbea2f6fcf0dd713a1a5b534b45dc5a4387e29d70c")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_trajectories_exits_1_naming_the_flag(self, workspace, capsys, n):
        out = workspace / "x.jsonl"
        code, _, err = run(
            capsys, "simulate", "--mdp", str(workspace / "mdp.json"),
            "--policy", str(workspace / "behavior.json"), "--n", n, "--output", str(out),
        )
        assert code == 1
        assert f"error: --n must be >= 1, got {n}" in err
        assert not out.exists()

    # Counts numpy refuses at the shape: beyond an intp, and (N, 3) int64 columns
    # past numpy's byte limit.
    @pytest.mark.parametrize("n", [10**20, 2**59])
    def test_huge_count_exits_1_naming_the_flag(self, workspace, capsys, n):
        out = workspace / "x.jsonl"
        code, _, err = run(
            capsys, "simulate", "--mdp", str(workspace / "mdp.json"),
            "--policy", str(workspace / "behavior.json"), "--n", str(n), "--output", str(out),
        )
        assert code == 1
        assert re.fullmatch(f"error: {too_big('--n', n)}\n", err)
        assert not out.exists()

    def test_policy_shape_mismatch_names_the_flag(self, workspace, capsys):
        (workspace / "four.json").write_text(json.dumps({"table": [[0.5, 0.5]] * 4}))
        code, out, err = run(
            capsys, "simulate", "--mdp", str(workspace / "mdp.json"),
            "--policy", str(workspace / "four.json"), "--n", "5",
            "--output", str(workspace / "x.jsonl"),
        )
        assert code == 1
        assert out == ""
        assert err == "error: --policy shape (4, 2) does not match MDP (3, 2)\n"

    def test_policy_with_unknown_key_exits_1_naming_the_file(self, workspace, capsys):
        path = workspace / "extra.json"
        path.write_text(json.dumps({"table": [[0.5, 0.5]] * 3, "x": 1}))
        code, out, err = run(
            capsys, "simulate", "--mdp", str(workspace / "mdp.json"), "--policy", str(path),
            "--n", "5", "--output", str(workspace / "x.jsonl"),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: policy spec: unknown keys ['x']\n"

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

    def test_reports_do_not_depend_on_the_other_estimators(self, workspace, capsys):
        # The dml and dr_half reports are the same whichever --estimator flags
        # come beside them, in any order.
        data = self.simulate(workspace)

        def reports(*names):
            argv = ["evaluate", "--data", str(data),
                    "--eval-policy", str(workspace / "eval.json"),
                    "--discount", "0.9", "--seed", "3"]
            for name in names:
                argv += ["--estimator", name]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            return {r["estimator"]: r for r in json.loads(out)["reports"]}

        alone = {**reports("dml"), **reports("dr_half")}
        for names in [("dml", "dr_half"), ("dr_half", "dml"), ("dr_half", "ipw"),
                      ("dm", "dr_half", "ipw", "dml", "dr_full")]:
            listed = reports(*names)
            assert {name: listed[name] for name in alone if name in names} == {
                name: alone[name] for name in alone if name in names}

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
        assert "--estimator: unknown estimator 'magic'" in err

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

    def test_non_finite_scores_exit_1_naming_the_estimator(self, workspace, capsys):
        # The weight 0.8 / 0.6 on a reward of 1.7e308 overflows the IPW score.
        lines = [{"steps": [{"s": 0, "a": 0, "r": 1.7e308}]},
                 {"steps": [{"s": 1, "a": 0, "r": 0.0}]}]
        code, out, err = self.evaluate_file(
            workspace, capsys, lines, "--behavior-policy", str(workspace / "behavior.json"),
            "--estimator", "ipw",
        )
        assert code == 1
        assert out == ""
        assert err == "error: ipw scores are not finite: their mean is inf\n"

    def test_infinite_variance_exits_1_naming_the_estimator(self, workspace, capsys):
        # On-policy rows: the scores 1e200 and -1e200 have mean 0 and an
        # overflowing variance, which JSON cannot hold.
        lines = [{"steps": [{"s": 0, "a": 0, "r": 1e200}]},
                 {"steps": [{"s": 0, "a": 0, "r": -1e200}]}]
        code, out, err = self.evaluate_file(
            workspace, capsys, lines, "--behavior-policy", str(workspace / "eval.json"),
            "--estimator", "ipw",
        )
        assert code == 1
        assert out == ""
        assert err == "error: ipw scores are not finite: their variance is inf\n"

    @pytest.mark.parametrize("flag, value, rule", [
        ("--discount", "1.5", "must lie in [0, 1]"),
        ("--discount", "-0.1", "must lie in [0, 1]"),
        ("--discount", "nan", "must lie in [0, 1]"),
        ("--folds", "1", "must lie in [2, 10] for 10 rows"),
        ("--folds", "11", "must lie in [2, 10] for 10 rows"),
        ("--level", "nan", "must lie in (0, 1)"),
        ("--level", "0", "must lie in (0, 1)"),
        ("--level", "1", "must lie in (0, 1)"),
    ], ids=["1.5", "-0.1", "nan", "folds_1", "folds_above_rows", "level_nan", "level_0",
            "level_1"])
    def test_discount_outside_unit_interval(self, workspace, capsys, flag, value, rule):
        data = self.simulate(workspace, n=10)
        # IPW splits no folds, so only the flag check can reject a bad --folds.
        args = {"--discount": "0.9", "--estimator": "ipw", flag: value}
        code, out, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"),
            *(word for item in args.items() for word in item),
        )
        assert code == 1
        assert out == ""
        assert f"error: {flag} " in err and rule in err

    def test_discount_checked_before_any_file_is_read(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "evaluate", "--data", str(tmp_path / "missing.jsonl"),
            "--eval-policy", str(tmp_path / "missing.json"), "--discount", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --discount ") and "must lie in [0, 1]" in err
        assert "missing" not in err

    @pytest.mark.parametrize("estimator, message", [
        ("ipw", "zero behavior propensity on a realized action"),
        ("dml", "behavior policy assigns zero probability to action 1 in state 0 "
                "while the evaluation policy does not"),
    ])
    def test_support_violation_exits_1(self, workspace, capsys, estimator, message):
        # The data take action 1, which the known behavior policy never takes.
        data = self.simulate(workspace, n=30)
        (workspace / "det.json").write_text(json.dumps({"table": [[1.0, 0.0]] * 3}))
        code, out, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"),
            "--behavior-policy", str(workspace / "det.json"),
            "--discount", "0.9", "--estimator", estimator,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_unsmoothed_estimated_behavior_support_violation_exits_1(self, workspace, capsys):
        # Logged by a policy that never takes action 1, so --alpha 0 estimates
        # probability 0 where the evaluation policy has mass.
        (workspace / "det.json").write_text(json.dumps({"table": [[1.0, 0.0]] * 3}))
        data = workspace / "det.jsonl"
        assert cli_main([
            "simulate", "--mdp", str(workspace / "mdp.json"),
            "--policy", str(workspace / "det.json"), "--n", "30", "--output", str(data),
        ]) == 0
        code, out, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9", "--alpha", "0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: behavior policy assigns zero probability to action 1 ")

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_data_exits_1_naming_the_path(self, workspace, capsys, kind):
        path = workspace / "bad.jsonl"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"steps": [{"s": 0, "a": 0, "r": 1.0}]}\n{"steps": "\xff"}\n')
        code, out, err = run(
            capsys, "evaluate", "--data", str(path),
            "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    def test_deeply_nested_line_exits_1_naming_the_line(self, workspace, capsys):
        path = workspace / "nested.jsonl"
        path.write_text('{"steps": [{"s": 0, "a": 0, "r": 1.0}]}\n'
                        '{"steps": [{"s": 0, "a": 0, "r": ' + "[" * 5_000 + "]" * 5_000 + "}]}\n")
        code, out, err = run(
            capsys, "evaluate", "--data", str(path),
            "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9",
        )
        assert (code, out, err) == (1, "", f"error: {path}: line 2: JSON nested too deeply\n")

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_non_finite_alpha_exits_1(self, workspace, capsys, alpha):
        data = self.simulate(workspace, n=10)
        code, out, err = run(
            capsys, "evaluate", "--data", str(data),
            "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9",
            "--alpha", alpha,
        )
        assert code == 1
        assert out == ""
        assert f"error: --alpha must be finite and >= 0, got {float(alpha)}" in err

    def test_alpha_checked_before_any_file_is_read(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "evaluate", "--data", str(tmp_path / "missing.jsonl"),
            "--eval-policy", str(tmp_path / "missing.json"), "--discount", "0.9",
            "--alpha", "-1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --alpha must be finite and >= 0, got -1.0")
        assert "missing" not in err


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
        ({"noise_states": {"count": 2**63}}, too_big("noise_states: 'count'", 2**63)),
        ({"n_trajectories": 10**20}, too_big("experiment config: 'n_trajectories'", 10**20)),
        ({"replications": 2**63}, too_big("experiment config: 'replications'", 2**63)),
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
        ({"level": 1.5}, "experiment config: 'level' must lie in \\(0, 1\\), got 1.5"),
        # The ground truth is always the exact DP value; there is nothing to choose.
        ({"ground_truth": {"method": "dp_exact"}},
         "experiment config: unknown keys \\['ground_truth'\\]"),
        ({"estimators": ["ipw"], "nuisance": {"k_folds": 1}},
         "nuisance config: 'k_folds' must be >= 2, got 1"),
        ({"replications": 0}, "experiment config: 'replications' must be >= 1, got 0"),
        ({"n_trajectories": 3, "nuisance": {"k_folds": 4}},
         "experiment config: 'n_trajectories' must be >= k_folds \\(4\\), got 3"),
        ({"mdp": 5}, "mdp must be a path or an inline object"),
        ({"mdp": {**_MDP, "rewards": "x"}},
         "MDP spec: 'rewards' must be an array with one row per state"),
        ({"mdp": {**_MDP, "rewards": [_MDP["rewards"][0][:1], *_MDP["rewards"][1:]]}},
         "rewards\\[0\\]: expected one entry per action"),
        ({"mdp": {**_MDP, "rewards": [[{"support": [1.0]}, _MDP["rewards"][0][1]],
                                      *_MDP["rewards"][1:]]}},
         "rewards\\[0\\]\\[0\\] needs numeric 'support' and 'probs'"),
        # A negative seed is rejected before any file is read: the MDP file is missing.
        ({"seed": -1, "mdp": "nope.json"}, "experiment config: 'seed' must be >= 0, got -1"),
        ({"noise_states": {"count": 2, "seed": -1}, "mdp": "nope.json"},
         "noise_states: 'seed' must be >= 0, got -1"),
        ({"nuisance": {"smoothing_alpha": -1}, "mdp": "nope.json"},
         "nuisance config: 'smoothing_alpha' must be finite and >= 0, got -1.0"),
        # A component file that does not exist is named by its key and its path.
        ({"mdp": "x"}, r"config\.json: experiment config: 'mdp': no file at \S*/x\n"),
        ({"behavior_policy": "x"},
         r"config\.json: experiment config: 'behavior_policy': no file at \S*/x\n"),
        ({"evaluation_policy": "x"},
         r"config\.json: experiment config: 'evaluation_policy': no file at \S*/x\n"),
    ], ids=["missing_n_trajectories", "string_n_trajectories", "non_object_nuisance",
            "top_level_k_folds", "nuisance_seed", "fractional_n_trajectories",
            "boolean_replications", "negative_noise_count", "huge_noise_count",
            "huge_n_trajectories", "huge_replications", "discount_above_1",
            "fractional_mdp_num_states", "number_estimators", "string_estimators",
            "string_mdp_transitions", "string_policy_table", "nuisance_fit_subsample",
            "empty_estimators", "repeated_estimators", "level_above_1", "ground_truth_block",
            "one_fold_ipw_only", "zero_replications", "fewer_trajectories_than_folds",
            "number_mdp", "string_mdp_rewards", "short_mdp_rewards_row",
            "mdp_reward_cell_without_probs", "negative_seed", "negative_noise_seed",
            "negative_smoothing_alpha",
            "missing_mdp_file", "missing_behavior_file", "missing_evaluation_file"])
    def test_malformed_config_exits_1_naming_the_key(self, workspace, capsys, change, match):
        path = self.small_config(workspace, **change)
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert re.search(match, err)

    @pytest.mark.parametrize("key", ["behavior_policy", "evaluation_policy"])
    def test_policy_shape_checked_against_the_unlifted_mdp(self, workspace, capsys, key):
        path = self.small_config(workspace, **{key: {"table": [[0.2, 0.3, 0.5]] * 3},
                                               "noise_states": {"count": 2}})
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err == (f"error: {path}: experiment config: '{key}' shape (3, 3) "
                       "does not match MDP (3, 2)\n")

    def test_non_integer_thread_count_exits_1(self, workspace, capsys, monkeypatch):
        path = self.small_config(workspace)
        monkeypatch.setenv("OPE_DML_THREADS", "abc")
        code, _, err = run(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert "OPE_DML_THREADS must be an integer, got 'abc'" in err


class TestNoisyConfigPins:
    """The ``experiment`` report on configs/noisy_nuisance.json at 37 replications,
    pinned to the byte for both behavior sources and two fold counts, at one and
    at two workers."""

    DIGESTS = {
        ("known", 2): "f4b5700fd137e11e9299d624bdd3b40356f5c0c7d52245bbee26feb1e1e10ff2",
        ("known", 3): "79d7e005b3d8a32ab4742518b95d7081a906d862215ad2bc992635635f23a5bb",
        ("estimated", 2): "3e008687e96237cac2ff10cef27a9c858b6c6151a73ea29bd30467b9f6396305",
        ("estimated", 3): "b014bfe320eb9c5d76c6c34cfac7c3c25fee7e0e22b3aff9b0028c7d4c746116",
    }

    @staticmethod
    def report(tmp_path, capsys, behavior: str, k_folds: int) -> bytes:
        config = json.loads(NOISY_CONFIG.read_text())
        config["replications"] = 37
        config["nuisance"].update(behavior_policy=behavior, k_folds=k_folds)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "experiment", "--config", str(path))
        assert (code, err) == (0, "")
        return out.encode()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("behavior, k_folds", list(DIGESTS))
    def test_report_digest(self, tmp_path, capsys, monkeypatch, behavior, k_folds, threads):
        monkeypatch.setenv("OPE_DML_THREADS", threads)
        out = self.report(tmp_path, capsys, behavior, k_folds)
        assert hashlib.sha256(out).hexdigest() == self.DIGESTS[behavior, k_folds]

    @pytest.mark.parametrize("replications", [1, 3, 37])
    @pytest.mark.parametrize("behavior, k_folds", list(DIGESTS))
    def test_chunk_size_leaves_the_report(self, tmp_path, capsys, monkeypatch, behavior, k_folds,
                                          replications):
        # Chunks of 1 replication, of 3 with a remainder of 1, and one chunk of all 37.
        monkeypatch.setenv("OPE_DML_THREADS", "1")
        monkeypatch.setattr(experiments, "ROW_BUDGET", replications * 1000)
        out = self.report(tmp_path, capsys, behavior, k_folds)
        assert hashlib.sha256(out).hexdigest() == self.DIGESTS[behavior, k_folds]


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

    @pytest.mark.parametrize("flag", ["--behavior-policy", "--eval-policy"])
    def test_policy_shape_mismatch_names_the_flag(self, tmp_path, capsys, flag):
        behavior, evaluation = bandit_policies()
        (tmp_path / "mdp.json").write_text(json.dumps(mdp_to_dict(bandit_mdp())))
        (tmp_path / "behavior.json").write_text(json.dumps(policy_to_dict(behavior)))
        (tmp_path / "eval.json").write_text(json.dumps(policy_to_dict(evaluation)))
        (tmp_path / "three.json").write_text(json.dumps({"table": [[0.5, 0.5]] * 3}))
        args = {"--behavior-policy": str(tmp_path / "behavior.json"),
                "--eval-policy": str(tmp_path / "eval.json"), flag: str(tmp_path / "three.json")}
        code, out, err = run(capsys, "bound", "--mdp", str(tmp_path / "mdp.json"),
                             *(word for item in args.items() for word in item))
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} shape (3, 2) does not match MDP (2, 2)\n"

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

    def test_impressions_summing_past_the_largest_double(self, tmp_path, capsys):
        path = self.cells_file(tmp_path)
        cells = json.loads(path.read_text())
        for cell in cells:
            cell["n_impressions"] = 1e308
        path.write_text(json.dumps(cells))
        code, out, _ = run(capsys, "rmse", "--cells", str(path), "--sims", "100")
        assert code == 0
        assert json.loads(out)["relative_rmse"] == pytest.approx(0.0849836585598798, rel=1e-12)

    def test_non_number_estimate_exits_1_naming_the_field(self, tmp_path, capsys):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps([{"campaign": "a", "batch": "1", "estimate": "x",
                                     "actual": 0.5, "n_impressions": 100}]))
        code, _, err = run(capsys, "rmse", "--cells", str(path))
        assert code == 1
        assert "cell: 'estimate' must be a number, got \"x\"" in err

    @pytest.mark.parametrize("change, match", [
        ({"campaign": {"x": [1]}}, "cell: 'campaign' must be a string, got {\"x\": [1]}"),
        ({"batch": 7}, "cell: 'batch' must be a string, got 7"),
    ], ids=["object_campaign", "number_batch"])
    def test_non_string_label_exits_1_naming_the_field(self, tmp_path, capsys, change, match):
        path = self.cells_file(tmp_path)
        cells = json.loads(path.read_text())
        cells[1].update(change)
        path.write_text(json.dumps(cells))
        code, out, err = run(capsys, "rmse", "--cells", str(path), "--sims", "100")
        assert code == 1
        assert out == ""
        assert err.strip() == f"error: {path}: {match}"

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

    @pytest.mark.parametrize("with_variance", [True, False])
    def test_no_sims_exits_1_naming_the_flag(self, tmp_path, capsys, with_variance):
        path = self.cells_file(tmp_path, with_variance=with_variance)
        code, out, err = run(capsys, "rmse", "--cells", str(path), "--sims", "0")
        assert code == 1
        assert out == ""
        assert "error: --sims must be >= 1, got 0" in err

    @pytest.mark.parametrize("sims", [2**63, 2**62])
    def test_huge_sims_exits_1_naming_the_flag(self, tmp_path, capsys, sims):
        # Two cells: a (sims, 2) array of draws, which numpy refuses at the shape.
        path = self.cells_file(tmp_path)
        code, out, err = run(capsys, "rmse", "--cells", str(path), "--sims", str(sims))
        assert code == 1
        assert out == ""
        assert re.fullmatch(f"error: {too_big('--sims', sims)}\n", err)

    def test_non_array_file(self, tmp_path, capsys):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"not": "a list"}))
        code, _, err = run(capsys, "rmse", "--cells", str(path))
        assert code == 1
        assert "array" in err


class TestOutputPath:
    """Every subcommand that writes a report or a dataset names an output path it
    cannot open and exits 1, after its work and before anything is written. A
    path under a regular file, read or written, exits 1 naming it."""

    @staticmethod
    def argv(workspace, command):
        bandit = workspace / "bandit.json"
        bandit.write_text(json.dumps(mdp_to_dict(bandit_mdp())))
        (workspace / "bandit_behavior.json").write_text(
            json.dumps(policy_to_dict(bandit_policies()[0])))
        (workspace / "bandit_eval.json").write_text(
            json.dumps(policy_to_dict(bandit_policies()[1])))
        (workspace / "config.json").write_text(json.dumps({
            "mdp": "mdp.json", "behavior_policy": "behavior.json",
            "evaluation_policy": "eval.json", "n_trajectories": 40, "replications": 3}))
        (workspace / "cells.json").write_text(json.dumps([
            {"campaign": "a", "batch": "1", "estimate": 0.55, "actual": 0.5,
             "n_impressions": 10_000}]))
        simulate = ["simulate", "--mdp", str(workspace / "mdp.json"),
                    "--policy", str(workspace / "behavior.json"), "--n", "20"]
        assert cli_main(simulate + ["--output", str(workspace / "data.jsonl")]) == 0
        return {
            "simulate": simulate,
            "evaluate": ["evaluate", "--data", str(workspace / "data.jsonl"),
                         "--eval-policy", str(workspace / "eval.json"), "--discount", "0.9"],
            "experiment": ["experiment", "--config", str(workspace / "config.json")],
            "bound": ["bound", "--mdp", str(bandit),
                      "--behavior-policy", str(workspace / "bandit_behavior.json"),
                      "--eval-policy", str(workspace / "bandit_eval.json")],
            "rmse": ["rmse", "--cells", str(workspace / "cells.json"), "--sims", "100"],
        }[command]

    @pytest.mark.parametrize("kind, reason", [
        ("directory", "[Errno 21] Is a directory"),
        ("missing_parent", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing_parent"])
    @pytest.mark.parametrize("command", ["simulate", "evaluate", "experiment", "bound", "rmse"])
    def test_unwritable_output_exits_1_naming_the_path(self, workspace, capsys, command, kind,
                                                       reason):
        argv = self.argv(workspace, command)
        output = workspace / "out"
        if kind == "directory":
            output.mkdir()
        else:
            output = output / "report.json"
        code, out, err = run(capsys, *argv, "--output", str(output))
        assert code == 1
        assert out == ""
        assert err == f"error: {reason}: '{output}'\n"

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--output"), ("evaluate", "--data"), ("evaluate", "--output"),
        ("experiment", "--config"), ("bound", "--mdp"),
    ], ids=["simulate_output", "evaluate_data", "evaluate_output", "experiment_config",
            "bound_mdp"])
    def test_path_under_a_regular_file_exits_1_naming_it(self, workspace, capsys, command,
                                                        flag):
        argv = self.argv(workspace, command)
        path = workspace / "eval.json" / "x.json"  # eval.json is a regular file
        if flag in argv:
            argv[argv.index(flag) + 1] = str(path)
        else:
            argv += [flag, str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: [Errno 20] Not a directory: '{path}'\n"


class TestUsage:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    # A negative seed is rejected by name before any file is read, so every path
    # below is missing on purpose.
    @pytest.mark.parametrize("argv", [
        ["simulate", "--mdp", "nope.json", "--policy", "nope.json", "--n", "5",
         "--output", "x.jsonl"],
        ["evaluate", "--data", "nope.jsonl", "--eval-policy", "nope.json", "--discount", "0.9"],
        ["rmse", "--cells", "nope.json"],
    ], ids=["simulate", "evaluate", "rmse"])
    def test_negative_seed_exits_1_before_reading_files(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *[str(tmp_path / word) if word.startswith("nope") else word
                                       for word in argv], "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "error: --seed must be >= 0, got -1" in err


class TestErrorExits:
    @pytest.mark.parametrize("key, message", [
        ("initial_dist", "initial_dist has wrong shape"),
        ("transitions", "transitions has wrong shape"),
    ])
    def test_mdp_array_of_wrong_shape_exits_1(self, workspace, capsys, key, message):
        spec = json.loads((workspace / "mdp.json").read_text())
        spec[key] = spec[key][:-1]
        bad = workspace / "bad_mdp.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run(capsys, "simulate", "--mdp", str(bad),
                             "--policy", str(workspace / "behavior.json"), "--n", "5",
                             "--output", str(workspace / "x.jsonl"))
        assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")

    @pytest.mark.parametrize("impressions", [0, -10])
    def test_impressions_not_positive_exits_1(self, tmp_path, capsys, impressions):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps([{"campaign": "a", "batch": "1", "estimate": 0.5,
                                     "actual": 0.5, "n_impressions": impressions}]))
        code, out, err = run(capsys, "rmse", "--cells", str(path))
        assert (code, out, err) == (1, "", f"error: {path}: n_impressions must be positive\n")

    def test_unexpected_exception_exits_2(self, workspace, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
        code, out, err = run(capsys, "simulate", "--mdp", str(workspace / "mdp.json"),
                             "--policy", str(workspace / "behavior.json"), "--n", "5",
                             "--output", str(workspace / "x.jsonl"))
        assert (code, out, err) == (2, "", "runtime error: boom\n")


SRC = Path(__file__).resolve().parents[1] / "src"


def reader_argv(workspace, which: str, path) -> list:
    """A command that reads ``path`` with one of the four JSON file readers."""
    simulate = ["simulate", "--mdp", str(workspace / "mdp.json"),
                "--policy", str(workspace / "behavior.json"), "--n", "5",
                "--output", str(workspace / "x.jsonl")]
    return {
        "mdp": [*simulate[:2], str(path), *simulate[3:]],
        "policy": [*simulate[:4], str(path), *simulate[5:]],
        "config": ["experiment", "--config", str(path)],
        "cells": ["rmse", "--cells", str(path)],
    }[which]


_READERS = ["mdp", "policy", "config", "cells"]
_SUM_INF = "transitions[{}][0] sums to inf, expected 1"
_NO_ROWS = "MDP spec: 'rewards' must be an array with one row per state"
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
_BAD_BYTE = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
_LINE_4 = {  # line and column after universal newlines, so CRLF and CR read alike
    "mdp": "Expecting property name enclosed in double quotes: line 4 column 16 (char 54)",
    "policy": "Expecting value: line 4 column 9 (char 26)",
    "config": "Expecting property name enclosed in double quotes: line 4 column 21 (char 51)",
    "cells": "Expecting property name enclosed in double quotes: line 4 column 17 (char 40)",
}
# Per case and reader, the message after "error: <path>: ", as json.load gives it.
_UNUSUAL_INPUTS = {
    "nan_literal": {
        "mdp": "MDP spec: 'discount' must be finite, got NaN",
        "policy": "policy row 0 sums to nan, expected 1",
        "config": "experiment config: 'discount' must be finite, got NaN",
        "cells": "cell: 'estimate' must be finite, got NaN",
    },
    "infinity_literal": {
        "mdp": _SUM_INF.format(0),
        "policy": "policy row 0 sums to inf, expected 1",
        "config": _SUM_INF.format(0),
        "cells": "cell: 'actual' must be finite, got Infinity",
    },
    "overflow_1e400": {
        "mdp": _SUM_INF.format(1),
        "policy": "policy row 1 sums to inf, expected 1",
        "config": "nuisance config: 'smoothing_alpha' must be finite, got Infinity",
        "cells": "cell: 'n_impressions' must be finite, got Infinity",
    },
    "int_20_digits": {
        "mdp": _NO_ROWS,
        "policy": "policy row 1 sums to 1.2345678901234567e+19, expected 1",
        "config": _NO_ROWS,
        "cells": "cell: 'campaign' must be a string, got 12345678901234567890",
    },
    "negative_int_20_digits": {
        "mdp": "initial_dist has negative entries",
        "policy": "policy row 2 has negative entries",
        "config": "initial_dist has negative entries",
        "cells": "cell: 'n_ope' must be positive, got -1.2345678901234567e+19",
    },
    "lone_surrogate_key": {
        which: f"{where}: unknown keys ['\\ud800']" for which, where in zip(
            _READERS, ["MDP spec", "policy spec", "experiment config", "cell"])
    },
    "bom": dict.fromkeys(_READERS, _BOM),
    "invalid_utf8_byte": {which: _BAD_BYTE.format(at)
                          for which, at in zip(_READERS, [510, 44, 745, 73])},
    "crlf_syntax_error": _LINE_4,
    "cr_syntax_error": _LINE_4,
}


class TestJsonInputFiles:
    """The MDP, policy, experiment config and cells files share one reader."""

    @pytest.mark.parametrize("content", [None, b'{"table": "\xff"}', b"{not json",
                                         b"[" * 100_000, b"[" * 100_000 + b"]" * 100_000],
                             ids=["directory", "not_utf8", "not_json", "nested_open",
                                  "nested_closed"])
    @pytest.mark.parametrize("which", ["mdp", "policy", "config", "cells"])
    def test_bad_file_exits_1_naming_the_path(self, workspace, capsys, which, content):
        bad = workspace / "bad.json"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        simulate = ["simulate", "--mdp", str(workspace / "mdp.json"),
                    "--policy", str(workspace / "behavior.json"), "--n", "5",
                    "--output", str(workspace / "x.jsonl")]
        argv = {
            "mdp": [*simulate[:2], str(bad), *simulate[3:]],
            "policy": [*simulate[:4], str(bad), *simulate[5:]],
            "config": ["experiment", "--config", str(bad)],
            "cells": ["rmse", "--cells", str(bad)],
        }[which]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", list(_UNUSUAL_INPUTS))
    @pytest.mark.parametrize("which", _READERS)
    def test_unusual_input_gives_the_json_module_message(self, workspace, capsys, which, case):
        path = workspace / "input.json"
        path.write_bytes(unusual_input(which, case))
        code, out, err = run(capsys, *reader_argv(workspace, which, path))
        assert (code, out, err) == (1, "", f"error: {path}: {_UNUSUAL_INPUTS[case][which]}\n")

    @pytest.mark.parametrize("case", ["valid", "crlf_syntax_error"])
    def test_mdp_read_from_a_pipe(self, workspace, capsys, case):
        # /dev/stdin is read once, as a file is: same report, same message.
        content = (workspace / "mdp.json").read_bytes()
        if case != "valid":
            content = unusual_input("mdp", case)
        (workspace / "mdp.json").write_bytes(content)
        argv = reader_argv(workspace, "mdp", workspace / "mdp.json")
        code, out, err = run(capsys, *argv)
        from_file = (workspace / "x.jsonl").read_bytes() if code == 0 else None
        argv[2] = "/dev/stdin"
        piped = subprocess.run([sys.executable, "-m", "dml_ope.cli", *argv], input=content,
                               capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert piped.returncode == code
        assert piped.stdout.decode() == out
        assert piped.stderr.decode() == err.replace(str(workspace / "mdp.json"), "/dev/stdin")
        if case == "valid":
            assert code == 0 and (workspace / "x.jsonl").read_bytes() == from_file
