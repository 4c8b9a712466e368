"""tools/ab.py: byte checks of its in-process runs, and its verdicts on pairs."""
import argparse
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"

spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

FUNCTIONS = ["write", "ingest", "sample", "chunk", "crossfit"]


@pytest.fixture
def run_ops(monkeypatch, capsys):
    """``ops`` of this tree against ``change``, one round at small sizes: its exit
    code, its report and its standard error."""
    monkeypatch.setattr(ab, "SIZES", {"bench": 300, "distinct": 50, "long": 20, "setup": 500,
                                      "chunk": 50})

    def run(change: Path, ops: list) -> tuple:
        code = ab.ops(argparse.Namespace(parent=ROOT, change=change, op=ops, rounds=1))
        out = capsys.readouterr()
        return code, json.loads(out.out), out.err
    return run


def test_same_tree_on_both_sides_gives_equal_digests(run_ops):
    code, report, err = run_ops(ROOT, FUNCTIONS)
    assert code == 0, err
    assert all(report[op] for op in FUNCTIONS)
    for op in FUNCTIONS:
        for result in report[op].values():
            assert result["equal"] and result["problems"] == []
            assert result["sha256"]["parent"] == result["sha256"]["change"]
            assert len(result["sha256"]["parent"]) == 1
            assert result["bound"] is None
            assert "claim_met" not in result and "within_bound" not in result


def test_a_writer_that_appends_one_byte_exits_1_naming_write(tmp_path, run_ops):
    shutil.copytree(ROOT / "src" / "dml_ope", tmp_path / "src" / "dml_ope",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "dml_ope" / "experiments.py"
    module.write_text(module.read_text() + (
        "\n\n_write_jsonl = write_jsonl\n\n\n"
        "def write_jsonl(data, path):\n"
        "    _write_jsonl(data, path)\n"
        "    with open(path, 'a') as fh:\n"
        "        fh.write(' ')\n"))
    code, report, err = run_ops(tmp_path, ["write"])
    assert code == 1
    assert "write" in err
    assert not any(r["equal"] for r in report["write"].values())


def test_ingest_cases_of_the_bench_rows_read_alike(run_ops):
    # The reordered and the re-spaced file hold bench_25k's values: a reader
    # that gives them other arrays than bench_25k's is wrong.
    code, report, err = run_ops(ROOT, ["ingest"])
    assert code == 0, err
    cases = report["ingest"]
    assert sorted(cases) == ["bench_25k", "bench_25k_keys_reordered",
                             "bench_25k_last_line_respaced", "distinct_5k", "distinct_5k_p",
                             "long_64"]
    for name in ("bench_25k_keys_reordered", "bench_25k_last_line_respaced"):
        assert cases[name]["sha256"] == cases["bench_25k"]["sha256"]


def test_ingest_long_64_takes_the_fast_path_with_every_step_distinct(tmp_path, monkeypatch):
    # The fast path's check of distinct steps and long ids is what the case times.
    monkeypatch.setattr(ab, "SIZES", {**ab.SIZES, "bench": 300, "distinct": 50, "long": 20})
    ope, _ = ab.load_tree(ROOT, "change", False)
    calls, _ = ab.cases("ingest", {side: (ope, None) for side in ab.SIDES}, tmp_path)["long_64"]
    text = calls["change"].args[0].read_bytes()
    assert ope.experiments._canonical_chunk(text) is not None
    data = ope.ingest_jsonl(calls["change"].args[0])
    assert data.states.shape == (20, 64) and np.unique(data.states).size == data.states.size


def test_load_cases_read_the_lift_files_alike(run_ops):
    code, report, err = run_ops(ROOT, ["load"])
    assert code == 0, err
    assert sorted(report["load"]) == ["lift_behavior", "lift_mdp"]
    assert all(r["equal"] and r["problems"] == [] for r in report["load"].values())


def test_a_loader_that_moves_one_transition_exits_1_naming_load(tmp_path, run_ops):
    # One entry deep inside the (240, 2, 240) table, which a repr would elide.
    shutil.copytree(ROOT / "src" / "dml_ope", tmp_path / "src" / "dml_ope",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "dml_ope" / "mdp.py"
    module.write_text(module.read_text() + (
        "\n\n_load_mdp = load_mdp\n\n\n"
        "def load_mdp(path):\n"
        "    mdp = _load_mdp(path)\n"
        "    mdp.transitions[120, 1, 100] += 2.0**-40\n"
        "    return mdp\n"))
    code, report, err = run_ops(tmp_path, ["load"])
    assert code == 1
    assert "load lift_mdp" in err and "lift_behavior" not in err
    assert not report["load"]["lift_mdp"]["equal"] and report["load"]["lift_behavior"]["equal"]


def test_crossfit_digests_the_counts_and_every_fit(tmp_path, run_ops):
    # One entry of the last complement's Q tables moved by 2**-40 changes its digest.
    shutil.copytree(ROOT / "src" / "dml_ope", tmp_path / "src" / "dml_ope",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "dml_ope" / "nuisance.py"
    module.write_text(module.read_text() + (
        "\n\n_all_cross_fits = _cross_fits\n\n\n"
        "def _cross_fits(parts, *args):\n"
        "    fits = list(_all_cross_fits(parts, *args))\n"
        "    fits[-1][1][0, 0, 7, 1] += 2.0**-40\n"
        "    return fits\n"))
    code, report, err = run_ops(tmp_path, ["crossfit"])
    assert code == 1
    assert "crossfit" in err
    assert list(report["crossfit"]) == ["inmem_5e5_k5"]
    assert not report["crossfit"]["inmem_5e5_k5"]["equal"]


def test_only_the_last_line_is_respaced():
    text = '{"steps": [{"s": 0}]}\n{"steps": [{"s": 1}]}\n'
    assert ab.last_line_respaced(text) == '{"steps": [{"s": 0}]}\n{"steps":[{"s":1}]}\n'


HIGHER = {"better": "higher", "bound": 0.24}
LOWER = {"better": "lower", "bound": 0.25}
PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]  # IQR 2.25


def shifted(values: list, by: float, losses: int) -> list:
    """``values`` moved by ``by``, except the first ``losses`` pairs, which lose by 1."""
    return [p - 1.0 if i < losses else p + by for i, p in enumerate(values)]


@pytest.mark.parametrize("losses, claim", [(0, True), (1, True), (2, False)])
def test_claim_needs_nine_tenths_of_pairs_beyond_the_parent_iqr(losses, claim):
    verdict = ab.summarize(HIGHER, PARENT, shifted(PARENT, 5.0, losses))
    assert verdict["change_better_pairs"] == 10 - losses
    assert verdict["parent_iqr"] < 5.0
    assert verdict["claim_met"] is claim
    assert verdict["within_bound"] and not verdict["unresolved"]


def test_claim_not_met_within_the_parent_iqr_or_with_more_failures():
    within_iqr = ab.summarize(HIGHER, PARENT, shifted(PARENT, 1.0, 0))
    assert within_iqr["change_better_pairs"] == 10
    assert within_iqr["change_median"] - within_iqr["parent_median"] < within_iqr["parent_iqr"]
    assert not within_iqr["claim_met"]
    more_failures = ab.summarize(HIGHER, PARENT, shifted(PARENT, 5.0, 0), more_failures=True)
    assert not more_failures["claim_met"]
    assert not ab.summarize(HIGHER, PARENT[:5], shifted(PARENT[:5], 5.0, 0))["claim_met"]


def test_lower_is_better_metrics_win_by_falling():
    verdict = ab.summarize(LOWER, PARENT, shifted(PARENT, -5.0, 0))
    assert verdict["change_better_pairs"] == 10 and verdict["claim_met"]
    worse = ab.summarize(LOWER, PARENT, [1.3 * p for p in PARENT])
    assert not worse["within_bound"] and worse["change_better_pairs"] == 0


def test_a_parent_iqr_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    verdict = ab.summarize(HIGHER, wide, [w + 1.0 for w in wide])
    assert verdict["parent_iqr"] / verdict["parent_median"] > HIGHER["bound"]
    assert verdict["unresolved"] and verdict["within_bound"]
    # Unless every run of the change reads better than every run of the parent.
    assert not ab.summarize(HIGHER, wide, [200.0] * 10)["unresolved"]


def test_pairs_keeps_the_pairs_before_a_failed_run(tmp_path, monkeypatch):
    out = tmp_path / "pairs.json"
    seen = []  # what --out held as each run started

    def run_benchmark(tree, workload, seed, seconds):
        seen.append(json.loads(out.read_text()) if out.is_file() else None)
        if tree.name == "change" and seed == 3:
            return {"exit_code": 1, "stderr": ["Traceback", "RuntimeError: boom"]}
        value = 100.0 + seed + (tree.name == "change")
        return {"attempted": 4, "failed": 0,
                "metrics": {m["name"]: {"value": value} for m in ab.SPEC["end_to_end"]}}

    monkeypatch.setattr(ab, "run_benchmark", run_benchmark)
    args = argparse.Namespace(parent=Path("parent"), change=Path("change"), pairs=3, seed=1,
                              seconds=1.0, workloads=["experiment_noisy_1w"], out=out)
    assert ab.pairs(args) == 1
    # --out is written after every pair, before the next pair's first run.
    written = [s and s["untraced"]["experiment_noisy_1w"]["pairs"] for s in seen]
    assert written == [None, None, 1, 1, 2, 2]
    entry = json.loads(out.read_text())["untraced"]["experiment_noisy_1w"]
    assert entry["pairs"] == 2 and entry["seeds"] == [1, 2]
    assert entry["failed_runs"] == [{"side": "change", "seed": 3, "exit_code": 1,
                                     "stderr": ["Traceback", "RuntimeError: boom"]}]
    assert entry["metrics"]["traj_per_s"]["change_better_pairs"] == 2
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.0}


@pytest.mark.parametrize("failed_seed, claim", [(None, True), (3, False)])
def test_a_failed_run_of_the_change_denies_the_claim(tmp_path, monkeypatch, failed_seed, claim):
    def run_benchmark(tree, workload, seed, seconds):
        if tree.name == "change" and seed == failed_seed:
            return {"exit_code": 1, "stderr": ["RuntimeError: boom"]}
        value = 100.0 + (50.0 if tree.name == "change" else seed % 3)
        return {"attempted": 4, "failed": 0,
                "metrics": {m["name"]: {"value": value} for m in ab.SPEC["end_to_end"]}}

    monkeypatch.setattr(ab, "run_benchmark", run_benchmark)
    out = tmp_path / "pairs.json"
    args = argparse.Namespace(parent=Path("parent"), change=Path("change"), pairs=11, seed=1,
                              seconds=1.0, workloads=["experiment_noisy_1w"], out=out)
    assert ab.pairs(args) == (0 if claim else 1)
    entry = json.loads(out.read_text())["untraced"]["experiment_noisy_1w"]
    traj = entry["metrics"]["traj_per_s"]
    # The change won every pair that ran to the end, by far more than the IQR.
    assert traj["change_better_pairs"] == entry["pairs"] >= 10
    assert traj["change_median"] - traj["parent_median"] > traj["parent_iqr"]
    assert traj["claim_met"] is claim
