"""Time dml-ope's stacked replications: the benchmark against a parent tree, and
the chunk budget of the MSE study.

    python3 tools/time_stacked_replications.py pairs PARENT_TREE CHANGE_TREE --out FILE
        [--workloads W ...] [--pairs 10] [--seconds 25] [--seed 6101]
    python3 tools/time_stacked_replications.py budget TREE --out FILE
        [--budgets 4096 8192 16384 32768] [--rounds 5]

``pairs`` runs each tree's own ``benchmarks/run.py --workload W --seed S
--seconds T --trace 0``, one pair of runs per seed (seeds ``--seed`` on), the
side that runs first alternating from pair to pair. For every end-to-end
metric of ``BENCHMARK.json`` it records both sides' values and reports their
medians, quartiles and IQR, the pairs in which the change was better, and
whether the change's median is within the metric's bound of the parent's.

``budget`` runs the MSE study of the ``experiment_noisy_1w`` workload
(``configs/noisy_nuisance.json`` at 200 replications, one worker) with
``dml_ope.experiments.ROW_BUDGET`` set to each budget. Every run is a fresh
process, so its peak RSS is its own; a round runs each budget once, in
shuffled order, and times three studies after one warm-up. It reports per
budget the median time of a study, the median peak RSS, and the sha256 of the
report, which must not depend on the budget.

Each mode writes its entries (per workload under ``untraced``, or per budget
under ``row_budget_probe``) into the JSON object in ``--out``, keeping the
file's other keys and entries.
"""
from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experiment_noisy_1w", "cli_file_25k", "estimate_inmem_5e5")

# One study in a fresh process: argv is the tree, the budget and the study count.
STUDY = """
import dataclasses, hashlib, json, resource, statistics, sys, time
from pathlib import Path
tree, budget, studies = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
sys.path.insert(0, str(tree / "src"))
from dml_ope import experiments
experiments.ROW_BUDGET = budget
config_path = tree / "configs" / "noisy_nuisance.json"
config = experiments.experiment_config_from_dict(json.loads(config_path.read_text()),
                                                 base_dir=config_path.parent)
config = dataclasses.replace(config, replications=200, seed=7)
times = []
for _ in range(studies + 1):
    start = time.perf_counter()
    report = experiments.run_mse_experiment(config)
    times.append(time.perf_counter() - start)
text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
print(json.dumps({"s": statistics.median(times[1:]),
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON object of one untraced benchmark run of ``tree``."""
    out = subprocess.run([sys.executable, str(tree / "benchmarks" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(metric: dict, parent: list, change: list) -> dict:
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    relative = (c_med - p_med) / p_med
    p_q, c_q = quartiles(parent), quartiles(change)
    return {
        "better": metric["better"], "bound": metric["bound"], "parent": parent,
        "change": change, "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": p_q, "parent_iqr": p_q[1] - p_q[0], "change_quartiles": c_q,
        "relative_change": round(relative, 4),
        "change_better_pairs": sum((c < p) if lower else (c > p)
                                   for p, c in zip(parent, change)),
        "within_bound": (relative if lower else -relative) <= metric["bound"],
    }


def pairs(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        seeds = list(range(args.seed, args.seed + args.pairs))
        for i, seed in enumerate(seeds):
            sides = [("parent", args.parent), ("change", args.change)]
            for side, tree in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(run_benchmark(tree, workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']['traj_per_s']['value']:.0f} traj/s",
                      file=sys.stderr)
        values = {m["name"]: [[r["metrics"][m["name"]]["value"] for r in runs[side]]
                              for side in ("parent", "change")] for m in spec["end_to_end"]}
        section[workload] = {
            "pairs": args.pairs, "seeds": seeds,
            "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted_ops": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "metrics": {m["name"]: summarize(m, *values[m["name"]]) for m in spec["end_to_end"]},
        }
    return {"untraced": section}


def budget(args) -> dict:
    results = {b: [] for b in args.budgets}
    for _ in range(args.rounds):
        for b in random.sample(args.budgets, len(args.budgets)):
            out = subprocess.run([sys.executable, "-c", STUDY, str(args.tree), str(b), "3"],
                                 capture_output=True, text=True, check=True)
            results[b].append(json.loads(out.stdout))
            print(f"budget {b}: {results[b][-1]}", file=sys.stderr)
    return {"row_budget_probe": {
        str(b): {"median_study_s": statistics.median(r["s"] for r in rs),
                 "median_peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rs),
                 "rounds": len(rs), "sha256": sorted({r["sha256"] for r in rs})}
        for b, rs in results.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=6101)
    p.add_argument("--out", type=Path, required=True)
    b = sub.add_parser("budget")
    b.add_argument("tree", type=Path)
    b.add_argument("--budgets", type=int, nargs="+", default=[4096, 8192, 16384, 32768])
    b.add_argument("--rounds", type=int, default=5)
    b.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    section = pairs(args) if args.mode == "pairs" else budget(args)
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    for key, entries in section.items():
        record.setdefault(key, {}).update(entries)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
