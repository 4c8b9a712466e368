"""Time a dml-ope change against its parent tree: in benchmark pairs, or in one process.

    python3 tools/ab.py pairs PARENT_TREE CHANGE_TREE --out FILE [--workloads W ...]
        [--pairs 10] [--seed 6101] [--seconds 25]
    python3 tools/ab.py ops PARENT_TREE CHANGE_TREE --op NAME [NAME ...] [--rounds 15]

Both modes run the two trees in pairs, the side that runs first alternating
from pair to pair, so that each side runs first in half the pairs (a seeded
shuffle of 15 rounds can put one side first 11 times, and any gain from
running first would then tilt the wins). Both summarize a metric alike: each
side's values, medians and quartiles, the pairs the change won (ties count
for neither), and, for a metric with a bound, verdicts.

``pairs`` runs each tree's own ``benchmarks/run.py --workload W --seed S
--seconds T --trace 0``, one pair of runs per seed (seeds ``--seed`` on). For
every end-to-end metric of ``BENCHMARK.json`` it gives three verdicts:

- ``claim_met``: at least ten pairs, the change won nine tenths of them, its
  median is better than the parent's by more than the parent's IQR, it
  failed no larger share of operations, and no run of the change exited
  non-zero;
- ``within_bound``: the change's median is no worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the parent's IQR is wider than the bound, relative to its
  median, and not every run of the change is better than every parent run.

The entries go per workload under ``untraced`` in the JSON object in
``--out``, which keeps its other keys and is written again after every pair.
A run that exits non-zero is recorded under ``failed_runs`` with its side,
seed, exit code and last lines of standard error, its pair is left out of the
values summarized (a failed run of the change still denies ``claim_met``),
and the tool exits 1 once every pair has run.

``ops`` imports each tree's ``src/dml_ope`` into this process under its own
name (every import inside the package is relative) and runs each operation
``--rounds`` times per tree. An operation is a workload of ``BENCHMARK.json``, whose ``setup``, ``op`` and
``check`` come from the tree's own ``benchmarks/run.py``, or one of:

- ``write``: ``write_jsonl`` of ``bench_25k``, the rows of ``cli_file_25k``
  (25,000 trajectories of the 240-state lift of ``configs/noisy_nuisance.json``
  under its behavior policy, seed 7, with propensities), and of
  ``distinct_5k_p`` and ``distinct_5k``, 5,000 x 4 cells in which every label,
  reward and propensity is distinct, with and without propensities, and of
  ``long_64``, one block of 4,096 x 64 such cells with propensities (no step
  repeats, and the fields' distinct counts multiply past 2**63, so that no one
  int64 key holds a step);
- ``ingest``: ``ingest_jsonl`` of those four files, written by the change
  tree, but with ``long_64``'s rewards and propensities rounded to 1 and 2
  decimals: its steps stay distinct, and its few distinct float texts let the
  fast path read it, so that the case times the check on distinct steps and
  long ids;
  of ``bench_25k_keys_reordered``, ``bench_25k`` with each step's keys in
  reverse order (a valid file that the writer does not write); and of
  ``bench_25k_last_line_respaced``, ``bench_25k`` with no space after its last
  line's colons, so that only its last block is not the writer's (the worst
  case of the fast path, which reads every block and then the whole file again
  line by line);
- ``load``: ``load_mdp`` of ``lift_mdp``, the lift's MDP file, and
  ``load_policy`` of ``lift_behavior``, its behavior policy's, both written by
  the change tree as ``cli_file_25k`` writes them (``json.dumps``, one line);
- ``sample``: ``setup_10x50k``, the set-up of ``estimate_inmem_5e5``: ten
  ``sample_dataset`` calls of 50,000 trajectories from one generator (seed 7);
- ``chunk``: ``chunk_8x1000``, one stacked chunk of the MSE study,
  ``mdp._sample`` of 1,000 trajectories for each of the eight children of
  seed 9;
- ``crossfit``: ``inmem_5e5_k5``, the count and cross-fit layer of
  ``estimate_inmem_5e5``: ``nuisance._count`` of the rows of ``setup_10x50k``
  (500,000 trajectories) and ``nuisance._cross_fits`` of their five folds (drawn
  with seed 7), their row sets built as ``_estimate`` builds them, outside the
  timed call; the counts and every fit are digested. ``lift_40k_k5`` is the
  same of 40,000 trajectories of the lift (seed 7), whose 8,000-row folds each
  count sorted while their total takes the dense route.

Each tree builds its own lift. The report gives per operation the summary of
each call's milliseconds, with no verdict (an operation has no bound, and
unscaled wall time on a shared machine is too noisy to claim from), the
sha256 of each tree's outputs (a file's bytes, or the dtype, shape and bytes
of each array and each generator's next draw) and the problems a workload's
``check`` found. The tool exits 1, naming the operation, if the two trees'
outputs differ or a check fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CONFIG = ROOT / "configs" / "noisy_nuisance.json"
SIDES = ("parent", "change")
SEED = 7
SIZES = {"bench": 25_000, "distinct": 5_000, "long": 4_096, "setup": 50_000, "chunk": 1_000,
         "lift": 40_000}
STDERR_LINES = 20
OP_MS = {"better": "lower", "bound": None}  # an operation's wall time


# ---------------------------------------------------------------------------
# The summary and the order of sides that both modes use


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(metric: dict, parent: list, change: list, more_failures: bool = False) -> dict:
    """Paired values of one metric, their summary and, when it has a ``bound``,
    the verdicts ``claim_met``, ``within_bound`` and ``unresolved``."""
    lower = metric["better"] == "lower"
    sign = -1 if lower else 1  # sign * (c - p) > 0: the change is better
    p_med, c_med = statistics.median(parent), statistics.median(change)
    relative = (c_med - p_med) / p_med
    p_q = quartiles(parent)
    iqr = p_q[1] - p_q[0]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    summary = {
        "better": metric["better"], "bound": metric["bound"], "parent": parent,
        "change": change, "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": p_q, "parent_iqr": iqr, "change_quartiles": quartiles(change),
        "relative_change": round(relative, 4), "change_better_pairs": wins,
    }
    if metric["bound"] is not None:
        summary["claim_met"] = (len(parent) >= 10 and wins >= 0.9 * len(parent)
                                and sign * (c_med - p_med) > iqr and not more_failures)
        summary["within_bound"] = -sign * relative <= metric["bound"]
        summary["unresolved"] = (iqr / abs(p_med) > metric["bound"] and
                                 min(sign * c for c in change) <= max(sign * p for p in parent))
    return summary


def order(i: int) -> tuple:
    """The sides of pair or round ``i``: the side that runs first alternates."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


# ---------------------------------------------------------------------------
# pairs


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON object of one untraced benchmark run of ``tree``, or, when
    the run exits non-zero, its exit code and last lines of standard error."""
    out = subprocess.run([sys.executable, str(tree / "benchmarks" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], capture_output=True, text=True)
    if out.returncode != 0:
        return {"exit_code": out.returncode,
                "stderr": out.stderr.splitlines()[-STDERR_LINES:]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def workload_entry(runs: list) -> dict:
    """The summary of one workload's pairs so far. A pair with a failed run is
    left out of the values, but a failed run of the change counts as failing
    more operations than the parent, so that it denies ``claim_met``."""
    done = [r for r in runs if "exit_code" not in r["parent"] and "exit_code" not in r["change"]]
    entry = {
        "pairs": len(done), "seeds": [r["seed"] for r in done],
        "failed_ops": {side: sum(r[side]["failed"] for r in done) for side in SIDES},
        "attempted_ops": {side: sum(r[side]["attempted"] for r in done) for side in SIDES},
        "failed_runs": [{"side": side, "seed": r["seed"], **r[side]}
                        for r in runs for side in SIDES if "exit_code" in r[side]],
        "metrics": {},
    }
    if not done:
        return entry
    share = {side: entry["failed_ops"][side] / entry["attempted_ops"][side] for side in SIDES}
    entry["failed_share"] = share
    more_failures = (share["change"] > share["parent"]
                     or any(f["side"] == "change" for f in entry["failed_runs"]))
    for metric in SPEC["end_to_end"]:
        values = [[r[side]["metrics"][metric["name"]]["value"] for r in done] for side in SIDES]
        entry["metrics"][metric["name"]] = summarize(metric, *values, more_failures)
    return entry


def save(out: Path, entries: dict) -> None:
    record = json.loads(out.read_text()) if out.is_file() else {}
    record.setdefault("untraced", {}).update(entries)
    # Replaced whole, so an interrupted write cannot lose the pairs already saved.
    partial = out.with_name(out.name + ".partial")
    partial.write_text(json.dumps(record, indent=1) + "\n")
    partial.replace(out)


def pairs(args) -> int:
    trees = dict(zip(SIDES, (args.parent, args.change)))
    failed = False
    for workload in args.workloads:
        runs = []
        for i, seed in enumerate(range(args.seed, args.seed + args.pairs)):
            runs.append({"seed": seed})
            for side in order(i):
                runs[-1][side] = result = run_benchmark(trees[side], workload, seed, args.seconds)
                failed |= "exit_code" in result
                shown = (f"exit code {result['exit_code']}" if "exit_code" in result
                         else f"{result['metrics']['traj_per_s']['value']:.0f} traj/s")
                print(f"{workload} seed {seed} {side}: {shown}", file=sys.stderr)
            save(args.out, {workload: workload_entry(runs)})
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# ops


def load_module(name: str, path: Path, package: bool = False):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, side: str, bench: bool) -> tuple:
    """``tree``'s ``src/dml_ope`` imported as the package ``ope_<side>`` and, with
    ``bench``, its ``benchmarks/run.py`` run on that package, else None."""
    name = f"ope_{side}"
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]  # a tree loaded before under this name
    package = load_module(name, tree / "src" / "dml_ope" / "__init__.py", package=True)
    if not bench:
        return package, None
    importlib.import_module(f"{name}.cli")
    saved = sys.path[:]
    # run.py imports the package as dml_ope, and spans and speed from its own directory.
    sys.path.insert(0, str(tree / "benchmarks"))
    shadowed = {k: sys.modules.pop(k) for k in list(sys.modules)
                if k.split(".")[0] in ("dml_ope", "spans", "speed")}
    sys.modules["dml_ope"] = package
    try:
        return package, load_module(f"{name}_run", tree / "benchmarks" / "run.py")
    finally:
        sys.path[:] = saved
        for key in [k for k in sys.modules if k.split(".")[0] in ("dml_ope", "spans", "speed")]:
            del sys.modules[key]
        sys.modules.update(shadowed)


def noisy_config(ope):
    """The noisy-nuisance config, read by ``ope``."""
    return ope.experiments.experiment_config_from_dict(json.loads(CONFIG.read_text()),
                                                       base_dir=CONFIG.parent)


def scenario(ope) -> tuple:
    """The lift of the noisy-nuisance config and its behavior policy, built by ``ope``."""
    return ope.experiments._scenario(noisy_config(ope))[:2]


def datasets(ope) -> dict:
    lifted, behavior = scenario(ope)
    bench = ope.sample_dataset(lifted, behavior, SIZES["bench"], np.random.default_rng(SEED))
    rng = np.random.default_rng(11)
    shape = (SIZES["distinct"], 4)
    labels = rng.choice(2**62, size=(2, *shape), replace=False)
    rewards = rng.standard_normal(shape)
    props = rng.uniform(0.01, 1.0, shape)
    long = (SIZES["long"], 64)
    long_labels = rng.choice(2**62, size=(2, *long), replace=False)
    return {
        "bench_25k": bench,
        "distinct_5k_p": ope.LoggedDataset(labels[0], labels[1], rewards, props),
        "distinct_5k": ope.LoggedDataset(labels[0], labels[1], rewards),
        "long_64": ope.LoggedDataset(long_labels[0], long_labels[1], rng.standard_normal(long),
                                     rng.uniform(0.01, 1.0, long)),
    }


def own(ope, data):
    """``data`` rebuilt from its arrays as a dataset of ``ope``, whose public calls
    refuse another tree's ``LoggedDataset`` class."""
    return ope.LoggedDataset(data.states, data.actions, data.rewards, data.propensities)


def keys_reordered(text: str) -> str:
    """``text``'s lines with each step's keys in reverse order."""
    return "".join(json.dumps({"steps": [dict(reversed(step.items()))
                                         for step in json.loads(line)["steps"]]}) + "\n"
                   for line in text.splitlines())


def last_line_respaced(text: str) -> str:
    """``text`` with no space after its last line's colons: the same values."""
    cut = text.rfind("\n", 0, len(text) - 1) + 1
    return text[:cut] + text[cut:].replace(": ", ":")


def write(ope, data, path: Path) -> Path:
    ope.write_jsonl(data, path)
    return path


def setup_10x50k(ope, lifted, behavior) -> tuple:
    rng = np.random.default_rng(SEED)
    return [ope.sample_dataset(lifted, behavior, SIZES["setup"], rng) for _ in range(10)], rng


def chunk_8x1000(ope, lifted, behavior) -> tuple:
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(9).spawn(8)]
    return ope.mdp._sample(lifted, behavior, SIZES["chunk"], rngs), rngs


def columns(data: list) -> list:
    """The states, actions and rewards of the datasets ``data``, each joined as one
    (1, n, T+1) array."""
    return [np.concatenate([getattr(d, f) for d in data])[None]
            for f in ("states", "actions", "rewards")]


def crossfit_rows(ope, columns: list) -> tuple:
    """The noisy-nuisance config and lift's evaluation policy, read by ``ope``, the
    row set of ``columns`` under that policy, and its five folds' row sets, drawn
    with seed ``SEED``, as ``_estimate`` builds them."""
    config = noisy_config(ope)
    evaluation = ope.experiments._scenario(config)[2]
    rows = ope.estimators._cells(columns[0], columns[1], evaluation), columns[2]
    folds = ope.nuisance._folds(rows[0].shape[1], 5, [np.random.default_rng(SEED)])
    return config, evaluation, rows, ope.estimators._fold_rows(rows, folds)


def crossfit_call(ope, columns: list):
    """A call of ``ope``'s count of the rows ``columns`` and its cross-fits of their
    five folds (``crossfit_rows``, built before the call)."""
    config, evaluation, rows, parts = crossfit_rows(ope, columns)

    def call():
        return (ope.nuisance._count(*rows, evaluation),
                list(ope.nuisance._cross_fits(parts, evaluation, config.effective_discount,
                                              None, config.smoothing_alpha)))
    return call


def cases(op: str, trees: dict, tmp: Path) -> dict:
    """Per case of ``op``: a call per side that returns the output to digest, and a
    check per side of that output, or None."""
    packages = {side: ope for side, (ope, _) in trees.items()}
    if op in WORKLOADS:
        calls, checks = {}, {}
        for side, (_, run) in trees.items():
            (tmp / side).mkdir()
            workload = run.WORKLOADS[op](run.Seeds.derive(SEED), run.FULL, tmp / side)
            workload.setup()
            calls[side], checks[side] = workload.op, workload.check
        return {op: (calls, checks)}
    if op == "write":
        return {name: ({side: functools.partial(write, ope, own(ope, data),
                                                tmp / f"{side}.jsonl")
                        for side, ope in packages.items()}, None)
                for name, data in datasets(packages["change"]).items()}
    if op == "ingest":
        data = datasets(packages["change"])
        long = data["long_64"]
        data["long_64"] = dataclasses.replace(long, rewards=long.rewards.round(1),
                                              propensities=long.propensities.round(2))
        paths = {name: write(packages["change"], rows, tmp / f"{name}.jsonl")
                 for name, rows in data.items()}
        text = paths["bench_25k"].read_text()
        for edit in (keys_reordered, last_line_respaced):
            name = f"bench_25k_{edit.__name__}"
            paths[name] = tmp / f"{name}.jsonl"
            paths[name].write_text(edit(text))
        return {name: ({side: functools.partial(ope.ingest_jsonl, path)
                        for side, ope in packages.items()}, None)
                for name, path in paths.items()}
    if op == "load":
        change = packages["change"]
        lifted, behavior = scenario(change)
        files = {"lift_mdp": ("load_mdp", change.mdp_to_dict(lifted)),
                 "lift_behavior": ("load_policy", change.policy_to_dict(behavior))}
        for name, (_, obj) in files.items():
            (tmp / f"{name}.json").write_text(json.dumps(obj))
        return {name: ({side: functools.partial(getattr(ope, loader), tmp / f"{name}.json")
                        for side, ope in packages.items()}, None)
                for name, (loader, _) in files.items()}
    if op == "crossfit":
        change = packages["change"]
        lifted, behavior = scenario(change)
        data = {"inmem_5e5_k5": setup_10x50k(change, lifted, behavior)[0],
                "lift_40k_k5": [change.sample_dataset(lifted, behavior, SIZES["lift"],
                                                      np.random.default_rng(SEED))]}
        return {name: ({side: crossfit_call(ope, joined) for side, ope in packages.items()}, None)
                for name, joined in zip(data, map(columns, data.values()))}
    shape = setup_10x50k if op == "sample" else chunk_8x1000
    return {shape.__name__: ({side: functools.partial(shape, ope, *scenario(ope))
                              for side, ope in packages.items()}, None)}


def digest(output) -> str:
    """The sha256 of a file's bytes, of each array's dtype, shape and bytes (a
    dataclass's fields in turn: a dataset's four arrays, an MDP's or a policy's
    fields) and of each generator's next draw, in order; other values by their
    ``repr``."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (tuple, list)):
            for y in x:
                feed(y)
        elif dataclasses.is_dataclass(x):
            feed([getattr(x, field.name) for field in dataclasses.fields(x)])
        elif isinstance(x, np.random.Generator):
            h.update(np.float64(x.random()).tobytes())
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode() + x.tobytes())
        elif isinstance(x, Path):
            h.update(x.read_bytes())
        elif isinstance(x, bytes):
            h.update(x)
        else:
            h.update(repr(x).encode())

    feed(output)
    return h.hexdigest()


def alternate(calls: dict, checks: dict | None, rounds: int) -> dict:
    """Each side's call ``rounds`` times, in ``order``; the summary of their
    milliseconds, the sha256 of their outputs and the problems checks found."""
    ms = {side: [] for side in SIDES}
    digests = {side: set() for side in SIDES}
    problems = []
    for i in range(rounds):
        for side in order(i):
            t0 = time.perf_counter()
            output = calls[side]()
            ms[side].append(round(1e3 * (time.perf_counter() - t0), 3))
            digests[side].add(digest(output))
            problems += [f"{side}: {p}" for p in (checks[side](output) if checks else [])]
    sha = {side: sorted(d) for side, d in digests.items()}
    return {**summarize(OP_MS, ms["parent"], ms["change"]), "sha256": sha,
            "equal": len(sha["parent"]) == 1 and sha["parent"] == sha["change"],
            "problems": problems}


def ops(args) -> int:
    bench = any(op in WORKLOADS for op in args.op)
    trees = {side: load_tree(tree.resolve(), side, bench)
             for side, tree in zip(SIDES, (args.parent, args.change))}
    report = {}
    for op in args.op:
        with tempfile.TemporaryDirectory() as tmp:
            report[op] = {name: alternate(calls, checks, args.rounds)
                          for name, (calls, checks) in cases(op, trees, Path(tmp)).items()}
    print(json.dumps(report, indent=1))
    bad = [op if name == op else f"{op} {name}" for op in args.op
           for name, r in report[op].items() if not r["equal"] or r["problems"]]
    for case in bad:
        print(f"ab: {case}: the trees' outputs differ or a check failed", file=sys.stderr)
    return 1 if bad else 0


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    p.add_argument("--pairs", type=positive, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--seed", type=int, default=6101)
    p.add_argument("--out", type=Path, required=True)
    o = sub.add_parser("ops")
    o.add_argument("parent", type=Path)
    o.add_argument("change", type=Path)
    o.add_argument("--op", nargs="+", required=True,
                   choices=WORKLOADS + ["write", "ingest", "load", "sample", "chunk",
                                        "crossfit"])
    o.add_argument("--rounds", type=positive, default=15)
    args = parser.parse_args()
    return pairs(args) if args.mode == "pairs" else ops(args)


if __name__ == "__main__":
    sys.exit(main())
