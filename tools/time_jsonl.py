"""Time ``write_jsonl`` or ``ingest_jsonl`` of two dml-ope trees in one process.

    python3 tools/time_jsonl.py PARENT_TREE CHANGE_TREE --function write|ingest [--rounds 15]

Each tree's ``src/dml_ope`` is loaded under its own package name (every import
inside the package is relative). Three datasets are used:

- ``bench_25k``: the rows of the benchmark's ``cli_file_25k`` workload, 25,000
  trajectories of the 240-state lift of ``configs/noisy_nuisance.json``
  sampled with its behavior policy (seed 7), with propensities;
- ``distinct_5k_p`` and ``distinct_5k``: 5,000 x 4 cells in which every
  label, reward and propensity is distinct, with and without propensities.

``--function write`` writes each dataset once per tree and round, the trees in
shuffled order, and reports per dataset the median milliseconds of each tree,
the rounds the change won, the sha256 of each tree's file, and the share of
cells the writer encodes (distinct values per block and field, over all
cells). It exits 1 if the two trees' files differ.

``--function ingest`` writes each dataset once with the change tree, plus
``bench_25k_keys_reordered``, ``bench_25k`` with each step's keys in reverse
order: a valid file that the writer does not write. Each round ingests each
file once per tree, in shuffled order, and the report gives per file the
median milliseconds of each tree, the rounds the change won and the sha256 of
each tree's four arrays. It exits 1 if the two trees' arrays differ.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "noisy_nuisance.json"


def load_tree(tree: Path, name: str):
    """Import ``tree/src/dml_ope`` as the package ``name``."""
    init = tree / "src" / "dml_ope" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def datasets(ope) -> dict:
    config = ope.experiments.experiment_config_from_dict(json.loads(CONFIG.read_text()),
                                                         base_dir=CONFIG.parent)
    k = config.noise_states
    lifted = ope.experiments.with_noise_states(config.mdp, k, config.noise_seed)
    behavior = ope.experiments.lift_policy(config.behavior_policy, k)
    bench = ope.sample_dataset(lifted, behavior, 25_000, np.random.default_rng(7))
    rng = np.random.default_rng(11)
    shape = (5_000, 4)
    labels = rng.choice(2**62, size=(2, *shape), replace=False)
    rewards = rng.standard_normal(shape)
    props = rng.uniform(0.01, 1.0, shape)
    return {
        "bench_25k": bench,
        "distinct_5k_p": ope.LoggedDataset(labels[0], labels[1], rewards, props),
        "distinct_5k": ope.LoggedDataset(labels[0], labels[1], rewards),
    }


def encoded_share(data, block_rows: int) -> float:
    """Distinct values summed over blocks and fields, over the cells written."""
    fields = [f for f in (data.states, data.actions, data.rewards, data.propensities)
              if f is not None]
    distinct = sum(len(np.unique(f[start:start + block_rows].view(np.int64)))
                   for f in fields for start in range(0, data.n, block_rows))
    return distinct / sum(f.size for f in fields)


def arrays_digest(data) -> str:
    """The sha256 of a dataset's four arrays: dtype, shape and bytes, or "none"."""
    h = hashlib.sha256()
    for x in (data.states, data.actions, data.rewards, data.propensities):
        h.update(b"none" if x is None else f"{x.dtype}{x.shape}".encode() + x.tobytes())
    return h.hexdigest()


def keys_reordered(text: str) -> str:
    """``text``'s lines with each step's keys in reverse order."""
    return "".join(json.dumps({"steps": [dict(reversed(step.items()))
                                         for step in json.loads(line)["steps"]]}) + "\n"
                   for line in text.splitlines())


def alternate(trees: dict, rounds: int, call) -> dict:
    """``call(side)`` ``rounds`` times per tree, the trees in shuffled order each
    round; the seconds of each call, per side."""
    shuffle = random.Random(0)
    times = {side: [] for side in trees}
    for _ in range(rounds):
        for side in shuffle.sample(sorted(trees), 2):
            t0 = time.perf_counter()
            call(side)
            times[side].append(time.perf_counter() - t0)
    return times


def timing(times: dict, rounds: int) -> dict:
    return {
        "median_ms": {side: round(1e3 * statistics.median(t), 2) for side, t in times.items()},
        "change_faster": sum(c < p for p, c in zip(times["parent"], times["change"])),
        "rounds": rounds,
    }


def time_write(trees: dict, tmp: Path, rounds: int) -> dict:
    result = {}
    for name, data in datasets(trees["change"]).items():
        times = alternate(trees, rounds,
                          lambda side: trees[side].write_jsonl(data, tmp / f"{side}.jsonl"))
        digests = {side: hashlib.sha256((tmp / f"{side}.jsonl").read_bytes()).hexdigest()
                   for side in trees}
        result[name] = {
            "shape": list(data.states.shape),
            "propensities": data.propensities is not None,
            **timing(times, rounds),
            "sha256": digests,
            "equal": digests["parent"] == digests["change"],
            "encoded_share": round(
                encoded_share(data, trees["change"].experiments._WRITE_BLOCK_ROWS), 4),
        }
    return result


def time_ingest(trees: dict, tmp: Path, rounds: int) -> dict:
    paths = {}
    for name, data in datasets(trees["change"]).items():
        paths[name] = tmp / f"{name}.jsonl"
        trees["change"].write_jsonl(data, paths[name])
    paths["bench_25k_keys_reordered"] = tmp / "bench_25k_keys_reordered.jsonl"
    paths["bench_25k_keys_reordered"].write_text(keys_reordered(paths["bench_25k"].read_text()))
    result = {}
    for name, path in paths.items():
        loaded = {}

        def ingest(side):
            loaded[side] = trees[side].ingest_jsonl(path)

        times = alternate(trees, rounds, ingest)
        digests = {side: arrays_digest(data) for side, data in loaded.items()}
        result[name] = {
            "bytes": path.stat().st_size,
            **timing(times, rounds),
            "sha256": digests,
            "equal": digests["parent"] == digests["change"],
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--function", choices=("write", "ingest"), required=True)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    trees = {"parent": load_tree(args.parent, "ope_parent"),
             "change": load_tree(args.change, "ope_change")}
    run = time_write if args.function == "write" else time_ingest
    with tempfile.TemporaryDirectory() as tmp:
        result = run(trees, Path(tmp), args.rounds)
    print(json.dumps(result, indent=1))
    return 0 if all(r["equal"] for r in result.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
