"""Time ``sample_dataset`` of two dml-ope trees in one process, and probe the
resident memory of building the 240-state lift.

    python3 tools/time_sampler.py PARENT_TREE CHANGE_TREE [--rounds 15]
        [--memory-runs 5] [--out FILE]

Each tree's ``src/dml_ope`` is loaded under its own package name (every import
inside the package is relative), and each builds its own lift of
``configs/noisy_nuisance.json`` with the behavior policy. Two shapes are timed:

- ``setup_10x50k``: the set-up of the benchmark's ``estimate_inmem_5e5``
  workload, ten ``sample_dataset`` calls of 50,000 trajectories from one
  generator (seed 7);
- ``chunk_8x1000``: one stacked chunk of the MSE study of
  ``experiment_noisy_1w``, ``mdp._sample`` of 1,000 trajectories for each of
  eight generators (the children of seed 9).

A round calls each shape once per tree, the trees in shuffled order; the
report gives per shape the median milliseconds of each tree and the rounds the
change won. Before timing, each shape is drawn once per tree from fresh
generators, and the two trees' arrays (dtype, shape and bytes) and each
generator's next draw must be equal. ``narrow_reward_5e5`` and
``narrow_policy_5e5`` time 500,000 searches of the lift's two-column reward and
policy tables (``mdp._cdf_table`` and ``mdp._inverse_cdf``), whose results
must be equal. ``lift_build`` times building the lift (``with_noise_states``,
which validates it and builds its sampler tables) and ``transition_table`` the
transitions' sampler table alone.

``lift_memory`` runs each tree ``--memory-runs`` times in a fresh process that
reads the config, then builds the lift, and reports the medians of the
resident set (``VmRSS``) and of its peak (``VmHWM``, which unlike
``ru_maxrss`` starts afresh in a new program) before and after the build, in
MiB, from ``/proc/self/status``. The two trees' processes alternate.

The report is printed, and with ``--out`` merged into that JSON file's
``in_process`` and ``lift_memory`` keys, keeping its other keys. The tool
exits 1 if the two trees' draws differ.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "noisy_nuisance.json"

# One lift build in a fresh process: argv is the tree and the config path.
PROBE = """
import json, sys
from pathlib import Path
tree, config_path = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(tree / "src"))
from dml_ope import experiments
def status_mib(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":")) / 1024
config = experiments.experiment_config_from_dict(json.loads(config_path.read_text()),
                                                 base_dir=config_path.parent)
before, peak_before = status_mib("VmRSS"), status_mib("VmHWM")
lifted = experiments.with_noise_states(config.mdp, config.noise_states, config.noise_seed)
print(json.dumps({"rss_before_mib": before, "rss_after_mib": status_mib("VmRSS"),
                  "peak_before_mib": peak_before, "peak_after_mib": status_mib("VmHWM")}))
"""


def load_tree(tree: Path, name: str):
    """Import ``tree/src/dml_ope`` as the package ``name``."""
    init = tree / "src" / "dml_ope" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def scenario(ope) -> tuple:
    """The lift of the noisy-nuisance config and its behavior policy, built by ``ope``."""
    config = ope.experiments.experiment_config_from_dict(json.loads(CONFIG.read_text()),
                                                         base_dir=CONFIG.parent)
    k = config.noise_states
    return (ope.experiments.with_noise_states(config.mdp, k, config.noise_seed),
            ope.experiments.lift_policy(config.behavior_policy, k), config)


def setup_10x50k(ope, lifted, behavior) -> tuple:
    rng = np.random.default_rng(7)
    parts = [ope.sample_dataset(lifted, behavior, 50_000, rng) for _ in range(10)]
    return [(p.states, p.actions, p.rewards, p.propensities) for p in parts], [rng]


def chunk_8x1000(ope, lifted, behavior) -> tuple:
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(9).spawn(8)]
    return [ope.mdp._sample(lifted, behavior, 1_000, rngs)], rngs


SHAPES = {"setup_10x50k": setup_10x50k, "chunk_8x1000": chunk_8x1000}


def digest(draw: tuple) -> str:
    """The sha256 of every array's dtype, shape and bytes, and of each generator's
    next draw."""
    groups, rngs = draw
    h = hashlib.sha256()
    for arrays in groups:
        for x in arrays:
            h.update(f"{x.dtype}{x.shape}".encode() + x.tobytes())
    for rng in rngs:
        h.update(np.float64(rng.random()).tobytes())
    return h.hexdigest()


def alternate(sides: list, rounds: int, call) -> dict:
    """``call(side)`` ``rounds`` times per side, in shuffled order each round; the
    seconds of each call, per side."""
    shuffle = random.Random(0)
    times = {side: [] for side in sides}
    for _ in range(rounds):
        for side in shuffle.sample(sides, len(sides)):
            t0 = time.perf_counter()
            call(side)
            times[side].append(time.perf_counter() - t0)
    return times


def timing(times: dict) -> dict:
    return {
        "median_ms": {side: round(1e3 * statistics.median(t), 3) for side, t in times.items()},
        "change_faster": sum(c < p for p, c in zip(times["parent"], times["change"])),
        "rounds": len(times["parent"]),
    }


def in_process(trees: dict, rounds: int) -> dict:
    built = {side: scenario(ope) for side, ope in trees.items()}
    result = {}
    for name, shape in SHAPES.items():
        digests = {side: digest(shape(trees[side], *built[side][:2])) for side in trees}
        times = alternate(sorted(trees), rounds,
                          lambda side: shape(trees[side], *built[side][:2]))
        result[name] = {**timing(times), "sha256": digests,
                        "equal": digests["parent"] == digests["change"]}

    def build_lift(side):
        config = built[side][2]
        trees[side].experiments.with_noise_states(config.mdp, config.noise_states,
                                                  config.noise_seed)

    # The two-column reward and policy tables search without a guide.
    draws = np.random.default_rng(3)
    for name, probs, size in (("narrow_reward_5e5", built["change"][0].reward_probs, 480),
                              ("narrow_policy_5e5", built["change"][1].table, 240)):
        tables = {side: trees[side].mdp._cdf_table(probs) for side in trees}
        rows, u = draws.integers(0, size, 500_000), draws.random(500_000)
        found = {side: trees[side].mdp._inverse_cdf(tables[side], rows, u) for side in trees}
        times = alternate(sorted(trees), rounds * 2,
                          lambda side: trees[side].mdp._inverse_cdf(tables[side], rows, u))
        result[name] = {**timing(times),
                        "equal": bool(np.array_equal(found["parent"], found["change"]))}
    result["lift_build"] = timing(alternate(sorted(trees), rounds * 4, build_lift))
    transitions = built["change"][0].transitions
    result["transition_table"] = timing(alternate(
        sorted(trees), rounds * 4, lambda side: trees[side].mdp._cdf_table(transitions)))
    return result


def lift_memory(paths: dict, runs: int) -> dict:
    samples = {side: [] for side in paths}
    for i in range(runs):
        for side in sorted(paths) if i % 2 == 0 else sorted(paths)[::-1]:
            out = subprocess.run([sys.executable, "-c", PROBE, str(paths[side]), str(CONFIG)],
                                 capture_output=True, text=True, check=True)
            samples[side].append(json.loads(out.stdout))
    return {side: {key: round(statistics.median(s[key] for s in runs_), 3) for key in runs_[0]}
            | {"runs": len(runs_)} for side, runs_ in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--memory-runs", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    paths = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    trees = {side: load_tree(path, f"ope_{side}") for side, path in paths.items()}
    report = {"in_process": in_process(trees, args.rounds),
              "lift_memory": lift_memory(paths, args.memory_runs)}
    print(json.dumps(report, indent=1))
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.is_file() else {}
        record.update(report)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    equal = all(r.get("equal", True) for r in report["in_process"].values())
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
