"""End-to-end benchmark of dml-ope, with a traced per-layer breakdown.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

One run drives one workload in a closed loop from this process: each operation
starts when the previous one returns, until ``--seconds`` have passed. Every
simulate, evaluate and experiment seed is derived from ``--seed``, and the
program receives only the generated inputs; ``configs/noisy_nuisance.json``
is read, never written.

Set-up (config parse, scenario build, input files, sampling) is repeated and
its median reported as ``setup_s``.

The measuring machine's speed drifts by up to a factor of 1.5, because other
tenants share its cores. So in an untraced run ``setup_s`` and ``traj_per_s``
come from wall times scaled to a reference speed that is sampled while the
workload runs (see ``speed.py``); the unscaled figures and the machine's
speed are printed as ``info`` lines. Every operation's output is checked, and
the operations of one run must produce identical bytes. The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, or with
``--trace 1`` the per-layer split from spans recorded around the package's
public functions (see ``spans.py``). In a traced run operations alternate
untraced and traced, so ``trace.overhead_s`` compares the two in one process.

``--smoke`` runs every workload at tiny sizes in both modes and checks that
every metric in ``BENCHMARK.json`` is printed with its unit, that no
operation fails, and that the exact counts repeat across two traced runs.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "noisy_nuisance.json"
WORK = ROOT / ".bench_work"

if not (SRC / "dml_ope" / "__init__.py").is_file() or not CONFIG.is_file():
    sys.exit(f"error: {ROOT} holds no dml-ope checkout (src/dml_ope and {CONFIG.name} needed)")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from dml_ope import cli, experiments, mdp  # noqa: E402

from spans import ESTIMATOR_NAMES, SELF_TIMES, Tracer, breakdown, pool_counts  # noqa: E402
from speed import SpeedSampler  # noqa: E402

# setup_budget_s: set-up repeats at least MIN_SETUPS times and, while cheap,
# until this many seconds, so that its median is steady.
FULL = {"cli_n": 25_000, "replications": 200, "inmem_n": 500_000, "chunk": 50_000,
        "setup_budget_s": 2.0}
SMOKE = {"cli_n": 300, "replications": 20, "inmem_n": 3_000, "chunk": 1_000,
         "setup_budget_s": 0.0}
FANOUT_WORKERS = 2
MIN_SETUPS, MAX_SETUPS = 3, 20_000
Z_MAX = 5.0  # an estimate further than this many standard errors from the truth fails
# Per-layer counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = ("nuisance.fit_calls", "nuisance.fit_rows_per_traj", "scenario.calls",
                "dispatch.calls", "sample.calls", "io.bytes", "fanout.tasks",
                "fanout.task_bytes")


@dataclasses.dataclass(frozen=True)
class Seeds:
    simulate: int
    evaluate: int
    experiment: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(x) for x in np.random.SeedSequence(seed).generate_state(3)))


def load_config():
    return experiments.experiment_config_from_dict(
        json.loads(CONFIG.read_text()), base_dir=CONFIG.parent
    )


def lifted_scenario(config):
    k, seed = config.noise_states, config.noise_seed
    return (
        experiments.with_noise_states(config.mdp, k, seed),
        experiments.lift_policy(config.behavior_policy, k),
        experiments.lift_policy(config.evaluation_policy, k),
    )


def within_z(estimate: dict, truth: float) -> bool:
    return abs(estimate["value"] - truth) <= Z_MAX * estimate["std_error"]


def dumps(obj) -> bytes:
    return json.dumps(obj, indent=2, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Workloads. Each has setup() (repeatable), op() -> output, check(output) ->
# problems, and finish(outputs, trace) -> problems per op for cross-op checks.


class Workload:
    layers: tuple = ()

    def finish(self, outputs: list, trace: bool) -> list[list[str]]:
        return same_bytes(outputs)

    def fanout_metrics(self, untraced_s: list[float]) -> dict[str, float]:
        return {**pool_counts([]), "fanout.parallel_efficiency": 0.0}


class CliFile(Workload):
    """The analyst path: `dml-ope simulate` to JSONL, then `dml-ope evaluate`.

    JSONL writing and ingest take most of its time and no other workload runs
    them; the writer sits beside the reader, so a faster parser paid for with
    a slower writer shows.
    """

    layers = ("cli", "io", "scenario", "sample", "nuisance", "estimators", "dispatch")

    def __init__(self, seeds: Seeds, sizes: dict, workdir: Path):
        self.seeds, self.n, self.dir = seeds, sizes["cli_n"], workdir
        self.traj_per_op = self.n
        self.phase_s: dict[str, list[float]] = {"simulate_s": [], "evaluate_s": []}
        self.truth = None

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self) -> None:
        config = load_config()
        lifted, behavior, evaluation = lifted_scenario(config)
        self.discount = config.effective_discount
        for name, obj in (("mdp.json", mdp.mdp_to_dict(lifted)),
                          ("behavior.json", experiments.policy_to_dict(behavior)),
                          ("eval.json", experiments.policy_to_dict(evaluation))):
            Path(self.path(name)).write_text(json.dumps(obj))
        self.scenario = (lifted, evaluation)

    def op(self) -> tuple:
        t0 = time.perf_counter()
        simulate = cli.cli_main([
            "simulate", "--mdp", self.path("mdp.json"), "--policy", self.path("behavior.json"),
            "--n", str(self.n), "--seed", str(self.seeds.simulate),
            "--output", self.path("data.jsonl"),
        ])
        t1 = time.perf_counter()
        evaluate = cli.cli_main([
            "evaluate", "--data", self.path("data.jsonl"), "--eval-policy", self.path("eval.json"),
            "--discount", repr(self.discount), "--folds", "2",
            "--seed", str(self.seeds.evaluate), "--output", self.path("report.json"),
            *(arg for name in ESTIMATOR_NAMES for arg in ("--estimator", name)),
        ])
        t2 = time.perf_counter()
        self.phase_s["simulate_s"].append(t1 - t0)
        self.phase_s["evaluate_s"].append(t2 - t1)
        report = Path(self.path("report.json")).read_bytes() if evaluate == 0 else b""
        return simulate, evaluate, report

    def check(self, output) -> list[str]:
        simulate, evaluate, report = output
        if simulate != 0 or evaluate != 0:
            return [f"exit codes simulate={simulate} evaluate={evaluate}"]
        problems = []
        with open(self.path("data.jsonl"), "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != self.n:
            problems.append(f"JSONL has {lines} lines, expected {self.n}")
        reports = {r["estimator"]: r for r in json.loads(report)["reports"]}
        if sorted(reports) != sorted(ESTIMATOR_NAMES):
            problems.append(f"report holds estimators {sorted(reports)}")
        elif not all(math.isfinite(r["value"]) for r in reports.values()):
            problems.append("a reported value is not finite")
        else:
            if self.truth is None:
                self.truth = mdp.exact_policy_value(*self.scenario)
            if not within_z(reports["dml"], self.truth):
                problems.append(f"dml {reports['dml']['value']} is over {Z_MAX} SE from "
                                f"the exact value {self.truth}")
        return problems

    def finish(self, outputs: list, trace: bool) -> list[list[str]]:
        return same_bytes([None if o is None else o[2] for o in outputs])


class Experiment(Workload):
    """The paper's Monte Carlo MSE study on the noisy-nuisance config, one worker.

    Its time goes to rebuilding the 240-state scenario in every replication,
    small-n sampling and per-call nuisance fits; it reads and writes no files.
    After the timed region the study runs once more on two pool workers: its
    report must equal the one-worker report, and in a traced run the pool's
    tasks are counted. Only the root of that run is traced, because spans from
    pool workers are not collected.
    """

    layers = ("scenario", "sample", "nuisance", "estimators", "dispatch", "fanout")

    def __init__(self, seeds: Seeds, sizes: dict, workdir: Path):
        self.seeds, self.replications = seeds, sizes["replications"]
        self.fanout = Tracer()

    def setup(self) -> None:
        self.config = dataclasses.replace(
            load_config(), replications=self.replications, seed=self.seeds.experiment
        )
        self.traj_per_op = self.config.replications * self.config.n_trajectories

    def op(self, workers: int = 1) -> bytes:
        saved = os.environ.get("OPE_DML_THREADS")
        os.environ["OPE_DML_THREADS"] = str(workers)
        try:
            return dumps(experiments.run_mse_experiment(self.config).to_dict())
        finally:
            if saved is None:
                del os.environ["OPE_DML_THREADS"]
            else:
                os.environ["OPE_DML_THREADS"] = saved

    def check(self, output: bytes) -> list[str]:
        report = json.loads(output)
        problems = []
        truth = mdp.exact_policy_value(self.config.mdp, self.config.evaluation_policy)
        if abs(report["ground_truth"] - truth) > 1e-9:
            problems.append(f"ground truth {report['ground_truth']} differs from the "
                            f"unlifted DP value {truth}")
        results = report["results"]
        if not results["dml"]["mse"] < results["dr_full"]["mse"]:
            problems.append("MSE(dml) is not below MSE(dr_full)")
        for name in ("dml", "dr_half", "ipw"):
            r = results[name]
            se = math.sqrt(r["variance"] / r["replications"])
            if not abs(r["bias"]) <= Z_MAX * se:
                problems.append(f"{name} bias {r['bias']} exceeds {Z_MAX} SE ({se})")
        return problems

    def finish(self, outputs: list, trace: bool) -> list[list[str]]:
        problems = same_bytes(outputs)
        if trace:
            self.fanout.install(("fanout",))
        root = self.fanout.begin("op")
        two_workers, error = None, None
        try:
            two_workers = self.op(workers=FANOUT_WORKERS)
        except Exception as exc:  # fails every operation it was to confirm
            error = f"{FANOUT_WORKERS}-worker run: {type(exc).__name__}: {exc}"
        finally:
            self.fanout.end(root)
            self.fanout.uninstall()
        for i, output in enumerate(outputs):
            if output is not None and output != two_workers:
                problems[i].append(error or f"report differs from the {FANOUT_WORKERS}-worker one")
        return problems

    def fanout_metrics(self, untraced_s: list[float]) -> dict[str, float]:
        metrics = pool_counts(self.fanout.spans)
        wall = metrics["fanout.pool_wall_s"]
        metrics["fanout.parallel_efficiency"] = (
            statistics.median(untraced_s) / (FANOUT_WORKERS * wall)
        )
        return metrics


class InMemory(Workload):
    """The library path: all five estimators on a large in-memory log.

    Nuisance fits and scoring are row-dominated here. Sampling and the
    scenario build happen in set-up, and there is no file I/O, so changes to
    those layers must leave its timed region unchanged.
    """

    layers = ("scenario", "sample", "nuisance", "estimators", "dispatch")

    def __init__(self, seeds: Seeds, sizes: dict, workdir: Path):
        self.seeds, self.n, self.chunk = seeds, sizes["inmem_n"], sizes["chunk"]
        self.traj_per_op = self.n
        self.truth = None

    def setup(self) -> None:
        self.data = None
        config = load_config()
        lifted, behavior, self.evaluation = lifted_scenario(config)
        self.discount = config.effective_discount
        rng = np.random.default_rng(self.seeds.simulate)
        parts = [mdp.sample_dataset(lifted, behavior, self.chunk, rng)
                 for _ in range(self.n // self.chunk)]
        self.data = mdp.LoggedDataset(**{
            field: np.concatenate([getattr(p, field) for p in parts])
            for field in ("states", "actions", "rewards", "propensities")
        })
        self.scenario = (lifted, self.evaluation)

    def op(self) -> bytes:
        results = experiments.evaluate_dataset(
            self.data, self.evaluation, self.discount, ESTIMATOR_NAMES,
            np.random.default_rng(self.seeds.evaluate), k_folds=5,
        )
        return dumps({name: est.to_dict() for name, est in results.items()})

    def check(self, output: bytes) -> list[str]:
        results = json.loads(output)
        if sorted(results) != sorted(ESTIMATOR_NAMES):
            return [f"results hold estimators {sorted(results)}"]
        if not all(math.isfinite(r["value"]) for r in results.values()):
            return ["an estimate is not finite"]
        if self.truth is None:
            self.truth = mdp.exact_policy_value(*self.scenario)
        if not within_z(results["dml"], self.truth):
            return [f"dml {results['dml']['value']} is over {Z_MAX} SE from {self.truth}"]
        return []


def same_bytes(outputs: list) -> list[list[str]]:
    """Every operation of one run repeats the same inputs, so outputs must match."""
    first = next((o for o in outputs if o is not None), None)
    return [[] if o is None or o == first else ["output differs from the run's first output"]
            for o in outputs]


WORKLOADS = {
    "cli_file_25k": CliFile,
    "experiment_noisy_1w": Experiment,
    "estimate_inmem_5e5": InMemory,
}


# ---------------------------------------------------------------------------
# Running a workload


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns metadata, problems and the result object."""
    sizes = SMOKE if smoke else FULL
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](Seeds.derive(seed), sizes, workdir)
    try:
        sampler = SpeedSampler()
        with contextlib.nullcontext() if trace else sampler:
            setups, setup_total_s = [], 0.0
            while len(setups) < MIN_SETUPS or (
                setup_total_s < sizes["setup_budget_s"] and len(setups) < MAX_SETUPS
            ):
                mark = sampler.mark()
                workload.setup()
                setups.append(sampler.interval(mark))
                setup_total_s += setups[-1][2]

            tracer = Tracer()
            ops, traced, outputs, problems = [], [], [], []
            start = time.perf_counter()
            while len(ops) < (2 if trace else 1) or time.perf_counter() - start < seconds:
                is_traced = trace and len(ops) % 2 == 1
                if is_traced:
                    tracer.install(workload.layers)
                    root = tracer.begin("op")
                mark = sampler.mark()
                try:
                    output, error = workload.op(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
                ops.append(sampler.interval(mark))
                if is_traced:
                    tracer.end(root)
                    tracer.uninstall()
                traced.append(is_traced)
                outputs.append(output)
                problems.append([error] if error else workload.check(output))
        peak = peak_rss_mib()
        for mine, more in zip(problems, workload.finish(outputs, trace)):
            mine.extend(more)

        times = [wall for _, _, wall in ops]
        untraced_s = [t for t, tr in zip(times, traced) if not tr]
        failed = sum(1 for p in problems if p)
        extras = {
            "error_rate": (failed / len(times), "ratio"), "ops": (len(times), "count"),
            "setups": (len(setups), "count"), "op_s": (statistics.median(untraced_s), "s"),
            "wall_setup_s": (statistics.median(wall for _, _, wall in setups), "s"),
            "wall_traj_per_s": (statistics.median(workload.traj_per_op / t
                                                  for t in untraced_s), "1/s"),
        }
        if trace:
            metrics = breakdown(tracer.spans, sum(traced), workload.traj_per_op)
            metrics["trace.overhead_s"] = tracing_overhead(times, traced)
            metrics.update(workload.fanout_metrics(untraced_s))
            write_spans(name, seed, tracer.spans)
        else:
            metrics = {
                "setup_s": statistics.median(sampler.at_reference(i) for i in setups),
                "traj_per_s": statistics.median(workload.traj_per_op / sampler.at_reference(i)
                                                for i in ops),
                "peak_rss_mb": peak,
            }
            extras["machine_speed"] = (sampler.speed(), "ratio")
        extras.update({k: (statistics.median(v), "s")
                       for k, v in getattr(workload, "phase_s", {}).items() if v})
        meta = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "sizes": sizes, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": git_sha(),
        }
        return {
            "meta": meta,
            "extras": extras,
            "problems": [f"op {i}: {p}" for i, ps in enumerate(problems) for p in ps],
            "result": {
                "correct": failed == 0,
                "attempted": len(times),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(metrics.items())},
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tracing_overhead(times: list[float], traced: list[bool]) -> float:
    """Mean excess of each traced operation over its untraced neighbours.

    Operations alternate untraced and traced; comparing neighbours rather than
    the two means keeps a drift of the machine's speed out of the difference.
    """
    excess = []
    for i in (i for i, tr in enumerate(traced) if tr):
        neighbours = [times[j] for j in (i - 1, i + 1) if j < len(times) and not traced[j]]
        excess.append(times[i] - statistics.fmean(neighbours))
    return statistics.fmean(excess)


def write_spans(name: str, seed: int, spans: list[dict]) -> None:
    out = WORK / "spans" / f"{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(spans))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


UNITS = {m["name"]: m["unit"]
         for key in ("end_to_end", "per_layer") for m in load_spec()[key]}


def smoke() -> bool:
    """Every workload at tiny sizes, untraced once and traced twice."""
    spec = load_spec()
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    if not ok:
        print(f"smoke: BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, seed=1, seconds=0, trace=False, smoke=True)
        traced = [run(workload, seed=1, seconds=0, trace=True, smoke=True) for _ in range(2)]
        for outcome, key in ((untraced, "end_to_end"), *((t, "per_layer") for t in traced)):
            printed = outcome["result"]["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            units = {k: v["unit"] for k, v in printed.items()}
            if units != wanted:
                ok = False
                print(f"smoke {workload}: {key} metrics differ from BENCHMARK.json: "
                      f"{sorted(set(units) ^ set(wanted))}")
            if outcome["extras"]["error_rate"][0] != 0 or not outcome["result"]["correct"]:
                ok = False
                print(f"smoke {workload}: failed operations: {outcome['problems']}")
        for t in traced:
            values = {k: v["value"] for k, v in t["result"]["metrics"].items()}
            parts = sum(values[k] for k in SELF_TIMES)
            if not math.isclose(parts, values["trace.wall_s"], rel_tol=1e-9):
                ok = False
                print(f"smoke {workload}: self times sum to {parts}, "
                      f"traced wall time is {values['trace.wall_s']}")
        counts = [{k: t["result"]["metrics"][k]["value"] for k in EXACT_COUNTS} for t in traced]
        if counts[0] != counts[1]:
            ok = False
            print(f"smoke {workload}: counts differ between traced runs: {counts}")
        print(f"smoke {workload}: {'ok' if ok else 'FAILED'} {counts[0]}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return 0 if smoke() else 1
    if args.workload is None:
        parser.error("--workload is required")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("meta " + json.dumps(outcome["meta"], sort_keys=True))
    for key, (value, unit) in outcome["extras"].items():
        print(f"info {key} = {value} {unit}")
    for key, metric in outcome["result"]["metrics"].items():
        print(f"metric {key} = {metric['value']} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
