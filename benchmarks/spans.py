"""Span tracing for the benchmark, installed from outside the package.

A ``Tracer`` replaces public functions of ``dml_ope`` with wrappers that record
one span (name, start, end, parent) per call. Each function is replaced under
every module attribute that refers to it, because callers look functions up
in their own module's namespace (``fit_nuisance`` is called through
``nuisance``, ``estimators`` and ``experiments``). Spans stay in memory until
the benchmark writes them out; ``breakdown`` turns them into per-layer self
times, whose sum plus the uncovered remainder is the traced wall time.
"""
from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

ESTIMATOR_NAMES = ("dm", "ipw", "dr_full", "dr_half", "dml")
# Public functions wrapped per layer, as (module, function) pairs.
LAYERS = {
    "cli": [("cli", "cli_main")],
    "io": [("experiments", "write_jsonl"), ("experiments", "ingest_jsonl")],
    "scenario": [("experiments", "with_noise_states"), ("experiments", "lift_policy")],
    "sample": [("mdp", "sample_dataset")],
    "nuisance": [("nuisance", "fit_nuisance"), ("nuisance", "fit_nuisances"),
                 ("nuisance", "make_folds")],
    "estimators": [("estimators", f"{name}_estimate") for name in ESTIMATOR_NAMES],
    "dispatch": [("experiments", "evaluate_dataset")],
    "fanout": [("experiments", "run_mse_experiment"), ("experiments", "ground_truth_value")],
}
# Per-layer self times; with the uncovered remainder they sum to trace.wall_s.
SELF_TIMES = ("cli.self_s", "io.write_s", "io.ingest_s", "scenario.s", "sample.s",
              "nuisance.self_s", "estimators.self_s", "dispatch.self_s", "fanout.self_s",
              "trace.uncovered_s")
MIB = 1024.0 * 1024.0


class Tracer:
    """Records spans from wrapped functions; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, **attrs})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` on the innermost open span."""
        span = self.spans[self._stack[-1]]
        span[name] = span.get(name, 0) + value

    # -- installation ------------------------------------------------------

    def install(self, layers) -> None:
        """Wrap the public functions of ``layers`` at every alias in ``dml_ope``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dml_ope" or name.startswith("dml_ope."))]
        for layer in layers:
            for module_name, fn_name in LAYERS[layer]:
                home = sys.modules.get(f"dml_ope.{module_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    print(f"trace: dml_ope.{module_name}.{fn_name} not found; not traced",
                          file=sys.stderr)
                    continue
                wrapper = self._wrap(fn_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        if "fanout" in layers:
            experiments = sys.modules["dml_ope.experiments"]
            if getattr(experiments, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
                self._patches.append((experiments, "ProcessPoolExecutor", ProcessPoolExecutor))
                experiments.ProcessPoolExecutor = self._counting_pool()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = _call_attrs(name, args, kwargs)
            index = tracer.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if name == "write_jsonl":
                tracer.spans[index]["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))
            return result

        return wrapper

    def _counting_pool(self):
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            """Counts the tasks handed to the pool and their pickled size."""

            def map(self, fn, *iterables, **kwargs):
                items = list(zip(*iterables))
                tracer.count("tasks", len(items))
                tracer.count("task_bytes", sum(len(pickle.dumps((fn, item))) for item in items))
                return super().map(fn, *zip(*items), **kwargs)

        return CountingPool


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _call_attrs(name: str, args, kwargs) -> dict:
    if name == "cli_main":
        return {"command": _arg(args, kwargs, 0, "argv")[0]}
    if name == "fit_nuisance":
        return {"rows": _arg(args, kwargs, 0, "data").n}
    if name == "sample_dataset":
        return {"rows": int(_arg(args, kwargs, 2, "n"))}
    if name == "ingest_jsonl":
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    return {}


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def breakdown(spans: list[dict], ops: int, traj_per_op: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``ops`` traced operations.

    Root spans are the benchmark's operations, named ``op``; their self time is
    the part of the wall time that no wrapped function covers.
    """
    calls, span_s, own_s, extra = (defaultdict(float) for _ in range(4))
    for s, self_s in zip(spans, self_times(spans)):
        name, duration = s["name"], s["end"] - s["start"]
        calls[name] += 1
        span_s[name] += duration
        own_s[name] += self_s
        for key in ("rows", "bytes"):
            extra[f"{name}.{key}"] += s.get(key, 0)
        if "command" in s:
            span_s[f"cli.{s['command']}"] += duration

    def layer_s(layer: str) -> float:
        return sum(own_s[fn] for _, fn in LAYERS[layer]) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fits, io_bytes = calls["fit_nuisance"], extra["write_jsonl.bytes"]
    metrics = {
        "trace.wall_s": span_s["op"] / ops,
        "trace.uncovered_s": own_s["op"] / ops,
        "cli.self_s": layer_s("cli"),
        "cli.simulate_s": span_s["cli.simulate"] / ops,
        "cli.evaluate_s": span_s["cli.evaluate"] / ops,
        "io.write_s": own_s["write_jsonl"] / ops,
        "io.ingest_s": own_s["ingest_jsonl"] / ops,
        "io.bytes": io_bytes / ops,
        "io.write_mb_per_s": ratio(io_bytes / MIB, span_s["write_jsonl"]),
        "io.ingest_mb_per_s": ratio(extra["ingest_jsonl.bytes"] / MIB, span_s["ingest_jsonl"]),
        "scenario.calls": calls["with_noise_states"] / ops,
        "scenario.s": layer_s("scenario"),
        "scenario.share": ratio(layer_s("scenario"), span_s["op"] / ops),
        "sample.calls": calls["sample_dataset"] / ops,
        "sample.s": layer_s("sample"),
        "sample.traj_per_s": ratio(extra["sample_dataset.rows"], span_s["sample_dataset"]),
        "nuisance.fit_calls": fits / ops,
        "nuisance.fit_rows_per_traj": extra["fit_nuisance.rows"] / ops / traj_per_op,
        "nuisance.self_s": layer_s("nuisance"),
        "nuisance.ms_per_fit": 1e3 * ratio(span_s["fit_nuisance"], fits),
        "estimators.self_s": layer_s("estimators"),
        "dispatch.calls": calls["evaluate_dataset"] / ops,
        "dispatch.self_s": layer_s("dispatch"),
        "fanout.self_s": layer_s("fanout"),
    }
    for name in ESTIMATOR_NAMES:
        metrics[f"estimators.{name}.self_s"] = own_s[f"{name}_estimate"] / ops
    return metrics


def pool_counts(spans: list[dict]) -> dict[str, float]:
    """Tasks handed to the process pool, their pickled size, and the root wall time."""
    return {
        "fanout.tasks": sum(s.get("tasks", 0) for s in spans),
        "fanout.task_bytes": sum(s.get("task_bytes", 0) for s in spans),
        "fanout.pool_wall_s": sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
    }
