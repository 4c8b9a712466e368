"""The benchmark's span tracer names functions of the package; a renamed one
would only print "not traced" and read 0 for its layer, so the names are
checked here."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import dml_ope

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [f"{module}.{name}" for layer in load_spans().LAYERS.values()
               for module, name in layer
               if not callable(getattr(importlib.import_module(f"dml_ope.{module}"), name, None))]
    assert missing == []


def test_fit_nuisance_takes_the_dataset_first():
    # The tracer reads the fit's row count as ``.n`` of its first argument.
    first = next(iter(inspect.signature(dml_ope.nuisance.fit_nuisance).parameters))
    assert first == "data"
