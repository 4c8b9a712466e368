"""The README's code runs as documented."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dml_ope

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    # The "Library tour" block prints a DML estimate with its CI, then the DP value.
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(block.group(1), {})
    estimate, truth = capsys.readouterr().out.splitlines()
    value, ci_low, ci_high = map(float, estimate.split())
    assert float(truth) == pytest.approx(1.0165, abs=1e-12)
    assert ci_low <= float(truth) <= ci_high
    assert ci_low <= value <= ci_high


# Code spans that call something but name no library object: a formula.
NOT_NAMES = {"mean(v_{t+1})"}


def test_called_names_exist():
    # Every `name(...)` span names an attribute of dml_ope or one of its
    # modules, so a deleted or renamed function cannot stay documented.
    modules = [dml_ope] + [importlib.import_module(f"dml_ope.{m.name}")
                           for m in pkgutil.iter_modules(dml_ope.__path__)]
    missing = []
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        call = re.match(r"([A-Za-z_][\w.]*)\(", span)
        if call is None or span in NOT_NAMES:
            continue
        head, *rest = call.group(1).split(".")
        found = [m for m in modules if hasattr(m, head)]
        obj = getattr(found[0], head) if found else None
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(span)
    assert missing == []
