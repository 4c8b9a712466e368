"""The README's code runs as documented."""
import re
from pathlib import Path

import pytest

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
