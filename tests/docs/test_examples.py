"""The example scripts the docs CI job smoke-tests, inside the tier-1 gate.

Each example asserts its own output, so running it is the test.
"""

from __future__ import annotations

import runpy
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("name", ["quickstart", "constraints", "index_service"])
def test_example_runs(name, capsys, monkeypatch, tmp_path):
    # Keep the stores the examples create under the test's own directory.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
    # ... and remove them again: a run leaves nothing behind.
    assert sorted(path.name for path in tmp_path.iterdir()) == []
