"""Every example script runs to completion.

Each is an end-to-end drive of the public API (and ``flawed_tool_audit``
cross-checks the indexed queries against the in-memory oracle), so one
that stops running is a regression no other test sees.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.stem
)
def test_example_runs(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
