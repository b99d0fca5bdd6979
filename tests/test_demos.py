"""Demos: each script in ``demos/`` runs to completion and prints its tour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eotile

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(eotile.__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()


def test_demos_are_found():
    # An empty glob would leave test_demo_runs with nothing to run.
    assert list(DEMOS.glob("*.py"))
