"""Every demo script runs to completion against the coxpres under test."""

import subprocess
import sys
from pathlib import Path

import pytest

import coxpres

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # PYTHONPATH points at the coxpres imported here, as in test_cli
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONPATH": str(Path(coxpres.__file__).parents[1])})
    assert out.returncode == 0, out.stderr
