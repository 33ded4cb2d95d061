"""Each demo script runs to completion: exit code 0 from a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [d.name for d in DEMOS] == ["blowup_vs_decay.py", "exponent_atlas.py",
                                       "heat_smoothing.py", "phase_diagram.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
