import os
from pathlib import Path

import numpy as np
import pytest

import fujitalab


@pytest.fixture(autouse=True, scope="session")
def _package_on_subprocess_path():
    """CLI tests start `python -m fujitalab.cli`; it imports this same package."""
    src = str(Path(fujitalab.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def zero_load(monkeypatch):
    """Pure heat flow plus forcing: the solver's nonlinear load is zero."""

    def zero(f, p, q, alpha, out=None):
        return f.with_values(np.zeros_like(f.values))

    monkeypatch.setattr("fujitalab.solver.nonlinearity", zero)
