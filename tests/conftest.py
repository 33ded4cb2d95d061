import os
from pathlib import Path

import numpy as np
import pytest

import fujitalab
from fujitalab.field import GridField


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


@pytest.fixture
def band_limited():
    """Builder of a random real trigonometric polynomial with modes |k| <= kmax,
    scaled to sup 1."""

    def build(dim, half_width, M, seed, kmax=5):
        rng = np.random.default_rng(seed)
        spec = np.fft.fftn(rng.standard_normal((M,) * dim))
        idx = np.fft.fftfreq(M) * M
        mask = np.ones((M,) * dim, dtype=bool)
        for d in range(dim):
            shape = [1] * dim
            shape[d] = M
            mask &= np.abs(idx).reshape(shape) <= kmax
        vals = np.real(np.fft.ifftn(np.where(mask, spec, 0.0)))
        return GridField(dim, half_width, vals / np.max(np.abs(vals)))

    return build


@pytest.fixture
def gauss_sum():
    """Hand-written reference: sum of c * exp(-a |x - y|^2) over raw (c, a, y)
    rows, at a point x or at points with the space dimension on the last axis."""

    def at(rows, x):
        x = np.asarray(x, dtype=float)
        return sum(c * np.exp(-a * np.sum((x - np.asarray(y)) ** 2, axis=-1))
                   for c, a, y in rows)

    return at
