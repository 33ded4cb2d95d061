"""The package's public surface: every exported name resolves, none twice.

Tools that walk ``__all__`` (the span tracer of the benchmark does) call
``getattr`` on each name, so a stale entry breaks them at import time."""

import importlib
import pkgutil

import pytest

import fujitalab

MODULES = ["fujitalab"] + [
    f"fujitalab.{info.name}" for info in pkgutil.iter_modules(fujitalab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_exports_are_unique():
    assert len(fujitalab.__all__) == len(set(fujitalab.__all__))
