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


def test_package_exports_are_the_submodule_lists_concatenated():
    lists = [m.__all__ for m in (fujitalab.exponents, fujitalab.field, fujitalab.oracles,
                                 fujitalab.problem, fujitalab.semigroup, fujitalab.solver)]
    names = [name for exported in lists for name in exported]
    assert len(names) == len(set(names)), "a name is exported by two submodules"
    assert fujitalab.__all__ == names
    assert len(names) == 59
