"""The package's public surface: every exported name resolves, none twice,
no module imports a name it never uses, none reaches for a sibling
module's private (underscore) name, and every constant the README names
exists.

Tools that walk ``__all__`` (the span tracer of the benchmark does) call
``getattr`` on each name, so a stale entry breaks them at import time."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_each_exported_name_is_filed_under_the_module_that_defines_it():
    # every public name is a class or a function, so its __module__ says
    # where it is defined; a name filed under another submodule fails here
    for sub, names in fujitalab.EXPORTS.items():
        module = importlib.import_module(f"fujitalab.{sub}")
        assert module.__all__ == list(names)
        misfiled = [n for n in names if getattr(module, n).__module__ != module.__name__]
        assert not misfiled, f"{sub} exports names defined elsewhere: {misfiled}"
    assert list(fujitalab.EXPORTS) == ["exponents", "field", "oracles", "problem",
                                       "semigroup", "solver"]
    names = [name for exported in fujitalab.EXPORTS.values() for name in exported]
    assert fujitalab.__all__ == names
    assert len(names) == 57


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__all__`` entries count as reads)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(Path(fujitalab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []


def test_the_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]


def _private_sibling_imports(source: str) -> list[str]:
    """Underscore names a module imports from another module of the package."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("fujitalab."))
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(Path(fujitalab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert _private_sibling_imports(path.read_text()) == []


def test_the_private_import_check_sees_a_sibling_private_name():
    source = ("from .a import b, _c\nfrom fujitalab.d import _e\n"
              "from os import _exit\nfrom __future__ import annotations\n")
    assert _private_sibling_imports(source) == ["_c (line 1)", "_e (line 2)"]


def _readme_constants_missing(text: str) -> list[str]:
    """Backticked ALL_CAPS names of the text that no package module defines;
    the environment variable FUJITA_LAB_OUT is not a constant."""
    modules = [importlib.import_module(name) for name in MODULES]
    return [name for name in re.findall(r"`([A-Z][A-Z0-9_]+)`", text)
            if name != "FUJITA_LAB_OUT" and not any(hasattr(m, name) for m in modules)]


def test_every_constant_the_readme_names_exists():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert _readme_constants_missing(readme.read_text()) == []


def test_the_readme_constant_check_sees_a_stale_name():
    assert _readme_constants_missing("`CELL_CAP`, `FUJITA_LAB_OUT`, `T`, `KERNEL_WIDTHS`") == [
        "KERNEL_WIDTHS"]
