"""The package's public surface: every exported name resolves, none twice,
no module imports a name it never uses or defines a private function or
class it never reads, none reaches for a sibling module's private
(underscore) name, and every constant the README names exists.

Tools that walk ``__all__`` (the span tracer of the benchmark does) call
``getattr`` on each name, so a stale entry breaks them at import time."""

import ast
import dataclasses
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


def _unread_private_definitions(source: str) -> list[str]:
    """Module-level private functions and classes (a leading underscore, not a
    dunder) that no other top-level statement of the module reads."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and not any(isinstance(n, ast.Name) and n.id == node.name
                            for top in tree.body if top is not node for n in ast.walk(top))):
            found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(Path(fujitalab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_defines_a_private_name_it_never_reads(path):
    assert _unread_private_definitions(path.read_text()) == []


def test_the_private_definition_check_sees_an_unread_name():
    source = ("def _a():\n    return _a()\n"
              "def _b():\n    pass\n"
              "class _C:\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "def public():\n    return _b\n")
    assert _unread_private_definitions(source) == ["_a (line 1)", "_C (line 5)"]


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


# Records that only carry results, with their fields in order; the six
# record types that check their fields when built stay dataclasses.
RESULT_RECORDS = {
    "exponents.BlowupCriterion": "holds admissible conditions",
    "exponents.GepExponents": "threshold p_c ell conditions",
    "exponents.RWindow": "lo hi",
    "exponents.ExponentReport": "values",
    "oracles.MLResult": "value remainder_bound terms_used",
    "oracles.CutoffCheck": "error_coarse error_fine order c_emp passed",
    "oracles.WConditionReport": "holds_kernel_nonneg witness integral integral_positive",
    "oracles.CertificateReport": ("slope_I1 slope_bound_I1 slope_F slope_expected_F "
                                  "sign_gap theta applicable passed"),
    "problem.ValidationReport": "lwp_ok uniq_ok conditions",
    "field.BoxGeometry": "half_width points_per_axis",
    "semigroup.SmoothingRow": "t lhs rhs ratio passed",
    "semigroup.LowerBoundRow": "t recorded bound margin passed",
    "semigroup.LowerBoundReport": "rows passed skipped",
    "solver.PicardResult": "terminal iterations differences counts",
    "solver.UniquenessReport": "discrepancies ratios passed details",
}
VALIDATING_RECORDS = {"GaussianTerm", "ProfileSpec", "ProblemSpec", "GridField",
                      "SolverConfig", "TrajectoryRecord"}


@pytest.mark.parametrize("path", sorted(RESULT_RECORDS))
def test_a_result_record_is_an_immutable_named_tuple(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"fujitalab.{module}"), name)
    fields = RESULT_RECORDS[path].split()
    values = [f"v{i}" for i in range(len(fields))]
    rec = cls(*values)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], "changed")
    new = rec._replace(**{fields[-1]: "changed"})
    assert type(new) is cls and list(new) == values[:-1] + ["changed"]
    assert list(rec) == values
    twin = cls(**dict(zip(fields, values)))
    assert twin == rec and twin is not rec and hash(twin) == hash(rec)
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_only_the_records_that_validate_are_dataclasses():
    found = set()
    for name in MODULES:
        module = importlib.import_module(name)
        found |= {attr for attr, obj in vars(module).items()
                  if dataclasses.is_dataclass(obj) and obj.__module__ == name}
    assert found == VALIDATING_RECORDS
    # the defaults of the two records that have any
    assert fujitalab.BoxGeometry() == (16.0, None)
    assert fujitalab.semigroup.LowerBoundReport((), True).skipped is None
    # modules that define none of the six do not import dataclasses
    for sub in ("exponents", "oracles", "semigroup"):
        tree = ast.parse(Path(importlib.import_module(f"fujitalab.{sub}").__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, sub
