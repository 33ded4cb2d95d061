"""What an import loads: ``import fujitalab`` brings in the solver half only,
`exponents` and `oracles` load on the first use of one of their names, the
CLI loads them only in the commands that use them, and only a multi-worker
sweep loads the process pool."""

import json
import subprocess
import sys

import fujitalab
from fujitalab import oracles

# Run in a fresh interpreter, so nothing an earlier test imported counts.
# argv[1] is a spec file for one short `simulate` run.
_PROBE = """
import contextlib, io, json, sys
DEFERRED = ("fujitalab.exponents", "fujitalab.oracles")

def loaded():
    return [m for m in DEFERRED if m in sys.modules]

out = {}
import fujitalab
out["after_import"] = loaded()
out["misses"] = [hasattr(fujitalab, n) for n in ("nope", "__wrapped__", "cli")]
out["dir"] = dir(fujitalab)
out["all"] = list(fujitalab.__all__)
out["after_misses_dir_and_all"] = loaded()
import fujitalab.cli
with contextlib.redirect_stdout(io.StringIO()):
    out["simulate_exit"] = fujitalab.cli.main(
        ["simulate", "--spec", sys.argv[1], "--t-end", "0.1", "--dt0", "0.05",
         "--points", "16"])
out["after_cli_simulate"] = loaded()
out["pool_loaded"] = "concurrent.futures.process" in sys.modules
star = {}
exec("from fujitalab import *", star)
out["star_names"] = sorted(set(star) - {"__builtins__"})
out["same_w_condition_check"] = (
    fujitalab.w_condition_check is fujitalab.oracles.w_condition_check)
out["same_classify"] = fujitalab.classify is fujitalab.exponents.classify
print(json.dumps(out))
"""

_SPEC = {
    "dim": 1, "p": 2.0, "q": 2.0, "alpha": 0.0, "rho": 0.0,
    "u0": {"kind": "gaussian_sum", "terms": [[0.6, 1.0, [0.0]]]},
    "w": {"kind": "zero", "terms": []},
}


def test_import_loads_the_solver_half_and_the_rest_on_first_use(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SPEC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(spec)], capture_output=True,
                          text=True, check=True, timeout=60)
    out = json.loads(proc.stdout)
    assert out["after_import"] == []
    # a miss, a dunder probe, dir() and __all__ load nothing
    assert out["misses"] == [False, False, False]
    assert out["after_misses_dir_and_all"] == []
    assert set(out["all"]) | {"exponents", "oracles"} <= set(out["dir"])
    # a CLI run that never asks for the calculus or the lemmas skips both
    assert out["simulate_exit"] == 0
    assert out["after_cli_simulate"] == []
    assert not out["pool_loaded"]
    assert out["same_w_condition_check"] and out["same_classify"]
    assert len(out["all"]) == 57
    assert out["star_names"] == sorted(out["all"])


def test_a_name_patched_in_its_submodule_reads_patched_through_the_package(monkeypatch):
    # the benchmark's tracer patches submodule namespaces and restores them
    original = oracles.w_condition_check
    monkeypatch.setattr(oracles, "w_condition_check", len)
    assert fujitalab.w_condition_check is len
    monkeypatch.undo()
    assert fujitalab.w_condition_check is original
