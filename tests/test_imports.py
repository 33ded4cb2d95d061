"""What an import loads: ``import fujitalab`` loads no submodule, each loads
on the first use of itself or one of its names, each CLI command loads only
the modules it uses (``exponents`` and ``verify`` never the solver,
``simulate`` never the exponent calculus or the lemma suite), and only a
multi-worker sweep loads the process pool."""

import json
import subprocess
import sys

import fujitalab
from fujitalab import oracles

# Run in a fresh interpreter, so nothing an earlier test imported counts.
# argv[1] is a spec file; argv[2] says which commands run, "calculus" for
# `exponents` then `verify`, "solver" for one short `simulate`.
_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("fujitalab."))

def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return fujitalab.cli.main(list(argv))

out = {}
import fujitalab
out["after_import"] = loaded()
out["misses"] = [hasattr(fujitalab, n) for n in ("nope", "__wrapped__", "cli")]
out["dir"] = dir(fujitalab)
out["all"] = list(fujitalab.__all__)
out["after_misses_dir_and_all"] = loaded()
import fujitalab.cli
out["after_cli_import"] = loaded()
if sys.argv[2] == "calculus":
    out["exponents_exit"] = cli("exponents", "--spec", sys.argv[1])
    out["after_exponents"] = loaded()
    out["verify_exit"] = cli("verify", "--lemma", "mittag_leffler")
    out["after_verify"] = loaded()
else:
    out["simulate_exit"] = cli("simulate", "--spec", sys.argv[1], "--t-end", "0.1",
                               "--dt0", "0.05", "--points", "16")
    out["after_simulate"] = loaded()
out["pool_loaded"] = "concurrent.futures.process" in sys.modules
star = {}
exec("from fujitalab import *", star)
out["star_names"] = sorted(set(star) - {"__builtins__"})
out["same_w_condition_check"] = (
    fujitalab.w_condition_check is fujitalab.oracles.w_condition_check)
out["same_run"] = fujitalab.run is fujitalab.solver.run
print(json.dumps(out))
"""

_SPEC = {
    "dim": 1, "p": 2.0, "q": 2.0, "alpha": 0.0, "rho": 0.0,
    "u0": {"kind": "gaussian_sum", "terms": [[0.6, 1.0, [0.0]]]},
    "w": {"kind": "zero", "terms": []},
}


def _probe(spec, commands):
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(spec), commands],
                          capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(proc.stdout)
    assert out["after_import"] == []
    # a miss, a dunder probe, dir() and __all__ load nothing
    assert out["misses"] == [False, False, False]
    assert out["after_misses_dir_and_all"] == []
    submodules = {"exponents", "field", "oracles", "problem", "semigroup", "solver"}
    assert set(out["all"]) | submodules <= set(out["dir"])
    # the CLI's parser needs `problem` only, for the errors main() reports
    assert out["after_cli_import"] == ["fujitalab.cli", "fujitalab.problem"]
    assert not out["pool_loaded"]
    assert out["same_w_condition_check"] and out["same_run"]
    assert len(out["all"]) == 57
    assert out["star_names"] == sorted(out["all"])
    return out


def test_import_loads_no_submodule_and_each_command_only_what_it_uses(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SPEC))
    calculus = ["fujitalab.cli", "fujitalab.exponents", "fujitalab.problem"]
    out = _probe(spec, "calculus")
    # the exponent report and the lemma suite never load the solver half
    assert out["exponents_exit"] == 0 and out["after_exponents"] == calculus
    assert out["verify_exit"] == 0
    assert out["after_verify"] == sorted(calculus + ["fujitalab.oracles"])
    out = _probe(spec, "solver")
    # a run never asks for the calculus or the lemmas, nor for the pool
    assert out["simulate_exit"] == 0
    assert out["after_simulate"] == ["fujitalab.cli", "fujitalab.field", "fujitalab.problem",
                                     "fujitalab.semigroup", "fujitalab.solver"]


def test_a_name_patched_in_its_submodule_reads_patched_through_the_package(monkeypatch):
    # the benchmark's tracer patches submodule namespaces and restores them
    original = oracles.w_condition_check
    monkeypatch.setattr(oracles, "w_condition_check", len)
    assert fujitalab.w_condition_check is len
    monkeypatch.undo()
    assert fujitalab.w_condition_check is original
