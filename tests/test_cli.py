"""End-to-end command-line checks: exit codes (0 ok, 1 malformed/failed,
2 inadmissible), output files, the FUJITA_LAB_OUT redirection, and the
determinism contract for sweep CSVs."""

import json
import os
import subprocess
import sys

import pytest

from fujitalab.cli import main

GOOD_SPEC = {
    "dim": 2, "p": 3.0, "q": 3.0, "alpha": 0.0, "rho": -0.5,
    "u0": {"kind": "gaussian_sum", "terms": [[0.5, 1.0, [0.0, 0.0]]]},
    "w": {"kind": "gaussian_sum", "terms": [[0.3, 2.0, [0.0, 0.0]]]},
}

SWEEP_SPEC = {
    "dim": 1, "p": 2.0, "q": 2.0, "alpha": 0.0, "rho": 0.0,
    "u0": {"kind": "gaussian_sum", "terms": [[0.6, 1.0, [0.0]]]},
    "w": {"kind": "zero", "terms": []},
}


def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_exponents_table(tmp_path, capsys):
    spec = _write_spec(tmp_path, GOOD_SPEC)
    assert main(["exponents", "--spec", spec]) == 0
    out = capsys.readouterr().out
    assert "gep_threshold" in out and "regime" in out
    assert "global_small_data" in out


def test_exponents_json_and_out_file(tmp_path, capsys):
    spec = _write_spec(tmp_path, GOOD_SPEC)
    out_file = tmp_path / "report.json"
    assert main(["exponents", "--spec", spec, "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_c"] == 2.0 and payload["ell"] == 1.0
    assert json.loads(out_file.read_text()) == payload


def test_exit_code_1_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["exponents", "--spec", str(bad)]) == 1
    mistyped = _write_spec(tmp_path, dict(GOOD_SPEC, p="three"), "typed.json")
    assert main(["exponents", "--spec", mistyped]) == 1
    assert main(["exponents", "--spec", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_exit_code_2_on_inadmissible_values(tmp_path, capsys):
    inadmissible = _write_spec(tmp_path, dict(GOOD_SPEC, dim=0), "dim0.json")
    assert main(["exponents", "--spec", inadmissible]) == 2
    err = capsys.readouterr().err
    assert "inadmissible" in err
    assert main(["simulate", "--spec", inadmissible, "--t-end", "0.1"]) == 2


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", "--spec", "nowhere.json"]) == 1
    capsys.readouterr()
    # out-of-range numbers are usage errors raised before any integration
    sim = ["simulate", "--spec", _write_spec(tmp_path, GOOD_SPEC)]
    swp = ["sweep", "--spec", _write_spec(tmp_path, SWEEP_SPEC, "sweep.json"),
           "--axis", "p=1.6:2.6:3"]
    for argv in (sim + ["--points", "3"], sim + ["--t-end", "0"],
                 sim + ["--half-width", "-1"], swp + ["--points", "3"],
                 swp + ["--jobs", "0"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "verdict" not in captured.out and "points:" not in captured.out


def test_simulate_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FUJITA_LAB_OUT", str(tmp_path / "artifacts"))
    spec = _write_spec(tmp_path, GOOD_SPEC)
    assert main(["simulate", "--spec", spec, "--t-end", "0.5", "--dt0", "0.05",
                 "--points", "64", "--out-prefix", "run1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: completed" in out
    base = tmp_path / "artifacts" / "run1"
    csv_text = base.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0].startswith("t,")
    traj = json.loads(base.with_suffix(".json").read_text())
    assert traj["verdict"] == "completed"
    meta = json.loads(base.with_suffix(".meta.json").read_text())
    assert "created_unix" in meta and meta["command"] == "simulate"
    # wall-clock data stays out of the deterministic payloads
    assert "created_unix" not in traj


def test_sweep_stdout_and_counts(tmp_path, capsys):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "p=1.6:2.6:3",
                 "--t-end", "2.0", "--dt0", "0.05", "--points", "64"]) == 0
    out = capsys.readouterr().out
    assert "points: 3" in out
    lines = [ln for ln in out.splitlines() if ln.count(",") >= 10]
    assert lines[0].startswith("index,p,q,alpha,rho,")
    assert len(lines) == 4  # header + 3 rows


def test_sweep_two_axes_and_inadmissible_rows(tmp_path, capsys):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    assert main(["sweep", "--spec", spec,
                 "--axis", "p=1.8:2.2:2", "--axis", "rho=-1.5:0.0:2",
                 "--t-end", "1.0", "--dt0", "0.05", "--points", "64"]) == 0
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in out.splitlines() if ln[:1].isdigit()]
    assert len(rows) == 4
    # rho = -1.5 rows are inadmissible and must be reported, not crash
    skipped = [r for r in rows if r[6] == "skipped"]
    assert len(skipped) == 2 and all(r[5] == "inadmissible" for r in skipped)


def test_sweep_axis_validation(tmp_path, capsys):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "banana=1:2:2"]) == 1
    assert main(["sweep", "--spec", spec]) == 1  # no axis
    assert main(["sweep", "--spec", spec, "--axis", "p=1:2:2",
                 "--axis", "q=1:2:2", "--axis", "rho=-0.5:0:2"]) == 1
    capsys.readouterr()


def test_verify_single_lemma(capsys):
    assert main(["verify", "--lemma", "young"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS young:")


def test_verify_fault_injection(capsys, tmp_path):
    # shrinking every tolerance by 1e9 must break a numerical lemma and
    # surface as exit 1 with a FAIL line: the harness can detect regressions
    out_file = tmp_path / "verdicts.json"
    code = main(["verify", "--lemma", "mittag_leffler",
                 "--tolerance-scale", "1e-9", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL mittag_leffler:")
    payload = json.loads(out_file.read_text())
    assert payload["all_passed"] is False


def _cli_env(tmp_path):
    env = dict(os.environ)
    env["FUJITA_LAB_OUT"] = str(tmp_path)
    return env


def test_console_script_end_to_end(tmp_path):
    spec = _write_spec(tmp_path, GOOD_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "fujitalab.cli", "exponents", "--spec", spec],
        capture_output=True, text=True, env=_cli_env(tmp_path),
    )
    assert proc.returncode == 0
    assert "global_small_data" in proc.stdout


def test_sweep_determinism_across_jobs(tmp_path):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    outputs = {}
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "fujitalab.cli", "sweep", "--spec", spec,
             "--axis", "p=1.6:2.6:4", "--t-end", "1.0", "--dt0", "0.05",
             "--points", "64", "--jobs", jobs,
             "--out-prefix", f"sweep_j{jobs}"],
            capture_output=True, text=True, env=_cli_env(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        outputs[jobs] = (tmp_path / f"sweep_j{jobs}.csv").read_bytes()
    assert outputs["1"] == outputs["2"]
