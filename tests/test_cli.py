"""End-to-end command-line checks: exit codes (0 ok, 1 malformed/failed,
2 inadmissible), output files, the FUJITA_LAB_OUT redirection, and the
determinism contract for sweep CSVs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fujitalab import oracles
from fujitalab.cli import _build_parser, _run_setup, main
from fujitalab.field import BoxGeometry
from fujitalab.solver import SolverConfig, TrajectoryRecord, Verdict

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
    # bytes that are not UTF-8 make an unreadable file, not a UnicodeDecodeError
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe\x00{")
    assert main(["exponents", "--spec", str(undecodable)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read spec file {str(undecodable)!r}: 'utf-8' codec can't decode")
    # a non-finite dim is a malformed field, not a traceback from int()
    for dim in (float("nan"), float("inf")):
        spec = _write_spec(tmp_path, dict(GOOD_SPEC, dim=dim), "dim.json")
        for argv in (["exponents"], ["simulate", "--t-end", "0.1"],
                     ["sweep", "--axis", "p=1.6:2.6:3"]):
            assert main(argv + ["--spec", spec]) == 1, (dim, argv)
            err = capsys.readouterr().err
            assert err == "error: field 'dim': must be an integer\n", (dim, argv)
    # an integer beyond float range is a malformed field, not an OverflowError
    for name in ("dim", "p"):
        spec = _write_spec(tmp_path, dict(GOOD_SPEC, **{name: 10**400}), "huge.json")
        assert main(["exponents", "--spec", spec]) == 1, name
        err = capsys.readouterr().err
        assert err == f"error: field '{name}': int too large to convert to float\n"


def test_simulate_refuses_an_initial_state_whose_q_norm_overflows(tmp_path, capsys):
    spec = _write_spec(tmp_path, dict(
        SWEEP_SPEC, q=40.0,
        u0={"kind": "gaussian_sum", "terms": [[1e10, 0.1, [0.0]]]}))
    assert main(["simulate", "--spec", spec, "--t-end", "1.0", "--dt0", "0.01",
                 "--half-width", "16", "--points", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: field 'u0': q-norm overflows at q = 40.0\n"
    assert captured.out == ""
    # the cell sum of u0^2 is finite, times the cell volume h = 8 it is not
    spec = _write_spec(tmp_path, dict(
        SWEEP_SPEC, u0={"kind": "gaussian_sum", "terms": [[1.3e154, 10.0, [0.0]]]}))
    assert main(["simulate", "--spec", spec, "--t-end", "1.0", "--dt0", "0.01",
                 "--half-width", "64", "--points", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: field 'u0': q-norm overflows at q = 2.0\n"
    assert captured.out == ""


def test_exit_code_2_on_inadmissible_values(tmp_path, capsys):
    inadmissible = _write_spec(tmp_path, dict(GOOD_SPEC, dim=0), "dim0.json")
    assert main(["exponents", "--spec", inadmissible]) == 2
    err = capsys.readouterr().err
    assert "inadmissible" in err
    assert main(["simulate", "--spec", inadmissible, "--t-end", "0.1"]) == 2
    assert main(["sweep", "--spec", inadmissible, "--axis", "p=1.6:2.6:3"]) == 2
    capsys.readouterr()
    # outside the well-posedness range (0 < alpha < 1) is admissible: a note, exit 0
    band = _write_spec(tmp_path, dict(SWEEP_SPEC, alpha=0.5), "band.json")
    assert main(["simulate", "--spec", band, "--t-end", "0.1", "--dt0", "0.05",
                 "--points", "64"]) == 0
    captured = capsys.readouterr()
    assert "note: outside the well-posedness range; integrating anyway\n" in captured.err
    assert "verdict: " in captured.out


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["sweep", "--spec", "nowhere.json"]) == 1
    capsys.readouterr()
    # out-of-range numbers are usage errors raised before any integration
    sim = ["simulate", "--spec", _write_spec(tmp_path, GOOD_SPEC)]
    swp = ["sweep", "--spec", _write_spec(tmp_path, SWEEP_SPEC, "sweep.json"),
           "--axis", "p=1.6:2.6:3"]
    for argv in (sim + ["--points", "3"], sim + ["--t-end", "0"],
                 sim + ["--half-width", "-1"], sim + ["--threshold", "0"],
                 sim + ["--threshold", "nan"], sim + ["--dt0", "inf"],
                 sim + ["--t-end", "inf"], swp + ["--points", "3"],
                 ["verify", "--tolerance-scale", "1"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert "verdict" not in captured.out and "points:" not in captured.out
        assert "PASS" not in captured.out and "FAIL" not in captured.out
    # the sweep's own options pass the package's one domain rule, which
    # names the option in its message
    for option, value, message in (
            ("--jobs", "0", "--jobs must be an integer >= 1, got 0"),
            ("--amplitude", "nan", "--amplitude must be finite, got nan"),
            ("--amplitude", "inf", "--amplitude must be finite, got inf"),
            ("--epsilon", "nan", "--epsilon must be positive and finite, got nan"),
            ("--epsilon", "inf", "--epsilon must be positive and finite, got inf"),
            ("--epsilon", "0", "--epsilon must be positive and finite, got 0.0"),
            ("--epsilon", "-0.01", "--epsilon must be positive and finite, got -0.01")):
        assert main(swp + [option, value]) == 1, option
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_simulate_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FUJITA_LAB_OUT", str(tmp_path / "artifacts"))
    spec = _write_spec(tmp_path, GOOD_SPEC)
    assert main(["simulate", "--spec", spec, "--t-end", "0.5", "--dt0", "0.05",
                 "--points", "64", "--out-prefix", "run1"]) == 0
    out = capsys.readouterr().out
    assert "verdict: completed" in out
    base = tmp_path / "artifacts" / "run1"
    traj = json.loads(base.with_suffix(".json").read_text())
    # the run's kept counters, as the payload records them
    counts = traj["metadata"]["counts"]
    assert counts["inverse_transforms"] == len(traj["times"]) - 1
    assert ("counts: " + " ".join(f"{k}={v}" for k, v in counts.items())) in out
    assert "rejections: growth=0 overflow=0" in out
    csv_text = base.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0].startswith("t,")
    assert traj["verdict"] == "completed"
    meta = json.loads(base.with_suffix(".meta.json").read_text())
    assert "created_unix" in meta and meta["command"] == "simulate"
    assert 0 < meta["seconds"] < 60
    # wall-clock data stays out of the deterministic payloads
    assert "created_unix" not in traj
    assert "blowup_by" not in out and "blowup_by" not in traj["metadata"]
    # a blow-up names the rule that ended it, under its time
    assert main(["simulate", "--spec", spec, "--t-end", "0.5", "--dt0", "0.05",
                 "--points", "64", "--threshold", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "verdict: blowup_detected\n" in out
    assert "\nblowup_time_estimate: 0.05\nblowup_by: threshold\n" in out


def test_sweep_stdout_and_counts(tmp_path, capsys):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "p=1.6:2.6:3",
                 "--t-end", "2.0", "--dt0", "0.05", "--points", "64"]) == 0
    out = capsys.readouterr().out
    assert "points: 3" in out
    lines = [ln for ln in out.splitlines() if ln.count(",") >= 10]
    assert lines[0].startswith("index,p,q,alpha,rho,")
    assert len(lines) == 4  # header + 3 rows


def _sweep_rows(out):
    return [ln.split(",") for ln in out.splitlines() if ln[:1].isdigit()]


def test_sweep_calls_an_unfinished_predicted_blowup_inconclusive(tmp_path, capsys):
    # the theorem rules out a global solution but bounds no T*: a predicted
    # blow-up still running at t_end neither matches nor contradicts it
    spec = _write_spec(tmp_path, {
        "dim": 3, "p": 2.0, "q": 2.0, "alpha": 0.0, "rho": -0.5,
        "u0": {"kind": "gaussian_sum", "terms": [[0.5, 1.0, [0.0, 0.0, 0.0]]]},
        "w": {"kind": "gaussian_sum", "terms": [[0.3, 2.0, [0.0, 0.0, 0.0]]]},
    })
    assert main(["sweep", "--spec", spec, "--axis", "p=1.2:1.6:3",
                 "--t-end", "1", "--points", "16"]) == 0
    out = capsys.readouterr().out
    assert "inconclusive: 3" in out and "mismatch" not in out
    assert [r[5:8] for r in _sweep_rows(out)] == [["blowup", "completed", "inconclusive"]] * 3


def test_sweep_keeps_mismatch_for_a_small_data_blowup(tmp_path, capsys, monkeypatch):
    verdicts = iter([Verdict.BLOWUP_DETECTED, Verdict.BUDGET_EXHAUSTED, Verdict.COMPLETED])

    def scripted_run(spec, config, geometry):
        return TrajectoryRecord([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0],
                                next(verdicts))

    monkeypatch.setattr("fujitalab.solver.run", scripted_run)
    spec = _write_spec(tmp_path, GOOD_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "p=3.0:3.2:3",
                 "--points", "16"]) == 0
    out = capsys.readouterr().out
    assert [r[5:8] for r in _sweep_rows(out)] == [
        ["global_small_data", "blowup_detected", "mismatch"],
        ["global_small_data", "budget_exhausted", "inconclusive"],
        ["global_small_data", "completed", "match"],
    ]
    assert "match: 1\nmismatch: 1\ninconclusive: 1\n" in out


def test_sweep_calls_a_run_out_of_step_budget_inconclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("fujitalab.solver.MAX_STEPS", 3)
    spec = _write_spec(tmp_path, GOOD_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "p=3.0:3.2:2",
                 "--points", "16", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert [r[5:8] for r in _sweep_rows(out)] == [
        ["global_small_data", "budget_exhausted", "inconclusive"]] * 2
    assert "inconclusive: 2" in out and "error" not in out


def test_sweep_turns_a_failing_point_into_an_error_row(tmp_path, capsys, monkeypatch):
    verdicts = iter([Verdict.COMPLETED, None, Verdict.COMPLETED])

    def scripted_run(spec, config, geometry):
        verdict = next(verdicts)
        if verdict is None:
            raise RuntimeError("step budget exhausted")
        return TrajectoryRecord([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0],
                                verdict)

    monkeypatch.setattr("fujitalab.solver.run", scripted_run)
    spec = _write_spec(tmp_path, GOOD_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "p=3.0:3.2:3",
                 "--points", "16", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    rows = _sweep_rows(captured.out)
    assert [r[5:8] for r in rows] == [
        ["global_small_data", "completed", "match"],
        ["global_small_data", "error:RuntimeError", "inconclusive"],
        ["global_small_data", "completed", "match"],
    ]
    assert rows[1][8:] == ["", "", ""]
    assert rows[0][8:] == ["1.0", "1.0", ""]
    assert "match: 2\ninconclusive: 1\nerror: 1\n" in captured.out
    assert "sweep point 1 failed" in captured.err and "step budget exhausted" in captured.err


def test_sweep_runs_a_point_whose_ell_is_below_one(tmp_path, capsys):
    # the window is nonempty but ell = 0.9019: the point is a gap, not a
    # small-data point whose L^ell rescaling would refuse ell < 1
    spec = _write_spec(tmp_path, {
        "dim": 2, "p": 2.2875, "q": 1.875, "alpha": 0.5, "rho": -0.70625,
        "u0": {"kind": "gaussian_sum", "terms": [[1.0, 1.0, [0.0, 0.0]]]},
        "w": {"kind": "gaussian_sum", "terms": [[0.5, 1.0, [0.0, 0.0]]]},
    })
    assert main(["sweep", "--spec", spec, "--axis", "alpha=0.5:0.5:1",
                 "--t-end", "0.5", "--points", "32"]) == 0
    captured = capsys.readouterr()
    assert [r[5:8] for r in _sweep_rows(captured.out)] == [
        ["gap", "blowup_detected", "not_applicable"]]
    assert "error" not in captured.out and captured.err == ""


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
    # their t_final, sup_final and blowup_time cells are empty
    assert all(r[8:] == ["", "", ""] for r in skipped)
    # the last axis varies fastest
    assert [(r[1], r[4]) for r in rows] == [
        ("1.8", "-1.5"), ("1.8", "0.0"), ("2.2", "-1.5"), ("2.2", "0.0")]


def test_sweep_starts_no_more_workers_than_points(tmp_path, capsys, monkeypatch):
    # a fork pool starts all of its max_workers at once, so a sweep asks for
    # no more than it has points, and runs a single point in this process
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    argv = ["sweep", "--spec", spec, "--t-end", "0.1", "--dt0", "0.05",
            "--points", "16", "--jobs", "8"]
    assert main(argv + ["--axis", "p=1.8:2.2:3"]) == 0
    assert main(argv + ["--axis", "p=1.8:1.8:1"]) == 0
    assert started == [3]
    out = capsys.readouterr().out
    assert "points: 3" in out and "points: 1" in out


def test_sweep_axis_validation(tmp_path, capsys):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "banana=1:2:2"]) == 1
    assert main(["sweep", "--spec", spec]) == 1  # no axis
    capsys.readouterr()
    assert main(["sweep", "--spec", spec, "--axis", "p=1:2:0"]) == 1
    assert capsys.readouterr().err == (
        "error: bad --axis 'p=1:2:0': COUNT must be an integer >= 1, got 0\n")
    for axis, bad in (("q=nan:2:2", "START must be finite, got nan"),
                      ("q=1:inf:2", "STOP must be finite, got inf"),
                      ("q=-inf:2:2", "START must be finite, got -inf")):
        assert main(["sweep", "--spec", spec, "--axis", axis]) == 1
        assert capsys.readouterr().err == f"error: bad --axis {axis!r}: {bad}\n"
    assert main(["sweep", "--spec", spec, "--axis", "p=1:2:2",
                 "--axis", "q=1:2:2", "--axis", "rho=-0.5:0:2"]) == 1
    capsys.readouterr()


def test_sweep_refuses_a_repeated_axis(tmp_path, capsys):
    # a repeated axis would sweep only its last range, each point twice
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    assert main(["sweep", "--spec", spec, "--axis", "p=1.5:2.5:2",
                 "--axis", "p=3:4:2"]) == 1
    captured = capsys.readouterr()
    assert "error: --axis p given twice" in captured.err and "points:" not in captured.out


def test_verify_single_lemma(capsys):
    assert main(["verify", "--lemma", "young"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS young:")


def test_verify_unknown_lemma_is_a_usage_error(capsys):
    assert main(["verify", "--lemma", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --lemma: invalid choice: 'nope' "
                                   "(choose from 'certificate_scaling', 'contraction',")


def test_verify_out_times_each_lemma_and_leaves_stdout_alone(capsys, tmp_path):
    args = ["verify", "--lemma", "mittag_leffler"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    out_file = tmp_path / "verdicts.json"
    assert main(args + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == plain
    entry = json.loads(out_file.read_text())["lemmas"]["mittag_leffler"]
    assert entry["passed"] is True and entry["seconds"] >= 0.0


def test_verify_fault_injection(capsys, tmp_path, monkeypatch):
    # a series value off by 1e-9 relative must break the lemma and surface
    # as exit 1 with a FAIL line: the harness can detect regressions
    exact = oracles.mittag_leffler

    def skewed(order, z):
        res = exact(order, z)
        return res._replace(value=res.value * (1 + 1e-9))

    monkeypatch.setattr(oracles, "mittag_leffler", skewed)
    out_file = tmp_path / "verdicts.json"
    code = main(["verify", "--lemma", "mittag_leffler", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL mittag_leffler:")
    payload = json.loads(out_file.read_text())
    assert payload["all_passed"] is False


def test_verify_certificate_lemma_fails_cleanly_when_not_applicable(capsys, monkeypatch):
    # negative space integrals leave no slope of F to format: the lemma must
    # still print its FAIL line, not raise on the missing values
    monkeypatch.setattr(oracles, "_space_cutoff_integrals",
                        lambda w, N, kappa: [-1.0] * len(oracles.CERT_T_LIST))
    assert main(["verify", "--lemma", "certificate_scaling"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL certificate_scaling: slope_I1 ")
    assert "slope_F none (expected 0.500), gap none vs -theta " in out


def test_verify_stdout_is_the_golden_text(capsys):
    # every lemma's detail line, byte for byte: a change that claims "same
    # numbers" must leave this file alone
    assert main(["verify"]) == 0
    golden = Path(__file__).parent / "data" / "verify_stdout.txt"
    assert capsys.readouterr().out == golden.read_text()


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
        # each point's seconds, by index, and the whole sweep's go to the meta file
        meta = json.loads((tmp_path / f"sweep_j{jobs}.meta.json").read_text())
        assert meta["command"] == "sweep" and meta["jobs"] == int(jobs)
        assert len(meta["point_seconds"]) == 4
        assert all(0 < s <= meta["seconds"] for s in meta["point_seconds"])
    assert outputs["1"] == outputs["2"]
    assert b"seconds" not in outputs["1"]


def test_main_builds_one_parser_that_a_parse_leaves_unchanged(tmp_path, capsys):
    spec = _write_spec(tmp_path, SWEEP_SPEC)
    run = ["sweep", "--spec", spec, "--t-end", "0.1", "--dt0", "0.05", "--points", "16"]
    _build_parser.cache_clear()
    assert main(run + ["--axis", "p=2:2:1"]) == 0
    # the axis of the first sweep is not carried into the second
    assert main(run) == 1
    assert "need at least one --axis" in capsys.readouterr().err
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    parser = _build_parser()
    first = parser.parse_args(["sweep", "--spec", spec, "--axis", "q=2:3:2"])
    assert first.axis == ["q=2:3:2"] and parser.parse_args(["sweep", "--spec", spec]).axis == []


def test_run_options_default_to_the_library():
    # an option left out is not passed on, so SolverConfig's and BoxGeometry's
    # own defaults hold
    parser = _build_parser()
    for command in ("simulate", "sweep"):
        args = parser.parse_args([command, "--spec", "problem.json"])
        assert _run_setup(args, 1) == (SolverConfig(), BoxGeometry())
        args = parser.parse_args([command, "--spec", "problem.json", "--dt0", "0.5",
                                  "--threshold", "1e3", "--points", "32"])
        assert _run_setup(args, 1) == (SolverConfig(dt0=0.5, blowup_threshold=1e3),
                                       BoxGeometry(points_per_axis=32))
