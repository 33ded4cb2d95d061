"""The traced counts repeat exactly and match the recorded seed-0 values;
the speed sampler takes its own time out of what it measures.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.  The
values are those of the package as the benchmark was defined; a change that
moves one of them changes the work the program does, and says so.
"""

import contextlib
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED0 = {
    "forced_blowup_3d.solver.step.calls": 2082,
    "forced_blowup_3d.solver.steps_accepted": 1978,
    "forced_blowup_3d.solver.startup_steps": 1604,
    "forced_blowup_3d.solver.min_dt_accepts": 101,
    "forced_blowup_3d.field.GridField.constructions": 14522,
    "forced_decay_2d.solver.step.calls": 500,
    "forced_decay_2d.solver.steps_accepted": 500,
    "forced_decay_2d.solver.startup_steps": 1,
    "forced_decay_2d.solver.min_dt_accepts": 0,
    "forced_decay_2d.semigroup.multiplier.calls": 1500,
    "forced_decay_2d.semigroup.multiplier.distinct_t": 502,
    "forced_decay_2d.field.GridField.constructions": 3502,
    "picard_probe_2d.solver.step.calls": 224,
    "picard_probe_2d.solver.steps_accepted": 112,
}
RATIOS = {
    "forced_blowup_3d.solver.step.useful_ratio": 0.95,
    "forced_blowup_3d.fft.transforms_per_step": 5.95,
    "forced_decay_2d.solver.step.useful_ratio": 1.0,
    "forced_decay_2d.fft.transforms_per_step": 6.0,
}
COUNTED = ("calls", "steps_accepted", "startup_steps", "min_dt_accepts", "sweeps",
           "distinct_t", "constructions", "transforms_per_step", "useful_ratio")


def test_counts_repeat_and_match_seed0():
    fl = workloads.import_fujitalab()
    counts = []
    for sampled in (False, True):  # the speed probes must not show in the counts
        runner = workloads.Runner(fl, "solver_runs", seed=0)
        with reference.SpeedSampler() if sampled else contextlib.nullcontext() as sampler:
            _, metrics, _ = runner.run_pass(tracing.Tracer(), sampler)
        assert runner.failures == []
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNTED)})
    assert counts[0] == counts[1]
    for key, value in SEED0.items():
        assert counts[0][key] == value, key
    for key, value in RATIOS.items():
        assert counts[0][key] == pytest.approx(value, abs=5e-3), key


def test_declared_per_layer_metrics_are_the_reported_ones():
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == workloads.per_layer_names()


def test_speed_sampler_probes_and_takes_its_time_out():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    before = signal.getsignal(signal.SIGALRM)
    with reference.SpeedSampler() as sampler:
        mark = sampler.mark()
        t0 = time.perf_counter()
        busy(0.5)
        spent, mean_probe = sampler.since(mark)
        raw = time.perf_counter() - t0 - spent
    assert len(sampler.times) >= 5
    assert 0.0 < spent < 0.5 and mean_probe > 0.0
    assert raw == pytest.approx(0.5, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
