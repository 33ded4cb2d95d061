"""One benchmark workload in this process: set-up, timed passes, output checks.

Run it through ``bench/run.py``, which starts this file in a fresh
single-threaded process per workload.  Direct use:

    python3 bench/workloads.py --workload solver_runs --seed 0 --seconds 60 --trace 0
    python3 bench/workloads.py --workload solver_runs --seed 0 --setup-only

A workload is a sequence of tasks; a task is one problem (or the lemma
suite) with its own set-up, operations and output checks.  A pass runs every
task once, and a run repeats passes for ``--seconds``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import PROBE_NOMINAL_S, SpeedSampler, probes
from tracing import LEMMAS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
HALF_WIDTH = 16.0
SETUP_PROBES = 12
SETUP_PROBE_REPEATS = 5

# Seed-0 blow-up time of the 3-D forced run (acceptance criterion 8).
BLOWUP_T_STAR = 45.82246
# Relative T* tolerance: tight on the criterion's own inputs; other seeds
# shift the data by up to half a cell, which moves T* by up to about 0.3%.
BLOWUP_RTOL_SEED0 = 1e-3
BLOWUP_RTOL_SHIFTED = 1e-2
MIN_RATIO = 1.8


def import_fujitalab():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "fujitalab" / "__init__.py").is_file():
        raise SystemExit(f"error: no fujitalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fujitalab

    if Path(fujitalab.__file__).resolve().parent != SRC / "fujitalab":
        raise SystemExit(f"error: imported fujitalab from {fujitalab.__file__}")
    return fujitalab


def centre_shift(seed: int, dim: int, cell: float) -> tuple:
    """Seed 0 keeps the criterion's centre; other seeds move it under half a cell."""
    if seed == 0:
        return (0.0,) * dim
    rng = random.Random(seed)
    return tuple(rng.uniform(-0.5, 0.5) * cell for _ in range(dim))


class ForcedRun:
    """One ``run_from_fields`` per operation, on fields prepared like ``run`` does."""

    def __init__(self, fl, seed, *, dim, p, rho, u0, w, points, dt0, t_end):
        self.fl, self.seed = fl, seed
        centre = centre_shift(seed, dim, 2.0 * HALF_WIDTH / points)

        def profile(cr):
            return fl.ProfileSpec.gaussian(cr[0], cr[1], centre) if cr else fl.ProfileSpec.zero()

        self.spec = fl.ProblemSpec(dim, p, 2.0, 0.0, rho, profile(u0), profile(w))
        self.config = fl.SolverConfig(dt0=dt0, t_end=t_end)
        self.points = points

    def prepare(self):
        fl, spec = self.fl, self.spec
        u0 = fl.sample(spec.u0, spec.dim, HALF_WIDTH, self.points)
        w = fl.sample(spec.w, spec.dim, HALF_WIDTH, self.points) if spec.w.terms else None
        plan = fl.HeatKernelPlan(spec.dim, self.points, HALF_WIDTH)
        return u0, w, plan

    def operations(self, prepared):
        u0, w, plan = prepared
        return [(self.name, lambda: self.fl.run_from_fields(self.spec, u0, w, self.config, plan))]


class ForcedBlowup3D(ForcedRun):
    """Acceptance criterion 8's blow-up run: 3-D 32^3, p=2, u0=0, forced."""

    name = "forced_blowup_3d"

    def __init__(self, fl, seed):
        super().__init__(fl, seed, dim=3, p=2.0, rho=0.0, u0=None, w=(0.5, 1.0),
                         points=32, dt0=0.25, t_end=120.0)

    def check(self, label, rec):
        if rec.verdict is not self.fl.Verdict.BLOWUP_DETECTED:
            return f"verdict {rec.verdict.value}"
        rtol = BLOWUP_RTOL_SEED0 if self.seed == 0 else BLOWUP_RTOL_SHIFTED
        err = abs(rec.blowup_time_estimate - BLOWUP_T_STAR) / BLOWUP_T_STAR
        return None if err <= rtol else f"T* {rec.blowup_time_estimate} off by {err:.2e}"


class ForcedDecay2D(ForcedRun):
    """Acceptance criterion 9's forced run in 2-D at 256^2, to t=10."""

    name = "forced_decay_2d"

    def __init__(self, fl, seed):
        super().__init__(fl, seed, dim=2, p=4.0, rho=-0.5, u0=(0.4, 1.0), w=(0.2, 2.0),
                         points=256, dt0=0.02, t_end=10.0)

    def check(self, label, rec):
        fl, spec = self.fl, self.spec
        if rec.verdict is not fl.Verdict.COMPLETED:
            return f"verdict {rec.verdict.value}"
        if not math.isclose(rec.times[-1], self.config.t_end, rel_tol=1e-12):
            return f"t_final {rec.times[-1]}"
        cert = fl.w_condition_check(spec.w, spec.dim)
        rep = fl.comparison_lower_bound(
            spec.u0, rec, spec.q, dim=spec.dim,
            tol=0.02 + rec.metadata["truncation_bound"],
            forcing_certified=cert.holds_kernel_nonneg and cert.integral_positive)
        if rep.skipped is not None or not rep.passed or not rep.rows:
            return f"lower bound failed (skipped={rep.skipped})"
        return None


class PicardProbe2D:
    """``uniqueness_probe`` in 2-D with forcing, 64 -> 256 points, 2 levels."""

    name = "picard_probe_2d"

    def __init__(self, fl, seed):
        self.fl = fl
        centre = centre_shift(seed, 2, 2.0 * HALF_WIDTH / 64)
        g = fl.ProfileSpec.gaussian(0.05, 1.0, centre)
        self.spec = fl.ProblemSpec(2, 2.0, 2.0, 1.0, -0.5, g, g)

    def prepare(self):
        return None

    def operations(self, prepared):
        geometry = self.fl.BoxGeometry(HALF_WIDTH, 64)
        return [(self.name, lambda: self.fl.uniqueness_probe(
            self.spec, T=0.1, geometry=geometry, levels=2))]

    def check(self, label, rep):
        if not rep.passed or not all(r >= MIN_RATIO for r in rep.ratios):
            return f"ratios {rep.ratios}"
        return None


class VerifySuite:
    """The eight lemma checks, one ``fujita-lab verify --lemma NAME`` each.

    The lemmas draw from fixed seeds inside the package, so ``--seed`` does
    not change this task's inputs.
    """

    name = "verify_suite"

    def __init__(self, fl, seed):
        import fujitalab.cli

        self.cli = fujitalab.cli

    def prepare(self):
        return None

    def operations(self, prepared):
        return [(name, self._verify(name)) for name in LEMMAS]

    def _verify(self, name):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["verify", "--lemma", name])
            return code, buf.getvalue()
        return call

    def check(self, label, out):
        code, text = out
        if code != 0 or not any(ln.startswith(f"PASS {label}:") for ln in text.splitlines()):
            return f"exit {code}: {text.strip()}"
        return None


WORKLOADS = {
    "solver_runs": (ForcedBlowup3D, ForcedDecay2D, PicardProbe2D),
    "verify_suite": (VerifySuite,),
}

# Per-layer metrics each task reports, as "<task>.<metric>".
_STEPPER = (
    "solver.step.calls", "solver.steps_accepted", "solver.step.useful_ratio",
    "solver.startup_steps", "solver.min_dt_accepts", "solver.step.total_s",
    "solver.step.p50_us", "solver.step.p99_us", "solver.forcing_increment.total_s",
    "semigroup.apply.calls", "semigroup.apply.p50_us", "semigroup.multiplier.calls",
    "semigroup.multiplier.distinct_t", "semigroup.plan_init_s",
    "fft.rfftn.calls", "fft.irfftn.calls", "fft.total_s", "fft.transforms_per_step",
    "field.GridField.constructions", "field.nonlinearity.total_s",
    "field.lq_norm.total_s", "field.sample.total_s",
    "solver.self_s", "semigroup.self_s", "field.self_s",
)
TASK_METRICS = {
    "forced_blowup_3d": ("wall_s",) + _STEPPER,
    "forced_decay_2d": ("wall_s",) + _STEPPER,
    "picard_probe_2d": ("wall_s",) + _STEPPER + (
        "solver.picard_solve.total_s", "solver.picard.sweeps",
        "solver.run_from_fields.total_s"),
    "verify_suite": (
        "wall_s", "exponents.blowup_criterion.us_per_call",
        "exponents.certificate_exponent.us_per_call", "exponents.self_s", "cli.self_s",
    ) + tuple(f"cli.verify.{lemma}.s" for lemma in LEMMAS),
}
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_ratio")
# Per-layer times, which a traced pass scales to the quiet machine's speed.
TIME_SUFFIXES = ("_s", ".s", "_us", ".us_per_call")


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, whatever the workload."""
    tasks = [f"{task}.{m}" for task, names in TASK_METRICS.items() for m in names]
    return tasks + list(TRACE_METRICS)


def environment() -> dict:
    import numpy as np

    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def setup(name: str, seed: int) -> float:
    """Seconds from a cold ``import fujitalab`` to every task's first inputs."""
    t0 = time.perf_counter()
    fl = import_fujitalab()
    for task in WORKLOADS[name]:
        task(fl, seed).prepare()
    return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, fl, name, seed):
        self.tasks = [task(fl, seed) for task in WORKLOADS[name]]
        self.attempted = 0
        self.failures: list = []

    def run_pass(self, tracer=None, sampler=None) -> tuple[dict, dict, list]:
        """Run every task once.

        Returns the seconds spent in each task's operations, the per-layer
        metrics and the spans of each task (both empty when untraced).
        Untraced, only the operations are timed: set-up is ``setup_s`` and the
        checks are the benchmark's own work.  Traced, each task's set-up is
        recorded too, so ``sample`` and the plan show in the spans.
        With an active ``SpeedSampler``, the seconds are ``(raw, probe)``
        pairs: the operations' time without the sampler's, and the mean probe
        time meanwhile; per-layer times are then scaled to the quiet
        machine's speed.
        """
        seconds, metrics, spans = {}, {}, []
        for task in self.tasks:
            if tracer is not None:
                tracer.reset()
                if sampler is not None:
                    tracer.clock = sampler.clock  # spans leave the probes out
                tracer.install()
            try:
                prepared = task.prepare()
                op_s, outputs = {}, []
                task_mark = sampler.mark() if sampler is not None else None
                for label, call in task.operations(prepared):
                    if tracer is not None:
                        tracer.op = label
                    mark = sampler.mark() if sampler is not None else None
                    t0 = time.perf_counter()
                    try:
                        out = call()
                    except Exception as exc:  # a raising operation is a failed one
                        out = exc
                    op_s[label] = time.perf_counter() - t0
                    if sampler is not None:
                        op_s[label] -= sampler.since(mark)[0]
                    outputs.append((label, out))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            seconds[task.name] = math.fsum(op_s.values())
            if sampler is not None:
                seconds[task.name] = (seconds[task.name], sampler.since(task_mark)[1])
            for label, out in outputs:
                self.attempted += 1
                problem = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                           else task.check(label, out))
                if problem is not None:
                    self.failures.append(f"{label}: {problem}")
            if tracer is not None:
                layer = layer_metrics(tracer, op_s)
                speed = 1.0 if sampler is None else PROBE_NOMINAL_S / seconds[task.name][1]
                for key in TASK_METRICS[task.name][1:]:
                    scale = speed if key.endswith(TIME_SUFFIXES) else 1.0
                    metrics[f"{task.name}.{key}"] = layer[key] * scale
                spans.append((task.name, list(tracer.spans)))
        return seconds, metrics, spans


def scaled(passes: list) -> float:
    """Sum over tasks of each task's median time at the quiet machine's speed.

    Each pass maps a task to ``(raw seconds, mean probe seconds)``.
    """
    return math.fsum(
        statistics.median(p[task][0] * PROBE_NOMINAL_S / p[task][1] for p in passes)
        for task in passes[0])


def setup_probe(name: str, seed: int) -> tuple:
    """``setup`` in a fresh process, so the import is cold.

    Returns the raw seconds and the same seconds at the quiet machine's
    speed, from probes run in that process right after the set-up.
    """
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_s"] * PROBE_NOMINAL_S / out["probe_s"]


def run_timed(name, seed, seconds, trace) -> dict:
    """Passes until the next one would end after ``seconds``.

    A ``SpeedSampler`` measures the machine's speed during every pass.
    Untraced, SETUP_PROBES set-up processes are spread evenly over the run.
    Traced, untraced and traced passes alternate.
    """
    fl = import_fujitalab()
    runner = Runner(fl, name, seed)
    tracer = Tracer() if trace else None
    begin = time.perf_counter()
    deadline = begin + seconds
    untraced, traced, per_pass, setups, first_spans = [], [], [], [], None

    def probe_until(share):
        while tracer is None and len(setups) < max(1, math.ceil(SETUP_PROBES * share)):
            setups.append(setup_probe(name, seed))

    while True:
        start = time.perf_counter()
        probe_until((start - begin) / seconds)
        with SpeedSampler() as sampler:
            untraced.append(runner.run_pass(sampler=sampler)[0])
            if tracer is not None:
                task_s, metrics, spans = runner.run_pass(tracer, sampler)
                traced.append(task_s)
                per_pass.append(metrics)
                first_spans = first_spans or spans
        lap = time.perf_counter() - start
        if time.perf_counter() + lap > deadline:
            break
    probe_until(1.0)
    result = {
        "workload": name,
        "seed": seed,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "passes": len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is None:
        result.update({
            "wall_s": scaled(untraced),
            "setup_s": statistics.median(s for _, s in setups),
            "raw_wall_s": math.fsum(statistics.median(p[task][0] for p in untraced)
                                    for task in untraced[0]),
            "raw_setup_s": statistics.median(s for s, _ in setups),
            "setups": setups,
        })
    else:
        result["layers"] = summarize(per_pass, untraced, traced)
        result["trace_file"] = write_spans(name, seed, first_spans, result)
    return result


def summarize(per_pass, untraced, traced) -> dict:
    """Every per-layer metric, 0 for the tasks of the other workload.

    Layer numbers are medians over traced passes; task times are untraced.
    Times are at the quiet machine's speed, as for ``wall_s``.
    """
    out = dict.fromkeys(per_layer_names(), 0.0)
    for key in per_pass[0]:
        out[key] = statistics.median(m[key] for m in per_pass)
    for task in untraced[0]:
        out[f"{task}.wall_s"] = scaled([{task: p[task]} for p in untraced])
    out["trace.wall_s"] = scaled(traced)
    out["trace.untraced_wall_s"] = scaled(untraced)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    return out


def write_spans(name, seed, task_spans, result) -> str:
    """Write the first traced pass's spans, per task: a name table plus rows."""
    names = sorted({s[0] for _, spans in task_spans for s in spans})
    index = {n: i for i, n in enumerate(names)}
    payload = {
        "workload": name,
        "seed": seed,
        "environment": result["environment"],
        "layers": result["layers"],
        "columns": ["name", "start_s", "end_s", "parent", "operation"],
        "names": names,
        "tasks": {
            task: [[index[n], round(s - spans[0][1], 9), round(e - spans[0][1], 9), p, op]
                   for n, s, e, p, op in spans]
            for task, spans in task_spans
        },
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_s = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "probe_s": probes(SETUP_PROBE_REPEATS)}))
    else:
        print(json.dumps(run_timed(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
