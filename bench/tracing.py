"""Span tracing of fujitalab from outside the package.

``Tracer.install`` replaces the public functions of the traced layers
(``solver``, ``semigroup``, ``field``, ``exponents``, ``cli``) and numpy's
``rfftn``/``irfftn`` with wrappers that record one span per call: name,
start, end, parent span and operation id.  Every module of the package that
imported a traced function by name gets the wrapper too, so calls between
modules are seen.  ``uninstall`` puts the originals back, which makes an
untraced pass cost exactly what it costs without the benchmark.

Spans stay in memory; ``layer_metrics`` reduces the spans of one task (one
problem of a workload, or the lemma suite) to the per-layer numbers the
benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter

LAYERS = ("solver", "semigroup", "field", "exponents", "cli")
LEMMAS = (
    "young",
    "contraction",
    "mittag_leffler",
    "gronwall",
    "exponent_sign",
    "cutoff_laplacian",
    "w_condition",
    "certificate_scaling",
)
# Return values the metrics need besides the spans.
_KEEP_RESULTS = ("solver.run_from_fields", "solver.picard_solve")


class Tracer:
    """Spans, counts and kept results of the calls made while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, operation)
        self.counts: Counter = Counter()
        self.results: dict = {name: [] for name in _KEEP_RESULTS}
        self.multiplier_t: set = set()
        self.op = ""
        self.clock = time.perf_counter  # read when install() wraps
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # ---------------------------------------------------------------- spans

    def _span(self, name, fn, before=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        keep = self.results.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep is not None:
                keep.append(out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------- install/remove

    def install(self) -> None:
        import numpy as np

        modules = {layer: importlib.import_module(f"fujitalab.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n == "fujitalab" or n.startswith("fujitalab.")]
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._span(f"{layer}.{attr}", fn)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
        for attr in ("rfftn", "irfftn"):
            self._patch(np.fft, attr, self._span(f"fft.{attr}", getattr(np.fft, attr)))
        plan_cls = modules["semigroup"].HeatKernelPlan
        self._patch(plan_cls, "__init__",
                    self._span("semigroup.HeatKernelPlan", plan_cls.__init__))
        self._patch(plan_cls, "multiplier",
                    self._span("semigroup.multiplier", plan_cls.multiplier,
                               before=lambda args: self.multiplier_t.add(args[1])))
        grid_cls = modules["field"].GridField
        self._patch(grid_cls, "__post_init__",
                    self._counted("field.GridField.constructions", grid_cls.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget the spans and counts of the previous task."""
        self.spans.clear()
        self.counts.clear()
        self.multiplier_t.clear()
        for kept in self.results.values():
            kept.clear()


# --------------------------------------------------------------- reduction

def _durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def _pct_us(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _mean_us(values):
    return 1e6 * statistics.fmean(values) if values else 0.0


def _inside(spans, idx, name):
    """Whether span idx has an ancestor called name."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans) -> dict:
    """Per-layer self time: span duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += (end - start) - child[i]
    return out


def layer_metrics(tracer: Tracer, op_seconds: dict) -> dict:
    """Per-layer numbers for the task the tracer recorded since ``reset``.

    ``op_seconds`` maps each operation's label to its duration; the lemma
    operations of the verify suite are labelled with the lemma's name.
    Counts repeat exactly for one seed; times are inclusive of the spans
    nested under them unless named ``self_s``.
    """
    spans = tracer.spans
    steps = _durations(spans, "solver.step")
    n_steps = len(steps)
    rfftn = sum(1 for s in spans if s[0] == "fft.rfftn")
    irfftn = sum(1 for s in spans if s[0] == "fft.irfftn")
    in_step = sum(1 for i, s in enumerate(spans)
                  if s[0] in ("fft.rfftn", "fft.irfftn") and _inside(spans, i, "solver.step"))

    accepted = startup = min_dt = 0
    for rec in tracer.results["solver.run_from_fields"]:
        cfg = rec.metadata["config"]
        accepted += len(rec.times) - 1
        startup += sum(1 for t in rec.times[1:] if t <= cfg["dt0"])
        min_dt += sum(1 for dt in rec.dt_history[1:] if dt / 2.0 < cfg["min_dt"])
    sweeps = sum(r.iterations for r in tracer.results["solver.picard_solve"])

    selfs = self_times(spans)
    m = {
        "solver.step.calls": n_steps,
        "solver.steps_accepted": accepted,
        "solver.step.useful_ratio": accepted / n_steps if n_steps else 0.0,
        "solver.startup_steps": startup,
        "solver.min_dt_accepts": min_dt,
        "solver.step.total_s": math.fsum(steps),
        "solver.step.p50_us": _pct_us(steps, 0.50),
        "solver.step.p99_us": _pct_us(steps, 0.99),
        "solver.forcing_increment.total_s":
            math.fsum(_durations(spans, "solver.forcing_increment")),
        "solver.picard_solve.total_s": math.fsum(_durations(spans, "solver.picard_solve")),
        "solver.picard.sweeps": sweeps,
        "solver.run_from_fields.total_s":
            math.fsum(_durations(spans, "solver.run_from_fields")),
        "semigroup.apply.calls": len(_durations(spans, "semigroup.apply")),
        "semigroup.apply.p50_us": _pct_us(_durations(spans, "semigroup.apply"), 0.50),
        "semigroup.multiplier.calls": len(_durations(spans, "semigroup.multiplier")),
        "semigroup.multiplier.distinct_t": len(tracer.multiplier_t),
        "semigroup.plan_init_s": math.fsum(_durations(spans, "semigroup.HeatKernelPlan")),
        "fft.rfftn.calls": rfftn,
        "fft.irfftn.calls": irfftn,
        "fft.total_s": math.fsum(_durations(spans, "fft.rfftn")
                                 + _durations(spans, "fft.irfftn")),
        "fft.transforms_per_step": in_step / n_steps if n_steps else 0.0,
        "field.GridField.constructions": tracer.counts["field.GridField.constructions"],
        "field.nonlinearity.total_s": math.fsum(_durations(spans, "field.nonlinearity")),
        "field.lq_norm.total_s": math.fsum(_durations(spans, "field.lq_norm")),
        "field.sample.total_s": math.fsum(_durations(spans, "field.sample")),
        "exponents.blowup_criterion.us_per_call":
            _mean_us(_durations(spans, "exponents.blowup_criterion")),
        "exponents.certificate_exponent.us_per_call":
            _mean_us(_durations(spans, "exponents.certificate_exponent")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for lemma in LEMMAS:
        m[f"cli.verify.{lemma}.s"] = op_seconds.get(lemma, 0.0)
    return m
