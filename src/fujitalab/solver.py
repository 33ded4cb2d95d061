"""Mild-solution drivers for the forced nonlocal heat equation.

The state advances through the integral (Duhamel) form: heat flow applied to
the current state, plus a one-step quadrature of the nonlinear load, plus a
forcing increment whose singular t^rho weight is integrated exactly.  Two
independent routes to the same solution are kept deliberately separate:

* ``run_from_fields`` -- the one stepper: explicit exponential-Euler
  stepping with adaptive step control and blow-up detection against a
  sup-norm threshold (``run`` samples the profiles and calls it);
* ``picard_solve`` -- fixed-point iteration of the integral form on a fixed
  uniform inner time grid, with a trapezoid history integral that is marched
  node to node by the one heat multiplier S(dt) (the semigroup property
  makes the march the same quadrature as the full sum).

They share the semigroup and the nonlinearity but not the time discretization,
so their agreement under refinement is meaningful evidence of correctness
(``uniqueness_probe`` measures exactly that).

Both routes work in buffers that each run or solve allocates once.
``run_from_fields`` carries spectra, so an accepted step's summed spectrum
is the next state's.  It keeps a ping-pong pair for the state's spectrum and
the summed one, one load spectrum, one complex scratch that takes each
product and then the leading-axis passes of the inverse transform, one real
load field, and one spare field that the attempt is transformed into and
that trades places with the accepted state; ``_StepHeat`` holds w's
spectrum and the multipliers of the current step size only.
``picard_solve`` keeps its n + 1 node fields, a ``_StepHeat`` for its one
step size, the accumulator, one load spectrum, one complex scratch for each
product and the inverse transform's leading axes, one real load field, and
one spare node field that each new node value is transformed into; the
replaced node's buffer takes the sweep difference and becomes the next spare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import EXPORTS
from .field import BlowupSignal, BoxGeometry, GridField, lq_norm, nonlinearity, sample
from .problem import (ProblemSpec, SpecFieldError, check_int, check_real, profile_min_rate,
                      validate)
from .semigroup import HeatKernelPlan

__all__ = list(EXPORTS["solver"])

GROWTH_HALVE = 0.20   # reject and halve above 20% sup-norm growth per step
GROWTH_DOUBLE = 0.01  # double (capped at dt0) below 1% growth
# Absolute growth floor, as a fraction of the forcing one full first step adds:
# growth is measured against sup_old + atol, so a run from rest is not
# halved down to the step floor by its first steps.
GROWTH_FLOOR = 0.1
# uniqueness_probe passes when the discrepancy falls at least this much per
# (dt, h) halving; first order would give 2.
MIN_PROBE_RATIO = 1.8
# picard_solve stops once two sweeps differ by less than PICARD_TOL in the
# sup-over-grid q-norm, and gives up after PICARD_MAX_SWEEPS sweeps.
PICARD_MAX_SWEEPS = 80
PICARD_TOL = 1e-10
# run_from_fields ends a run as budget_exhausted once it has taken MAX_STEPS
# steps short of t_end.
MAX_STEPS = 500_000
# uniqueness_probe's base level: T / PROBE_NODES per step and PROBE_NODES
# Picard nodes, both doubled with the grid at each refinement.
PROBE_NODES = 16


class NonContractionError(RuntimeError):
    """Picard differences grew for three consecutive sweeps."""


class IterationLimitError(RuntimeError):
    """Picard hit its iteration cap before reaching tolerance."""


class Verdict(str, Enum):
    COMPLETED = "completed"
    BLOWUP_DETECTED = "blowup_detected"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SolverConfig:
    """Stepping controls.

    dt0 is both the initial and the ceiling step (doubling never exceeds it).
    min_dt is the step floor: a rejected attempt whose half step would fall
    below it ends the run as blow-up (see ``run_from_fields``).  Each number
    is finite and > 0, min_dt <= dt0 and adapt a bool, else ValueError.
    """

    dt0: float = 1e-2
    t_end: float = 10.0
    blowup_threshold: float = 1e8
    min_dt: float = 1e-12
    adapt: bool = True

    def __post_init__(self):
        for name in ("dt0", "t_end", "blowup_threshold"):
            check_real(name, getattr(self, name), gt=0)
        check_real("min_dt", self.min_dt, gt=0, le=self.dt0)
        if not isinstance(self.adapt, bool):
            raise ValueError(f"adapt must be a bool, got {self.adapt!r}")

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class TrajectoryRecord:
    """Recorded run: aligned (t, ||u||_q, ||u||_inf, dt) samples plus verdict.

    Row zero is the initial state with dt = 0.  terminal is the last
    accepted field; it stays out of the JSON payload.
    """

    times: list
    q_norms: list
    sup_norms: list
    dt_history: list
    verdict: Verdict
    metadata: dict = field(default_factory=dict)
    terminal: GridField | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.q_norms) == len(self.sup_norms) == len(self.dt_history) == n):
            raise ValueError("trajectory columns must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def blowup_time_estimate(self) -> float | None:
        """The time of the last row on a blow-up verdict, else None."""
        return self.times[-1] if self.verdict == Verdict.BLOWUP_DETECTED else None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "blowup_time_estimate": self.blowup_time_estimate,
            "times": list(self.times),
            "q_norms": list(self.q_norms),
            "sup_norms": list(self.sup_norms),
            "dt_history": list(self.dt_history),
            "metadata": self.metadata,
        }

    def csv_text(self) -> str:
        lines = ["t,q_norm,sup_norm,dt"]
        for row in zip(self.times, self.q_norms, self.sup_norms, self.dt_history):
            lines.append(",".join(repr(v) for v in row))
        return "\n".join(lines) + "\n"


def _forcing_weight(t_n: float, dt: float, rho: float) -> tuple[float, float]:
    """Exact integral W of tau^rho over [t_n, t_n+dt], and the heat distance
    theta from the tau^rho-weighted mean tau to t_n+dt.

    For rho = 0 the weight is flat and theta is exactly dt/2.  Otherwise the
    exact mean lies inside the interval, but for dt << t_n the two power
    differences cancel catastrophically and the quotient can land outside
    it.  The clamp then returns an end of the step, so theta is 0 or dt
    rather than about dt/2, and W loses digits too.  The scheme keeps its
    order, as W (S(dt) - S(dt/2)) w is O(dt^2) like the step's local error,
    but neither value is then the exact one (ROADMAP.md, item 4, has a
    cancellation-free form).
    """
    t1 = t_n + dt
    if rho == 0:
        return t1 - t_n, 0.5 * dt
    w = (t1 ** (rho + 1) - t_n ** (rho + 1)) / (rho + 1)
    m1 = (t1 ** (rho + 2) - t_n ** (rho + 2)) / (rho + 2)
    if w <= 0.0 or not math.isfinite(w):
        # dt below the floating resolution of t_n: degenerate cell
        return max(w, 0.0), 0.5 * dt
    mean = min(max(m1 / w, t_n), t1)
    return w, t1 - mean


class _StepHeat:
    """Both routes' heat multipliers of one step size, held in place, and
    their forcing term.

    ``hold(dt)`` fills m(dt), m(dt/2) and dt m(dt/2) when dt changes; the
    scalar dt is folded into the real multiplier before any complex product.
    ``add_forcing`` adds W m(theta) w_hat for the held step, w (None without
    forcing) transformed once; ``counts`` is the plan's work since __init__.
    """

    def __init__(self, plan: HeatKernelPlan, w: GridField | None, rho: float):
        self.plan = plan
        self.rho = rho
        self.start = dict(plan.counts)
        self.w_hat = plan.spectrum(w) if w is not None else None
        self.dt = None
        shape = plan.ksq.shape
        self.m_dt, self.m_half, self.dt_m_half, self.m_theta = (
            np.empty(shape) for _ in range(4)
        )

    def hold(self, dt: float) -> None:
        if dt != self.dt:
            self.dt = dt
            self.plan.multiplier(dt, out=self.m_dt)
            self.plan.multiplier(dt / 2.0, out=self.m_half)
            np.multiply(self.m_half, dt, out=self.dt_m_half)

    def add_forcing(self, acc: np.ndarray, t: float, work: np.ndarray) -> None:
        """acc += W m(theta) w_hat for the held step from t, made in work;
        m(dt/2) is reused when theta is exactly dt/2.  No forcing adds nothing."""
        if self.w_hat is None:
            return
        weight, theta = _forcing_weight(t, self.dt, self.rho)
        m = self.m_half
        if theta != self.dt / 2.0:
            m = self.plan.multiplier(theta, out=self.m_theta)
        acc += np.multiply(self.w_hat, np.multiply(m, weight, out=self.m_theta), out=work)

    def counts(self) -> dict:
        return {k: n - self.start[k] for k, n in self.plan.counts.items()}


def _load_spectrum(spec, plan, u, out=None, work=None):
    """Half spectrum of the nonlinear load ||u||_q^alpha |u|^p, into out;
    the load field is made in work.  None allocates, as in numpy."""
    return plan.spectrum(nonlinearity(u, spec.p, spec.q, spec.alpha, out=work), out=out)


def run(
    spec: ProblemSpec,
    config: SolverConfig | None = None,
    geometry: BoxGeometry | None = None,
) -> TrajectoryRecord:
    """Sample the profiles and integrate to t_end or blow-up."""
    u0, w, plan = _sampled(spec, *(geometry or BoxGeometry()).resolve(spec.dim))
    return run_from_fields(spec, u0, w, config or SolverConfig(), plan)


def _sampled(spec, L, M):
    """u0, w (None without forcing) and the heat plan on the (L, M) grid."""
    u0 = sample(spec.u0, spec.dim, L, M)
    w = sample(spec.w, spec.dim, L, M) if spec.w.terms else None
    return u0, w, HeatKernelPlan(spec.dim, M, L)


def run_from_fields(
    spec: ProblemSpec,
    u0: GridField,
    w: GridField | None,
    config: SolverConfig,
    plan: HeatKernelPlan,
) -> TrajectoryRecord:
    """Core adaptive loop over prepared fields: the one stepper.

    Each step is one exponential-Euler step of the integral form,
    u_{n+1} = S(dt) u_n + S(dt/2) (dt * ||u_n||_q^alpha |u_n|^p) + W S(theta) w,
    the three terms summed in Fourier space and brought back by one inverse
    transform.  The heat flow is exact; the nonlinear load is frozen at the
    left endpoint and propagated from the interval midpoint.  W is the exact
    integral of tau^rho over [t_n, t_n+dt], and theta the distance from
    t_n+dt to the tau^rho-weighted mean: exactly dt/2 for rho = 0, tending
    to dt/2 once t_n >> dt, and keeping the first step O(dt^(rho+2)) accurate
    when the weight piles up at tau = 0.  A spatially constant state with
    alpha = 0 reduces this to the explicit Euler step of u' = |u|^p.  w=None
    means no forcing; a field off the plan's grid raises ValueError, and a
    u0 whose q-norm overflows raises SpecFieldError (a ValueError) naming
    "u0", both before any step.

    Step control: reject and halve when the sup norm grows more than 20% in
    one step (or the step or its norms overflow); double, capped at dt0,
    when growth is under 1%.  Growth is (sup_new - sup_old) / (sup_old +
    atol), the atol/rtol error test: atol is GROWTH_FLOOR times the forcing one full
    first step adds, ||w||_inf dt0^(rho+1)/(rho+1), and zero without
    forcing, so a run from rest starts at steps set by the forcing.  For
    rho < 0 the forcing rate tau^rho is unbounded at t = 0, and halving
    shrinks a first step's forcing only like dt^(rho+1); so at t = 0 atol
    is scaled by (dt/dt0)^rho, the step's mean forcing rate over dt0's, and
    a start from rest halves about as often as for rho = 0 instead of
    reaching the step floor.

    How a run ends.  A rejected attempt is never accepted, and every accepted
    step moves t.  The run ends completed at t_end, and budget_exhausted, an
    inconclusive verdict, when it is still short of t_end after MAX_STEPS
    steps.  It ends blowup_detected at t, the time of its last row, by one
    of three rules that metadata["blowup_by"] names (the key is absent on
    the other verdicts): "threshold" when an accepted step's sup norm
    reaches blowup_threshold; "step_floor" when a rejected attempt can no
    longer be halved without falling below min_dt; "time_resolution" when
    t + dt == t, so time can no longer advance.  The last two follow
    Nakagawa (1976): the numerical blow-up time is the limit of the step
    times.  With adapt=True the growth cap shrinks the steps near blow-up;
    with adapt=False the threshold estimate is good to one step of dt0.

    metadata["rejections"] counts refused attempts by cause, "growth" and
    "overflow", and metadata["counts"] the work done on the plan during the
    run (``HeatKernelPlan.counts``, less what it held on entry).  An accepted
    step makes one forward and one inverse transform, a rejected retry one
    inverse.  The record's terminal is the last accepted field, and u0 and w
    are never written.
    """
    try:
        q0 = lq_norm(u0, spec.q)
    except BlowupSignal as exc:
        raise SpecFieldError("u0", f"q-norm overflows at q = {spec.q!r}") from exc
    heat = _StepHeat(plan, w, spec.rho)
    t = 0.0
    u = u0
    u_hat, load_hat = plan.spectrum(u0), None  # a load is kept through retries
    out, load_buf, work = (np.empty_like(u_hat) for _ in range(3))
    load_field, spare = np.empty(u0.values.shape), np.empty(u0.values.shape)
    dt = config.dt0
    atol = 0.0
    if w is not None:
        first_weight, _ = _forcing_weight(0.0, config.dt0, spec.rho)
        atol = GROWTH_FLOOR * lq_norm(w, math.inf) * first_weight
    rejections = {"growth": 0, "overflow": 0}
    times = [0.0]
    q_norms = [q0]
    sup_norms = [lq_norm(u, math.inf)]
    dt_history = [0.0]
    blowup_by = None
    while True:
        remaining = config.t_end - t
        if remaining <= 1e-12 * config.t_end:
            verdict = Verdict.COMPLETED
            break
        if len(times) > MAX_STEPS:
            verdict = Verdict.BUDGET_EXHAUSTED
            break
        dt_step = min(dt, remaining)
        if t + dt_step == t:
            verdict, blowup_by = Verdict.BLOWUP_DETECTED, "time_resolution"
            break
        heat.hold(dt_step)
        try:
            if load_hat is None:
                load_hat = _load_spectrum(spec, plan, u, out=load_buf, work=load_field)
            np.multiply(u_hat, heat.m_dt, out=out)
            out += np.multiply(load_hat, heat.dt_m_half, out=work)
            heat.add_forcing(out, t, work)
            u_new = plan.field(out, out=spare, work=work)
            sup_new = lq_norm(u_new, math.inf)
            q_new = lq_norm(u_new, spec.q)
        except BlowupSignal:
            u_new, sup_new = None, math.inf
        sup_old = sup_norms[-1]
        atol_step = atol
        if t == 0.0 and spec.rho < 0:  # the forcing rate is unbounded at t = 0
            atol_step = atol * (dt_step / config.dt0) ** spec.rho
        scale = sup_old + atol_step  # 0 only for a zero state without forcing: it stays 0
        growth = (sup_new - sup_old) / scale if scale > 0 else 0.0
        if u_new is None or (config.adapt and growth > GROWTH_HALVE):
            rejections["overflow" if u_new is None else "growth"] += 1
            if dt_step / 2.0 < config.min_dt:
                verdict, blowup_by = Verdict.BLOWUP_DETECTED, "step_floor"
                break
            dt = dt_step / 2.0
            continue
        t += dt_step
        # the old state's buffers are free now, except u0, which is the caller's
        spare = u.values if u is not u0 else np.empty_like(spare)
        u, u_hat, out, load_hat = u_new, out, u_hat, None
        times.append(t)
        q_norms.append(q_new)
        sup_norms.append(sup_new)
        dt_history.append(dt_step)
        if sup_new >= config.blowup_threshold:
            verdict, blowup_by = Verdict.BLOWUP_DETECTED, "threshold"
            break
        if config.adapt and growth < GROWTH_DOUBLE:
            dt = min(dt * 2.0, config.dt0)
    metadata = _run_metadata(spec, config, u0)
    if blowup_by is not None:
        metadata["blowup_by"] = blowup_by
    metadata["rejections"] = rejections
    metadata["counts"] = heat.counts()
    return TrajectoryRecord(times, q_norms, sup_norms, dt_history, verdict, metadata,
                            terminal=u)


def _run_metadata(spec, config, u0) -> dict:
    min_rate = min(profile_min_rate(spec.u0), profile_min_rate(spec.w))
    L = u0.half_width
    trunc = math.exp(-(L**2) * min_rate)  # 0.0 without terms, where min_rate is inf
    return {
        "spec": spec.to_json_dict(),
        "spec_hash": spec.spec_hash(),
        "config": config.to_json_dict(),
        "half_width": L,
        "points_per_axis": u0.points_per_axis,
        "truncation_bound": trunc,
    }


class PicardResult(NamedTuple):
    """Terminal node value, sweeps taken, every sweep's difference, and the
    work the solve did on its plan (``HeatKernelPlan.counts``, less what it
    held on entry)."""

    terminal: GridField
    iterations: int
    differences: tuple
    counts: dict


def picard_solve(
    spec: ProblemSpec,
    u0: GridField,
    w: GridField | None,
    T: float,
    nodes: int = 32,
    plan: HeatKernelPlan | None = None,
) -> PicardResult:
    """Fixed-point sweep of the integral form on ``nodes`` uniform time steps.

    Each sweep rebuilds every node value from the previous sweep's loads.
    The nonlinear history integral uses the trapezoid rule with exact heat
    distances to both subinterval endpoints; the forcing uses its exact
    tau^rho weights.  This quadrature deliberately differs from the marching
    scheme in ``run_from_fields`` (left load, midpoint heat shift), so the
    two routes are independent discretizations of the same integral equation
    and their gap measures discretization error, not roundoff.

    On the uniform grid S(s + dt) = S(dt) S(s) turns the data, forcing and
    history sums into one recursion in the multiplier S(dt), so a sweep
    marches one spectral accumulator from G_0 = u0_hat: G_{j+1} =
    S(dt) (G_j + dt/2 N_j) + dt/2 N_{j+1} + W_j S(theta_j) w_hat, and node
    j+1 is the field of G_{j+1}; the first node values march it without
    loads.  Unrolled it is the same sums, at O(n) spectral operations per
    sweep.  S(dt) and each node's forcing term W_j S(theta_j) w_hat come
    from ``_StepHeat``, which also forms the stepper's, the term made afresh
    whenever the march reaches its node.  u0 and w are never written.

    Stops when sweeps differ by less than PICARD_TOL in sup-over-grid q-norm.
    Raises NonContractionError once the difference has not fallen for three
    sweeps running, and IterationLimitError after PICARD_MAX_SWEEPS sweeps.
    w=None means no forcing; T not positive and finite, nodes not an integer
    >= 2 or a plan for another grid than u0's (or w's) raises ValueError.
    """
    check_real("T", T, gt=0)
    check_int("nodes", nodes, ge=2)
    rep = validate(spec)
    if not rep.lwp_ok:
        raise ValueError(f"fixed-point hypotheses fail: {rep.failed()}")
    if plan is None:
        plan = HeatKernelPlan.for_field(u0)
    dt = T / nodes
    heat = _StepHeat(plan, w, spec.rho)
    heat.hold(dt)  # S(dt) is heat.m_dt
    u0_hat = plan.spectrum(u0)
    acc, load, work = (np.empty_like(u0_hat) for _ in range(3))
    load_field, spare = np.empty(u0.values.shape), np.empty(u0.values.shape)

    def half_load(u, out=None):
        out = _load_spectrum(spec, plan, u, out=out, work=load_field)
        out *= dt / 2.0
        return out

    states = [u0]
    np.copyto(acc, u0_hat)
    for j in range(nodes):
        acc *= heat.m_dt
        heat.add_forcing(acc, j * dt, work)
        states.append(plan.field(acc, work=work))
    load0 = half_load(u0)
    diffs = []
    for _ in range(PICARD_MAX_SWEEPS):
        np.copyto(acc, u0_hat)
        left = load0
        d = 0.0
        for j in range(1, nodes + 1):
            # each old node is read once, before the sweep overwrites it
            old = states[j]
            acc += left
            acc *= heat.m_dt
            left = half_load(old, out=load)  # the right end, and the next left
            acc += left
            heat.add_forcing(acc, (j - 1) * dt, work)
            new = plan.field(acc, out=spare, work=work)
            # old's buffer takes the difference, then becomes the next spare
            diff = np.subtract(new.values, old.values, out=old.values)
            d = max(d, lq_norm(old.with_values(diff), spec.q))
            states[j], spare = new, old.values
        diffs.append(d)
        if d < PICARD_TOL:
            break
        if len(diffs) >= 4 and diffs[-4] <= diffs[-3] <= diffs[-2] <= diffs[-1]:
            raise NonContractionError(f"differences grew 3 sweeps running (last {d:.3e})")
    else:
        raise IterationLimitError(
            f"no convergence in {PICARD_MAX_SWEEPS} sweeps (last diff {diffs[-1]:.3e})"
        )
    return PicardResult(states[-1], len(diffs), tuple(diffs), heat.counts())


class UniquenessReport(NamedTuple):
    discrepancies: tuple
    ratios: tuple
    passed: bool
    details: dict


def uniqueness_probe(
    spec: ProblemSpec,
    T: float = 0.1,
    geometry: BoxGeometry | None = None,
    levels: int = 2,
) -> UniquenessReport:
    """Stepper-vs-Picard discrepancy under simultaneous (dt, h) refinement.

    Runs both routes to time T at the base resolution and at ``levels``
    successive refinements, and reports the q-norm discrepancies of the
    terminal states plus their per-level decrease ratios; it passes when
    every ratio is at least MIN_PROBE_RATIO.  Level lvl takes fixed steps
    dt = T / PROBE_NODES / 2**lvl on the same PROBE_NODES * 2**lvl Picard
    nodes, with the points per axis doubled each level.  Each level samples
    the problem record's own profiles on its grid; T not positive and
    finite, levels not an integer >= 1, or a finest grid past CELL_CAP
    raises ValueError before any run.  details["levels"] holds one entry per level,
    with Picard's sweeps and work counts (``PicardResult.counts``) as
    "picard_counts" and the stepper run's metadata "counts" and
    "rejections" as "stepper_counts" and "stepper_rejections".
    """
    check_real("T", T, gt=0)
    check_int("levels", levels, ge=1)
    rep = validate(spec)
    if not rep.uniq_ok:
        raise ValueError(f"uniqueness hypotheses fail: {rep.failed()}")
    L, M0 = (geometry or BoxGeometry(points_per_axis=64)).resolve(spec.dim)
    BoxGeometry(L, M0 * 2**levels).resolve(spec.dim)  # refuse before any level runs
    discrepancies = []
    details = {"levels": []}
    for lvl in range(levels + 1):
        M = M0 * 2**lvl
        nodes = PROBE_NODES * 2**lvl
        dt = T / nodes
        config = SolverConfig(dt0=dt, t_end=T, min_dt=min(SolverConfig.min_dt, dt),
                              adapt=False)
        u0, w, plan = _sampled(spec, L, M)
        traj = run_from_fields(spec, u0, w, config, plan)
        if traj.verdict != Verdict.COMPLETED:
            raise RuntimeError(f"probe run did not complete: {traj.verdict.value}")
        pic = picard_solve(spec, u0, w, T, nodes, plan)
        d = lq_norm(traj.terminal - pic.terminal, spec.q)
        discrepancies.append(d)
        details["levels"].append(
            {"points_per_axis": M, "dt": dt, "picard_nodes": nodes,
             "discrepancy": d, "picard_iterations": pic.iterations,
             "picard_counts": pic.counts, "stepper_counts": traj.metadata["counts"],
             "stepper_rejections": traj.metadata["rejections"]}
        )
    ratios = tuple(
        discrepancies[i] / discrepancies[i + 1] if discrepancies[i + 1] > 0 else math.inf
        for i in range(len(discrepancies) - 1)
    )
    passed = all(r >= MIN_PROBE_RATIO for r in ratios)
    return UniquenessReport(tuple(discrepancies), ratios, passed, details)

