"""Mild-solution drivers for the forced nonlocal heat equation.

The state advances through the integral (Duhamel) form: heat flow applied to
the current state, plus a one-step quadrature of the nonlinear load, plus a
forcing increment whose singular t^rho weight is integrated exactly.  Two
independent routes to the same solution are kept deliberately separate:

* ``run`` -- explicit exponential-Euler stepping with adaptive step control
  and blow-up detection against a sup-norm threshold;
* ``picard_solve`` -- fixed-point iteration of the integral form on a fixed
  inner time grid.

They share the semigroup and the nonlinearity but not the time discretization,
so their agreement under refinement is meaningful evidence of correctness
(``uniqueness_probe`` measures exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .field import BlowupSignal, BoxGeometry, GridField, lq_norm, nonlinearity, sample
from .problem import ProblemSpec, ProfileSpec, profile_min_rate, validate
from .semigroup import HeatKernelPlan

__all__ = [
    "Verdict",
    "SolverConfig",
    "TrajectoryRecord",
    "PicardResult",
    "UniquenessReport",
    "NonContractionError",
    "IterationLimitError",
    "step",
    "run",
    "run_from_fields",
    "picard_solve",
    "uniqueness_probe",
]

GROWTH_HALVE = 0.20   # reject and halve above 20% sup-norm growth per step
GROWTH_DOUBLE = 0.01  # double (capped at dt0) below 1% growth


class NonContractionError(RuntimeError):
    """Picard differences grew for three consecutive sweeps."""


class IterationLimitError(RuntimeError):
    """Picard hit its iteration cap before reaching tolerance."""


class Verdict(str, Enum):
    COMPLETED = "completed"
    BLOWUP_DETECTED = "blowup_detected"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class SolverConfig:
    """Stepping controls.

    dt0 is both the initial and the ceiling step (doubling never exceeds it);
    halving stops at min_dt, below which a still-rejecting run ends as
    step_underflow.
    """

    dt0: float = 1e-2
    t_end: float = 10.0
    blowup_threshold: float = 1e8
    min_dt: float = 1e-12
    adapt: bool = True
    picard_nodes: int = 32
    picard_max_iters: int = 80
    picard_tol: float = 1e-10
    max_steps: int = 500_000
    disable_nonlinearity: bool = False  # test hook: pure heat + forcing

    def __post_init__(self):
        if not (self.dt0 > 0 and self.t_end > 0):
            raise ValueError("dt0 and t_end must be positive")
        if not (0 < self.min_dt <= self.dt0):
            raise ValueError("need 0 < min_dt <= dt0")
        if self.picard_nodes < 2 or self.picard_tol <= 0:
            raise ValueError("bad picard settings")

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class TrajectoryRecord:
    """Recorded run: aligned (t, ||u||_q, ||u||_inf, dt) samples plus verdict.

    Row zero is the initial state with dt = 0.  blowup_time_estimate is set
    exactly when the verdict is blowup_detected.  terminal is the last
    accepted field; it stays out of the JSON payload.
    """

    times: list
    q_norms: list
    sup_norms: list
    dt_history: list
    verdict: Verdict
    blowup_time_estimate: float | None
    metadata: dict = field(default_factory=dict)
    terminal: GridField | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.q_norms) == len(self.sup_norms) == len(self.dt_history) == n):
            raise ValueError("trajectory columns must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if (self.verdict == Verdict.BLOWUP_DETECTED) != (
            self.blowup_time_estimate is not None
        ):
            raise ValueError(
                "blowup_time_estimate must accompany exactly the blow-up verdict"
            )

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
    """Exact integral of tau^rho over [t_n, t_n+dt] and the weighted mean tau.

    The mean always lies inside the interval; for dt << t_n the two power
    differences cancel catastrophically, so the quotient is clamped back into
    [t_n, t_n+dt] (where it converges to the midpoint anyway).
    """
    t1 = t_n + dt
    w = (t1 ** (rho + 1) - t_n ** (rho + 1)) / (rho + 1)
    m1 = (t1 ** (rho + 2) - t_n ** (rho + 2)) / (rho + 2)
    if w <= 0.0 or not math.isfinite(w):
        # dt below the floating resolution of t_n: degenerate cell
        return max(w, 0.0), t_n + 0.5 * dt
    mean = m1 / w
    if not (t_n <= mean <= t1):
        mean = min(max(mean, t_n), t1)
    return w, mean


def step(
    spec: ProblemSpec,
    u_n: GridField,
    t_n: float,
    dt: float,
    plan: HeatKernelPlan,
    w: GridField | None = None,
    *,
    disable_nonlinearity: bool = False,
) -> GridField:
    """One exponential-Euler step of the integral form.

    u_{n+1} = S(dt) u_n + S(dt/2) (dt * ||u_n||_q^alpha |u_n|^p) + W S(theta) w,
    with the three terms summed in Fourier space and brought back by one
    inverse transform.  The heat flow is exact; the nonlinear load is frozen
    at the left endpoint and propagated from the interval midpoint.  The
    forcing weight W is the exact integral of tau^rho over [t_n, t_n+dt], and
    theta is the distance from t_n+dt to the tau^rho-weighted mean: exactly
    dt/2 for rho = 0, tending to dt/2 once t_n >> dt, and keeping the first
    step O(dt^(rho+2)) accurate when the weight piles up at tau = 0.  A
    spatially constant state with alpha = 0 reduces this to the explicit
    Euler step of u' = |u|^p.  Overflow anywhere surfaces as BlowupSignal
    rather than NaNs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not plan.matches(u_n) or (w is not None and not plan.matches(w)):
        raise ValueError("plan geometry does not match the field")
    out = np.fft.rfftn(u_n.values) * plan.multiplier(dt)
    if not disable_nonlinearity:
        load = nonlinearity(u_n, spec.p, spec.q, spec.alpha)
        out += np.fft.rfftn(dt * load.values) * plan.multiplier(dt / 2.0)
    if w is not None and np.any(w.values):
        weight, mean_tau = _forcing_weight(t_n, dt, spec.rho)
        theta = (t_n + dt) - mean_tau
        out += weight * np.fft.rfftn(w.values) * plan.multiplier(theta)
    out = np.fft.irfftn(out, s=u_n.values.shape, axes=tuple(range(u_n.dim)))
    return u_n.with_values(out)  # constructor turns non-finite into BlowupSignal


def run(
    spec: ProblemSpec,
    config: SolverConfig | None = None,
    geometry: BoxGeometry | None = None,
) -> TrajectoryRecord:
    """Sample the profiles and integrate to t_end or blow-up."""
    config = config or SolverConfig()
    geometry = geometry or BoxGeometry()
    L, M = geometry.resolve(spec.dim)
    u0 = sample(spec.u0, spec.dim, L, M)
    w = sample(spec.w, spec.dim, L, M) if spec.w.terms else None
    plan = HeatKernelPlan(spec.dim, M, L)
    return run_from_fields(spec, u0, w, config, plan)


def run_from_fields(
    spec: ProblemSpec,
    u0: GridField,
    w: GridField | None,
    config: SolverConfig,
    plan: HeatKernelPlan,
) -> TrajectoryRecord:
    """Core adaptive loop over prepared fields.

    Step control: reject and halve when the sup norm grows more than 20% in
    one step (or the step overflows); double, capped at dt0, when growth is
    under 1%.  Crossing the blow-up threshold ends the run, with the crossing
    time refined by bisection on the length of the final step.  If a step
    still rejects when dt can no longer be halved, the run ends
    step_underflow: an inconclusive verdict, never a silent blow-up call.
    The record's terminal is the last accepted field.
    """
    t = 0.0
    u = u0
    dt = min(config.dt0, config.t_end)
    times = [0.0]
    q_norms = [lq_norm(u, spec.q)]
    sup_norms = [lq_norm(u, math.inf)]
    dt_history = [0.0]
    verdict = None
    blowup_estimate = None
    while True:
        remaining = config.t_end - t
        if remaining <= 1e-12 * config.t_end:
            verdict = Verdict.COMPLETED
            break
        if len(times) > config.max_steps:
            raise RuntimeError("step budget exhausted before t_end")
        dt_step = min(dt, remaining)
        u_new, sup_new = _attempt(spec, u, t, dt_step, plan, w, config)
        sup_old = sup_norms[-1]
        if sup_old > 0:
            growth = (sup_new - sup_old) / sup_old
        else:
            growth = math.inf if sup_new > 0 else 0.0
        rejecting = u_new is None or (config.adapt and growth > GROWTH_HALVE)
        if rejecting and dt_step / 2.0 >= config.min_dt:
            dt = dt_step / 2.0
            continue
        if u_new is None:
            verdict = Verdict.STEP_UNDERFLOW
            break
        # accept the step
        if sup_new >= config.blowup_threshold:
            blowup_estimate = t + _bisect_crossing(spec, u, t, dt_step, plan, w, config)
        t += dt_step
        u = u_new
        times.append(t)
        q_norms.append(lq_norm(u, spec.q))
        sup_norms.append(sup_new)
        dt_history.append(dt_step)
        if blowup_estimate is not None:
            verdict = Verdict.BLOWUP_DETECTED
            break
        if config.adapt:
            if growth < GROWTH_DOUBLE:
                dt = min(dt_step * 2.0, config.dt0)
            else:
                dt = dt_step
    metadata = _run_metadata(spec, config, u0)
    return TrajectoryRecord(
        times, q_norms, sup_norms, dt_history, verdict, blowup_estimate, metadata,
        terminal=u,
    )


def _attempt(spec, u, t, dt, plan, w, config):
    """One step and its sup norm; (None, inf) when the step overflows."""
    try:
        nxt = step(spec, u, t, dt, plan, w,
                   disable_nonlinearity=config.disable_nonlinearity)
        return nxt, lq_norm(nxt, math.inf)
    except BlowupSignal:
        return None, math.inf


def _bisect_crossing(spec, u_prev, t_prev, dt_cross, plan, w, config, iters=40):
    """Crossing offset s in (0, dt_cross]: threshold first reached stepping s."""
    lo, hi = 0.0, dt_cross
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # float interval exhausted
            break
        _, sup_mid = _attempt(spec, u_prev, t_prev, mid, plan, w, config)
        if sup_mid >= config.blowup_threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _run_metadata(spec, config, u0) -> dict:
    min_rate = min(profile_min_rate(spec.u0), profile_min_rate(spec.w))
    L = u0.half_width
    trunc = 0.0 if math.isinf(min_rate) else math.exp(-(L**2) * min_rate)
    return {
        "spec": spec.to_json_dict(),
        "spec_hash": spec.spec_hash(),
        "config": config.to_json_dict(),
        "half_width": L,
        "points_per_axis": u0.points_per_axis,
        "truncation_bound": trunc,
    }


@dataclass(frozen=True)
class PicardResult:
    terminal: GridField
    iterations: int
    contraction_estimate: float
    differences: tuple


def picard_solve(
    spec: ProblemSpec,
    u0: GridField,
    w: GridField | None,
    T: float,
    config: SolverConfig | None = None,
    plan: HeatKernelPlan | None = None,
) -> PicardResult:
    """Fixed-point sweep of the integral form on a uniform inner time grid.

    Each sweep rebuilds every node value from the previous sweep's loads.
    The nonlinear history integral uses the trapezoid rule with exact heat
    distances to both subinterval endpoints; the forcing uses its exact
    tau^rho weights.  This quadrature deliberately differs from the marching
    scheme in `step` (left load, midpoint heat shift), so the two routes are
    independent discretizations of the same integral equation and their gap
    measures discretization error, not roundoff.  Stops when sweeps differ by
    less than picard_tol in sup-over-grid q-norm.  The contraction estimate
    is the first successive-difference quotient, the cleanest observable
    surrogate of the fixed-point map's Lipschitz factor.
    """
    config = config or SolverConfig()
    if T <= 0:
        raise ValueError("T must be positive")
    rep = validate(spec)
    if not rep.lwp_ok:
        raise ValueError(f"fixed-point hypotheses fail: {rep.failed()}")
    if plan is None:
        plan = HeatKernelPlan.for_field(u0)
    n = config.picard_nodes
    dt = T / n
    t_grid = [j * dt for j in range(n + 1)]
    shape = u0.values.shape

    axes = tuple(range(spec.dim))
    u0_hat = np.fft.rfftn(u0.values)
    # on the uniform grid the heat kernel between nodes depends on the lag only
    lag = [plan.multiplier(t) for t in t_grid]
    # linear part (heat flow of the data plus full forcing history) is fixed
    linear_hat = [u0_hat * m for m in lag]
    if w is not None and np.any(w.values):
        w_hat = np.fft.rfftn(w.values)
        weights = []
        means = []
        for i in range(n):
            wt, mean_tau = _forcing_weight(t_grid[i], dt, spec.rho)
            weights.append(wt)
            means.append(mean_tau)
        for j in range(1, n + 1):
            acc = np.zeros_like(w_hat)
            for i in range(j):
                acc += weights[i] * plan.multiplier(t_grid[j] - means[i]) * w_hat
            linear_hat[j] = linear_hat[j] + acc

    def to_fields(hats):
        return [
            u0.with_values(np.fft.irfftn(h, s=shape, axes=axes)) for h in hats
        ]

    states = to_fields(linear_hat)
    states[0] = u0
    diffs = []
    grow_streak = 0
    for it in range(1, config.picard_max_iters + 1):
        if config.disable_nonlinearity:
            new_states = states
        else:
            load_hat = [
                np.fft.rfftn(nonlinearity(s, spec.p, spec.q, spec.alpha).values)
                for s in states
            ]
            new_hats = []
            for j in range(n + 1):
                acc = linear_hat[j].copy()
                for i in range(j):
                    acc += (dt / 2.0) * (
                        lag[j - i] * load_hat[i] + lag[j - i - 1] * load_hat[i + 1]
                    )
                new_hats.append(acc)
            new_states = to_fields(new_hats)
            new_states[0] = u0
        d = max(
            lq_norm(a - b, spec.q) for a, b in zip(new_states, states)
        )
        diffs.append(d)
        states = new_states
        if d < config.picard_tol:
            break
        if len(diffs) >= 2 and diffs[-1] >= diffs[-2]:
            grow_streak += 1
            if grow_streak >= 3:
                raise NonContractionError(
                    f"differences grew 3 sweeps running (last {d:.3e})"
                )
        else:
            grow_streak = 0
    else:
        raise IterationLimitError(
            f"no convergence in {config.picard_max_iters} sweeps (last diff {diffs[-1]:.3e})"
        )
    contraction = diffs[1] / diffs[0] if len(diffs) >= 2 and diffs[0] > 0 else 0.0
    return PicardResult(states[-1], len(diffs), contraction, tuple(diffs))


@dataclass(frozen=True)
class UniquenessReport:
    discrepancies: tuple
    ratios: tuple
    passed: bool
    details: dict


def uniqueness_probe(
    spec: ProblemSpec,
    u0: ProfileSpec | None = None,
    w: ProfileSpec | None = None,
    T: float = 0.1,
    geometry: BoxGeometry | None = None,
    config: SolverConfig | None = None,
    levels: int = 2,
    min_ratio: float = 1.8,
) -> UniquenessReport:
    """Stepper-vs-Picard discrepancy under simultaneous (dt, h) refinement.

    Runs both routes to time T at the base resolution and at ``levels``
    successive refinements (dt and the inner grid spacing halved, points per
    axis doubled), and reports the q-norm discrepancies of the terminal
    states plus their per-level decrease ratios.  Profiles default to the
    ones carried by the problem record; they are arguments because each level
    resamples them.
    """
    rep = validate(spec)
    if not rep.uniq_ok:
        raise ValueError(f"uniqueness hypotheses fail: {rep.failed()}")
    u0 = u0 if u0 is not None else spec.u0
    w = w if w is not None else spec.w
    geometry = geometry or BoxGeometry(points_per_axis=64)
    config = config or SolverConfig(dt0=T / 16, t_end=T, adapt=False, picard_nodes=16)
    L, M0 = geometry.resolve(spec.dim)
    discrepancies = []
    details = {"levels": []}
    for lvl in range(levels + 1):
        M = M0 * 2**lvl
        cfg = replace(
            config,
            dt0=config.dt0 / 2**lvl,
            t_end=T,
            min_dt=min(config.min_dt, config.dt0 / 2**lvl),
            adapt=False,
            picard_nodes=config.picard_nodes * 2**lvl,
        )
        u0f = sample(u0, spec.dim, L, M)
        wf = sample(w, spec.dim, L, M) if w.terms else None
        plan = HeatKernelPlan(spec.dim, M, L)
        traj = run_from_fields(spec, u0f, wf, cfg, plan)
        if traj.verdict != Verdict.COMPLETED:
            raise RuntimeError(f"probe run did not complete: {traj.verdict.value}")
        pic = picard_solve(spec, u0f, wf, T, cfg, plan)
        d = lq_norm(traj.terminal - pic.terminal, spec.q)
        discrepancies.append(d)
        details["levels"].append(
            {"points_per_axis": M, "dt": cfg.dt0, "picard_nodes": cfg.picard_nodes,
             "discrepancy": d, "picard_iterations": pic.iterations}
        )
    ratios = tuple(
        discrepancies[i] / discrepancies[i + 1] if discrepancies[i + 1] > 0 else math.inf
        for i in range(len(discrepancies) - 1)
    )
    passed = all(r >= min_ratio for r in ratios)
    return UniquenessReport(tuple(discrepancies), ratios, passed, details)

