"""Time stepping and Picard iteration.

The exponential-Euler step applies the exact linear propagator, so linear
problems are solved exactly up to roundoff regardless of dt; that gives sharp
reference tests.  A spatially constant state turns the PDE into the scalar
ODE u' = u^p with known blow-up time, which pins the detector."""

import math
import tracemalloc

import numpy as np
import pytest

from fujitalab import field, solver
from fujitalab.field import BoxGeometry, GridField, lq_norm, sample
from fujitalab.problem import ProblemSpec, ProfileSpec, SpecFieldError
from fujitalab.semigroup import HeatKernelPlan, apply
from fujitalab.solver import (
    PICARD_MAX_SWEEPS,
    IterationLimitError,
    NonContractionError,
    SolverConfig,
    TrajectoryRecord,
    Verdict,
    picard_solve,
    run,
    run_from_fields,
    uniqueness_probe,
)

ZERO = ProfileSpec.zero()


def _const_field(value, M=16):
    return GridField(1, 8.0, np.full(M, float(value)))


def _reference_step(spec, u, t_n, dt, plan, w=None):
    """One exponential-Euler step as three heat round trips in real space,
    S(dt) u + S(dt/2)(dt * load) + W S(theta) w, with the load made in numpy
    and W and theta in closed form: it shares no code with the run's fused
    Fourier-space sum, so it is an independent reference for it."""
    v = u.values
    norm = (np.sum(np.abs(v) ** spec.q) * u.cell_volume) ** (1.0 / spec.q)
    load = norm**spec.alpha * np.abs(v) ** spec.p
    out = apply(plan, u, dt).values + apply(plan, u.with_values(dt * load), dt / 2.0).values
    if w is not None:
        rho, t1 = spec.rho, t_n + dt
        weight = (t1 ** (rho + 1) - t_n ** (rho + 1)) / (rho + 1)
        mean_tau = (t1 ** (rho + 2) - t_n ** (rho + 2)) / (rho + 2) / weight
        out = out + weight * apply(plan, w, t1 - mean_tau).values
    return u.with_values(out)


def _replay(spec, rec, u0, plan, w=None):
    """The run's accepted step sizes, replayed from u0 with _reference_step."""
    u, t = u0, 0.0
    for dt in rec.dt_history[1:]:
        u = _reference_step(spec, u, t, dt, plan, w)
        t += dt
    return u


def test_ode_blowup_time():
    # constant state, alpha=0, w=0, p=2: u(t) = 1/(1-t), T* = 1
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=1e-3, t_end=2.0, blowup_threshold=1e8)
    u0 = _const_field(1.0)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.blowup_time_estimate == pytest.approx(1.0, abs=0.05)


def test_ode_p3_blowup_time():
    # u' = u^3 from u=1 blows up at T* = 1/2
    spec = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=1e-3, t_end=2.0, blowup_threshold=1e8)
    u0 = _const_field(1.0)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.blowup_time_estimate == pytest.approx(0.5, abs=0.03)
    # the 20% cap asks for steps below min_dt before u reaches 1e8, so the
    # run ends at the step floor, not by the threshold
    assert rec.metadata["blowup_by"] == "step_floor"
    # a step rejected for growth is never accepted, not even at the floor
    assert rec.metadata["rejections"]["growth"] > 0
    growth = [(b - a) / a for a, b in zip(rec.sup_norms, rec.sup_norms[1:])]
    assert max(growth) <= solver.GROWTH_HALVE


def test_overflow_at_min_dt_ends_as_blowup_at_the_step_floor():
    # 1e150^3 overflows at every dt, so no step is ever accepted: u leaves
    # every bound at once, and the run ends as blow-up at t = 0
    spec = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(blowup_threshold=1e300, min_dt=1e-6)
    u0 = _const_field(1e150)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.metadata["blowup_by"] == "step_floor"
    assert rec.times == [0.0] and rec.blowup_time_estimate == 0.0
    # halvings from 1e-2 down to min_dt, then the refused attempt at min_dt
    assert rec.metadata["rejections"] == {"growth": 0, "overflow": 14}


def test_an_overflowing_q_norm_is_an_overflow_rejection():
    # at q = 40 the q-norm leaves double range while the field is still
    # finite: the attempt is refused like a non-finite field, and the run
    # returns a record instead of letting BlowupSignal escape
    spec = ProblemSpec(1, 2.0, 40.0, 0.0, 0.0,
                       ProfileSpec.gaussian(5.0, 0.1, (0.0,)))
    rec = run(spec, SolverConfig(dt0=0.01, t_end=10.0), BoxGeometry(16.0, 64))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.metadata["blowup_by"] == "step_floor"
    assert rec.times[-1] == pytest.approx(0.22902716268785295, rel=1e-12)
    assert len(rec.times) - 1 == 132
    assert rec.metadata["rejections"] == {"growth": 21, "overflow": 16}
    assert all(math.isfinite(v) for v in rec.q_norms)


def test_an_initial_state_whose_q_norm_overflows_is_refused():
    # 1e10 e^{-0.1 x^2} is finite on the grid, but its 40-norm is not; the
    # cell sum of (1.3e154 e^{-10 x^2})^2 is finite, but not times the cell
    # volume h = 8
    for q, amplitude, rate, box in ((40.0, 1e10, 0.1, BoxGeometry(16.0, 64)),
                                    (2.0, 1.3e154, 10.0, BoxGeometry(64.0, 16))):
        spec = ProblemSpec(1, 2.0, q, 0.0, 0.0,
                           ProfileSpec.gaussian(amplitude, rate, (0.0,)))
        with pytest.raises(SpecFieldError) as exc:
            run(spec, SolverConfig(dt0=0.01, t_end=1.0), box)
        assert (exc.value.field_name, exc.value.reason) == (
            "u0", f"q-norm overflows at q = {q!r}")


def test_late_blowup_ends_when_time_stops_advancing():
    # u' = u^3 from 0.005 blows up at T* = 1/(2 u0^2) = 20,000; near there
    # the capped steps fall below the resolution of t before the step floor
    spec = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=1.0, t_end=3e4)
    u0 = _const_field(0.005)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.metadata["blowup_by"] == "time_resolution"
    assert rec.blowup_time_estimate == rec.times[-1]
    assert rec.blowup_time_estimate == pytest.approx(20_007.0, abs=1.0)


@pytest.mark.usefixtures("zero_load")
def test_linear_flow_is_exact_per_step():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.5, 1.0, (0.0,)), 1, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.25, t_end=3.0)
    rec = run_from_fields(spec, u0, None, cfg, plan)
    assert rec.verdict is Verdict.COMPLETED
    # the recorded q-norm at the end equals the directly propagated one
    direct = apply(plan, u0, 3.0)
    assert rec.q_norms[-1] == pytest.approx(lq_norm(direct, 2.0), rel=1e-12)
    # and a coarser dt gives the same answer: the linear part is exact
    rec2 = run_from_fields(spec, u0, None, SolverConfig(dt0=1.0, t_end=3.0), plan)
    assert rec2.q_norms[-1] == pytest.approx(rec.q_norms[-1], rel=1e-12)


@pytest.mark.usefixtures("zero_load")
def test_single_step_linear_matches_apply():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.5, 1.0, (0.0,)), 1, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    rec = run_from_fields(spec, u0, None, SolverConfig(dt0=0.125, t_end=0.125), plan)
    assert rec.times == [0.0, 0.125]
    ref = apply(plan, u0, 0.125)
    assert np.allclose(rec.terminal.values, ref.values, atol=1e-14)


@pytest.mark.usefixtures("zero_load")
def test_step_forcing_constant_w_exact_weights():
    # from rest the state is the forcing increments alone; the semigroup
    # fixes constants and the exact cell weights telescope, so every row is
    # w times the exact integral of tau^rho from 0 to its time
    for M, c in ((16, 1.0), (32, 2.0)):
        zero, w = _const_field(0.0, M=M), _const_field(c, M=M)
        plan = HeatKernelPlan.for_field(w)
        for rho in (0.0, -0.5, 0.7):
            spec = ProblemSpec(1, 2.0, 2.0, 0.0, rho, ZERO, ZERO)
            for dt0, t_end in ((0.1, 0.45), (0.01, 7.01)):
                cfg = SolverConfig(dt0=dt0, t_end=t_end, adapt=False)
                rec = run_from_fields(spec, zero, w, cfg, plan)
                assert rec.verdict is Verdict.COMPLETED
                assert rec.times[-1] == pytest.approx(t_end, rel=1e-12)
                for t, sup in zip(rec.times, rec.sup_norms):
                    exact = c * t ** (rho + 1) / (rho + 1)
                    assert sup == pytest.approx(exact, rel=1e-12), (M, rho, dt0, t)
    with pytest.raises(ValueError):  # rho <= -1 never reaches the stepper
        ProblemSpec(1, 2.0, 2.0, 0.0, -1.0, ZERO, ZERO)


@pytest.mark.usefixtures("zero_load")
def test_step_forcing_constant_w_through_semigroup():
    # the semigroup fixes constants, so the exact weights survive a real plan:
    # from rest, the step from 0.2 to 0.25 adds w times the integral of tau^rho
    w = _const_field(2.0, M=32)
    zero = _const_field(0.0, M=32)
    plan = HeatKernelPlan.for_field(w)
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, -0.5, ZERO, ZERO)
    before = run_from_fields(spec, zero, w, SolverConfig(dt0=0.05, t_end=0.2, adapt=False), plan)
    after = run_from_fields(spec, zero, w, SolverConfig(dt0=0.05, t_end=0.25, adapt=False), plan)
    assert after.times[-1] == pytest.approx(0.25, rel=1e-12)
    assert before.times[-1] == pytest.approx(0.2, rel=1e-12)
    inc = after.terminal.values - before.terminal.values
    exact = 2.0 * (0.25**0.5 - 0.2**0.5) / 0.5
    assert np.allclose(inc, exact, rtol=1e-12)


def test_fused_step_equals_three_round_trips():
    # each step sums in Fourier space what three separate heat applications
    # sum in real space
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.8, 1.0, (0.5, -0.25)), 2, 8.0, 64)
    w = sample(ProfileSpec.gaussian(0.3, 2.0, (0.0, 0.0)), 2, 8.0, 64)
    plan = HeatKernelPlan.for_field(u0)
    rec = run_from_fields(spec, u0, w, SolverConfig(dt0=0.05, t_end=0.35, adapt=False), plan)
    assert len(rec.times) == 8
    ref = _replay(spec, rec, u0, plan, w)
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(rec.terminal.values - ref.values)) <= 1e-14 * scale


def test_step_rejects_a_plan_of_another_geometry():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u = _const_field(1.0, M=32)
    cfg = SolverConfig(dt0=0.1, t_end=0.2)
    mismatched = [
        (HeatKernelPlan(1, 16, 8.0), None),
        (HeatKernelPlan.for_field(u), _const_field(1.0, M=16)),
        (HeatKernelPlan.for_field(u), GridField(1, 4.0, np.ones(32))),
        # same point count, another box: only the half-width tells them apart
        (HeatKernelPlan(1, 32, 4.0), None),
    ]
    for plan, w in mismatched:
        with pytest.raises(ValueError, match="geometry"):
            run_from_fields(spec, u, w, cfg, plan)
        assert plan.counts["inverse_transforms"] == 0  # refused before any step
    for t in (0.1, 0.0):
        with pytest.raises(ValueError, match="geometry"):
            apply(HeatKernelPlan(1, 16, 8.0), u, t)
    f = sample(ProfileSpec.gaussian(1.0, 0.5, (0.3,)), 1, 8.0, 32)
    plan = HeatKernelPlan.for_field(f)
    back = plan.field(plan.spectrum(f))
    assert back.grid == f.grid
    assert np.max(np.abs(back.values - f.values)) <= 1e-15 * np.max(np.abs(f.values))


def test_picard_rejects_a_plan_of_another_geometry():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0, ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    for plan in (HeatKernelPlan(1, 64, 4.0), HeatKernelPlan(1, 32, 16.0)):
        with pytest.raises(ValueError, match="geometry"):
            picard_solve(spec, u0, None, 0.1, nodes=16, plan=plan)


@pytest.mark.usefixtures("zero_load")
def test_forced_linear_run_matches_closed_form():
    # pure heat + constant-in-space forcing, rho = 0: u(t) = u0 + t * w0
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = _const_field(0.3, M=32)
    w = _const_field(0.1, M=32)
    cfg = SolverConfig(dt0=0.05, t_end=2.0)
    rec = run_from_fields(spec, u0, w, cfg, HeatKernelPlan.for_field(u0))
    assert rec.sup_norms[-1] == pytest.approx(0.3 + 2.0 * 0.1, rel=1e-12)


def test_run_builds_geometry_and_metadata():
    spec = ProblemSpec(
        1, 2.0, 2.0, 0.0, 0.0, ProfileSpec.gaussian(0.2, 1.0, (0.0,)), ZERO
    )
    rec = run(spec, SolverConfig(dt0=0.1, t_end=0.5), BoxGeometry(12.0, 64))
    assert rec.verdict is Verdict.COMPLETED
    assert rec.metadata["half_width"] == 12.0
    assert rec.metadata["points_per_axis"] == 64
    assert rec.metadata["spec_hash"] == spec.spec_hash()
    assert rec.times[0] == 0.0 and rec.times[-1] == pytest.approx(0.5)
    assert len(rec.times) == len(rec.q_norms) == len(rec.sup_norms)
    # dt_history is aligned with times: entry k is the step that reached times[k]
    assert len(rec.dt_history) == len(rec.times)
    assert rec.dt_history[0] == 0.0
    # the terminal field rides on the record but not in its payload
    assert rec.terminal is not None
    assert "terminal" not in rec.to_json_dict()


def test_adaptive_steps_shrink_toward_blowup():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=0.01, t_end=2.0, blowup_threshold=1e8)
    u0 = _const_field(1.0)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.dt_history[-1] < 0.01 / 64  # refined hard near the singularity
    # sup norms reached the threshold
    assert rec.sup_norms[-1] >= 1e8


def _forced_from_rest(p, dt0, t_end, rho=0.0):
    """Criterion 8's forced problem from u0 = 0, on a 16^3 grid."""
    w = ProfileSpec.gaussian(0.5, 1.0, (0.0,) * 3)
    spec = ProblemSpec(3, p, 2.0, 0.0, rho, ZERO, w)
    return run(spec, SolverConfig(dt0=dt0, t_end=t_end), BoxGeometry(16.0, 16))


def test_forced_run_from_rest_starts_at_forcing_sized_steps():
    # growth out of u = 0 is measured against the forcing of one full step,
    # not against a zero sup norm, so the first steps stay far above min_dt
    rec = _forced_from_rest(4.0, 0.25, 1.0)
    assert rec.verdict is Verdict.COMPLETED
    assert min(rec.dt_history[1:]) >= 1e-6
    assert "blowup_by" not in rec.metadata


def test_singular_forcing_from_rest_leaves_t_zero():
    # with rho = -0.9 a first step's forcing shrinks only like dt^0.1, so
    # against dt0's atol no step above min_dt passes the cap; at t = 0 atol
    # follows the step's forcing rate, and the run starts at dt0 / 64 as it
    # does for rho = 0 instead of ending as blow-up at t = 0
    rec = _forced_from_rest(2.0, 1e-2, 10.0, rho=-0.9)
    assert rec.dt_history[1] == 1e-2 / 64
    # the forcing is large near t = 0: the run still blows up, near the
    # T* ~ 0.4023 that steps of min_dt through t = 0 gave
    assert rec.metadata["blowup_by"] == "threshold"
    assert rec.blowup_time_estimate == pytest.approx(0.4023, abs=1e-3)


def test_forced_blowup_time_refines_at_first_order():
    # T* of the exponential-Euler stepper is first order in dt0: successive
    # differences shrink by about 2 per halving
    t_star = [_forced_from_rest(2.0, dt0, 120.0).blowup_time_estimate
              for dt0 in (0.25, 0.125, 0.0625)]
    ratio = (t_star[0] - t_star[1]) / (t_star[1] - t_star[2])
    assert ratio >= 1.8


@pytest.mark.usefixtures("zero_load")
def test_picard_linear_agrees_with_stepper():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.5, 1.0, (0.0,)), 1, 16.0, 128)
    w = sample(ProfileSpec.gaussian(0.3, 2.0, (0.0,)), 1, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.0125, t_end=0.1)
    pic = picard_solve(spec, u0, w, 0.1, nodes=8, plan=plan)
    rec = run_from_fields(spec, u0, w, cfg, plan)
    # both routes are exact on the linear problem: agreement to roundoff
    stepper_final_sup = rec.sup_norms[-1]
    assert lq_norm(pic.terminal, math.inf) == pytest.approx(
        stepper_final_sup, rel=1e-12
    )
    assert pic.iterations < PICARD_MAX_SWEEPS


def test_picard_contracts_on_small_data():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    pic = picard_solve(spec, u0, None, 0.1, nodes=16)
    assert pic.differences[1] / pic.differences[0] < 0.5
    assert pic.differences[-1] < 1e-10
    # successive differences decay monotonically once contraction kicks in
    assert all(b <= a for a, b in zip(pic.differences, pic.differences[1:]))


def test_picard_rejects_large_data():
    # far outside the contraction ball the sweep map expands and says so
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0,
                       ProfileSpec.gaussian(50.0, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    with pytest.raises(NonContractionError) as exc:
        picard_solve(spec, u0, None, 1.0, nodes=16)
    assert str(exc.value) == "differences grew 3 sweeps running (last 1.732e+18)"


def test_picard_stops_only_below_tol_and_raises_on_equal_differences(monkeypatch):
    # Every sweep difference reads exactly PICARD_TOL.  "less than PICARD_TOL"
    # never holds, and equal differences have "not fallen", so the fourth
    # sweep raises NonContractionError.  A <= in the tolerance test returns
    # after one sweep; a < anywhere in the chain runs to the sweep cap.
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    calls = []

    def tol_norm(f, q):
        calls.append(q)
        return solver.PICARD_TOL

    monkeypatch.setattr(solver, "lq_norm", tol_norm)
    with pytest.raises(NonContractionError) as exc:
        picard_solve(spec, u0, None, 0.1, nodes=8)
    assert str(exc.value) == "differences grew 3 sweeps running (last 1.000e-10)"
    assert len(calls) == 4 * 8  # one norm per node and sweep: 4 sweeps


def _direct_picard(spec, u0, w, T, n, sweeps, plan):
    """Picard with the history integrals summed over every earlier subinterval."""
    dt = T / n
    t = [j * dt for j in range(n + 1)]
    shape, axes, rho = u0.values.shape, range(u0.dim), spec.rho
    u0_hat, w_hat = np.fft.rfftn(u0.values), np.fft.rfftn(w.values)
    linear = []
    for j in range(n + 1):
        acc = u0_hat * plan.multiplier(t[j])
        for i in range(j):
            t0, t1 = t[i], t[i + 1]
            weight = (t1 ** (rho + 1) - t0 ** (rho + 1)) / (rho + 1)
            mean = (t1 ** (rho + 2) - t0 ** (rho + 2)) / (rho + 2) / weight
            acc = acc + weight * plan.multiplier(t[j] - mean) * w_hat
        linear.append(acc)
    states = [u0.values] + [np.fft.irfftn(h, shape, axes) for h in linear[1:]]
    for _ in range(sweeps):
        loads = [np.fft.rfftn(lq_norm(u0.with_values(v), spec.q) ** spec.alpha
                              * np.abs(v) ** spec.p) for v in states]
        new = [u0.values]
        for j in range(1, n + 1):
            acc = linear[j].copy()
            for i in range(j):
                acc += (dt / 2.0) * (plan.multiplier((j - i) * dt) * loads[i]
                                     + plan.multiplier((j - i - 1) * dt) * loads[i + 1])
            new.append(np.fft.irfftn(acc, shape, axes))
        states = new
    return states[-1]


def test_marched_picard_equals_the_direct_sums():
    # 1-D at 64 points and 16 nodes, and 2-D at 32^2 and 8 nodes, with the
    # forcing factors made node by node as the march reaches them
    for dim, M, n in ((1, 64, 16), (2, 32, 8)):
        spec = ProblemSpec(dim, 2.0, 2.0, 1.0, -0.5,
                           ProfileSpec.gaussian(0.3, 1.0, (0.5,) * dim), ZERO)
        u0 = sample(spec.u0, dim, 8.0, M)
        w = sample(ProfileSpec.gaussian(0.2, 2.0, (-0.5,) * dim), dim, 8.0, M)
        plan = HeatKernelPlan.for_field(u0)
        pic = picard_solve(spec, u0, w, 0.2, nodes=n, plan=plan)
        assert pic.iterations > 3  # the load history matters
        ref = _direct_picard(spec, u0, w, 0.2, n, pic.iterations, plan)
        assert np.max(np.abs(pic.terminal.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_forced_picard_makes_one_multiplier_per_node_per_march(monkeypatch):
    # every exp table counts, whichever plan method makes it: the plan's only
    # route to exp(-t|k|^2) is numpy's exp.  S(dt) and S(dt/2) once, then
    # each node's forcing factor in the first march and in every sweep
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0, 0.0)), ZERO)
    u0 = sample(spec.u0, 2, 16.0, 32)
    w = sample(ProfileSpec.gaussian(0.2, 2.0, (0.0, 0.0)), 2, 16.0, 32)
    tables = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        tables.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    n = 16
    pic = picard_solve(spec, u0, w, 0.1, nodes=n)
    monkeypatch.undo()
    assert pic.iterations > 1
    assert pic.counts["multipliers"] == len(tables) == 2 + n * (1 + pic.iterations)


def test_rho_zero_forced_picard_makes_two_multipliers():
    # a flat forcing weight puts every node's factor at exactly dt/2, so
    # S(dt) and S(dt/2) are the only exp tables of the solve
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0,
                       ProfileSpec.gaussian(0.5, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    w = sample(ProfileSpec.gaussian(0.2, 2.0, (0.0,)), 1, 16.0, 64)
    pic = picard_solve(spec, u0, w, 0.2, nodes=16)
    assert pic.iterations > 1
    assert pic.counts["multipliers"] == 2


def test_forced_picard_holds_no_linear_spectrum_per_node():
    # the node fields are the one per-node store: each forcing factor is made
    # when the march reaches its node and the linear part is marched with the
    # history (storing n + 1 linear spectra peaked at 74 node fields here)
    g = ProfileSpec.gaussian(0.05, 1.0, (0.0, 0.0))
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5, g, g)
    u0, w = sample(g, 2, 16.0, 128), sample(g, 2, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    n = 32
    tracemalloc.start()
    try:
        pic = picard_solve(spec, u0, w, 0.1, nodes=n, plan=plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pic.iterations > 1
    assert peak < (n + 20) * u0.values.nbytes


def test_probe_levels_count_picard_work():
    # per level: the spectra of u0 and w and of every load, one inverse per
    # node per sweep plus the first node values, S(dt) and S(dt/2) plus one
    # table per node per march; the 256^2 level's counts are pinned, and
    # so is each level's stepper run
    g = ProfileSpec.gaussian(0.05, 1.0, (0.0, 0.0))
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5, g, g)
    rep = uniqueness_probe(spec, T=0.1, geometry=BoxGeometry(16.0, 64), levels=2)
    assert rep.passed
    # the discrepancies pinned to the bit: a change that claims the same
    # numbers must keep them
    assert rep.discrepancies == tuple(float.fromhex(x) for x in (
        "0x1.1dfe0b4c10cb1p-21", "0x1.1cce15f263023p-22", "0x1.1c3c264eb9eaep-23"))
    for lvl in rep.details["levels"]:
        n, sweeps = lvl["picard_nodes"], lvl["picard_iterations"]
        assert lvl["picard_counts"] == {"forward_transforms": 3 + sweeps * n,
                                        "inverse_transforms": (1 + sweeps) * n,
                                        "multipliers": 2 + n * (1 + sweeps)}
    last = rep.details["levels"][-1]
    assert last["points_per_axis"] == 256 and last["picard_iterations"] == 3
    assert last["picard_counts"] == {"forward_transforms": 195,
                                     "inverse_transforms": 256, "multipliers": 258}
    assert [tuple(lvl["stepper_counts"].values()) for lvl in rep.details["levels"]] == [
        (18, 16, 20), (34, 32, 36), (66, 64, 66)]
    assert all(lvl["stepper_rejections"] == {"growth": 0, "overflow": 0}
               for lvl in rep.details["levels"])


def test_uniqueness_probe_refuses_a_finest_grid_past_the_cap_before_any_run(monkeypatch):
    # 16^2 and 32^2 fit a cap of 32^2 cells, 64^2 does not: two levels
    # refuse before the first run, one level starts running
    monkeypatch.setattr(field, "CELL_CAP", 32**2)

    def no_run(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(solver, "run_from_fields", no_run)
    g = ProfileSpec.gaussian(0.05, 1.0, (0.0, 0.0))
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5, g, g)
    with pytest.raises(ValueError, match="exceeds cap"):
        uniqueness_probe(spec, T=0.1, geometry=BoxGeometry(16.0, 16), levels=2)
    # a fractional level count is refused as a level count
    with pytest.raises(ValueError, match="levels must be an integer >= 1, got 2.5"):
        uniqueness_probe(spec, T=0.1, geometry=BoxGeometry(16.0, 16), levels=2.5)
    # q < p: the uniqueness hypotheses fail
    bad = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ProfileSpec.gaussian(0.05, 1.0))
    with pytest.raises(ValueError, match="uniqueness hypotheses fail"):
        uniqueness_probe(bad, T=0.1)
    with pytest.raises(AssertionError, match="a level ran"):
        uniqueness_probe(spec, T=0.1, geometry=BoxGeometry(16.0, 16), levels=1)


def test_runs_on_one_plan_report_only_their_own_work():
    # the plan counts every call made on it; a run and a solve each report
    # what they added, the same as on a fresh plan of their own
    g = ProfileSpec.gaussian(0.05, 1.0, (0.0, 0.0))
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5, g, g)
    u0, w = sample(g, 2, 16.0, 32), sample(g, 2, 16.0, 32)
    cfg = SolverConfig(dt0=0.1 / 16, t_end=0.1, adapt=False)
    plan = HeatKernelPlan.for_field(u0)
    rec = run_from_fields(spec, u0, w, cfg, plan)
    assert rec.metadata["counts"] == plan.counts
    pic = picard_solve(spec, u0, w, 0.1, nodes=16, plan=plan)
    assert pic.counts == picard_solve(spec, u0, w, 0.1, nodes=16).counts
    assert rec.metadata["counts"] == run_from_fields(
        spec, u0, w, cfg, HeatKernelPlan.for_field(u0)).metadata["counts"]
    run_counts = rec.metadata["counts"]
    assert plan.counts == {k: n + pic.counts[k] for k, n in run_counts.items()}
    # a run after the solve starts from nonzero counts and still reports its own
    again = run_from_fields(spec, u0, w, cfg, plan)
    assert again.metadata["counts"] == run_counts == {
        "forward_transforms": 18, "inverse_transforms": 16, "multipliers": 20}


def test_degenerate_forcing_cell_has_zero_weight_and_half_step_theta():
    # t_n + dt rounds to t_n: the power difference is 0, so W = 0 and theta = dt/2
    assert solver._forcing_weight(1e6, 1e-11, -0.5) == (0.0, 5e-12)


def test_run_from_an_all_zero_state_completes_at_zero():
    # no data, no forcing: growth against a zero sup norm and zero atol is 0
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = _const_field(0.0)
    rec = run_from_fields(spec, u0, None, SolverConfig(dt0=0.25, t_end=1.0),
                          HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.COMPLETED
    assert rec.dt_history == [0.0, 0.25, 0.25, 0.25, 0.25]
    assert rec.q_norms == rec.sup_norms == [0.0] * 5


def test_picard_raises_at_its_sweep_cap(monkeypatch):
    # one sweep cannot reach PICARD_TOL on a nonlinear problem
    monkeypatch.setattr(solver, "PICARD_MAX_SWEEPS", 1)
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    with pytest.raises(IterationLimitError, match="no convergence in 1 sweeps"):
        picard_solve(spec, u0, None, 0.1, nodes=16)


def test_solver_config_rejects_out_of_range_settings():
    for bad in ({"blowup_threshold": 0.0}, {"blowup_threshold": -1.0},
                {"blowup_threshold": math.nan}, {"blowup_threshold": math.inf},
                {"dt0": math.inf}, {"t_end": math.inf}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # a bool is neither a step setting nor a stand-in for the adapt flag
    for name in ("dt0", "t_end", "blowup_threshold", "min_dt"):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got True"):
            SolverConfig(**{name: True})
    for bad in ("no", 1):
        with pytest.raises(ValueError, match="adapt must be a bool"):
            SolverConfig(adapt=bad)
    with pytest.raises(ValueError, match="min_dt must be positive and <= 0.1, got 1.0"):
        SolverConfig(dt0=0.1, min_dt=1.0)
    # a record refuses columns that do not line up the same way
    with pytest.raises(ValueError, match="trajectory columns must have equal length"):
        TrajectoryRecord([0.0, 1.0], [1.0], [1.0, 1.0], [0.0, 1.0], Verdict.COMPLETED)
    with pytest.raises(ValueError, match="times must be strictly increasing"):
        TrajectoryRecord([0.0, 0.0], [1.0] * 2, [1.0] * 2, [0.0, 1.0], Verdict.COMPLETED)


def test_picard_needs_two_nodes(monkeypatch):
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    with pytest.raises(ValueError, match="nodes"):
        picard_solve(spec, u0, None, 0.1, nodes=1)
    assert picard_solve(spec, u0, None, 0.1, nodes=2).iterations == 3
    assert picard_solve(spec, u0, None, 0.1, nodes=np.int64(2)).iterations == 3
    # a float count is refused before any work, not by range() after it

    def no_work(spec):
        raise AssertionError("validate ran")

    with monkeypatch.context() as m:
        m.setattr(solver, "validate", no_work)
        for nodes in (4.0, 2.5, np.float64(8)):
            with pytest.raises(ValueError, match="nodes must be an integer >= 2"):
                picard_solve(spec, u0, None, 0.1, nodes=nodes)
    # nan and inf would march into BlowupSignal, which reads as blow-up
    for T in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            picard_solve(spec, u0, None, T)


def test_picard_requires_lwp_hypotheses():
    # alpha in (0,1) is outside the fixed-point argument
    spec = ProblemSpec(1, 2.0, 2.0, 0.5, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    with pytest.raises(ValueError):
        picard_solve(spec, u0, None, 0.1)


def test_uniqueness_probe_refinement_ratio():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    rep = uniqueness_probe(spec, T=0.1)
    assert rep.passed
    assert len(rep.ratios) == 2
    assert all(r >= 1.8 for r in rep.ratios)
    # discrepancies actually decrease through the levels
    d = [lvl["discrepancy"] for lvl in rep.details["levels"]]
    assert d[0] > d[1] > d[2]
    # no refinement level, no ratio to judge: refused before any run
    for levels in (0, -1, True, False):
        with pytest.raises(ValueError, match="levels"):
            uniqueness_probe(spec, T=0.1, levels=levels)
    for T in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            uniqueness_probe(spec, T=T)


def test_fixed_dt_run_returns_the_hand_stepped_terminal():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, -0.5,
                       ProfileSpec.gaussian(0.3, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    w = sample(ProfileSpec.gaussian(0.2, 2.0, (0.0,)), 1, 16.0, 64)
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.05, t_end=0.5, adapt=False)
    rec = run_from_fields(spec, u0, w, cfg, plan)
    assert rec.verdict is Verdict.COMPLETED
    # the run carries the spectrum of its state and sums in Fourier space;
    # the real-space reference differs from it by roundoff
    u = _replay(spec, rec, u0, plan, w)
    sup = lq_norm(u, math.inf)
    assert np.max(np.abs(rec.terminal.values - u.values)) <= 1e-14 * sup
    assert rec.sup_norms[-1] == pytest.approx(sup, rel=1e-14, abs=0.0)


def test_runs_never_write_into_the_callers_fields():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, -0.5,
                       ProfileSpec.gaussian(0.3, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    w = sample(ProfileSpec.gaussian(0.2, 2.0, (0.0,)), 1, 16.0, 64)
    u0_before, w_before = u0.values.copy(), w.values.copy()
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.05, t_end=0.5)
    first = run_from_fields(spec, u0, w, cfg, plan)
    assert np.array_equal(u0.values, u0_before) and np.array_equal(w.values, w_before)
    kept = first.terminal.values.copy()
    second = run_from_fields(spec, u0, w, cfg, plan)
    assert np.array_equal(first.terminal.values, kept)
    assert not np.shares_memory(first.terminal.values, second.terminal.values)

    pic = picard_solve(spec, u0, w, 0.1, nodes=8, plan=plan)
    assert np.array_equal(u0.values, u0_before) and np.array_equal(w.values, w_before)
    kept = pic.terminal.values.copy()
    picard_solve(spec, u0, w, 0.1, nodes=8, plan=plan)
    assert np.array_equal(pic.terminal.values, kept)


def test_rejected_attempts_leave_the_state_and_terminal_alone():
    # u' = u^3 from dt0 = 0.25 rejects attempts all the way to the threshold;
    # each retry must start from the accepted state, so replaying the
    # accepted step sizes with _reference_step gives the run's terminal
    spec = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = _const_field(1.0)
    plan = HeatKernelPlan.for_field(u0)
    rec = run_from_fields(spec, u0, None,
                          SolverConfig(dt0=0.25, t_end=2.0, blowup_threshold=10.0), plan)
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.metadata["rejections"]["growth"] > 3
    assert len(rec.times) > 10  # so the replay below covers accepted steps
    assert np.all(u0.values == 1.0)
    assert lq_norm(rec.terminal, math.inf) == rec.sup_norms[-1]
    u = _replay(spec, rec, u0, plan)
    sup = lq_norm(u, math.inf)
    assert np.max(np.abs(rec.terminal.values - u.values)) <= 1e-13 * sup


def _counted(monkeypatch, plan):
    """Count forward and inverse transforms and multipliers made on plan."""
    counts = {"spectrum": 0, "field": 0, "multiplier": 0}

    def counting(name):
        method = getattr(plan, name)

        def wrapped(*args, **kw):
            counts[name] += 1
            return method(*args, **kw)

        return wrapped

    for name in counts:
        monkeypatch.setattr(plan, name, counting(name))
    return counts


def test_run_makes_one_forward_and_one_inverse_transform_per_step(monkeypatch):
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, -0.5,
                       ProfileSpec.gaussian(0.3, 1.0, (0.0, 0.0)), ZERO)
    u0 = sample(spec.u0, 2, 8.0, 16)
    w = sample(ProfileSpec.gaussian(0.2, 2.0, (0.0, 0.0)), 2, 8.0, 16)
    plan = HeatKernelPlan.for_field(u0)
    counts = _counted(monkeypatch, plan)
    rec = run_from_fields(spec, u0, w, SolverConfig(dt0=0.125, t_end=1.0, adapt=False),
                          plan)
    accepted = len(rec.times) - 1
    assert rec.verdict is Verdict.COMPLETED and accepted == 8
    assert rec.metadata["rejections"] == {"growth": 0, "overflow": 0}
    # u0 and w once, then one load per state that steps on
    assert counts["spectrum"] == accepted + 2
    assert counts["field"] == accepted
    # m(dt) and m(dt/2) once for the one step size, then m(theta) per step
    assert counts["multiplier"] <= accepted + 2
    # the run's own counts are the calls made on the plan
    assert rec.metadata["counts"] == {"forward_transforms": counts["spectrum"],
                                      "inverse_transforms": counts["field"],
                                      "multipliers": counts["multiplier"]}


def test_rejected_steps_reuse_the_spectra_of_the_state(monkeypatch):
    # u' = u^3 halves its step many times before reaching the threshold
    spec = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=1e-3, t_end=2.0, blowup_threshold=1e8)
    u0 = _const_field(1.0)
    plan = HeatKernelPlan.for_field(u0)
    counts = _counted(monkeypatch, plan)
    rec = run_from_fields(spec, u0, None, cfg, plan)
    accepted = len(rec.times) - 1
    rejections = rec.metadata["rejections"]
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rejections["growth"] > 0
    # every attempt makes one inverse; only states make forward ones: u0 and
    # each accepted state, the last included, since the run ends at the step
    # floor after a rejected attempt from it
    assert rec.metadata["blowup_by"] == "step_floor"
    assert counts["field"] == accepted + rejections["growth"] + rejections["overflow"]
    assert counts["spectrum"] == accepted + 2
    assert rec.metadata["counts"] == {"forward_transforms": counts["spectrum"],
                                      "inverse_transforms": counts["field"],
                                      "multipliers": counts["multiplier"]}


def test_run_stops_at_the_step_budget(monkeypatch):
    # 16 fixed steps cannot fit a budget of 3: the run ends inconclusive,
    # its record kept up to the last accepted step
    monkeypatch.setattr(solver, "MAX_STEPS", 3)
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    cfg = SolverConfig(dt0=0.1 / 16, t_end=0.1, adapt=False)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BUDGET_EXHAUSTED
    assert rec.verdict.value == "budget_exhausted"
    assert rec.blowup_time_estimate is None
    assert len(rec.times) == 4 and rec.times[-1] == pytest.approx(3 * 0.1 / 16)
    assert rec.terminal is not u0 and lq_norm(rec.terminal, math.inf) == rec.sup_norms[-1]


def test_uniqueness_probe_raises_when_its_run_exhausts_the_budget(monkeypatch):
    monkeypatch.setattr(solver, "MAX_STEPS", 3)
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    with pytest.raises(RuntimeError, match="budget_exhausted"):
        uniqueness_probe(spec, T=0.1, geometry=BoxGeometry(16.0, 32), levels=1)
