"""Time stepping and Picard iteration.

The exponential-Euler step applies the exact linear propagator, so linear
problems are solved exactly up to roundoff regardless of dt; that gives sharp
reference tests.  A spatially constant state turns the PDE into the scalar
ODE u' = u^p with known blow-up time, which pins the detector."""

import math

import numpy as np
import pytest

from fujitalab.field import BoxGeometry, GridField, lq_norm, sample
from fujitalab.problem import ProblemSpec, ProfileSpec
from fujitalab.semigroup import HeatKernelPlan, apply
from fujitalab.solver import (
    IterationLimitError,
    NonContractionError,
    SolverConfig,
    Verdict,
    picard_solve,
    run,
    run_from_fields,
    step,
    uniqueness_probe,
)

ZERO = ProfileSpec.zero()


def _const_field(value, M=16):
    return GridField(1, 8.0, np.full(M, float(value)))


def test_ode_blowup_time():
    # constant state, alpha=0, w=0, p=2: u(t) = 1/(1-t), T* = 1
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=1e-3, t_end=2.0, blowup_threshold=1e8)
    u0 = _const_field(1.0)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.blowup_time_estimate == pytest.approx(1.0, abs=0.05)
    # extrapolated T* sits at (or within roundoff of) the last reached time
    assert rec.blowup_time_estimate >= rec.times[-1] - 1e-6


def test_ode_p3_blowup_time():
    # u' = u^3 from u=1 blows up at T* = 1/2
    spec = ProblemSpec(1, 3.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    cfg = SolverConfig(dt0=1e-3, t_end=2.0, blowup_threshold=1e8)
    u0 = _const_field(1.0)
    rec = run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))
    assert rec.verdict is Verdict.BLOWUP_DETECTED
    assert rec.blowup_time_estimate == pytest.approx(0.5, abs=0.03)


def test_linear_flow_is_exact_per_step():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.5, 1.0, (0.0,)), 1, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.25, t_end=3.0, disable_nonlinearity=True)
    rec = run_from_fields(spec, u0, None, cfg, plan)
    assert rec.verdict is Verdict.COMPLETED
    # the recorded q-norm at the end equals the directly propagated one
    direct = apply(plan, u0, 3.0)
    assert rec.q_norms[-1] == pytest.approx(lq_norm(direct, 2.0), rel=1e-12)
    # and a coarser dt gives the same answer: the linear part is exact
    rec2 = run_from_fields(
        spec, u0, None, SolverConfig(dt0=1.0, t_end=3.0, disable_nonlinearity=True), plan
    )
    assert rec2.q_norms[-1] == pytest.approx(rec.q_norms[-1], rel=1e-12)


def test_single_step_linear_matches_apply():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.5, 1.0, (0.0,)), 1, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    out = step(spec, u0, 0.0, 0.125, plan, None, disable_nonlinearity=True)
    ref = apply(plan, u0, 0.125)
    assert np.allclose(out.values, ref.values, atol=1e-14)


def test_step_forcing_constant_w_exact_weights():
    # from a zero state the step is the forcing increment alone; the
    # semigroup fixes constants, so it must be w times the exact integral of
    # tau^rho over the step
    w = _const_field(1.0)
    zero = _const_field(0.0)
    plan = HeatKernelPlan.for_field(w)
    for rho in (0.0, -0.5, 0.7):
        spec = ProblemSpec(1, 2.0, 2.0, 0.0, rho, ZERO, ZERO)
        for t_n, dt in ((0.0, 0.1), (0.35, 0.1), (7.0, 0.01)):
            inc = step(spec, zero, t_n, dt, plan, w)
            t1 = t_n + dt
            exact = (t1 ** (rho + 1) - t_n ** (rho + 1)) / (rho + 1)
            assert inc.values[0] == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError):
        step(spec, zero, 0.0, -0.1, plan, w)
    with pytest.raises(ValueError):  # rho <= -1 never reaches the step
        ProblemSpec(1, 2.0, 2.0, 0.0, -1.0, ZERO, ZERO)


def test_step_forcing_constant_w_through_semigroup():
    # the semigroup fixes constants, so the exact weights survive a real plan
    w = _const_field(2.0, M=32)
    plan = HeatKernelPlan.for_field(w)
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, -0.5, ZERO, ZERO)
    inc = step(spec, _const_field(0.0, M=32), 0.2, 0.05, plan, w)
    exact = 2.0 * (0.25**0.5 - 0.2**0.5) / 0.5
    assert np.allclose(inc.values, exact, rtol=1e-12)


def test_fused_step_equals_three_round_trips():
    # the one-transform step sums in Fourier space what three separate heat
    # applications sum in real space
    rho, t_n, dt = -0.5, 0.3, 0.05
    spec = ProblemSpec(2, 2.0, 2.0, 1.0, rho, ZERO, ZERO)
    u = sample(ProfileSpec.gaussian(0.8, 1.0, (0.5, -0.25)), 2, 8.0, 64)
    w = sample(ProfileSpec.gaussian(0.3, 2.0, (0.0, 0.0)), 2, 8.0, 64)
    plan = HeatKernelPlan.for_field(u)
    out = step(spec, u, t_n, dt, plan, w)
    load = lq_norm(u, 2.0) * np.abs(u.values) ** 2
    t1 = t_n + dt
    weight = (t1 ** (rho + 1) - t_n ** (rho + 1)) / (rho + 1)
    mean_tau = (t1 ** (rho + 2) - t_n ** (rho + 2)) / (rho + 2) / weight
    ref = (apply(plan, u, dt).values
           + apply(plan, u.with_values(dt * load), dt / 2.0).values
           + weight * apply(plan, w, t1 - mean_tau).values)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(out.values - ref)) <= 1e-14 * scale


def test_step_rejects_a_plan_of_another_geometry():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u = _const_field(1.0, M=32)
    with pytest.raises(ValueError, match="geometry"):
        step(spec, u, 0.0, 0.1, HeatKernelPlan(1, 16, 8.0))
    with pytest.raises(ValueError, match="geometry"):
        step(spec, u, 0.0, 0.1, HeatKernelPlan.for_field(u), _const_field(1.0, M=16))
    other_box = GridField(1, 4.0, np.ones(32))
    with pytest.raises(ValueError, match="geometry"):
        step(spec, u, 0.0, 0.1, HeatKernelPlan.for_field(u), other_box)


def test_forced_linear_run_matches_closed_form():
    # pure heat + constant-in-space forcing, rho = 0: u(t) = u0 + t * w0
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = _const_field(0.3, M=32)
    w = _const_field(0.1, M=32)
    cfg = SolverConfig(dt0=0.05, t_end=2.0, disable_nonlinearity=True)
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


def test_picard_linear_agrees_with_stepper():
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = sample(ProfileSpec.gaussian(0.5, 1.0, (0.0,)), 1, 16.0, 128)
    w = sample(ProfileSpec.gaussian(0.3, 2.0, (0.0,)), 1, 16.0, 128)
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.0125, t_end=0.1, picard_nodes=8,
                       disable_nonlinearity=True)
    pic = picard_solve(spec, u0, w, 0.1, cfg, plan)
    rec = run_from_fields(spec, u0, w, cfg, plan)
    # both routes are exact on the linear problem: agreement to roundoff
    stepper_final_sup = rec.sup_norms[-1]
    assert lq_norm(pic.terminal, math.inf) == pytest.approx(
        stepper_final_sup, rel=1e-12
    )
    assert pic.iterations < cfg.picard_max_iters


def test_picard_contracts_on_small_data():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    pic = picard_solve(spec, u0, None, 0.1, SolverConfig(picard_nodes=16))
    assert pic.contraction_estimate < 0.5
    assert pic.differences[-1] < 1e-10
    # successive differences decay monotonically once contraction kicks in
    assert all(b <= a for a, b in zip(pic.differences, pic.differences[1:]))


def test_picard_rejects_large_data():
    # far outside the contraction ball the sweep map expands and says so
    spec = ProblemSpec(1, 2.0, 2.0, 0.0, 0.0,
                       ProfileSpec.gaussian(50.0, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    with pytest.raises((NonContractionError, IterationLimitError)):
        picard_solve(spec, u0, None, 1.0, SolverConfig(picard_nodes=16))


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


def test_fixed_dt_run_returns_the_hand_stepped_terminal():
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, -0.5,
                       ProfileSpec.gaussian(0.3, 1.0, (0.0,)), ZERO)
    u0 = sample(spec.u0, 1, 16.0, 64)
    w = sample(ProfileSpec.gaussian(0.2, 2.0, (0.0,)), 1, 16.0, 64)
    plan = HeatKernelPlan.for_field(u0)
    cfg = SolverConfig(dt0=0.05, t_end=0.5, adapt=False)
    rec = run_from_fields(spec, u0, w, cfg, plan)
    assert rec.verdict is Verdict.COMPLETED
    u, t = u0, 0.0
    for _ in range(len(rec.times) - 1):
        dt = min(cfg.dt0, cfg.t_end - t)
        u = step(spec, u, t, dt, plan, w)
        t += dt
    assert np.array_equal(rec.terminal.values, u.values)
    assert rec.sup_norms[-1] == lq_norm(u, math.inf)


def test_uniqueness_probe_keeps_the_step_budget():
    # 16 fixed steps at the base level cannot fit a budget of 3
    spec = ProblemSpec(1, 2.0, 2.0, 1.0, 0.0,
                       ProfileSpec.gaussian(0.05, 1.0, (0.0,)), ZERO)
    cfg = SolverConfig(dt0=0.1 / 16, t_end=0.1, adapt=False, picard_nodes=16,
                       max_steps=3)
    with pytest.raises(RuntimeError, match="step budget exhausted"):
        uniqueness_probe(spec, T=0.1, config=cfg)
