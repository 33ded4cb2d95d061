"""Heat propagator checks on the periodic box.

The spectral stepper is compared against the closed-form free-space evolution
of Gaussians (valid while the evolved profile stays far from the boundary),
against the dense periodized-kernel quadrature, and against the structural
identities: semigroup law, mass conservation, positivity, contraction, and the
a-to-b smoothing bound."""

import math
import tracemalloc

import numpy as np
import pytest

from fujitalab.field import GridField, lq_norm, sample
from fujitalab.problem import ProfileSpec
from fujitalab.semigroup import (
    HeatKernelPlan,
    apply,
    apply_direct,
    comparison_lower_bound,
    kernel_weight_constant,
    smoothing_check,
)
from fujitalab.solver import SolverConfig, run_from_fields


def _band_limited(dim, half_width, M, seed, kmax=5):
    """Random real trigonometric polynomial with modes |k| <= kmax, sup ~ 1."""
    rng = np.random.default_rng(seed)
    spec = np.fft.fftn(rng.standard_normal((M,) * dim))
    idx = np.fft.fftfreq(M) * M
    mask = np.ones((M,) * dim, dtype=bool)
    for d in range(dim):
        shape = [1] * dim
        shape[d] = M
        mask &= np.abs(idx).reshape(shape) <= kmax
    vals = np.real(np.fft.ifftn(np.where(mask, spec, 0.0)))
    return GridField(dim, half_width, vals / np.max(np.abs(vals)))


def test_gaussian_evolves_in_closed_form():
    # S(t) e^{-r|x|^2} = (1+4rt)^{-N/2} e^{-r|x|^2/(1+4rt)}
    for dim, M in ((1, 256), (2, 128)):
        r = 1.0
        f = sample(ProfileSpec.gaussian(1.0, r, (0.0,) * dim), dim, 16.0, M)
        plan = HeatKernelPlan.for_field(f)
        for t in (0.1, 0.5, 2.0):
            evolved = apply(plan, f, t)
            shrink = 1.0 + 4.0 * r * t
            ref = sample(
                ProfileSpec.gaussian(shrink ** (-dim / 2), r / shrink, (0.0,) * dim),
                dim, 16.0, M,
            )
            err = np.max(np.abs(evolved.values - ref.values))
            assert err < 1e-10, (dim, t, err)


def test_semigroup_law():
    f = _band_limited(2, 16.0, 64, seed=1)
    plan = HeatKernelPlan.for_field(f)
    two_step = apply(plan, apply(plan, f, 0.3), 0.7)
    one_step = apply(plan, f, 1.0)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12
    # t = 0 is the identity
    assert np.array_equal(apply(plan, f, 0.0).values, f.values)


def test_multipliers_are_not_kept_per_t():
    # every step has its own forcing distance, so a per-t store would grow
    # with the run; the plan must hold nothing beyond its |k|^2 table
    plan = HeatKernelPlan(2, 128, 16.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300):
            plan.multiplier(1e-3 * (i + 1))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 * plan.ksq.nbytes


def test_mass_conservation_and_positivity():
    # positivity of a spectral propagator is only as good as the data's
    # spectral tail; rate 1 on h <= 0.25 keeps the ringing below 1e-10
    for dim, M in ((1, 256), (2, 128)):
        f = sample(ProfileSpec.gaussian(0.8, 1.0, (0.5,) * dim), dim, 16.0, M)
        plan = HeatKernelPlan.for_field(f)
        mass0 = float(np.sum(f.values)) * f.cell_volume
        for t in (0.1, 1.0, 10.0):
            g = apply(plan, f, t)
            mass = float(np.sum(g.values)) * g.cell_volume
            assert mass == pytest.approx(mass0, rel=1e-12)
            assert g.values.min() >= -1e-10 * g.values.max()


def test_lp_contraction():
    f = _band_limited(1, 16.0, 256, seed=2)
    plan = HeatKernelPlan.for_field(f)
    for a in (1.0, 2.0, math.inf):
        before = lq_norm(f, a)
        for t in (0.1, 1.0, 10.0):
            assert lq_norm(apply(plan, f, t), a) <= before * (1 + 1e-12)


def test_spectral_matches_direct_kernel():
    # dense periodized-kernel quadrature is the slow reference; its trapezoid
    # sum needs h^2/(4t) well resolved, hence the grid sizes
    cases = [
        (1, 128, (0.1, 1.0, 10.0)),
        (2, 64, (0.5, 2.0)),
    ]
    for dim, M, ts in cases:
        for seed, builder in ((3, _band_limited), (None, None)):
            if builder is None:
                f = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,) * dim), dim, 16.0, M)
            else:
                f = builder(dim, 16.0, M, seed)
            plan = HeatKernelPlan.for_field(f)
            for t in ts:
                fast = apply(plan, f, t)
                slow = apply_direct(f, t)
                rel = np.max(np.abs(fast.values - slow.values)) / np.max(
                    np.abs(slow.values)
                )
                assert rel < 1e-6, (dim, t, rel)


def test_direct_kernel_dim3_cap():
    f = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,) * 3), 3, 8.0, 64)
    with pytest.raises(ValueError):
        apply_direct(f, 0.5)


def test_smoothing_bound():
    f = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 1, 16.0, 256)
    for a, b in ((1, 2), (2, math.inf), (1, math.inf), (2, 2)):
        rows = smoothing_check(f, a, b, (0.1, 1.0, 10.0))
        assert all(r.passed for r in rows)
        assert all(r.lhs <= r.rhs for r in rows)
    with pytest.raises(ValueError):
        smoothing_check(f, 2, 1, (0.1,))
    with pytest.raises(ValueError):
        smoothing_check(f, 1, 2, (0.0,))


def test_kernel_weight_constant_profile_vs_grid():
    prof = ProfileSpec.gaussian_sum([(0.5, 1.0, (0.0,)), (0.2, 2.0, (1.0,))])
    closed = kernel_weight_constant(prof, 1)
    grid = kernel_weight_constant(sample(prof, 1, 16.0, 256))
    assert grid == pytest.approx(closed, rel=1e-12)
    with pytest.raises(ValueError):
        kernel_weight_constant(ProfileSpec.zero())
    assert kernel_weight_constant(ProfileSpec.zero(), 2) == 0.0


def _linear_run(u0_prof, dim, t_end, M=128):
    from fujitalab.problem import ProblemSpec

    spec = ProblemSpec(dim, 2.0, 2.0, 0.0, 0.0, u0_prof, ProfileSpec.zero())
    u0 = sample(u0_prof, dim, 16.0, M)
    cfg = SolverConfig(dt0=0.05, t_end=t_end, disable_nonlinearity=True)
    return u0, run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))


def test_lower_bound_on_linear_heat_flow():
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0,))
    u0, traj = _linear_run(prof, 1, 6.0)
    rep = comparison_lower_bound(prof, traj, 2.0, dim=1)
    assert rep.skipped is None
    assert rep.passed and len(rep.rows) > 0
    assert all(r.margin >= 0 for r in rep.rows)
    # grid data path gives the same verdict
    rep2 = comparison_lower_bound(u0, traj, 2.0)
    assert rep2.passed and len(rep2.rows) == len(rep.rows)


def test_lower_bound_skip_paths():
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0,))
    u0, traj = _linear_run(prof, 1, 0.5)  # never reaches t = 1
    assert comparison_lower_bound(prof, traj, 2.0, dim=1).skipped is not None
    neg = ProfileSpec.gaussian(-0.5, 1.0, (0.0,))
    rep = comparison_lower_bound(neg, traj, 2.0, dim=1)
    assert rep.skipped == "data is not nonnegative"
    rep = comparison_lower_bound(prof, traj, 2.0, dim=1, forcing_certified=False)
    assert "forcing" in rep.skipped
    # skipped reports carry no rows and never fail
    assert rep.passed and rep.rows == ()
