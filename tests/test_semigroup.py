"""Heat propagator checks on the periodic box.

The spectral stepper is compared against the closed-form free-space evolution
of Gaussians (valid while the evolved profile stays far from the boundary),
against the dense periodized-kernel quadrature, and against the structural
identities: semigroup law, mass conservation, positivity, contraction, and the
a-to-b smoothing bound."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fujitalab.field import lq_norm, sample
from fujitalab.problem import ProfileSpec, profile_sign
from fujitalab.semigroup import (
    HeatKernelPlan,
    apply,
    apply_direct,
    comparison_lower_bound,
    kernel_weight_constant,
    smoothing_check,
)
from fujitalab.solver import SolverConfig, run_from_fields


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


def test_semigroup_law(band_limited):
    f = band_limited(2, 16.0, 64, seed=1)
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


def test_apply_refuses_negative_and_non_finite_t(band_limited):
    # inf would also warn from 0 * inf at k = 0 before the blow-up check;
    # the dense oracle would fail to count its images for nan and inf
    f = band_limited(1, 8.0, 32, seed=0)
    plan = HeatKernelPlan.for_field(f)
    for t in (-1e-3, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            apply(plan, f, t)
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            apply_direct(f, t)
    assert apply_direct(f, 0.0) is f


def test_field_is_irfftn_bit_for_bit(band_limited):
    # ifft over each leading axis, then irfft of the last: irfftn's own steps
    for dim, M in ((1, 64), (2, 32), (3, 16)):
        plan = HeatKernelPlan(dim, M, 8.0)
        h = plan.spectrum(band_limited(dim, 8.0, M, seed=dim)) * plan.multiplier(0.1)
        before = h.copy()
        ref = np.fft.irfftn(h, s=(M,) * dim, axes=range(dim))
        assert np.array_equal(plan.field(h).values, ref)
        out, work = np.empty((M,) * dim), np.full_like(h, np.nan)
        f = plan.field(h, out=out, work=work)
        assert f.values is out
        assert np.array_equal(f.values, ref)
        assert np.array_equal(h, before)


def test_field_in_work_allocates_no_spectrum_sized_temporary(band_limited):
    # irfftn makes a complex temporary per leading axis (558,856 B peak at
    # 32^3); with work given the inverse takes none
    plan = HeatKernelPlan(3, 32, 16.0)
    h = plan.spectrum(band_limited(3, 16.0, 32, seed=4))
    out, work = np.empty((32,) * 3), np.empty_like(h)
    plan.field(h, out=out, work=work)
    tracemalloc.start()
    try:
        plan.field(h, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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


def test_lp_contraction(band_limited):
    f = band_limited(1, 16.0, 256, seed=2)
    plan = HeatKernelPlan.for_field(f)
    for a in (1.0, 2.0, math.inf):
        before = lq_norm(f, a)
        for t in (0.1, 1.0, 10.0):
            assert lq_norm(apply(plan, f, t), a) <= before * (1 + 1e-12)


def test_spectral_matches_direct_kernel(band_limited):
    # dense periodized-kernel quadrature is the slow reference; its trapezoid
    # sum needs h^2/(4t) well resolved, hence the grid sizes
    cases = [
        (1, 128, (0.1, 1.0, 10.0)),
        (2, 64, (0.5, 2.0)),
    ]
    for dim, M, ts in cases:
        for seed, builder in ((3, band_limited), (None, None)):
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
        smoothing_check(f, 1, 2, (0.0,))
    # b < a, a < 1 (1/a and 1/b are never formed) and nan are refused
    for a, b in ((2, 1), (0, 2), (1, 0), (0.5, 2), (math.nan, 2), (1, math.nan)):
        with pytest.raises(ValueError, match="need 1 <= a <= b"):
            smoothing_check(f, a, b, (0.1,))


def test_kernel_weight_constant_profile_vs_grid():
    prof = ProfileSpec.gaussian_sum([(0.5, 1.0, (0.0,)), (0.2, 2.0, (1.0,))])
    closed = kernel_weight_constant(prof, 1)
    # the cell sum of the sampled profile, which converges spectrally
    u0 = sample(prof, 1, 16.0, 256)
    cells = float(np.sum(np.exp(-u0.axis**2 / 2.0) * u0.values)) * u0.cell_volume
    assert cells / math.sqrt(4.0 * math.pi) == pytest.approx(closed, rel=1e-12)
    assert kernel_weight_constant(ProfileSpec.zero(), 2) == 0.0


def _lower_bound_peak(dim):
    """comparison_lower_bound's report and traced peak bytes on a
    two-sample trajectory."""
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0,) * dim)
    traj = SimpleNamespace(times=[0.0, 1.0], q_norms=[1.0, 1.0])
    tracemalloc.start()
    try:
        rep = comparison_lower_bound(prof, traj, 2.0, dim=dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.skipped is None and len(rep.rows) == 1
    return peak


# the data's sign is decided box by box, never on a grid: a probe of 769^2
# points would hold 4.7 MB, and one more array of that size per term
def test_lower_bound_nonnegativity_probe_is_bounded_in_2d():
    assert _lower_bound_peak(2) < 12e6


def test_lower_bound_nonnegativity_probe_is_bounded_in_3d():
    assert _lower_bound_peak(3) < 12e6


def _linear_run(u0_prof, dim, t_end, M=128):  # callers take the zero_load fixture
    from fujitalab.problem import ProblemSpec

    spec = ProblemSpec(dim, 2.0, 2.0, 0.0, 0.0, u0_prof, ProfileSpec.zero())
    u0 = sample(u0_prof, dim, 16.0, M)
    cfg = SolverConfig(dt0=0.05, t_end=t_end)
    return run_from_fields(spec, u0, None, cfg, HeatKernelPlan.for_field(u0))


@pytest.mark.usefixtures("zero_load")
def test_lower_bound_on_linear_heat_flow():
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0,))
    traj = _linear_run(prof, 1, 6.0)
    rep = comparison_lower_bound(prof, traj, 2.0, dim=1)
    assert rep.skipped is None
    assert rep.passed and len(rep.rows) > 0
    assert all(r.margin >= 0 for r in rep.rows)


def test_sup_norm_lower_bound_is_c0_times_the_heat_decay():
    # q = inf: the bound is C0 t^(-dim/2), bit for bit, from t = 1 on
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0, 0.0))
    c0 = kernel_weight_constant(prof, 2)
    traj = SimpleNamespace(times=[0.5, 1.0, 4.0], q_norms=[1.0, 1.0, 1e-3])
    rep = comparison_lower_bound(prof, traj, math.inf, dim=2)
    assert [(r.t, r.bound) for r in rep.rows] == [(1.0, c0), (4.0, c0 / 4.0)]
    assert rep.rows[0].passed and not rep.rows[1].passed and not rep.passed


@pytest.mark.parametrize("q", [0.0, -1.0, 0.5, math.nan])
def test_lower_bound_refuses_q_below_one(q):
    # lq_norm's rule: q = 0 divided by zero, q = -1 took a complex power and
    # q = 0.5 or nan gave rows that mean nothing; a skip does not hide it
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0,))
    traj = SimpleNamespace(times=[1.0, 4.0], q_norms=[1.0, 1.0])
    for certified in (True, False):
        with pytest.raises(ValueError, match=r"q must be >= 1 or inf"):
            comparison_lower_bound(prof, traj, q, dim=1, forcing_certified=certified)


@pytest.mark.usefixtures("zero_load")
def test_lower_bound_skip_paths():
    prof = ProfileSpec.gaussian(0.5, 1.0, (0.0,))
    traj = _linear_run(prof, 1, 0.5)  # never reaches t = 1
    assert comparison_lower_bound(prof, traj, 2.0, dim=1).skipped is not None
    neg = ProfileSpec.gaussian(-0.5, 1.0, (0.0,))
    rep = comparison_lower_bound(neg, traj, 2.0, dim=1)
    assert rep.skipped == "data is not nonnegative"
    rep = comparison_lower_bound(prof, traj, 2.0, dim=1, forcing_certified=False)
    assert "forcing" in rep.skipped
    # skipped reports carry no rows and never fail
    assert rep.passed and rep.rows == ()


@pytest.mark.parametrize("rows", [
    # -1.0 at (0.3, 0.3, 0.3), between the nodes of an 83^3 grid on [-24, 24]^3
    [(1.0, 0.01, (0.0,) * 3), (-2.0, 100.0, (0.3,) * 3)],
    # negative only for |x| > 48, outside a fixed box [-24, 24]
    [(1.0, 0.002, (0.0,)), (-0.1, 0.001, (0.0,))],
], ids=["dip_3d", "far_field_1d"])
def test_lower_bound_skips_data_negative_somewhere(rows, gauss_sum):
    dim = len(rows[0][2])
    traj = SimpleNamespace(times=[1.0], q_norms=[1.0])
    rep = comparison_lower_bound(ProfileSpec.gaussian_sum(rows), traj, 2.0, dim=dim)
    assert rep.skipped == "data is not nonnegative" and rep.rows == ()
    nonneg, witness = profile_sign(ProfileSpec.gaussian_sum(rows), dim)
    assert nonneg is False and gauss_sum(rows, witness) < 0
