"""Grid field checks.  Norms are cell sums on a periodic box, which for
Gaussians well inside the box converge spectrally, so closed-form norms are
matched essentially to machine precision."""

import math
import sys

import numpy as np
import pytest

from fujitalab.field import (
    BlowupSignal,
    BoxGeometry,
    GridField,
    coordinates,
    lq_norm,
    nonlinearity,
    sample,
)
from fujitalab import field
from fujitalab.problem import ProfileSpec


def test_coordinates_layout():
    L, M = 16.0, 64
    ax = coordinates(L, M)
    assert len(ax) == M
    assert ax[0] == -L
    h = 2 * L / M
    assert np.allclose(np.diff(ax), h)
    assert ax[-1] == pytest.approx(L - h)  # right endpoint omitted


def test_sample_matches_pointwise_evaluation():
    prof = ProfileSpec.gaussian_sum([(1.0, 1.0, (0.3, -0.2)), (-0.4, 2.5, (0.0, 1.0))])
    f = sample(prof, 2, 8.0, 32)
    ax = f.axis
    pts = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    ref = np.zeros(pts.shape[:-1])
    for t in prof.terms:  # pointwise reference
        ref += t.coefficient * np.exp(-t.rate * np.sum((pts - t.center) ** 2, axis=-1))
    assert np.allclose(f.values, ref, atol=1e-14)


def test_sample_zero_profile():
    f = sample(ProfileSpec.zero(), 3, 4.0, 8)
    assert f.values.shape == (8, 8, 8)
    assert not f.values.any()


def test_lq_norm_gaussian_closed_form():
    # ||c e^{-r|x|^2}||_q = |c| (pi/(q r))^{N/(2q)}.  Spacing must stay below
    # ~0.3 for the cell sum of e^{-3.5 x^2} to reach 1e-12; the dim-3 box is
    # shrunk to keep the cell count down at that spacing.
    for dim, M, L in ((1, 256, 16.0), (2, 128, 16.0), (3, 64, 8.0)):
        f = sample(ProfileSpec.gaussian(0.7, 1.0, (0.0,) * dim), dim, L, M)
        for q in (1.0, 2.0, 3.5):
            exact = 0.7 * (math.pi / q) ** (dim / (2 * q))
            assert lq_norm(f, q) == pytest.approx(exact, rel=1e-12)
        for q in (math.inf, "inf"):
            assert lq_norm(f, q) == pytest.approx(0.7, rel=1e-12)
        # the q = 2 dot product sums in another order than the plain sum
        plain = math.sqrt(np.sum(np.abs(f.values) ** 2.0) * f.cell_volume)
        assert lq_norm(f, 2.0) == pytest.approx(plain, rel=1e-14)


def test_lq_norm_general_q_is_the_plain_power_sum():
    # |v|^q is raised in place in one temporary; same bits as np.abs(v) ** q
    f = sample(ProfileSpec.gaussian_sum([(1.0, 1.0, (0.0,)), (-2.0, 0.5, (3.0,))]),
               1, 16.0, 128)
    before = f.values.copy()
    for q in (1.0, 1.5, 3.0, 3.5, 7.25):
        plain = float(np.sum(np.abs(f.values) ** q) * f.cell_volume) ** (1.0 / q)
        assert lq_norm(f, q) == plain, q
    assert np.array_equal(f.values, before)


def test_lq_norm_of_a_tiny_field_is_not_lost_to_underflow():
    # every power |v|^q underflows (at 1e-105 and q = 3 they are subnormal
    # and lost 9e-10 of the norm): the norm is max|v| times that of v / max|v|
    def norm(A, q):
        return lq_norm(sample(ProfileSpec.gaussian(A, 1.0, (0.0,)), 1, 16.0, 256), q)

    for A, q in ((1e-110, 3.0), (1e-170, 2.0), (1e-250, 1.5), (1e-105, 3.0)):
        expected = A * norm(1.0, q)
        assert abs(norm(A, q) - expected) <= 1e-14 * expected, (A, q)
    assert norm(0.0, 3.0) == 0.0
    # a box so small that the cell volume h^3 underflows: 512 unit values
    # have the closed-form norm 512^(1/q) h^(3/q)
    box = GridField(3, 1e-110, np.ones((8, 8, 8)))
    assert box.cell_volume == 0.0
    for q in (2.0, 3.0, 1.5):
        assert lq_norm(box, q) == 512.0 ** (1.0 / q) * box.spacing ** (3.0 / q), q


def test_power_sum_flushes_subnormal_powers_without_moving_the_sum():
    # about half of this field's 262,144 values lie below 1e-103, so their
    # powers at q = 3, 2.5 and 1.5 are subnormal or 0; setting each |v| below
    # 2^(-1022/q) to 0 before the power must leave the sum's float alone
    v = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,) * 3), 3, 16.0, 64).values
    for q in (3.0, 2.5, 1.5):
        powers = np.abs(v) ** q
        assert np.count_nonzero((powers > 0.0) & (powers < sys.float_info.min)) > 0, q
        assert field._power_sum(v, q) == float(np.sum(powers)), q


def test_lq_norm_rejects_small_q():
    f = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 1, 8.0, 16)
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="q must be >= 1 or inf"):
            lq_norm(f, q)


def test_nonlocal_factor_conventions(monkeypatch):
    f = sample(ProfileSpec.gaussian(2.0, 1.0, (0.0,)), 1, 16.0, 64)
    n2 = lq_norm(f, 2.0)
    np.testing.assert_allclose(nonlinearity(f, 1.0, 2.0, 3.0).values,
                               n2**3 * np.abs(f.values), rtol=1e-13, atol=0.0)

    def no_norm(*args):
        raise AssertionError("the norm is evaluated at alpha = 0")

    monkeypatch.setattr(field, "lq_norm", no_norm)  # 0^0 = 1: never evaluated
    assert np.array_equal(nonlinearity(f, 1.0, 2.0, 0.0).values, np.abs(f.values))


def test_nonlinearity_is_nonnegative_power():
    prof = ProfileSpec.gaussian_sum([(1.0, 1.0, (0.0,)), (-2.0, 1.0, (3.0,))])
    f = sample(prof, 1, 16.0, 128)
    before = f.values.copy()
    for p in (1.0, 2.0, 2.5, 3.0, 4.0):
        # integral p is raised by repeated multiplication, the rest by pow
        load = nonlinearity(f, p, 2.0, 1.0)
        expected = lq_norm(f, 2.0) * np.abs(f.values) ** p
        np.testing.assert_allclose(load.values, expected, rtol=1e-13, atol=0.0)
        assert load.values.min() >= 0.0  # |u|^p, not sign-carrying
        buf = np.full_like(f.values, np.nan)
        into = nonlinearity(f, p, 2.0, 1.0, out=buf)
        assert into.values is buf
        assert np.array_equal(into.values, load.values)
    assert np.array_equal(f.values, before)
    # p = 2 is the one product |f| |f|, bit for bit what ** 2.0 gives
    assert np.array_equal(nonlinearity(f, 2.0, 2.0, 0.0).values, np.abs(f.values) ** 2.0)


def test_overflow_surfaces_as_blowup_signal():
    f = GridField(1, 8.0, np.full(16, 1e300))
    with pytest.raises(BlowupSignal):
        lq_norm(f, 2.0)
    with pytest.raises(BlowupSignal):
        nonlinearity(f, 1.0, 1.0, 2.0)  # ||f||_1^2 overflows, |f| does not
    with pytest.raises(BlowupSignal):
        lq_norm(f, 3.0)
    with pytest.raises(BlowupSignal):
        lq_norm(f, 1.5)
    for q, top in ((2.0, 1.3e154), (1.0, 1.7e308)):
        # the cell sum is finite and overflows only times the cell volume 8
        with pytest.raises(BlowupSignal):
            lq_norm(GridField(1, 64.0, np.array([top] + [0.0] * 15)), q)
    with pytest.raises(BlowupSignal):
        nonlinearity(f, 2.0, 2.0, 0.0)
    with pytest.raises(BlowupSignal):
        nonlinearity(f, 2.0, 2.0, 0.0, out=np.empty(16))
    with pytest.raises(BlowupSignal):
        GridField(1, 8.0, np.array([0.0, math.inf] + [0.0] * 14))
    # a finite field spanning +-1e308 is no overflow, and its sup norm is
    # exact when the largest magnitude is negative
    wide = GridField(1, 8.0, np.array([1e308, -1.5e308] + [0.0] * 14))
    assert lq_norm(wide, math.inf) == 1.5e308


def test_geometry_validation():
    with pytest.raises(ValueError):
        GridField(1, 8.0, np.zeros(17))  # not a power of two
    with pytest.raises(ValueError):
        GridField(2, 8.0, np.zeros((8, 16)))  # ragged
    with pytest.raises(ValueError, match="values must be 2-dimensional"):
        GridField(2, 8.0, np.zeros(16))
    with pytest.raises(ValueError):
        GridField(1, -1.0, np.zeros(16))
    with pytest.raises(ValueError):
        sample(ProfileSpec.zero(), 4, 8.0, 8)  # dim cap
    with pytest.raises(ValueError):
        sample(ProfileSpec.zero(), 3, 8.0, 512)  # cell cap
    with pytest.raises(ValueError):
        sample(ProfileSpec.zero(), 2, 8.0, 0)  # no silent fallback to the default
    with pytest.raises(ValueError):
        sample(ProfileSpec.zero(), 4, 8.0)  # unknown dim, default points
    # a float count is refused as a count, not a TypeError from M & (M - 1)
    with pytest.raises(ValueError, match="integer power of two"):
        BoxGeometry(16.0, 64.0).resolve(2)
    with pytest.raises(ValueError, match="integer power of two"):
        sample(ProfileSpec.zero(), 2, 8.0, points_per_axis=64.0)
    # a float dim is refused as a dim, not a TypeError from the grid's shape
    with pytest.raises(ValueError, match="dim must be an integer"):
        BoxGeometry(16.0, 64).resolve(2.0)
    with pytest.raises(ValueError, match="dim must be an integer"):
        sample(ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0)), 2.0, 16.0, 64)
    # a bool is refused, not read as 1
    for dim, L, M in ((1, True, 64), (1, 16.0, True), (True, 16.0, 64)):
        with pytest.raises(ValueError, match="must not be bools"):
            BoxGeometry(L, M).resolve(dim)
    with pytest.raises(ValueError, match="must not be bools"):
        GridField(True, 8.0, np.zeros(16))
    assert BoxGeometry(12.0, None).resolve(3) == (12.0, 64)


def test_field_arithmetic_checks_geometry():
    f = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 1, 8.0, 16)
    g = sample(ProfileSpec.gaussian(1.0, 1.0, (0.0,)), 1, 8.0, 32)
    with pytest.raises(ValueError):
        f - g
    assert np.all((f - f).values == 0.0)
