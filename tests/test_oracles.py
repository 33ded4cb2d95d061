"""Checks for the analytic helper layer: the weighted Young inequality, the
product-difference contraction bound, Mittag-Leffler evaluation, the singular
Gronwall majorant, smooth cutoffs with analytic derivatives, the forcing
kernel-positivity certificate, and the scaling certificate."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fujitalab import oracles
from fujitalab.exponents import blowup_criterion
from fujitalab.oracles import (
    BLOCK_BYTES,
    CONTRACTION_DRAWS,
    CUTOFF_KINDS,
    CUTOFF_MIN_ORDER,
    CUTOFF_THETA,
    DRAW_BLOCK,
    YOUNG_DRAWS,
    YOUNG_SLACK,
    CutoffCheck,
    SeriesDivergenceError,
    certificate_scaling_check,
    contraction_constant_study,
    cutoff_jet,
    cutoff_laplacian_check,
    gronwall_bound,
    mittag_leffler,
    radial_power_laplacian,
    smoothstep_jet,
    w_condition_check,
    young_batch,
)
from fujitalab.problem import ProfileSpec, profile_min_rate, profile_on_axis


# ------------------------------------------------------------------ young

def test_young_batch():
    ok, max_excess = young_batch(seed=0)
    assert ok
    assert max_excess <= 1e-12


def _young_whole(seed):
    """``young_batch`` with every array on all YOUNG_DRAWS draws at once."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 10.0, YOUNG_DRAWS)
    b = rng.uniform(0.0, 10.0, YOUNG_DRAWS)
    p = rng.uniform(1.05, 8.0, YOUNG_DRAWS)
    q = p / (p - 1.0)
    eps = 10.0 ** rng.uniform(-3, 3, YOUNG_DRAWS)
    excess = a * b - (eps * a**p + (p * eps) ** (-q / p) * b**q / q)
    return bool(np.all(excess <= YOUNG_SLACK)), float(np.max(excess))


def test_blocked_young_batch_equals_the_whole_arrays():
    for seed in (0, 7):
        assert young_batch(seed) == _young_whole(seed), seed


def test_draw_blocks_join_up_to_the_whole_arrays():
    # a count that ends on a partial block, with young's mixed bounds
    n, bounds = 25_001, ((0.0, 10.0), (1.05, 8.0), (-3.0, 3.0))
    for seed in (3, 7):
        rng = np.random.default_rng(seed)
        whole = [rng.uniform(lo, hi, n) for lo, hi in bounds]
        blocks = list(oracles._draw_blocks(seed, n, *bounds))
        assert [len(block[0]) for block in blocks] == [DRAW_BLOCK, DRAW_BLOCK, 5_001]
        for k, draws in enumerate(whole):
            joined = np.concatenate([block[k] for block in blocks])
            assert np.array_equal(joined, draws), (seed, k)
    # the contraction study's head, its first tenth, is its first block
    assert CONTRACTION_DRAWS == 10 * DRAW_BLOCK


# ------------------------------------------------------------ contraction

def test_contraction_constant_saturates_early():
    # the splitting bound holds up to a p-dependent constant (about 1.5 for
    # p = 3); the property that matters is that the empirical sup saturates
    for p, alpha in ((2.0, 1.0), (3.0, 1.5), (1.5, 0.5), (2.0, 0.0)):
        head, full = contraction_constant_study(p, alpha, seed=1)
        assert 0 < full < 2
        assert full <= head * 1.10  # stable within 10% of the early estimate


def _contraction_whole(p, alpha, seed):
    """``contraction_constant_study`` with every array on all draws at once."""
    rng = np.random.default_rng(seed)
    a, b, x, y = (rng.uniform(0.0, 2.0, CONTRACTION_DRAWS) for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs, rhs = oracles._contraction_sides(a, b, x, y, np.abs(x - y), p, alpha)
        ratio = np.where(lhs == 0, 0.0, lhs / np.where(rhs == 0, np.nan, rhs))
    ratio = np.nan_to_num(ratio, nan=0.0)
    return float(np.max(ratio[: CONTRACTION_DRAWS // 10])), float(np.max(ratio))


def test_blocked_contraction_study_equals_the_whole_arrays():
    for p, alpha in ((2.0, 1.0), (3.0, 1.5), (1.5, 0.5), (2.0, 0.0)):
        for seed in (1, 3):
            got = contraction_constant_study(p, alpha, seed)
            assert got == _contraction_whole(p, alpha, seed), (p, alpha, seed)


def test_contraction_study_reads_an_infinite_ratio_as_inf(monkeypatch):
    # one draw per block with rhs = 0 < lhs, or with a ratio that
    # overflows, makes the sup +inf and fails the lemma; 0/0 stays 0
    sides = oracles._contraction_sides

    def patched(lhs0, rhs0):
        def with_first_draw(*args):
            lhs, rhs = sides(*args)
            lhs[0], rhs[0] = lhs0, rhs0
            return lhs, rhs
        return with_first_draw

    for lhs0, rhs0 in ((1.0, 0.0), (1e300, 1e-300)):
        monkeypatch.setattr(oracles, "_contraction_sides", patched(lhs0, rhs0))
        assert contraction_constant_study(2.0, 1.0, seed=3) == (math.inf, math.inf)
        ok, detail = oracles.LEMMAS["contraction"]()
        assert not ok and detail.count("sup inf") == 4, detail

    def all_zero(*args):
        lhs, rhs = sides(*args)
        return np.zeros_like(lhs), np.zeros_like(rhs)

    monkeypatch.setattr(oracles, "_contraction_sides", all_zero)
    assert contraction_constant_study(2.0, 1.0, seed=3) == (0.0, 0.0)


# ---------------------------------------------------------- mittag-leffler

def test_ml_order_one_is_exp():
    for x in (0.0, 0.3, 1.0, 5.0, 20.0):
        res = mittag_leffler(1.0, x)
        assert res.value == pytest.approx(math.exp(x), rel=1e-12)


def test_ml_half_order_erfc_identity():
    # E_{1/2}(z) = e^{z^2} erfc(-z) on z >= 0
    from scipy.special import erfc

    for z in (0.5, 1.0, 2.0):
        res = mittag_leffler(0.5, z)
        ref = math.exp(z * z) * erfc(-z)
        assert res.value == pytest.approx(ref, rel=1e-8)
    one = mittag_leffler(0.5, 1.0)
    assert one.value == pytest.approx(5.00898008076228, rel=1e-8)


def test_ml_remainder_bound_is_honest():
    # the series tail past the terms summed, taken directly over the next
    # 400 terms, must sit below the certified remainder bound
    for nu, z in ((0.7, 2.0), (0.5, 1.0), (0.9, 10.0)):
        res = mittag_leffler(nu, z)
        tail = math.fsum(
            math.exp(n * math.log(z) - math.lgamma(n * nu + 1.0))
            for n in range(res.terms_used, res.terms_used + 400)
        )
        assert 0 < tail <= res.remainder_bound, (nu, z)
        assert res.remainder_bound < 1e-10 * res.value
        assert res.terms_used > 3


def test_ml_domain_errors(monkeypatch):
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.5, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -1.0)
    with pytest.raises(SeriesDivergenceError):
        mittag_leffler(0.5, 40.0)
    with pytest.raises(SeriesDivergenceError, match="partial sums overflow"):
        mittag_leffler(1.0, 710.0)
    monkeypatch.setattr(oracles, "ML_MAX_TERMS", 2)
    with pytest.raises(SeriesDivergenceError, match="no convergence within 2 terms"):
        mittag_leffler(1.0, 1.0)


def test_gronwall_bound_shape():
    assert gronwall_bound(0.0, 5.0, 0.5, 10.0) == 0.0
    assert gronwall_bound(2.0, 0.0, 0.5, 10.0) == pytest.approx(2.0)
    assert gronwall_bound(2.0, 1.0, 0.5, 0.0) == pytest.approx(2.0)
    # sigma = 0 is plain Gronwall: A e^{M t}
    assert gronwall_bound(1.5, 0.8, 0.0, 2.0) == pytest.approx(
        1.5 * math.exp(0.8 * 2.0), rel=1e-10
    )
    # monotone in t and in M
    vals = [gronwall_bound(1.0, 1.0, 0.4, t) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert gronwall_bound(1.0, 2.0, 0.4, 1.0) > gronwall_bound(1.0, 1.0, 0.4, 1.0)


def test_gronwall_majorizes_product_integration():
    # discrete solution of f = A + M int (t-s)^{-sigma} f(s) ds stays below
    # the Mittag-Leffler bound
    A, M, sig, T, n = 1.0, 0.7, 0.4, 2.0, 3000
    f = oracles._product_integration(A, M, sig, T, n)
    bound = gronwall_bound(A, M, sig, T)
    assert f[-1] <= bound * (1 + 1e-6)
    assert bound <= 3 * f[-1]  # and it is not wildly loose


def _per_row_product_integration(A, M, sigma, t, n):
    """Reference: each node differences t_j - s_i for its own row of weights."""
    dt = t / n
    ex = 1.0 - sigma
    s_left = np.arange(n) * dt
    s_right = s_left + dt
    psi = np.empty(n + 1)
    psi[0] = A
    for j in range(1, n + 1):
        tj = j * dt
        weights = ((tj - s_left[:j]) ** ex
                   - np.maximum(tj - s_right[:j], 0.0) ** ex) / ex
        psi[j] = A + M * float(weights @ psi[:j])
    return psi


def _long_double_product_integration(A, M, sigma, t, n):
    """The lag-weight recursion in np.longdouble throughout."""
    ld = np.longdouble
    ex = ld(1) - ld(sigma)
    weights = np.diff((np.arange(n + 1, dtype=ld) * (ld(t) / n)) ** ex)[::-1] / ex
    psi = np.empty(n + 1, dtype=ld)
    psi[0] = A
    for j in range(1, n + 1):
        psi[j] = ld(A) + ld(M) * (weights[n - j:] @ psi[:j])
    return psi


def test_lag_weights_equal_the_per_row_weights_when_dt_is_a_power_of_two():
    # t / 64 is exact, so every t_j - s_i is an exact lag and both forms
    # make the same weights
    for t in (1.0, 2.0):
        for sigma in (0.25, 0.4, 0.5, 0.9):
            fast = oracles._product_integration(1.0, 0.7, sigma, t, 64)
            ref = _per_row_product_integration(1.0, 0.7, sigma, t, 64)
            assert np.array_equal(fast, ref), (t, sigma)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float here")
def test_product_integration_agrees_with_long_double():
    # sigma = 0.9 at n = 257 is where per-row weights go wrong: the last
    # cell's ulp of lag gets weight ulp^0.1 / 0.1, and the value is 81% off
    for n, sigma in ((257, 0.25), (257, 0.5), (257, 0.9),
                     (4000, 0.25), (4000, 0.5)):
        fast = oracles._product_integration(1.0, 0.7, sigma, 1.0, n)
        ref = _long_double_product_integration(1.0, 0.7, sigma, 1.0, n)
        rel = np.max(np.abs((fast - ref) / ref))
        assert rel <= 1e-13, (n, sigma, float(rel))


def test_gronwall_lemma_discrete_value_is_pinned():
    psi = oracles._product_integration(1.0, 1.0, 0.5, 1.0, 4000)
    assert float(psi[-1]) == float.fromhex("0x1.6eebcb9e9eaf2p+5")  # 45.86513446733251


# ----------------------------------------------------------------- cutoffs

def _smoothstep(u):
    return smoothstep_jet(u)[0]


def _cutoff(kind, s):
    return cutoff_jet(kind, s)[0]


def test_smoothstep_values():
    assert _smoothstep(-1.0) == 0.0
    assert _smoothstep(0.0) == 0.0
    assert _smoothstep(1.0) == 1.0
    assert _smoothstep(2.0) == 1.0
    assert _smoothstep(0.5) == pytest.approx(0.5)
    # strictly increasing away from the tails (the tails are flat to double
    # precision well before 0 and 1)
    xs = np.linspace(0.1, 0.9, 81)
    vals = np.array([_smoothstep(x) for x in xs])
    assert np.all(np.diff(vals) > 0)


def test_smoothstep_derivatives_match_fd():
    h = 1e-5
    for x in (0.15, 0.4, 0.5, 0.62, 0.9):
        fd1 = (_smoothstep(x + h) - _smoothstep(x - h)) / (2 * h)
        fd2 = (_smoothstep(x + h) - 2 * _smoothstep(x) + _smoothstep(x - h)) / h**2
        _, d1, d2 = smoothstep_jet(x)
        assert d1 == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-5)
    assert smoothstep_jet(-0.5)[1] == 0.0 and smoothstep_jet(1.5)[1] == 0.0


def test_cutoff_shapes():
    assert CUTOFF_KINDS == ("psi1", "psi2")
    # psi1: plateau on [1/2, 3/4], support inside [1/4, 4/5]
    for s in (0.5, 0.6, 0.75):
        assert _cutoff("psi1", s) == 1.0
    for s in (0.0, 0.25, 0.8, 1.0):
        assert _cutoff("psi1", s) == 0.0
    assert 0.0 < _cutoff("psi1", 0.4) < 1.0
    # psi2: 1 up to s=1, 0 from s=2
    for s in (0.0, 0.5, 1.0):
        assert _cutoff("psi2", s) == 1.0
    for s in (2.0, 3.0):
        assert _cutoff("psi2", s) == 0.0
    assert 0.0 < _cutoff("psi2", 1.5) < 1.0
    with pytest.raises(ValueError):
        cutoff_jet("psi3", 0.5)


def test_cutoff_derivatives_match_fd():
    h = 1e-5
    for kind, pts in (("psi1", (0.3, 0.45, 0.77, 0.79)), ("psi2", (1.2, 1.5, 1.9))):
        for s in pts:
            fd1 = (_cutoff(kind, s + h) - _cutoff(kind, s - h)) / (2 * h)
            fd2 = (
                _cutoff(kind, s + h)
                - 2 * _cutoff(kind, s)
                + _cutoff(kind, s - h)
            ) / h**2
            _, d1, d2 = cutoff_jet(kind, s)
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-4)


def test_radial_power_laplacian_requires_theta():
    y = np.linspace(0.0, 2.0, 5)
    with pytest.raises(ValueError):
        radial_power_laplacian(cutoff_jet("psi2", y), 2.0, 100.0, 1, y)


def test_cutoff_laplacian_fd_agreement():
    # analytic Laplacian of g^theta vs central differences, Richardson order ~2
    chk = cutoff_laplacian_check("psi2", T=100.0, dim=1, points=801)
    assert chk.passed and chk.order >= 1.6
    assert chk.error_fine < chk.error_coarse
    assert chk.c_emp > 0
    chk1 = cutoff_laplacian_check("psi1", T=100.0, dim=1, points=801)
    assert chk1.passed and chk1.order >= 1.6
    chk2 = cutoff_laplacian_check("psi2", T=100.0, dim=2, points=401)
    assert chk2.passed and chk2.order >= 1.6


def test_cutoff_laplacian_check_takes_one_jet_per_grid(monkeypatch):
    # each grid evaluates its cutoff once: two exponentials per smoothstep,
    # one smoothstep for psi2 and two for psi1, on a coarse and a fine grid
    calls = []
    real_exp = np.exp

    def counting_exp(*args, **kwargs):
        calls.append(1)
        return real_exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    for kind, budget in (("psi2", 4), ("psi1", 8)):
        calls.clear()
        cutoff_laplacian_check(kind, T=100.0, dim=1, points=201)
        assert len(calls) <= budget, kind


def _full_grid_cutoff_check(kind, T, points):
    """The 2-D cutoff check with every temporary on the whole grid at once."""
    theta = CUTOFF_THETA
    half = math.sqrt((0.8 if kind == "psi1" else 2.0) * T) * 1.05

    def fd_error_and_ratio(n):
        h = 2.0 * half / (n - 1)
        x = (np.arange(n) - (n - 1) / 2) * h
        xx, yy = np.meshgrid(x, x, indexing="ij")
        y = (xx**2 + yy**2) / T
        jet = cutoff_jet(kind, y)
        G = jet[0] ** theta
        lap_fd = (
            (G[2:, 1:-1] + G[:-2, 1:-1]) + (G[1:-1, 2:] + G[1:-1, :-2])
            - 4.0 * G[1:-1, 1:-1]
        ) / h**2
        inner = np.s_[1:-1, 1:-1]
        jet_in = tuple(part[inner] for part in jet)
        lap_exact = radial_power_laplacian(jet_in, theta, T, 2, y[inner])
        err = float(np.max(np.abs(lap_fd - lap_exact)))
        g_in = jet_in[0]
        clean = g_in >= 1e-3
        c_emp = float(np.max(T * np.abs(lap_fd[clean]) / g_in[clean] ** (theta - 2.0)))
        return err, c_emp

    e_coarse, _ = fd_error_and_ratio(points)
    e_fine, c_emp = fd_error_and_ratio(2 * points - 1)
    order = math.log2(e_coarse / e_fine) if e_fine > 0 else math.inf
    return CutoffCheck(e_coarse, e_fine, order, c_emp, order >= CUTOFF_MIN_ORDER)


def test_odd_grid_is_exactly_odd():
    # x -> -x maps the grid onto itself bit for bit, so x**2 is exactly even;
    # np.linspace is not (588 of its 801 x**2 values miss their mirror)
    verify_half = math.sqrt(2.0 * 100.0) * 1.05
    for half in (verify_half, math.sqrt(0.8 * 30.0) * 1.05, 1e150):
        for n in range(3, 2002):
            x, h = oracles._odd_grid(half, n)
            assert np.array_equal(x, -x[::-1]), (half, n)
            assert h == 2.0 * half / (n - 1)
    x2 = np.linspace(-verify_half, verify_half, 801) ** 2
    assert np.count_nonzero(x2 != x2[::-1]) == 588


def test_row_blocked_2d_check_equals_the_full_grid():
    # the check evaluates rows and columns from n//2 on, block by block,
    # and folds them into the maxima; the full grid must give the same
    # numbers bit for bit. The coarse grids have stencils that jump over a
    # band of the cutoff and must not be skipped (at 3 and 4 points psi2
    # jumps from g = 1 to g = 0 between neighbours); even n have no middle
    # row or column. A fine grid of 2p - 1 points has p - 1 inner rows from
    # its middle on: at 401 points they end on a whole block, at 400 on a
    # partial one
    whole = [(p - 1) % (BLOCK_BYTES // (8 * (2 * p - 1))) == 0 for p in (401, 400)]
    assert whole == [True, False]
    cases = [("psi2", 100.0, 401), ("psi1", 100.0, 401), ("psi2", 30.0, 151),
             ("psi2", 1e-3, 401), ("psi2", 100.0, 3), ("psi2", 100.0, 4),
             ("psi2", 100.0, 801), ("psi1", 30.0, 400), ("psi2", 1e-3, 150)]
    cases += [(kind, T, points) for kind in CUTOFF_KINDS for T in (1e-300, 1e300)
              for points in (4, 11, 37)]
    cases += [(kind, 100.0, points) for kind in CUTOFF_KINDS
              for points in (5, 6, 7, 9, 11, 37, 38)]

    def outcome(check, *args):
        try:
            return check(*args)
        except ValueError:  # no inner point where g >= 1e-3
            return ValueError

    raised = 0
    for kind, T, points in cases:
        got = outcome(cutoff_laplacian_check, kind, T, 2, points)
        assert got == outcome(_full_grid_cutoff_check, kind, T, points), (kind, T, points)
        raised += got is ValueError
    assert raised == 2  # psi1 at 4 points: no inner point reaches its support


def test_2d_cutoff_check_evaluates_only_stencils_off_the_flat_pieces(monkeypatch):
    # the verify case: a column of a row block is evaluated only where its
    # stencil box reaches a non-flat value of psi2, in the quadrant of rows
    # and columns from n//2 on (1,412,964 jet elements on the whole grid,
    # 3,344,098 with no flat column skipped; 354,152 in blocks of 512 KiB)
    sizes = []
    jet = oracles.cutoff_jet

    def counted(kind, s):
        sizes.append(np.size(s))
        return jet(kind, s)

    monkeypatch.setattr(oracles, "cutoff_jet", counted)
    cutoff_laplacian_check("psi2", T=100.0, dim=2, points=801)
    assert sum(sizes) == 357_900


def test_row_blocks_leave_no_remainder_unchecked(monkeypatch):
    # one row per block is the smallest budget: still every inner row once
    monkeypatch.setattr(oracles, "BLOCK_BYTES", 8)
    assert cutoff_laplacian_check("psi1", T=20.0, dim=2, points=37) == \
        _full_grid_cutoff_check("psi1", 20.0, 37)


def test_2d_cutoff_check_memory_is_bounded_by_the_block():
    tracemalloc.start()
    try:
        chk = cutoff_laplacian_check("psi2", T=100.0, dim=2, points=801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.passed
    assert peak < 32e6


def test_oracles_refuse_inputs_outside_their_domain():
    for T in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            cutoff_laplacian_check("psi2", T=T)
    with pytest.raises(ValueError, match="points must be >= 3"):
        cutoff_laplacian_check("psi2", points=2)
    with pytest.raises(ValueError, match="dim 1 or 2"):
        cutoff_laplacian_check("psi2", dim=3)
    with pytest.raises(ValueError, match="unknown cutoff kind 'psi3'"):
        cutoff_laplacian_check("psi3")
    # the one inner point of a 3-point grid is x = 0, where psi1 vanishes
    for dim in (1, 2):
        with pytest.raises(ValueError, match=r"kind='psi1', T=100.0, points=3"):
            cutoff_laplacian_check("psi1", T=100.0, dim=dim, points=3)
    for p in (1.0, 0.5):
        with pytest.raises(ValueError, match="p must be > 1"):
            certificate_scaling_check(3, p, 1.25, 1.0, -0.5)
    for N in (0, -1, 1.5):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            certificate_scaling_check(N, 1.5, 1.25, 1.0, -0.5)
    for bad in (math.inf, math.nan):
        for args in ((bad, 1.0, 0.5, 1.0), (1.0, bad, 0.5, 1.0), (1.0, 1.0, 0.5, bad)):
            with pytest.raises(ValueError, match="need A, M, t >= 0 and finite"):
                gronwall_bound(*args)
    with pytest.raises(ValueError, match=r"sigma must be in \[0, 1\)"):
        gronwall_bound(1, 1, 1.0, 1)
    with pytest.raises(ValueError, match="simpson needs an odd number of nodes"):
        oracles._simpson(np.ones(4), 1.0)


def test_cutoff_constant_is_t_stable():
    cs = [
        cutoff_laplacian_check("psi2", T=T, dim=1, points=801).c_emp
        for T in (10.0, 100.0, 1000.0)
    ]
    spread = (max(cs) - min(cs)) / max(cs)
    assert spread <= 0.05


# ----------------------------------------------------- forcing certificate

def test_w_condition_positive_gaussian():
    w = ProfileSpec.gaussian(0.5, 1.0, (0.0,))
    rep = w_condition_check(w, 1)
    assert rep.holds_kernel_nonneg and rep.integral_positive
    assert rep.integral == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)
    assert rep.witness is None


def test_w_condition_mixed_sign_fails_kernel_positivity(gauss_sum):
    rows = [(0.8, 1.0, (0.0,)), (-1.0, 2.0, (0.0,))]
    rep = w_condition_check(ProfileSpec.gaussian_sum(rows), 1)
    assert not rep.holds_kernel_nonneg
    assert rep.integral_positive  # positive total mass is not enough
    assert gauss_sum(rows, rep.witness) < 0


def test_w_condition_decides_off_centre_and_far_field_profiles(gauss_sum):
    w = ProfileSpec.gaussian_sum([(0.5, 1.0, (1.0, -2.0))])
    rep = w_condition_check(w, 2)
    assert rep.holds_kernel_nonneg and rep.integral_positive and rep.witness is None
    # positive mass, negative for |x| > 15.2: the least-rate term is the
    # negative one, so the far field refutes it, centred or moved by 1e-9
    for s in (0.0, 1e-9):
        rows = [(1.0, 0.02, (s, s)), (-0.1, 0.01, (s, s))]
        rep = w_condition_check(ProfileSpec.gaussian_sum(rows), 2)
        assert (rep.holds_kernel_nonneg, rep.integral_positive) == (False, True)
        assert gauss_sum(rows, rep.witness) < 0


@pytest.mark.parametrize("rows", [
    # negative only for |x| > 15.2, outside a fixed box [-12, 12]
    [(1.0, 0.02, (0.0,)), (-0.1, 0.01, (0.0,))],
    # a dip to -1 between the nodes of a unit-spaced grid, in 1-, 2- and 3-D
    *([(1.0, 0.01, (0.0,) * d), (-2.0, 100.0, (0.5,) * d)] for d in (1, 2, 3)),
], ids=["far_field_1d", "dip_1d", "dip_2d", "dip_3d"])
def test_w_condition_refuses_profiles_negative_somewhere(rows, gauss_sum):
    rep = w_condition_check(ProfileSpec.gaussian_sum(rows), len(rows[0][2]))
    assert not rep.holds_kernel_nonneg and rep.integral_positive
    assert gauss_sum(rows, rep.witness) < 0


# ----------------------------------------------------- scaling certificate

_W3 = ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0, 0.0))


def test_certificate_scaling_negative_theta():
    # delta = 1*(1 - 4/5) = 1/5 < 2/3; theta = -2/5 < 0: blow-up side
    rep = certificate_scaling_check(3, 1.5, 1.25, 1.0, -0.5, w=_W3)
    assert rep.applicable and rep.passed
    assert rep.theta == pytest.approx(-0.4, abs=1e-12)
    assert rep.sign_gap > 0
    assert rep.slope_F == pytest.approx(rep.slope_expected_F, abs=0.1)
    assert rep.slope_I1 <= rep.slope_bound_I1 + 0.1


def test_certificate_scaling_positive_theta():
    # p = 3 pushes theta positive: the certificate must flip sign
    rep = certificate_scaling_check(3, 3.0, 1.25, 1.0, -0.5, w=_W3)
    assert rep.theta > 0
    assert rep.sign_gap <= 0


def _whole_grid_r2(sq, dim):
    r2 = sq
    for _ in range(dim - 1):
        r2 = np.add.outer(r2, sq)
    return r2


def _space_integral_with_cutoff(sq, w_vals, h, T, kappa):
    """One T's value of ``_space_cutoff_integrals`` on the whole grid at once,
    evaluating the cutoff on every node."""
    r2 = _whole_grid_r2(sq, w_vals.ndim)
    vals = cutoff_jet("psi2", r2 / T)[0] ** kappa * w_vals
    for _ in range(r2.ndim):
        vals = np.trapezoid(vals, dx=h, axis=-1)
    return float(vals)


def _cert_axis(w):
    """The certificate's trapezoid axis: w's centres plus 10 / sqrt(least rate)."""
    reach = max(abs(c) for t in w.terms for c in t.center)
    reach += 10.0 / math.sqrt(profile_min_rate(w))
    return np.linspace(-reach, reach, oracles.CERT_SPACE_POINTS)


def test_space_integral_skips_the_cutoff_only_where_it_is_one(monkeypatch):
    # a flat w on a 2-D grid reaching |x|^2 = 200, so every node where psi2 < 1
    # moves the integral; the largest |x|^2 / T runs across 1, and slabs
    # of axis 0 nearer the middle drop below it in turn
    w = ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0))
    x = np.linspace(-10.0, 10.0, 65)
    assert np.array_equal(_cert_axis(w), x)
    sq = x**2
    r2 = _whole_grid_r2(sq, 2)
    flat = np.ones_like(r2)
    tops = (3.0, 2.0, 1.5, 1.25, 1.0 + 2**-52, 1.0, 0.5)
    T_list = tuple(200.0 / top for top in tops)
    assert [r2.max() / T for T in T_list] == list(tops)
    monkeypatch.setattr(oracles, "CERT_T_LIST", T_list)
    monkeypatch.setattr(oracles, "profile_on_axis",
                        lambda prof, dim, ax, rows: np.ones_like(r2[rows]))
    assert oracles._space_cutoff_integrals(w, 2, 6.0) == \
        [_space_integral_with_cutoff(sq, flat, x[1] - x[0], T, 6.0) for T in T_list]


def test_slab_space_integral_equals_the_whole_grid(monkeypatch):
    # one pass over the slabs serves every T: psi2 < 1 on nodes that carry
    # weight at T = 3 and 10, so the cutoff moves the value, and nothing is
    # cut at T = 1e300; one profile is centred, one is off centre
    kappa = 6.0
    T_list = (3.0, 10.0, 1e300)
    n = oracles.CERT_SPACE_POINTS
    rows = []

    def counted(prof, dim, ax, r=slice(None)):
        rows.append((r.start, r.stop))
        return profile_on_axis(prof, dim, ax, r)

    monkeypatch.setattr(oracles, "profile_on_axis", counted)
    cases = [(w, dim) for w in (ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0, 0.0)),
                                ProfileSpec.gaussian_sum([(0.7, 0.5, (1.5, -2.0, 0.5)),
                                                          (0.3, 2.0, (0.0, 0.0, 0.0))]))
             for dim in (1, 2, 3)]
    for w, dim in cases:
        w_dim = ProfileSpec.gaussian_sum(
            [(t.coefficient, t.rate, t.center[:dim]) for t in w.terms])
        ax = _cert_axis(w_dim)
        w_vals = profile_on_axis(w_dim, dim, ax)
        whole = [_space_integral_with_cutoff(ax**2, w_vals, ax[1] - ax[0], T, kappa)
                 for T in T_list]
        assert whole[0] != whole[2] and whole[1] != whole[2], w_dim
        rows.clear()
        with monkeypatch.context() as m:
            m.setattr(oracles, "CERT_T_LIST", T_list)
            assert oracles._space_cutoff_integrals(w_dim, dim, kappa) == whole, w_dim
        assert rows == [(i, i + 1) for i in range(n)], w_dim  # each slab once
    rows.clear()
    certificate_scaling_check(3, 1.5, 1.25, 1.0, -0.5, w=_W3)
    assert len(rows) == n  # one pass for all of CERT_T_LIST


def test_certificate_space_integral_skips_the_cutoff_where_it_is_one(monkeypatch):
    # the verify case: w's grid reaches |x|^2 = 300, so psi2(|x|^2/T) is 1 on
    # every node at T = 1e3 and 1e4 and the cutoff is evaluated at T = 1e2
    # only, once on each 65 x 65 slab of the grid
    args = (3, 1.5, 1.25, 1.0, -0.5)
    ax = _cert_axis(_W3)
    h, sq = ax[1] - ax[0], ax**2

    def whole_grid(w, N, kappa):
        return [_space_integral_with_cutoff(sq, profile_on_axis(_W3, 3, ax), h, T, kappa)
                for T in oracles.CERT_T_LIST]

    with monkeypatch.context() as m:
        m.setattr(oracles, "_space_cutoff_integrals", whole_grid)
        reference = certificate_scaling_check(*args, w=_W3)
    in_space = []
    cutoff_args = []
    integrals, jet = oracles._space_cutoff_integrals, oracles.cutoff_jet

    def integrals_flagged(w, N, kappa):
        in_space.append(True)
        try:
            return integrals(w, N, kappa)
        finally:
            in_space.pop()

    def counted(kind, s):
        if in_space:
            cutoff_args.append((kind, s))
        return jet(kind, s)

    monkeypatch.setattr(oracles, "_space_cutoff_integrals", integrals_flagged)
    monkeypatch.setattr(oracles, "cutoff_jet", counted)
    rep = certificate_scaling_check(*args, w=_W3)
    r2 = _whole_grid_r2(sq, 3)
    assert [kind for kind, _ in cutoff_args] == ["psi2"] * oracles.CERT_SPACE_POINTS
    for (_, s), r2_slab in zip(cutoff_args, r2):  # slab i at T = 1e2
        assert np.array_equal(s, r2_slab / 1e2)
    assert rep == reference  # the slopes and the sign gap, bit for bit


def test_lemma_memory_is_bounded_by_blocks_and_slabs():
    # whole arrays peaked at 7.6, 7.6 and 26.6 MiB in young, contraction and
    # certificate_scaling, and a whole-grid |x|^2 at 6.6 MiB in the last;
    # the whole draws at 4.3 and 3.8 MiB, a whole 65^3 w at 4.5 MiB and
    # 512 KiB cutoff blocks at 4.4 MiB. The sweeps' first draw loads
    # numpy.random (0.7 MiB of module objects), which is not a lemma's
    # memory, so it is loaded before any peak is taken
    import numpy.random  # noqa: F401

    bounds = {"young": 1.5, "contraction": 1.5, "mittag_leffler": 1.0, "gronwall": 1.0,
              "exponent_sign": 1.0, "cutoff_laplacian": 1.5, "w_condition": 1.0,
              "certificate_scaling": 1.5}
    assert set(bounds) == set(oracles.LEMMAS)
    for name, mib in bounds.items():
        tracemalloc.start()
        try:
            ok, _ = oracles.LEMMAS[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok, name
        assert peak < mib * 2**20, (name, peak)


def test_certificate_without_forcing_is_inapplicable():
    rep = certificate_scaling_check(3, 1.5, 1.25, 1.0, -0.5)
    assert not rep.applicable
    assert rep.passed  # nothing to contradict; the I1 slope is still checked


# ------------------------------------------------------------ exponent sign

def _seed11_draws():
    """The exponent_sign lemma's 10,000 draws, in tenths: (N, p, q, alpha, rho)."""
    rng = random.Random(11)
    for _ in range(10_000):
        N = rng.randint(3, 8)
        p10, q10, a10 = rng.randint(11, 60), rng.randint(11, 80), rng.randint(0, 30)
        yield N, p10, q10, a10, -rng.randint(0, 9)


def _criterion(N, *tenths):
    return blowup_criterion(N, *(Fraction(v, 10) for v in tenths))


def test_exponent_sign_draws_replay_randint():
    # the lemma replays randint through getrandbits; a change to randint's
    # sampling fails here rather than moving the lemma's pinned count
    assert list(oracles._exponent_sign_draws()) == list(_seed11_draws())


def test_integer_prefilter_is_blowup_admissibility():
    kept = 0
    for N, p10, q10, a10, rho10 in _seed11_draws():
        fast = oracles._delta_subcritical_tenths(N, a10, q10)
        assert fast == _criterion(N, p10, q10, a10, rho10).admissible
        kept += fast
    assert kept == 2269


def test_exponent_sign_lemma_count_is_pinned():
    assert oracles.LEMMAS["exponent_sign"]() == (
        True, "2269 admissible draws agree exactly")


def test_exponent_sign_lemma_fails_a_filter_that_keeps_too_much(monkeypatch):
    monkeypatch.setattr(oracles, "_delta_subcritical_tenths", lambda *a: True)
    bad = next(d for d in _seed11_draws() if not _criterion(*d).admissible)
    N, p, q, alpha, rho = bad[0], *(Fraction(v, 10) for v in bad[1:])
    assert oracles.LEMMAS["exponent_sign"]() == (
        False, f"inadmissible draw kept at N={N} p={p} q={q} alpha={alpha} rho={rho}")
