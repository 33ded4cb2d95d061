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
from fujitalab.problem import ProfileSpec, profile_integral


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

# the contraction lemma's (p, alpha)
CONTRACTION_PAIRS = ((2.0, 1.0), (3.0, 1.5), (1.5, 0.5), (2.0, 0.0))

def test_contraction_constant_saturates_early():
    # the splitting bound holds up to a p-dependent constant (about 1.5 for
    # p = 3); the property that matters is that the empirical sup saturates
    for head, full in contraction_constant_study(CONTRACTION_PAIRS, seed=1):
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
    # one call serves all four pairs, each equal to its own whole-array study
    for seed in (1, 3):
        got = contraction_constant_study(CONTRACTION_PAIRS, seed)
        want = [_contraction_whole(p, alpha, seed) for p, alpha in CONTRACTION_PAIRS]
        assert got == want, seed


def test_contraction_lemma_draws_its_stream_once(monkeypatch):
    # the four (p, alpha) share one pass: 4 PCG64 streams and 4 x 100,000
    # uniforms per lemma run, not one pass per pair
    passes, streams, uniforms = [], [], []
    draw_blocks, pcg64 = oracles._draw_blocks, np.random.PCG64

    def counted_blocks(*args):
        passes.append(args)
        for block in draw_blocks(*args):
            uniforms.extend(len(draws) for draws in block)
            yield block

    def counted_pcg64(*args):
        streams.append(args)
        return pcg64(*args)

    monkeypatch.setattr(oracles, "_draw_blocks", counted_blocks)
    monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
    ok, _ = oracles.LEMMAS["contraction"]()
    assert ok
    assert len(passes) == 1 and len(streams) == 4
    assert sum(uniforms) == 4 * CONTRACTION_DRAWS == 400_000


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
        assert contraction_constant_study([(2.0, 1.0)], seed=3) == [(math.inf, math.inf)]
        ok, detail = oracles.LEMMAS["contraction"]()
        assert not ok and detail.count("sup inf") == 4, detail

    def all_zero(*args):
        lhs, rhs = sides(*args)
        return np.zeros_like(lhs), np.zeros_like(rhs)

    monkeypatch.setattr(oracles, "_contraction_sides", all_zero)
    assert contraction_constant_study([(2.0, 1.0)], seed=3) == [(0.0, 0.0)]


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
    chk3 = cutoff_laplacian_check("psi2", T=100.0, dim=3, points=801)
    assert chk3.passed and chk3.order >= 1.9


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
    """The 2-D cutoff check's five-point stencil on every point of the grid,
    64 rows at a time."""
    theta = CUTOFF_THETA
    half = math.sqrt((0.8 if kind == "psi1" else 2.0) * T) * 1.05

    def fd_error_and_ratio(n):
        h = 2.0 * half / (n - 1)
        x2 = ((np.arange(n) - (n - 1) / 2) * h) ** 2
        errs, ratios = [], []
        for i0 in range(1, n - 1, 64):
            y = (x2[i0 - 1:min(i0 + 64, n - 1) + 1, None] + x2[None, :]) / T
            jet = cutoff_jet(kind, y)
            G = jet[0] ** theta
            lap_fd = (
                (G[2:, 1:-1] + G[:-2, 1:-1]) + (G[1:-1, 2:] + G[1:-1, :-2])
                - 4.0 * G[1:-1, 1:-1]
            ) / h**2
            inner = np.s_[1:-1, 1:-1]
            jet_in = tuple(part[inner] for part in jet)
            lap_exact = radial_power_laplacian(jet_in, theta, T, 2, y[inner])
            errs.append(np.max(np.abs(lap_fd - lap_exact)))
            g_in = jet_in[0]
            clean = g_in >= 1e-3
            if clean.any():
                ratios.append(np.max(T * np.abs(lap_fd[clean]) / g_in[clean] ** (theta - 2.0)))
        return float(max(errs)), float(max(ratios))  # ValueError with no clean point

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


def test_ray_cutoff_check_equals_the_full_grid_for_psi2():
    # psi2's sup error lies on the axis once the grid resolves the cutoff,
    # and on an odd grid the ray's stencil sums are the grid's axis values
    # bit for bit, so its errors are the whole grid's; the verify case keeps
    # the errors of the row-blocked 2-D grid that the ray replaced
    for T, points in ((100.0, 801), (100.0, 401), (10.0, 401), (1e3, 401), (1e-3, 401)):
        ray = cutoff_laplacian_check("psi2", T, 2, points)
        grid = _full_grid_cutoff_check("psi2", T, points)
        assert (ray.error_coarse, ray.error_fine, ray.order) == \
            (grid.error_coarse, grid.error_fine, grid.order), (T, points)
        assert ray.c_emp <= grid.c_emp and ray.c_emp == pytest.approx(grid.c_emp, rel=1e-5)
    verify = cutoff_laplacian_check("psi2", 100.0, 2, 801)
    assert verify.error_coarse == 0.0026408473830632495
    assert verify.error_fine == 0.0006609683181539872


def test_ray_errors_never_exceed_the_full_grid():
    # the ray's points are grid points of an odd grid, so every maximum it
    # takes is at most the grid's, on coarse grids, tiny and huge T and both
    # kinds; on coarse grids the grid's sup can lie off the axis
    cases = [(kind, T, points) for kind in CUTOFF_KINDS for T in (1e-300, 100.0, 1e300)
             for points in (3, 7, 11, 37, 151)]
    checked = 0
    for kind, T, points in cases:
        try:
            ray = cutoff_laplacian_check(kind, T, 2, points)
        except ValueError:  # no inner point of the ray reaches g >= 1e-3
            continue
        grid = _full_grid_cutoff_check(kind, T, points)
        assert ray.error_coarse <= grid.error_coarse, (kind, T, points)
        assert ray.error_fine <= grid.error_fine, (kind, T, points)
        assert ray.c_emp <= grid.c_emp, (kind, T, points)
        checked += 1
    assert checked == 27  # psi1 at 3 points: its one inner point is x = 0


def test_ray_psi1_errors_lie_within_half_a_percent_of_the_grid():
    # psi1's plateau band puts the grid's sup error off the axis, about 0.1%
    # above the ray's at 2001 points (0.4% on the fine grid); the order the
    # lemma reads moves in the third digit
    ray = cutoff_laplacian_check("psi1", 100.0, 2, 2001)
    grid = _full_grid_cutoff_check("psi1", 100.0, 2001)
    for got, ref in ((ray.error_coarse, grid.error_coarse), (ray.error_fine, grid.error_fine)):
        assert got <= ref and got >= 0.995 * ref
    assert ray.order == pytest.approx(grid.order, abs=0.01)


def test_cutoff_check_evaluates_the_cutoff_on_the_ray_only(monkeypatch):
    # the verify case: the ray's n points and the n - 2 off-ray radii on a
    # coarse grid of 801 points and a fine one of 1601, O(points) against
    # the 357,900 jet elements of the row-blocked 2-D grid
    sizes = []
    jet = oracles.cutoff_jet

    def counted(kind, s):
        sizes.append(np.size(s))
        return jet(kind, s)

    monkeypatch.setattr(oracles, "cutoff_jet", counted)
    cutoff_laplacian_check("psi2", T=100.0, dim=2, points=801)
    assert sizes == [801, 799, 1601, 1599]
    sizes.clear()
    cutoff_laplacian_check("psi2", T=100.0, dim=3, points=801)
    assert sum(sizes) == 4800  # the same radii serve any dim


def test_oracles_refuse_inputs_outside_their_domain():
    for T in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            cutoff_laplacian_check("psi2", T=T)
    with pytest.raises(ValueError, match="points must be >= 3"):
        cutoff_laplacian_check("psi2", points=2)
    for dim in (0, 1.5):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            cutoff_laplacian_check("psi2", dim=dim)
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
    # the paper's alpha >= 0 and rho > -1; outside them the slope tests
    # would still read a verdict (rho = nan, rho = -1.5 and alpha = -1 pass)
    w = ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0, 0.0))
    for alpha in (-1.0, math.nan):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            certificate_scaling_check(3, 1.5, 1.25, alpha, -0.5, w=w)
    for rho in (-1.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="rho must be > -1"):
            certificate_scaling_check(3, 1.5, 1.25, 1.0, rho, w=w)
    for N, center in ((4, (0.0,) * 4), (3, (0.0, 0.0))):
        with pytest.raises(ValueError, match="w needs N <= 3 and centres of N coordinates"):
            certificate_scaling_check(N, 1.5, 1.25, 1.0, -0.5,
                                      w=ProfileSpec.gaussian(1.0, 1.0, center))
    assert not certificate_scaling_check(4, 1.5, 1.25, 1.0, -0.5).applicable
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


def _cutoff_calls(monkeypatch):
    """The arguments of every cutoff_jet call made from now on."""
    calls = []
    jet = oracles.cutoff_jet

    def counted(kind, s):
        calls.append((kind, np.asarray(s)))
        return jet(kind, s)

    monkeypatch.setattr(oracles, "cutoff_jet", counted)
    return calls


def test_space_integral_skips_the_cutoff_only_where_it_is_one(monkeypatch):
    # w = e^{-|x|^2} in 2-D reaches |x| = 10: psi2 is 1 there at T = 200 and
    # 100, so the term adds its closed-form mass pi, and the cutoff moves on
    # [sqrt(T), 10] at T = 50 and on [sqrt(T), sqrt(2T)] at T = 10; it is
    # evaluated only where |x|^2 / T lies in [1, 2], once per T that needs it.
    # At T = 50 the cutoff takes e^-50 of the mass, below pi's last bit, and
    # the part below sqrt(T) is in closed form, so the value is pi to 1 ulp;
    # Simpson from r = 0 on the odd 2-D integrand 2 pi r e^{-r^2} is 5.9e-13 off
    w = ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0))
    monkeypatch.setattr(oracles, "CERT_T_LIST", (200.0, 100.0, 50.0, 10.0))
    calls = _cutoff_calls(monkeypatch)
    values = oracles._space_cutoff_integrals(w, 2, 6.0)
    assert [kind for kind, _ in calls] == ["psi2"] * 2
    for _, y in calls:
        assert 1.0 - 1e-15 <= y.min() and y.max() <= 2.0 + 1e-15
    assert values[0] == values[1] == math.pi
    assert abs(values[2] - math.pi) <= math.ulp(math.pi) and values[3] < values[2]
    # a term reaching exactly sqrt(T) = 100 is still wholly where psi2 = 1
    wide = ProfileSpec.gaussian(1.0, 0.01, (0.0, 0.0))
    monkeypatch.setattr(oracles, "CERT_T_LIST", (1e4,))
    assert oracles._space_cutoff_integrals(wide, 2, 6.0) == [math.pi / 0.01]


_REFERENCE_W = {
    1: [(0.7, 1.0, (1.5,)), (0.3, 100.0, (-0.4,)), (-0.2, 4.0, (0.0,))],
    2: [(0.7, 1.0, (1.5, -0.5)), (0.3, 100.0, (-0.4, 0.3)), (-0.2, 4.0, (0.0, 0.0))],
    3: [(0.7, 1.0, (1.5, -0.5, 0.5)), (0.3, 100.0, (-0.4, 0.3, 0.0)),
        (-0.2, 4.0, (0.0, 0.0, 0.0))],
}


def _space_integral_reference(rows, N, T, kappa):
    """The integral of psi2(|x|^2/T)^kappa * w by adaptive quadrature: along x
    in 1-D, and in 2-D and 3-D in polar coordinates about each term's centre
    direction, with the angular integral taken numerically too."""
    from scipy import integrate

    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 500}
    R, root = math.sqrt(2.0 * T), math.sqrt(T)

    def cut(r):
        return float(_cutoff("psi2", r * r / T)) ** kappa

    total = 0.0
    for c, a, center in rows:
        s = math.hypot(*center)
        if N == 1:
            value = integrate.quad(lambda x: cut(x) * math.exp(-a * (x - center[0]) ** 2),
                                   -R, R, points=sorted({-root, root, center[0]}), **opts)[0]
        else:
            def sphere(r):
                # exp(-a|x - y|^2) = exp(-a(r - s)^2) exp(-2ars(1 - cos phi))
                def g(phi):
                    return math.exp(-2.0 * a * r * s * (1.0 - math.cos(phi))) * (
                        2.0 * r if N == 2 else 2.0 * math.pi * r * r * math.sin(phi))
                return integrate.quad(g, 0.0, math.pi, **opts)[0]

            value = integrate.quad(lambda r: cut(r) * math.exp(-a * (r - s) ** 2) * sphere(r),
                                   0.0, R, points=sorted({root, min(s, R)}), **opts)[0]
        total += c * value
    return total


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_space_integral_matches_a_refined_reference(monkeypatch):
    # at T = 3 and 10 psi2's band [sqrt(T), sqrt(2T)] runs through every
    # term of a w with rates 1, 4 and 100, off centre and centred, so the
    # cutoff, the sphere masses and I0e all enter; the 65-node tensor
    # trapezoid this replaced was off by up to 7% on such profiles
    T_list = (3.0, 10.0)
    monkeypatch.setattr(oracles, "CERT_T_LIST", T_list)
    for N, rows in _REFERENCE_W.items():
        got = oracles._space_cutoff_integrals(ProfileSpec.gaussian_sum(rows), N, 6.0)
        for T, value in zip(T_list, got):
            ref = _space_integral_reference(rows, N, T, 6.0)
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0), (N, T)
    # a centre so near 0 that a * |y| is subnormal has the centred value
    near = ProfileSpec.gaussian(1.0, 1.0, (1e-310, 0.0, 0.0))
    assert oracles._space_cutoff_integrals(near, 3, 6.0) == \
        pytest.approx(oracles._space_cutoff_integrals(_W3, 3, 6.0), rel=1e-15)


def test_i0e_matches_scipy():
    from scipy.special import i0e

    z = np.concatenate([np.linspace(0.0, 1e6, 100_001), np.linspace(690.0, 710.0, 2_001),
                        np.geomspace(1e-10, 1e6, 10_001)])
    ref = i0e(z)
    assert np.max(np.abs(oracles._i0e(z) - ref) / ref) <= 1e-15


def test_certificate_reads_the_sign_of_the_w_integral():
    # a narrow term of the other sign: a 65-node tensor grid read each of
    # these integrals with the wrong sign or size (-1.197, +1.197, +1.271)
    for rows in ([(1.0, 1.0, (0.0,)), (-9.5, 100.0, (0.0,))],
                 [(-1.0, 1.0, (0.0,)), (9.5, 100.0, (0.0,))],
                 [(1.0, 1.0, (0.0,)), (-9.5, 100.0, (0.15,))]):
        w = ProfileSpec.gaussian_sum(rows)
        integral = w_condition_check(w, 1).integral
        assert abs(integral) == pytest.approx(0.0886226925, rel=1e-9)
        rep = certificate_scaling_check(1, 3.0, 1.25, 1.0, -0.5, w=w)
        assert rep.applicable == (integral > 0), rows
        space = oracles._space_cutoff_integrals(w, 1, 3.0)
        assert space == pytest.approx([integral] * 3, rel=1e-13), rows


def test_certificate_space_integral_skips_the_cutoff_where_it_is_one(monkeypatch):
    # the verify case: w = e^{-|x|^2} reaches |x| = 10 = sqrt(1e2), so psi2 is
    # 1 on all of it at every T, the cutoff is never evaluated and the space
    # factor is the closed-form integral pi^(3/2) at each T, bit for bit
    args = (3, 1.5, 1.25, 1.0, -0.5)
    integral = profile_integral(_W3, 3)
    with monkeypatch.context() as m:
        m.setattr(oracles, "_space_cutoff_integrals",
                  lambda w, N, kappa: [integral] * len(oracles.CERT_T_LIST))
        reference = certificate_scaling_check(*args, w=_W3)
    calls = _cutoff_calls(monkeypatch)
    assert oracles._space_cutoff_integrals(_W3, 3, 6.0) == [integral] * 3
    assert calls == []
    # the slopes and the sign gap, bit for bit
    assert certificate_scaling_check(*args, w=_W3) == reference


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


def test_exponent_sign_lemma_runs_the_library_with_fewest_operations(monkeypatch):
    # The lemma must call both library functions on every kept draw with
    # exact p, q, alpha and rho; each call's Fraction arithmetic is counted
    # through wrapped dunders, which pins the exact work without timing it:
    # 8 and 10 operations (13 and 13 for the divided forms)
    ops = [0]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(a, b, _op=getattr(Fraction, name)):
            ops[0] += 1
            return _op(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    calls = {"blowup_criterion": [], "certificate_exponent": []}
    for name, seen in calls.items():
        def wrapped(*args, _f=getattr(oracles, name), _seen=seen):
            before = ops[0]
            out = _f(*args)
            _seen.append((args, ops[0] - before))
            return out
        monkeypatch.setattr(oracles, name, wrapped)
    assert oracles.LEMMAS["exponent_sign"]() == (
        True, "2269 admissible draws agree exactly")
    for name, per_call in (("blowup_criterion", 8), ("certificate_exponent", 10)):
        seen = calls[name]
        assert len(seen) == 2269, name
        for (N, *exact), count in seen:
            assert type(N) is int and all(type(v) is Fraction for v in exact)
            assert count == per_call, (name, count)


def test_exponent_sign_lemma_fails_a_filter_that_keeps_too_much(monkeypatch):
    monkeypatch.setattr(oracles, "_delta_subcritical_tenths", lambda *a: True)
    bad = next(d for d in _seed11_draws() if not _criterion(*d).admissible)
    N, p, q, alpha, rho = bad[0], *(Fraction(v, 10) for v in bad[1:])
    assert oracles.LEMMAS["exponent_sign"]() == (
        False, f"inadmissible draw kept at N={N} p={p} q={q} alpha={alpha} rho={rho}")
