"""Numerical verifiers for the analytic ingredients the solver leans on.

Each check here is an independent route to a claim used elsewhere: direct
sampling for the scalar inequalities, series with explicit remainder control
for the singular Gronwall bound, finite differences against the closed-form
radial Laplacian for the cutoff calculus, and log-log slope fits for the
space-time scaling certificate whose sign separates blow-up from existence.
``LEMMAS`` bundles them into the named pass/fail checks of ``fujita-lab
verify``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import EXPORTS
from .exponents import blowup_criterion, certificate_exponent, delta
from .problem import (
    KERNEL_AVERAGE_TOL,
    ProfileSpec,
    profile_integral,
    profile_sign,
)

__all__ = list(EXPORTS["oracles"])

# Fixed resolutions and tolerances of the checks below.
YOUNG_DRAWS = 100_000             # random (a, b, p, eps) draws per Young sweep
YOUNG_SLACK = 1e-12               # slack on a*b <= the Young bound
CONTRACTION_DRAWS = 100_000       # random (a, b, x, y) draws per contraction study
ML_MAX_TERMS = 100_000            # Mittag-Leffler series terms before giving up
CUTOFF_THETA = 4.0                # power of the cutoff in g(|x|^2/T)^theta
CUTOFF_MIN_ORDER = 1.6            # finite-difference order the cutoff check demands
CERT_T_LIST = (1e2, 1e3, 1e4)     # scales T of the certificate's slope fits
CERT_TIME_POINTS = 4097           # Simpson nodes of the time cutoff
CERT_RADIAL_POINTS = 4097         # Simpson nodes of the radial space factor
CERT_SLOPE_TOL = 0.1              # slack on both of the certificate's slope tests
# Draws per block of the Young and contraction sweeps: 80 KB per float
# array, so a block's temporaries stay in cache (65,536-draw blocks lost
# most of that).  It is also the contraction study's head, a tenth of its draws.
DRAW_BLOCK = 10_000

# ---------------------------------------------------------------------------
# scalar product inequality

def _young_rhs(a, b, p, q, eps):
    """eps*a^p + (p*eps)^(-q/p) * b^q / q, on floats or arrays."""
    return eps * a**p + (p * eps) ** (-q / p) * b**q / q


def _draw_blocks(seed: int, n: int, *bounds):
    """DRAW_BLOCK consecutive draws at a time of the arrays
    default_rng(seed).uniform(lo, hi, n), one per (lo, hi) in bounds, in order.

    uniform takes one 64-bit output per double, so array k is the stream of
    PCG64(seed) advanced past the k * n outputs before it: the blocks are
    the whole arrays bit for bit, and no array of n draws is made.
    """
    gens = [np.random.Generator(np.random.PCG64(seed).advance(k * n))
            for k in range(len(bounds))]
    for i in range(0, n, DRAW_BLOCK):
        size = min(DRAW_BLOCK, n - i)
        yield tuple(g.uniform(lo, hi, size) for g, (lo, hi) in zip(gens, bounds))


def young_batch(seed: int = 0):
    """Vectorized sweep over YOUNG_DRAWS random (a, b, p, eps); (all_ok, max_excess).

    The draws are streamed and the bound is evaluated DRAW_BLOCK draws at a
    time.  Each value is elementwise and the reductions are exact, so the
    blocks change no result.
    """
    ok, maxima = True, []
    bounds = ((0.0, 10.0), (0.0, 10.0), (1.05, 8.0), (-3.0, 3.0))  # a, b, p, log10(eps)
    for a, b, p, log_eps in _draw_blocks(seed, YOUNG_DRAWS, *bounds):
        excess = a * b - _young_rhs(a, b, p, p / (p - 1.0), 10.0 ** log_eps)
        ok = ok and bool(np.all(excess <= YOUNG_SLACK))
        maxima.append(np.max(excess))
    return ok, float(np.max(maxima))


# ---------------------------------------------------------------------------
# product-difference contraction bound

def _contraction_sides(a, b, xnorm, ynorm, diffnorm, p, alpha):
    """|a^p x^alpha - b^p y^alpha| and its splitting bound, on floats or arrays."""
    lhs = abs(a**p * xnorm**alpha - b**p * ynorm**alpha)
    scalar_part = ynorm**alpha * abs(a - b) * (a ** (p - 1) + b ** (p - 1))
    if alpha >= 1:
        norm_part = a**p * diffnorm * (xnorm ** (alpha - 1) + ynorm ** (alpha - 1))
    else:
        norm_part = a**p * diffnorm**alpha
    return lhs, scalar_part + norm_part


def contraction_constant_study(pairs, seed: int = 0):
    """Empirical sup of the contraction ratio over scalar realizations, one
    (head, full) per (p, alpha) in the sequence pairs.

    Draws CONTRACTION_DRAWS (a, b, x, y) uniform in [0, 2] with
    diffnorm = |x - y| and returns, per pair, (max over the first tenth of
    the draws, max over all of them).  A well-behaved bound has the two
    within a few percent of each other: the sup saturates early.  lhs = 0
    is ratio 0; rhs = 0 < lhs, or an overflowing ratio, makes the sup +inf.
    The draws are streamed once for all pairs: each DRAW_BLOCK block, and
    its |x - y|, serves every pair before the next is drawn, so the first
    tenth is the first block; each ratio is elementwise and max is exact,
    so the blocks change no result.
    """
    maxima = [[] for _ in pairs]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, b, x, y in _draw_blocks(seed, CONTRACTION_DRAWS, *[(0.0, 2.0)] * 4):
            diffnorm = np.abs(x - y)
            for found, (p, alpha) in zip(maxima, pairs):
                lhs, rhs = _contraction_sides(a, b, x, y, diffnorm, p, alpha)
                found.append(np.max(np.where(lhs == 0, 0.0, lhs / rhs)))
    return [(float(found[0]), float(np.max(found))) for found in maxima]


# ---------------------------------------------------------------------------
# Mittag-Leffler series and the singular Gronwall bound

class SeriesDivergenceError(ArithmeticError):
    """Series terms or partial sums escaped double range before convergence."""


class MLResult(NamedTuple):
    value: float
    remainder_bound: float
    terms_used: int


def mittag_leffler(order: float, z: float) -> MLResult:
    """E_order(z) = sum z^n / Gamma(n*order + 1), order in (0, 1], finite z >= 0,
    with a certified tail bound.

    Terms are formed in log space, so the gamma never overflows on its own.
    Summation stops once the term ratio has dropped below 1/2 and the next
    term is below 1e-16 of the partial sum; the geometric tail then bounds
    the remainder by twice the next term, within ML_MAX_TERMS terms.
    """
    if not (0 < order <= 1):
        raise ValueError("order must be in (0, 1]")
    if z < 0 or not math.isfinite(z):
        raise ValueError("argument must be finite and >= 0")
    if z == 0.0:
        return MLResult(1.0, 0.0, 1)
    log_z = math.log(z)
    total = 0.0
    term = 1.0
    for n in range(ML_MAX_TERMS):
        total += term
        if not math.isfinite(total):
            raise SeriesDivergenceError("partial sums overflow double range")
        log_next = (n + 1) * log_z - math.lgamma((n + 1) * order + 1.0)
        next_term = math.exp(log_next) if log_next < 709.0 else math.inf
        ratio = next_term / term if term > 0 else math.inf
        if ratio < 0.5 and next_term <= 1e-16 * total:
            return MLResult(total, 2.0 * next_term, n + 1)
        term = next_term
        if not math.isfinite(term):
            raise SeriesDivergenceError("series terms overflow double range")
    raise SeriesDivergenceError(f"no convergence within {ML_MAX_TERMS} terms")


def gronwall_bound(A: float, M: float, sigma: float, t: float) -> float:
    """Closed-form majorant A * E_(1-sigma)(M * Gamma(1-sigma) * t^(1-sigma)).

    This is the exact solution of psi = A + M * int (t-s)^(-sigma) psi ds, so
    any psi satisfying the inequality sits below it.  A = 0 collapses to 0.
    """
    if not all(0 <= v < math.inf for v in (A, M, t)):
        raise ValueError("need A, M, t >= 0 and finite")
    if not (0 <= sigma < 1):
        raise ValueError("sigma must be in [0, 1)")
    if A == 0.0 or t == 0.0:
        return float(A)
    z = M * math.gamma(1.0 - sigma) * t ** (1.0 - sigma)
    return A * mittag_leffler(1.0 - sigma, z).value


# ---------------------------------------------------------------------------
# smooth cutoffs and their radial power Laplacian

CUTOFF_KINDS = ("psi1", "psi2")


def smoothstep_jet(u):
    """C-infinity step S with S' and S'': S = 0 for u <= 0, 1 for u >= 1.

    Between, S = B(u)/(B(u)+C(u)) with B(u) = exp(-1/u), C(u) = B(1-u);
    each exponential is taken once per call.
    """
    u = np.asarray(u, dtype=float)
    s = np.where(u >= 1.0, 1.0, 0.0)
    s1 = np.zeros_like(u)
    s2 = np.zeros_like(u)
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    bu = np.exp(-1.0 / um)
    bc = np.exp(-1.0 / (1.0 - um))
    bu1 = bu / um**2
    bc1 = -bc / (1.0 - um) ** 2
    bu2 = bu * (1.0 - 2.0 * um) / um**4
    bc2 = bc * (2.0 * um - 1.0) / (1.0 - um) ** 4
    d = bu + bc
    num = bu1 * bc - bu * bc1
    s[mid] = bu / d
    s1[mid] = num / d**2
    s2[mid] = (bu2 * bc - bu * bc2) / d**2 - 2.0 * num * (bu1 + bc1) / d**3
    return s, s1, s2


def cutoff_jet(kind: str, s):
    """(g, g', g'') of a cutoff.

    psi1: plateau [1/2, 3/4] inside support [1/4, 4/5], the product of a
    rising and a falling smoothstep; psi2: 1 on [0, 1], 0 past 2.
    """
    s = np.asarray(s, dtype=float)
    if kind == "psi2":
        g, g1, g2 = smoothstep_jet(2.0 - s)
        return g, -g1, g2
    if kind != "psi1":
        raise ValueError(f"unknown cutoff kind {kind!r}")
    (a, a1, a2), (b, b1, b2) = smoothstep_jet(4.0 * s - 1.0), smoothstep_jet(16.0 - 20.0 * s)
    return (
        a * b,
        4.0 * a1 * b - 20.0 * a * b1,
        16.0 * a2 * b - 160.0 * a1 * b1 + 400.0 * a * b2,
    )


def _laplacian_bracket(jet, theta: float, dim: int, y):
    """The bracket of ``radial_power_laplacian``, from a cutoff jet at y."""
    g, g1, g2 = jet
    return (
        2.0 * theta * dim * g1 * g
        + 4.0 * theta * y * g2 * g
        + 4.0 * theta * (theta - 1.0) * y * g1**2
    )


def radial_power_laplacian(jet, theta: float, T: float, dim: int, y):
    """Closed-form Laplacian of g(|x|^2/T)^theta at y = |x|^2/T.

    Delta = (2 theta dim g' g + 4 theta y g'' g + 4 theta (theta-1) y g'^2)
            * g^(theta-2) / T,
    with (g, g', g'') = ``jet``, the cutoff's jet at y.
    Needs theta > 2 so the edge factor g^(theta-2) vanishes where g does.
    """
    if theta <= 2:
        raise ValueError("the power Laplacian form needs theta > 2")
    y = np.asarray(y, dtype=float)
    g = jet[0]
    bracket = _laplacian_bracket(jet, theta, dim, y)
    power = np.zeros_like(g)
    pos = g > 0
    power[pos] = g[pos] ** (theta - 2.0)
    return bracket * power / T


def _odd_grid(half: float, n: int):
    """(x, h): n points of spacing h = 2*half/(n-1) about 0, exactly odd
    (x == -x[::-1] bit for bit), which np.linspace(-half, half, n) is not."""
    h = 2.0 * half / (n - 1)
    return (np.arange(n) - (n - 1) / 2) * h, h


class CutoffCheck(NamedTuple):
    error_coarse: float
    error_fine: float
    order: float
    c_emp: float
    passed: bool


def cutoff_laplacian_check(
    kind: str = "psi2",
    T: float = 100.0,
    dim: int = 1,
    points: int = 2001,
) -> CutoffCheck:
    """Finite differences against the closed-form radial Laplacian.

    The composite G(x) = g(|x|^2/T)^theta, theta = CUTOFF_THETA, is
    differenced centrally on a grid covering the support; halving h must
    shrink the sup mismatch at order CUTOFF_MIN_ORDER or better.  The
    empirical constant c_emp = sup T |Delta G| / g^(theta-2) is taken from
    the differenced Laplacian over the region g >= 1e-3, where the quotient
    is numerically clean; by design it depends on the cutoff alone, not on
    T, which the verification suite exercises across decades of T.
    G is radial, so the Cartesian (2 dim + 1)-point stencil is evaluated on
    the ray (x_i, 0, ..., 0) alone, x_i the inner points of the exactly odd
    grid (i - (points-1)/2) * h: it needs G at x_{i+-1}^2 and, for each of
    its 2(dim-1) neighbours off the ray, at x_i^2 + h^2.  In dim 2 the sum
    runs as the whole grid's five-point sum, so on an odd grid the ray's
    values are the grid's axis values bit for bit.  The grid's sup can lie
    off the axis: psi1's does, about 0.1% higher at 2001 points.  T must be
    positive and finite, points at least 3 and dim a positive integer, else
    ValueError, as is a grid with no inner point where g >= 1e-3.
    """
    if kind not in CUTOFF_KINDS:
        raise ValueError(f"unknown cutoff kind {kind!r}")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if points < 3:
        raise ValueError(f"points must be >= 3, got {points}")
    if not (dim >= 1 and float(dim).is_integer()):
        raise ValueError(f"dim must be a positive integer, got {dim}")
    theta = CUTOFF_THETA
    y_max = 0.8 if kind == "psi1" else 2.0
    half = math.sqrt(y_max * T) * 1.05

    def fd_error_and_ratio(n):
        x, h = _odd_grid(half, n)
        x2 = x**2
        y = x2 / T
        jet = cutoff_jet(kind, y)
        G = jet[0] ** theta
        if dim == 1:
            lap_fd = (G[2:] - 2.0 * G[1:-1] + G[:-2]) / h**2
        else:
            G_off = cutoff_jet(kind, (x2[1:-1] + h * h) / T)[0] ** theta
            lap_fd = (
                (G[2:] + G[:-2]) + 2.0 * (dim - 1) * G_off - 2.0 * dim * G[1:-1]
            ) / h**2
        jet_in = tuple(part[1:-1] for part in jet)
        lap_exact = radial_power_laplacian(jet_in, theta, T, dim, y[1:-1])
        g_in = jet_in[0]
        clean = g_in >= 1e-3
        if not clean.any():
            raise ValueError(
                f"no inner grid point has g >= 1e-3 for kind={kind!r}, T={T}, "
                f"points={points}"
            )
        quotient = T * np.abs(lap_fd[clean]) / g_in[clean] ** (theta - 2.0)
        return float(np.max(np.abs(lap_fd - lap_exact))), float(np.max(quotient))

    e_coarse, _ = fd_error_and_ratio(points)
    e_fine, c_emp = fd_error_and_ratio(2 * points - 1)
    order = math.log2(e_coarse / e_fine) if e_fine > 0 else math.inf
    return CutoffCheck(e_coarse, e_fine, order, c_emp, order >= CUTOFF_MIN_ORDER)


# ---------------------------------------------------------------------------
# forcing-profile certificate

class WConditionReport(NamedTuple):
    """``holds_kernel_nonneg`` is True when ``profile_sign`` says yes;
    ``witness`` is its point where w < -KERNEL_AVERAGE_TOL when it says no,
    so False with no witness means undecided."""

    holds_kernel_nonneg: bool
    witness: tuple | None
    integral: float
    integral_positive: bool


def w_condition_check(w: ProfileSpec, dim: int) -> WConditionReport:
    """Certificate for the two forcing conditions: every Gaussian-kernel
    average integral exp(-|x-y|^2/lambda) w(y) dy is >= 0, which holds just
    when w >= 0 (the averages tend to (pi*lambda)^(dim/2) w(x) as lambda -> 0)
    and which ``problem.profile_sign`` decides; and the total integral is > 0.
    """
    nonneg, witness = profile_sign(w, dim)
    integral = profile_integral(w, dim)
    return WConditionReport(
        holds_kernel_nonneg=nonneg is True,
        witness=witness,
        integral=integral,
        integral_positive=integral > 0,
    )


# ---------------------------------------------------------------------------
# space-time scaling certificate

class CertificateReport(NamedTuple):
    slope_I1: float
    slope_bound_I1: float
    slope_F: float | None
    slope_expected_F: float
    sign_gap: float | None
    theta: float
    applicable: bool
    passed: bool


def _simpson(fvals: np.ndarray, h: float) -> float:
    n = fvals.size
    if n % 2 == 0:
        raise ValueError("simpson needs an odd number of nodes")
    return float(h / 3.0 * (fvals[0] + fvals[-1]
                            + 4.0 * fvals[1:-1:2].sum() + 2.0 * fvals[2:-2:2].sum()))


def certificate_scaling_check(
    N: int,
    p: float,
    q: float,
    alpha: float,
    rho: float,
    w: ProfileSpec = ProfileSpec.zero(),
) -> CertificateReport:
    """Log-log slopes of the rescaled test-function functionals at the
    scales T in CERT_T_LIST.

    I1(T) couples the time weight t^(N*delta/(2(p-1))) under the time cutoff
    with the space integral of |Delta psi2^kappa|^(p/(p-1)) * psi2^(-kappa/(p-1)),
    kappa = 2p/(p-1); its slope in ln T must stay below
    1 + N/2 - p/(p-1) + N*delta/(2(p-1)) (+CERT_SLOPE_TOL).  F(T) couples
    t^rho under the same time cutoff with the w integral under the space
    cutoff; its slope must reach rho + 1 (-CERT_SLOPE_TOL).  The difference
    of the two slopes estimates -theta, the certificate exponent, and its
    sign is the decisive part.  F is computed only when w has terms, and
    the report is applicable when every F is positive.
    In the verify case (N = 3, w = e^{-|x|^2}) psi2 is 1 on all of w's
    reach, |x| <= 10 = sqrt(1e2), at every T of CERT_T_LIST, so F's space
    factor is the one float pi^(3/2), the integral of w, at each T, and
    slope_F there measures the time factor only.  ValueError unless p > 1,
    N is a positive integer, alpha >= 0, rho > -1 (NaN fails both), and a
    w with terms has N <= 3 and centres of N coordinates.
    """
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    if not (N >= 1 and float(N).is_integer()):
        raise ValueError(f"N must be a positive integer, got {N}")
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not rho > -1:
        raise ValueError(f"rho must be > -1, got {rho}")
    if w.terms and not (N <= 3 and all(len(t.center) == N for t in w.terms)):
        raise ValueError(f"w needs N <= 3 and centres of N coordinates, got N = {N}")
    d = delta(alpha, q)
    kappa = 2.0 * p / (p - 1.0)
    pw = p / (p - 1.0)
    t_weight_exp = N * d / (2.0 * (p - 1.0))

    tau = np.linspace(0.0, 1.0, CERT_TIME_POINTS)
    psi1_pow = cutoff_jet("psi1", tau)[0] ** pw

    def time_factor(T, e):
        """T * Simpson over tau <= (T-1)/T of (1 + T tau)^e psi1(tau)^(p/(p-1))."""
        vals = np.where(tau <= (T - 1.0) / T, (1.0 + T * tau) ** e * psi1_pow, 0.0)
        return T * _simpson(vals, tau[1] - tau[0])

    # radial reduction of the space factor; the cutoff powers cancel exactly:
    # |bracket * g^(kappa-2)|^(p/(p-1)) * g^(-kappa/(p-1)) == |bracket|^(p/(p-1))
    # because (kappa-2)*p/(p-1) == kappa/(p-1) for kappa = 2p/(p-1).
    y = np.linspace(0.0, 2.0, CERT_RADIAL_POINTS)
    bracket = _laplacian_bracket(cutoff_jet("psi2", y), kappa, N, y)
    omega = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    radial_integrand = np.zeros_like(y)  # bracket vanishes with y faster than any power
    radial_integrand[1:] = np.abs(bracket[1:]) ** pw * y[1:] ** (N / 2.0 - 1.0)
    radial_base = _simpson(radial_integrand, y[1] - y[0])
    I1_vals = [
        time_factor(T, t_weight_exp)
        * ((omega / 2.0) * T ** (N / 2.0) * T ** (-pw) * radial_base)
        for T in CERT_T_LIST
    ]
    F_vals = []
    if w.terms:
        F_vals = [time_factor(T, rho) * space for T, space in
                  zip(CERT_T_LIST, _space_cutoff_integrals(w, N, kappa))]

    lnT = np.log(np.asarray(CERT_T_LIST))
    slope_I1 = float(np.polyfit(lnT, np.log(I1_vals), 1)[0])
    slope_bound = 1.0 + N / 2.0 - pw + t_weight_exp
    applicable = bool(F_vals) and all(v > 0 for v in F_vals)
    slope_F = float(np.polyfit(lnT, np.log(F_vals), 1)[0]) if applicable else None
    theta = certificate_exponent(N, p, q, alpha, rho)
    sign_gap = (slope_F - slope_I1) if applicable else None
    passed = slope_I1 <= slope_bound + CERT_SLOPE_TOL and (
        not applicable or slope_F >= (rho + 1.0) - CERT_SLOPE_TOL
    )
    return CertificateReport(
        slope_I1=slope_I1,
        slope_bound_I1=slope_bound,
        slope_F=slope_F,
        slope_expected_F=rho + 1.0,
        sign_gap=sign_gap,
        theta=theta,
        applicable=applicable,
        passed=passed,
    )


def _i0e(z: np.ndarray) -> np.ndarray:
    """e^-z I0(z) for z >= 0: np.i0(z) * e^-z up to z = 700, where I0 nears
    the top of double range, and above it the first 11 terms of I0's
    asymptotic series (Abramowitz & Stegun 9.7.1)."""
    out = np.empty_like(z)
    low = z <= 700.0
    out[low] = np.i0(z[low]) * np.exp(-z[low])
    big = z[~low]
    term = total = np.ones_like(big)
    for k in range(1, 11):
        term = term * ((2 * k - 1) ** 2 / (8.0 * k)) / big
        total = total + term
    out[~low] = total / np.sqrt(2.0 * math.pi * big)
    return out


def _sphere_mass(N: int, a: float, s: float, r: np.ndarray) -> np.ndarray:
    """The integral of exp(-a|x - y|^2) over the sphere |x| = r of R^N, N <= 3,
    for |y| = s.  Each form carries exp(-a(r - s)^2), so none overflows, and
    the 3-D one, 4 pi r^2 exp(-a(r - s)^2) (1 - e^-x)/x with x = 4ars, takes
    s = 0 and a subnormal a*s without a division by a*s."""
    if N == 1:
        return np.exp(-a * (r - s) ** 2) + np.exp(-a * (r + s) ** 2)
    if N == 2:
        return 2.0 * math.pi * r * np.exp(-a * (r - s) ** 2) * _i0e(2.0 * a * r * s)
    x = 4.0 * a * r * s
    with np.errstate(invalid="ignore"):  # 0/0 where x = 0, whose factor is 1
        factor = np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
    return 4.0 * math.pi * r**2 * np.exp(-a * (r - s) ** 2) * factor


def _space_cutoff_integrals(w: ProfileSpec, N: int, kappa: float) -> list[float]:
    """Integrals of psi2(|x|^2/T)^kappa * w over R^N, N <= 3, one per T in
    CERT_T_LIST.

    psi2 is radial, so in polar coordinates (Folland, *Real Analysis*, 2nd
    ed., Thm 2.49) a term c exp(-a|x - y|^2) gives c times the integral over
    r of psi2(r^2/T)^kappa times the term's ``_sphere_mass`` at r; in 2-D
    that mass is I0's integral form (Abramowitz & Stegun 9.6.16).  The mass
    is below e^-100 of its peak outside r in [s - 10/sqrt(a), s + 10/sqrt(a)],
    s = |y|, so Simpson on CERT_RADIAL_POINTS nodes runs on that interval's
    part below sqrt(T), where psi2 = 1 and is not evaluated, and on its part
    in [sqrt(T), sqrt(2T)]; psi2 is 0 beyond.  A term whose whole interval
    lies below sqrt(T) adds its closed-form mass c (pi/a)^(N/2) instead.  A
    centred 2-D term's mass 2 pi r e^(-a r^2) is odd in r, so Simpson's end
    error at r = 0 does not cancel; its part below r1 = min(hi, sqrt(T)) is
    the closed form -(pi/a) expm1(-a r1^2) instead.
    """
    values = []
    for T in CERT_T_LIST:
        total, root = 0.0, math.sqrt(T)
        for t in w.terms:
            a, s = t.rate, math.hypot(*t.center)
            lo, hi = max(0.0, s - 10.0 / math.sqrt(a)), s + 10.0 / math.sqrt(a)
            if hi <= root:
                total += t.coefficient * (math.pi / a) ** (N / 2)
                continue
            for r0, r1, cut in ((lo, min(hi, root), False),
                                (max(lo, root), min(hi, math.sqrt(2.0 * T)), True)):
                if N == 2 and s == 0.0 and not cut:
                    total -= t.coefficient * (math.pi / a) * math.expm1(-a * r1 * r1)
                elif r0 < r1:
                    r = np.linspace(r0, r1, CERT_RADIAL_POINTS)
                    vals = _sphere_mass(N, a, s, r)
                    if cut:
                        vals = cutoff_jet("psi2", r**2 / T)[0] ** kappa * vals
                    total += t.coefficient * _simpson(vals, r[1] - r[0])
        values.append(total)
    return values


# ---------------------------------------------------------------------------
# the lemma suite: name -> check() -> (passed, detail)

def _lemma_young():
    ok, excess = young_batch(seed=7)
    return ok, f"max excess {excess:.3e} over 1e5 draws"


def _lemma_contraction():
    pairs = ((2.0, 1.0), (3.0, 1.5), (1.5, 0.5), (2.0, 0.0))
    details = []
    ok = True
    for (p, alpha), (head, full) in zip(pairs, contraction_constant_study(pairs, seed=3)):
        stable = full <= head * 1.10 and math.isfinite(full)
        ok = ok and stable
        details.append(f"(p={p},a={alpha}) sup {full:.4f}")
    return ok, "; ".join(details)


def _lemma_mittag_leffler():
    r1 = mittag_leffler(1.0, 1.0)
    ref1 = math.e
    r2 = mittag_leffler(0.5, 1.0)
    ref2 = math.e * math.erfc(-1.0)
    ok = (
        abs(r1.value - ref1) <= 1e-12 * ref1
        and abs(r2.value - ref2) <= 1e-12 * ref2
        and r1.remainder_bound < 1e-10
        and r2.remainder_bound < 1e-10
    )
    return ok, (f"E_1(1)={r1.value:.12f} (bound {r1.remainder_bound:.1e}), "
                f"E_1/2(1)={r2.value:.12f} (bound {r2.remainder_bound:.1e})")


def _product_integration(A: float, M: float, sigma: float, t: float, n: int):
    """Nodes psi_0..psi_n of psi = A + M int_0^t (t-s)^(-sigma) psi(s) ds by
    product integration on n cells, exact for piecewise-constant psi.

    Cell i's weight at node j, ((t_j - s_i)^(1-sigma) - (t_j - s_{i+1})^(1-sigma))
    / (1-sigma), depends only on the lag j - i, so the n weights are made once
    from the exact lags k * dt.  Forming t_j - s_i instead cancels, and an ulp
    of lag left on the last cell gets the weight ulp^(1-sigma) / (1-sigma).
    """
    ex = 1.0 - sigma
    weights = np.diff((np.arange(n + 1) * (t / n)) ** ex)[::-1] / ex
    psi = np.empty(n + 1)
    psi[0] = A
    for j in range(1, n + 1):
        psi[j] = A + M * float(weights[n - j:] @ psi[:j])
    return psi


def _lemma_gronwall():
    A, M, sigma, t_end = 1.0, 1.0, 0.5, 1.0
    bound = gronwall_bound(A, M, sigma, t_end)
    discrete = float(_product_integration(A, M, sigma, t_end, 4000)[-1])
    rel = abs(bound - discrete) / bound
    majorant = discrete <= bound * (1.0 + 1e-6)
    ok = rel <= 0.02 and majorant
    return ok, f"bound {bound:.6f} vs discrete {discrete:.6f} (rel {rel:.2e})"


def _delta_subcritical_tenths(N: int, a10: int, q10: int) -> bool:
    """N * delta < 2 for alpha = a10/10 and q = q10/10 > 0, in integers.

    delta = alpha (1 - 1/q) = a10 (q10 - 10) / (10 q10), and multiplying
    N delta < 2 by 10 q10 > 0 gives N a10 (q10 - 10) < 20 q10.
    """
    return N * a10 * (q10 - 10) < 20 * q10


def _exponent_sign_draws():
    """The exponent_sign lemma's 10,000 draws, in tenths: (N, p, q, alpha, rho).

    The stream of random.Random(11) read as randint(3, 8), randint(11, 60),
    randint(11, 80), randint(0, 30) and -randint(0, 9), draw by draw.
    random's randint(lo, hi) is lo + r for the first r = getrandbits(k)
    below n = hi - lo + 1, k = n.bit_length(); the five loops below are
    that rejection for (n, k) = (6, 3), (50, 6), (70, 7), (31, 5) and
    (10, 4), written out because a Python call per value, the library's or
    a local one's, took half the draws' time.
    """
    bits = random.Random(11).getrandbits
    for _ in range(10_000):
        while (N := bits(3)) >= 6:
            pass
        while (p10 := bits(6)) >= 50:
            pass
        while (q10 := bits(7)) >= 70:
            pass
        while (a10 := bits(5)) >= 31:
            pass
        while (rho10 := bits(4)) >= 10:
            pass
        yield 3 + N, 11 + p10, 11 + q10, a10, -rho10


def _lemma_exponent_sign():
    # Exact, so it has no tolerance.  Of blowup_criterion's admissibility
    # conditions only delta < 2/N can fail on these draws (N >= 3, rho in
    # (-1, 0] and N - 2 rho - 2 >= 1 always hold), so it is settled in
    # integers first and only the kept draws become Fractions, read from a
    # table of every tenth drawn.  Each kept draw must still be admissible
    # to blowup_criterion, so a filter that keeps too much fails here and
    # one that drops too much moves the count.
    tenths = {v: Fraction(v, 10) for v in range(-9, 81)}
    checked = 0
    for N, p10, q10, a10, rho10 in _exponent_sign_draws():
        if not _delta_subcritical_tenths(N, a10, q10):
            continue
        p, q, alpha, rho = tenths[p10], tenths[q10], tenths[a10], tenths[rho10]
        crit = blowup_criterion(N, p, q, alpha, rho)
        theta = certificate_exponent(N, p, q, alpha, rho)
        if not crit.admissible or crit.holds != (theta < 0):
            what = "mismatch" if crit.admissible else "inadmissible draw kept"
            return False, f"{what} at N={N} p={p} q={q} alpha={alpha} rho={rho}"
        checked += 1
    return checked > 1000, f"{checked} admissible draws agree exactly"


def _lemma_cutoff_laplacian():
    c_values = []
    ok = True
    details = []
    for T in (10.0, 100.0, 1000.0):
        chk = cutoff_laplacian_check("psi2", T=T, dim=1)
        ok = ok and chk.passed
        c_values.append(chk.c_emp)
        details.append(f"T={T:g}: order {chk.order:.2f}")
    spread = (max(c_values) - min(c_values)) / max(c_values)
    ok = ok and spread <= 0.05
    chk1 = cutoff_laplacian_check("psi1", T=100.0, dim=1)
    chk2 = cutoff_laplacian_check("psi2", T=100.0, dim=2, points=801)
    ok = ok and chk1.passed and chk2.passed
    details.append(f"C spread {spread:.2%}; psi1 order {chk1.order:.2f}; "
                   f"2d order {chk2.order:.2f}")
    return ok, "; ".join(details)


def _lemma_w_condition():
    good = ProfileSpec.gaussian(1.0, 1.0, (0.0,))
    rep_good = w_condition_check(good, dim=1)
    mixed = ProfileSpec.gaussian_sum(
        [(0.8, 1.0, (0.0,)), (-1.0, 2.0, (0.0,))])
    rep_mixed = w_condition_check(mixed, dim=1)
    # independent checks: w evaluated directly at the witness, and a dense
    # sample of the good profile that must not contradict its yes
    x0 = rep_mixed.witness[0] if rep_mixed.witness else math.nan
    direct = 0.8 * math.exp(-x0**2) - math.exp(-2.0 * x0**2)
    dense = float(np.min(np.exp(-np.linspace(-30.0, 30.0, 6_001) ** 2)))
    ok = (
        rep_good.holds_kernel_nonneg
        and rep_good.integral_positive
        and dense >= -KERNEL_AVERAGE_TOL
        and rep_mixed.integral_positive
        and not rep_mixed.holds_kernel_nonneg
        and direct < -KERNEL_AVERAGE_TOL
    )
    return ok, (f"good: yes, dense min {dense:.2e}; mixed: no, "
                f"w({x0:g}) = {direct:.6e}")


def _lemma_certificate_scaling():
    w = ProfileSpec.gaussian(1.0, 1.0, (0.0, 0.0, 0.0))
    rep = certificate_scaling_check(3, 1.5, 1.25, 1.0, -0.5, w=w)
    sign_ok = rep.applicable and rep.sign_gap is not None and (
        (rep.sign_gap > 0) == (rep.theta < 0))
    ok = rep.passed and sign_ok
    return ok, (f"slope_I1 {rep.slope_I1:.3f} (bound {rep.slope_bound_I1:.3f}), "
                f"slope_F {rep.slope_F:.3f} (expected {rep.slope_expected_F:.3f}), "
                f"gap {rep.sign_gap:.3f} vs -theta {-rep.theta:.3f}")


LEMMAS: dict[str, Callable[[], tuple[bool, str]]] = {
    "young": _lemma_young,
    "contraction": _lemma_contraction,
    "mittag_leffler": _lemma_mittag_leffler,
    "gronwall": _lemma_gronwall,
    "exponent_sign": _lemma_exponent_sign,
    "cutoff_laplacian": _lemma_cutoff_laplacian,
    "w_condition": _lemma_w_condition,
    "certificate_scaling": _lemma_certificate_scaling,
}
