"""Heat semigroup on the periodic box, plus a free-space oracle.

The workhorse is spectral: multiply the FFT of the field by exp(-t|k|^2).
``HeatKernelPlan`` owns the half-spectrum layout and the grid check, so
``apply``, the solver's one stepper ``run_from_fields`` and ``picard_solve``
all transform through it, and it counts the transforms and multipliers
made on it.  The plan keeps no per-t state and no buffers: ``spectrum``,
``field`` and ``multiplier`` write into an ``out`` array when given one
(the solver module lists the buffers its loops keep).  ``field`` makes
irfftn's inverse axis by axis in a caller's complex ``work`` array, where
irfftn maps a fresh temporary per leading axis.
``apply_direct`` instead convolves with the free-space Gaussian kernel as a
dense quadrature sum (factored axis by axis, which is the same sum reordered);
the two agree for well-resolved data away from the box boundary and the tests
lean on that as an independent route.  The comparison lower bound of a
forced run is checked on the closed-form data profile.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import EXPORTS
from .field import GridField, check_geometry, lq_norm
from .problem import (ProfileSpec, check_int, check_real, gaussian_weighted_integral,
                      profile_sign)

__all__ = list(EXPORTS["semigroup"])

SMOOTHING_TOL = 1e-9  # slack on the smoothing ratio in smoothing_check


class HeatKernelPlan:
    """|k|^2 table for one grid; the plan owns its half-spectrum layout.

    ``spectrum`` (with the check that a field lies on the grid) and ``field``
    are the one forward and one inverse transform; no per-t state is kept.
    Each method writes into ``out`` when given one (``field`` also into its
    complex scratch ``work``); None allocates, as in numpy.  ``counts`` tallies
    the calls made on the plan: "forward_transforms", "inverse_transforms"
    and "multipliers" (exp(-t|k|^2) tables made).
    """

    def __init__(self, dim: int, points_per_axis: int, half_width: float):
        check_geometry(dim, points_per_axis, half_width)
        self.grid = (dim, points_per_axis, half_width)
        h = 2.0 * half_width / points_per_axis
        k_full = 2.0 * math.pi * np.fft.fftfreq(points_per_axis, d=h)
        k_half = 2.0 * math.pi * np.fft.rfftfreq(points_per_axis, d=h)
        self.ksq = np.zeros(())
        for a in [k_full] * (dim - 1) + [k_half]:
            self.ksq = np.add.outer(self.ksq, a**2)
        self.counts = {"forward_transforms": 0, "inverse_transforms": 0, "multipliers": 0}

    @classmethod
    def for_field(cls, f: GridField) -> "HeatKernelPlan":
        return cls(*f.grid)

    def multiplier(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-t |k|^2), computed per call; k = 0 maps to 1, so means are kept.
        ValueError for t < 0, a non-finite t or a bool, before the count."""
        check_real("t", t, ge=0)
        self.counts["multipliers"] += 1
        out = np.multiply(self.ksq, -t, out=out)
        return np.exp(out, out=out)

    def spectrum(self, f: GridField, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of f; ValueError when f lies on another grid."""
        if f.grid != self.grid:
            raise ValueError("plan geometry does not match the field")
        self.counts["forward_transforms"] += 1
        return np.fft.rfftn(f.values, out=out)

    def field(self, h: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> GridField:
        """Field on the plan's grid with half spectrum h, backed by out when
        given; h is left intact and non-finite values are BlowupSignal.

        The inverse is irfftn's, axis by axis: a complex ifft over each
        leading axis, the first from h into work and the rest in place
        there, then the real irfft of the last axis into out.  Same
        operations in the same order, so the values equal irfftn's bit for
        bit, but with work given no temporary is made.  work has h's shape;
        None allocates one, as in numpy.
        """
        self.counts["inverse_transforms"] += 1
        dim, M, half_width = self.grid
        for axis in range(dim - 1):
            h = work = np.fft.ifft(h, axis=axis, out=work)
        values = np.fft.irfft(h, n=M, axis=-1, out=out)
        return GridField(dim, half_width, values)


def apply(plan: HeatKernelPlan, f: GridField, t: float) -> GridField:
    """Spectral heat step: exact identity at t = 0; ValueError for t < 0,
    a non-finite t, a bool or another grid."""
    if check_real("t", t, ge=0) == 0 and f.grid == plan.grid:
        return f
    return plan.field(plan.spectrum(f) * plan.multiplier(t))


def apply_direct(f: GridField, t: float) -> GridField:
    """Periodized Gaussian kernel by dense quadrature (the slow oracle).

    The kernel factorizes over axes, so the full sum
    sum_y sum_m (4 pi t)^(-dim/2) exp(-|x-y+2Lm|^2/(4t)) f(y) h^dim
    is evaluated as one dense 1-d kernel matrix per axis: the same operator
    as the spectral route computed by a different algorithm.  Box images are
    summed until the next shell's weight drops below exp(-45), so the two
    routes differ only by floating-point roundoff.  ValueError for t < 0,
    a non-finite t or a bool.
    """
    if check_real("t", t, ge=0) == 0:
        return f
    if f.dim == 3 and f.points_per_axis > 32:
        raise ValueError("direct kernel in dim 3 is capped at 32 points per axis")
    ax = f.axis
    period = 2.0 * f.half_width
    n_img = 1 + int(math.ceil(math.sqrt(180.0 * t) / period))
    diff = ax[:, None] - ax[None, :]
    kern = np.zeros_like(diff)
    for m in range(-n_img, n_img + 1):
        kern += np.exp(-((diff + m * period) ** 2) / (4.0 * t))
    kern *= f.spacing / math.sqrt(4.0 * math.pi * t)
    out = f.values
    for _ in range(f.dim):
        # contract the leading axis and push the result to the back
        out = np.tensordot(kern, out, axes=([1], [0]))
        out = np.moveaxis(out, 0, -1)
    return f.with_values(out)


class SmoothingRow(NamedTuple):
    t: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool


def smoothing_check(f: GridField, a: float, b: float, t_list) -> list[SmoothingRow]:
    """Check ||S(t) f||_b <= t^(-(dim/2)(1/a - 1/b)) ||f||_a for each t,
    to a relative slack of SMOOTHING_TOL.

    Requires 1 <= a <= b (inf allowed) and each t in t_list finite and > 0,
    else ValueError before any transform.  The constant-one bound is the
    free-space one; on the box it
    holds comfortably for t small against the box diffusion time, which is
    the regime the tests probe.
    """
    check_real("a", a, ge=1, finite=False)
    check_real("b", b, ge=a, finite=False)
    t_list = [check_real(f"t_list[{i}]", t, gt=0) for i, t in enumerate(t_list)]
    inv_a, inv_b = 1.0 / float(a), 1.0 / float(b)  # 0.0 at inf
    plan = HeatKernelPlan.for_field(f)
    norm_a = lq_norm(f, a)
    rows = []
    for t in t_list:
        lhs = lq_norm(apply(plan, f, t), b)
        rhs = t ** (-(f.dim / 2.0) * (inv_a - inv_b)) * norm_a
        ratio = lhs / rhs if rhs > 0 else math.inf
        rows.append(SmoothingRow(t, lhs, rhs, ratio, ratio <= 1.0 + SMOOTHING_TOL))
    return rows


def kernel_weight_constant(u0: ProfileSpec, dim: int) -> float:
    """C0 = (4 pi)^(-dim/2) * integral exp(-|y|^2/2) u0(y) dy, in closed form.

    This is the constant in the pointwise lower bound u(x,t) >= C0 t^(-dim/2)
    exp(-|x|^2/t) for t >= 1 under nonnegative data.
    """
    return gaussian_weighted_integral(u0, dim, rate=0.5) * (4.0 * math.pi) ** (-dim / 2.0)


class LowerBoundRow(NamedTuple):
    t: float
    recorded: float
    bound: float
    margin: float
    passed: bool


class LowerBoundReport(NamedTuple):
    rows: tuple
    passed: bool
    skipped: str | None = None


def comparison_lower_bound(
    u0: ProfileSpec,
    traj: object,
    q: float,
    *,
    dim: int,
    tol: float = 0.02,
    forcing_certified: bool = True,
) -> LowerBoundReport:
    """Check recorded q-norms against C * t^(-(dim/2)(1 - 1/q)) for t >= 1.

    C = pi^(dim/(2q)) * q^(-dim/(2q)) * C0 with C0 from the kernel-weighted
    integral of the data profile u0; q = inf gives C0 and decay dim/2.
    Preconditions turn into a skipped report, not a failure: forcing whose
    kernel averages the caller certified nonnegative, and data u0 that
    ``problem.profile_sign`` proves nonnegative (a refuted sign and an
    undecided one are skipped with different reasons).  ``traj`` is
    anything carrying ``times`` and ``q_norms`` sequences.  ValueError
    unless q >= 1 (as in ``lq_norm``), dim >= 1 an integer and 0 <= tol < 1.
    """
    check_real("q", q, ge=1, finite=False)
    check_int("dim", dim, ge=1)
    check_real("tol", tol, ge=0, lt=1)
    if not forcing_certified:
        return LowerBoundReport((), True, skipped="forcing condition not certified")
    nonneg, _ = profile_sign(u0, dim)
    if not nonneg:
        why = "data sign undecided" if nonneg is None else "data is not nonnegative"
        return LowerBoundReport((), True, skipped=why)
    # at q = inf, (pi/q)^(dim/(2q)) is 0.0 ** 0.0 = 1.0 and 1/q is 0.0
    const = (math.pi / q) ** (dim / (2.0 * q)) * kernel_weight_constant(u0, dim)
    decay = (dim / 2.0) * (1.0 - 1.0 / q)
    rows = []
    for t, recorded in zip(traj.times, traj.q_norms):
        if t < 1.0:
            continue
        bound = const * t ** (-decay)
        margin = recorded - bound * (1.0 - tol)
        rows.append(LowerBoundRow(t, recorded, bound, margin, margin >= 0))
    if not rows:
        return LowerBoundReport((), True, skipped="no samples at t >= 1")
    return LowerBoundReport(tuple(rows), all(r.passed for r in rows))
