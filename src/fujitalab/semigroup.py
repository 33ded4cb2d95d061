"""Heat semigroup on the periodic box, plus a free-space oracle.

The workhorse is spectral: multiply the FFT of the field by exp(-t|k|^2).
``apply_direct`` instead convolves with the free-space Gaussian kernel as a
dense quadrature sum (factored axis by axis, which is the same sum reordered);
the two agree for well-resolved data away from the box boundary and the tests
lean on that as an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import GridField, lq_norm
from .problem import ProfileSpec, gaussian_weighted_integral

__all__ = [
    "HeatKernelPlan",
    "apply",
    "apply_direct",
    "SmoothingRow",
    "smoothing_check",
    "LowerBoundRow",
    "LowerBoundReport",
    "kernel_weight_constant",
    "comparison_lower_bound",
]


class HeatKernelPlan:
    """Precomputed |k|^2 table for one geometry; it keeps no per-t state."""

    def __init__(self, dim: int, points_per_axis: int, half_width: float):
        self.dim = dim
        self.points_per_axis = points_per_axis
        self.half_width = half_width
        h = 2.0 * half_width / points_per_axis
        k_full = 2.0 * math.pi * np.fft.fftfreq(points_per_axis, d=h)
        k_half = 2.0 * math.pi * np.fft.rfftfreq(points_per_axis, d=h)
        axes = [k_full] * (dim - 1) + [k_half]
        ksq = np.zeros([len(a) for a in axes])
        for i, a in enumerate(axes):
            shape = [1] * dim
            shape[i] = len(a)
            ksq = ksq + (a**2).reshape(shape)
        self.ksq = ksq

    @classmethod
    def for_field(cls, f: GridField) -> "HeatKernelPlan":
        return cls(f.dim, f.points_per_axis, f.half_width)

    def matches(self, f: GridField) -> bool:
        return (
            f.dim == self.dim
            and f.points_per_axis == self.points_per_axis
            and f.half_width == self.half_width
        )

    def multiplier(self, t: float) -> np.ndarray:
        """exp(-t |k|^2), computed per call; k = 0 maps to 1, so means are kept."""
        return np.exp(-t * self.ksq)


def apply(plan: HeatKernelPlan, f: GridField, t: float) -> GridField:
    """Spectral heat step: exact identity at t = 0, error for t < 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return f
    if not plan.matches(f):
        raise ValueError("plan geometry does not match the field")
    fhat = np.fft.rfftn(f.values)
    axes = tuple(range(f.dim))
    out = np.fft.irfftn(fhat * plan.multiplier(t), s=f.values.shape, axes=axes)
    return f.with_values(out)


def apply_direct(f: GridField, t: float) -> GridField:
    """Periodized Gaussian kernel by dense quadrature (the slow oracle).

    The kernel factorizes over axes, so the full sum
    sum_y sum_m (4 pi t)^(-dim/2) exp(-|x-y+2Lm|^2/(4t)) f(y) h^dim
    is evaluated as one dense 1-d kernel matrix per axis: the same operator
    as the spectral route computed by a different algorithm.  Box images are
    summed until the next shell's weight drops below exp(-45), so the two
    routes differ only by floating-point roundoff.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
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


@dataclass(frozen=True)
class SmoothingRow:
    t: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool


def smoothing_check(
    f: GridField, a, b, t_list, tol: float = 1e-9
) -> list[SmoothingRow]:
    """Check ||S(t) f||_b <= t^(-(dim/2)(1/a - 1/b)) ||f||_a for each t.

    Requires 1 <= a <= b (inf allowed).  The constant-one bound is the
    free-space one; on the box it holds comfortably for t small against the
    box diffusion time, which is the regime the tests probe.
    """
    inv_a = 0.0 if a == math.inf else 1.0 / float(a)
    inv_b = 0.0 if b == math.inf else 1.0 / float(b)
    if inv_b > inv_a:
        raise ValueError("need a <= b")
    plan = HeatKernelPlan.for_field(f)
    norm_a = lq_norm(f, a)
    rows = []
    for t in t_list:
        if t <= 0:
            raise ValueError("t must be positive")
        lhs = lq_norm(apply(plan, f, t), b)
        rhs = t ** (-(f.dim / 2.0) * (inv_a - inv_b)) * norm_a
        ratio = lhs / rhs if rhs > 0 else math.inf
        rows.append(SmoothingRow(t, lhs, rhs, ratio, ratio <= 1.0 + tol))
    return rows


def kernel_weight_constant(u0, dim: int | None = None) -> float:
    """C0 = (4 pi)^(-dim/2) * integral exp(-|y|^2/2) u0(y) dy.

    Closed form for profiles; cell-sum quadrature for sampled fields.  This is
    the constant in the pointwise lower bound u(x,t) >= C0 t^(-dim/2)
    exp(-|x|^2/t) for t >= 1 under nonnegative data.
    """
    if isinstance(u0, ProfileSpec):
        if dim is None:
            if not u0.terms:
                raise ValueError("dim is required for the zero profile")
            dim = len(u0.terms[0].center)
        integral = gaussian_weighted_integral(u0, dim, rate=0.5)
    elif isinstance(u0, GridField):
        dim = u0.dim
        r2 = np.zeros(u0.values.shape)
        ax = u0.axis
        for d in range(dim):
            shape = [1] * dim
            shape[d] = len(ax)
            r2 = r2 + (ax**2).reshape(shape)
        integral = float(np.sum(np.exp(-r2 / 2.0) * u0.values)) * u0.cell_volume
    else:
        raise TypeError("u0 must be a ProfileSpec or GridField")
    return (4.0 * math.pi) ** (-dim / 2.0) * integral


@dataclass(frozen=True)
class LowerBoundRow:
    t: float
    recorded: float
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class LowerBoundReport:
    rows: tuple
    passed: bool
    skipped: str | None = None

    def __bool__(self) -> bool:
        return self.passed and self.skipped is None


def comparison_lower_bound(
    u0,
    traj,
    q,
    *,
    dim: int | None = None,
    tol: float = 0.02,
    forcing_certified: bool = True,
) -> LowerBoundReport:
    """Check recorded q-norms against C * t^(-(dim/2)(1 - 1/q)) for t >= 1.

    C = pi^(dim/(2q)) * q^(-dim/(2q)) * C0 with C0 from the kernel-weighted
    data integral.  Preconditions (nonnegative data; forcing whose kernel
    averages are certified nonnegative by the caller) turn into a skipped
    report, not a failure.  ``traj`` is anything carrying ``times`` and
    ``q_norms`` sequences.
    """
    if not forcing_certified:
        return LowerBoundReport((), True, skipped="forcing condition not certified")
    if isinstance(u0, GridField):
        dim = u0.dim
        if float(np.min(u0.values)) < 0:
            return LowerBoundReport((), True, skipped="data is not nonnegative")
    elif isinstance(u0, ProfileSpec):
        if dim is None:
            if not u0.terms:
                raise ValueError("dim is required for the zero profile")
            dim = len(u0.terms[0].center)
        probe = np.linspace(-24.0, 24.0, 769)
        pts = np.stack(np.meshgrid(*([probe] * dim), indexing="ij"), axis=-1)
        from .problem import evaluate_profile

        if float(np.min(evaluate_profile(u0, pts))) < -1e-12:
            return LowerBoundReport((), True, skipped="data is not nonnegative")
    else:
        raise TypeError("u0 must be a ProfileSpec or GridField")
    c0 = kernel_weight_constant(u0, dim)
    if q == math.inf or q == "inf":
        const = c0
        decay = dim / 2.0
    else:
        q = float(q)
        const = (math.pi / q) ** (dim / (2.0 * q)) * c0
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
