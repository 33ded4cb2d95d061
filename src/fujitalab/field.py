"""Uniform periodic grid fields on the box [-L, L)^dim.

The grid is the usual FFT layout: M points per axis (M a power of two),
spacing h = 2L/M, nodes -L + k*h.  Norms are plain cell sums, which on this
periodic setup is the trapezoid rule and converges spectrally for smooth data.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import EXPORTS
from .problem import ProfileSpec, check_int, check_real, profile_on_axis

__all__ = list(EXPORTS["field"])

MAX_DIM = 3
DEFAULT_HALF_WIDTH = 16.0
DEFAULT_POINTS = {1: 256, 2: 256, 3: 64}
# total-cell cap: dim 3 at M=64 is ~2.6e5 cells, dim 2 at M=4096 is 1.7e7
CELL_CAP = 2**24


class BlowupSignal(ArithmeticError):
    """Raised when a field operation overflows; the driver reads it as blow-up."""


class BoxGeometry(NamedTuple):
    """Requested discretization; points_per_axis=None means the dim default."""

    half_width: float = DEFAULT_HALF_WIDTH
    points_per_axis: int | None = None

    def resolve(self, dim: int) -> tuple[float, int]:
        """(half_width, points_per_axis) for dim; ValueError if out of range."""
        M = self.points_per_axis
        if M is None:
            M = DEFAULT_POINTS.get(dim)  # an unknown dim fails the check first
        check_geometry(dim, M, self.half_width)
        return float(self.half_width), int(M)


def check_geometry(dim: int, M: int, half_width: float) -> None:
    if check_int("dim", dim, ge=1) > MAX_DIM:
        raise ValueError(f"dim must be <= {MAX_DIM}, got {dim!r}")
    if check_int("points_per_axis", M, ge=2) & (M - 1):
        raise ValueError(f"points_per_axis must be a power of two, got {M!r}")
    if M**dim > CELL_CAP:
        raise ValueError(f"grid of {M}^{dim} cells exceeds cap {CELL_CAP}")
    check_real("half_width", half_width, gt=0)


@dataclass(frozen=True)
class GridField:
    """Sampled real field plus its box geometry.  Values must be finite."""

    dim: int
    half_width: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        M = vals.shape[0] if vals.ndim else 0
        check_geometry(self.dim, M, self.half_width)
        if vals.shape != (M,) * self.dim:
            raise ValueError(f"values must be {self.dim}-dimensional with {M} points "
                             f"on every axis, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise BlowupSignal("field contains non-finite values")

    @property
    def points_per_axis(self) -> int:
        return self.values.shape[0]

    @property
    def grid(self) -> tuple:
        """(dim, points_per_axis, half_width): two fields on one grid compare equal."""
        return (self.dim, self.points_per_axis, self.half_width)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def axis(self) -> np.ndarray:
        return coordinates(self.half_width, self.points_per_axis)

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(self.dim, self.half_width, values)

    def __sub__(self, other: "GridField") -> "GridField":
        """Difference as a validated field; the operand must lie on the same grid."""
        if other.grid != self.grid:
            raise ValueError("geometry mismatch")
        return self.with_values(self.values - other.values)


def coordinates(half_width: float, M: int) -> np.ndarray:
    """Axis nodes -L + k*h, k = 0..M-1 (periodic, right endpoint omitted)."""
    h = 2.0 * check_real("half_width", half_width, gt=0) / check_int("M", M, ge=1)
    return -half_width + h * np.arange(M)


def sample(
    prof: ProfileSpec,
    dim: int,
    half_width: float = DEFAULT_HALF_WIDTH,
    points_per_axis: int | None = None,
) -> GridField:
    """Evaluate a profile on the grid; the box resolves as BoxGeometry's does.
    A term centre of another dimension than dim raises ValueError."""
    L, M = BoxGeometry(half_width, points_per_axis).resolve(dim)
    return GridField(dim, L, profile_on_axis(prof, dim, coordinates(L, M)))


def _power_sum(v: np.ndarray, q: float) -> float:
    """Sum of |v|^q: the dot product v.v at q = 2, with no temporary array;
    any other q raises |v| to the q-th power in place, one temporary.

    There each |v| below 2^(-1022/q), whose power is subnormal and slow in
    np.power, is first set to 0.  Those powers sum to less than
    v.size * 2^-1022, under an ulp of any sum that lq_norm keeps unscaled.
    """
    with np.errstate(over="ignore"):
        if q == 2.0:
            flat = v.reshape(-1)
            return float(np.dot(flat, flat))
        a = np.abs(v)
        a[a < 2.0 ** (-1022.0 / q)] = 0.0
        return float(np.sum(np.power(a, q, out=a)))


def lq_norm(f: GridField, q: float) -> float:
    """L^q norm by cell sum; q = inf gives the sup norm.

    The sup norm is max(max v, -min v) and takes no temporary array.  A cell
    sum that overflows, alone or times the cell volume, raises BlowupSignal;
    q < 1, nan or a bool raises ValueError.  A nonzero field whose power sum
    is below v.size * 2^-969, or whose scaled sum is below the smallest
    normal double, may have lost powers or its cell volume to underflow: its
    norm is max|v| h^(dim/q) (sum |v / max|v||^q)^(1/q), a sum of at least 1.
    """
    v = f.values
    q = float(check_real("q", q, ge=1, finite=False))
    if q == math.inf:
        return float(max(v.max(), -v.min()))
    s = _power_sum(v, q)
    total = s * f.cell_volume
    if not math.isfinite(total):
        raise BlowupSignal("norm overflow")
    if ((s < v.size * 2.0**-969 or total < sys.float_info.min)
            and (top := lq_norm(f, math.inf)) > 0):
        return top * f.spacing ** (f.dim / q) * _power_sum(v / top, q) ** (1.0 / q)
    return total ** (1.0 / q)


def nonlinearity(f: GridField, p: float, q: float, alpha: float,
                 out: np.ndarray | None = None) -> GridField:
    """Pointwise load ||f||_q^alpha * |f|^p; overflow surfaces as BlowupSignal.

    p < 1, q < 1 or alpha < 0 is a ValueError.  At alpha = 0 the norm is not
    evaluated (0^0 = 1).  The load is made in ``out`` (None allocates, as in
    numpy; out must not be f's own values), which backs the returned field.
    An integral p is raised by square-and-multiply, which for p = 2 is the
    one product |f| |f|; any other p goes through pow.
    """
    check_real("p", p, ge=1)
    check_real("q", q, ge=1, finite=False)
    check_real("alpha", alpha, ge=0)
    factor = 1.0
    if alpha != 0:
        try:
            factor = lq_norm(f, q) ** alpha
        except OverflowError as exc:
            raise BlowupSignal("nonlocal factor overflow") from exc
    v = np.abs(f.values, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        if float(p).is_integer():
            # |f|^n by the bits of n after the leading one; multiplying by
            # the signed f instead of |f| rounds the same, and a final abs
            # clears the sign an odd n leaves
            n = int(p)
            for bit in bin(n)[3:]:
                v *= v
                if bit == "1":
                    v *= f.values
            if n % 2 and n > 1:
                np.abs(v, out=v)
        else:
            np.power(v, p, out=v)
        if factor != 1.0:
            v *= factor
    return f.with_values(v)  # constructor turns non-finite into BlowupSignal

