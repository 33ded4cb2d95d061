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
from .problem import ProfileSpec, profile_on_axis

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
        _check_geometry(dim, M, self.half_width)
        return float(self.half_width), int(M)


def _check_geometry(dim: int, M: int, half_width: float) -> None:
    if any(isinstance(x, bool) for x in (dim, M, half_width)):
        raise ValueError("dim, points per axis and half_width must not be bools")
    if not isinstance(dim, (int, np.integer)) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be an integer in 1..{MAX_DIM}")
    if not isinstance(M, (int, np.integer)) or M < 2 or (M & (M - 1)) != 0:
        raise ValueError("points per axis must be an integer power of two >= 2")
    if M**dim > CELL_CAP:
        raise ValueError(f"grid of {M}^{dim} cells exceeds cap {CELL_CAP}")
    if not (half_width > 0 and math.isfinite(half_width)):
        raise ValueError("half_width must be positive and finite")


@dataclass(frozen=True)
class GridField:
    """Sampled real field plus its box geometry.  Values must be finite."""

    dim: int
    half_width: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != self.dim:
            raise ValueError(f"values must be {self.dim}-dimensional")
        M = vals.shape[0]
        if any(s != M for s in vals.shape):
            raise ValueError("grid must have the same point count on every axis")
        _check_geometry(self.dim, M, self.half_width)
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
    h = 2.0 * half_width / M
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
    v.size * 2^-1022, under an ulp of a sum of at least v.size * 2^-969;
    below that the unflushed sum is taken, so a tiny field keeps its powers.
    """
    with np.errstate(over="ignore"):
        if q == 2.0:
            flat = v.reshape(-1)
            return float(np.dot(flat, flat))
        a = np.abs(v)
        a[a < 2.0 ** (-1022.0 / q)] = 0.0
        total = float(np.sum(np.power(a, q, out=a)))
        if total < v.size * 2.0**-969:
            a = np.abs(v)
            total = float(np.sum(np.power(a, q, out=a)))
        return total


def lq_norm(f: GridField, q) -> float:
    """L^q norm by cell sum; q = inf gives the sup norm.

    The sup norm is max(max v, -min v) and takes no temporary array.  A cell
    sum that overflows, alone or times the cell volume, raises BlowupSignal;
    q < 1 or nan raises ValueError.  A nonzero field whose scaled cell sum
    is below the smallest normal double has lost its powers or cell volume
    to underflow: its norm is max|v| h^(dim/q) (sum |v / max|v||^q)^(1/q).
    """
    v = f.values
    q = float(q)
    if q == math.inf:
        return float(max(v.max(), -v.min()))
    if not q >= 1:
        raise ValueError("q must be >= 1 or inf")
    total = _power_sum(v, q) * f.cell_volume
    if not math.isfinite(total):
        raise BlowupSignal("norm overflow")
    if total < sys.float_info.min and (top := lq_norm(f, math.inf)) > 0:
        return top * f.spacing ** (f.dim / q) * _power_sum(v / top, q) ** (1.0 / q)
    return total ** (1.0 / q)


def nonlinearity(f: GridField, p: float, q, alpha: float,
                 out: np.ndarray | None = None) -> GridField:
    """Pointwise load ||f||_q^alpha * |f|^p; overflow surfaces as BlowupSignal.

    At alpha = 0 the norm is not evaluated (the 0^0 = 1 convention).
    The load is computed in place in ``out`` (None allocates, as in numpy;
    out must not be f's own values) and the returned field is backed by it.
    An integral p is raised by square-and-multiply, which for p = 2 is the
    one product |f| |f|; any other p goes through pow.
    """
    factor = 1.0
    if alpha != 0:
        try:
            factor = lq_norm(f, q) ** alpha
        except OverflowError as exc:
            raise BlowupSignal("nonlocal factor overflow") from exc
    v = np.abs(f.values, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        if float(p).is_integer() and p >= 1:
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

