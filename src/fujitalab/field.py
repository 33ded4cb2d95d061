"""Uniform periodic grid fields on the box [-L, L)^dim.

The grid is the usual FFT layout: M points per axis (M a power of two),
spacing h = 2L/M, nodes -L + k*h.  Norms are plain cell sums, which on this
periodic setup is the trapezoid rule and converges spectrally for smooth data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProfileSpec, evaluate_profile

__all__ = [
    "BlowupSignal",
    "BoxGeometry",
    "GridField",
    "coordinates",
    "sample",
    "lq_norm",
    "nonlocal_factor",
    "nonlinearity",
]

MAX_DIM = 3
DEFAULT_HALF_WIDTH = 16.0
DEFAULT_POINTS = {1: 256, 2: 256, 3: 64}
# total-cell cap: dim 3 at M=64 is ~2.6e5 cells, dim 2 at M=4096 is 1.7e7
CELL_CAP = 2**24


class BlowupSignal(ArithmeticError):
    """Raised when a field operation overflows; the driver reads it as blow-up."""


@dataclass(frozen=True)
class BoxGeometry:
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
    if not (1 <= dim <= MAX_DIM):
        raise ValueError(f"dim must be in 1..{MAX_DIM}")
    if M < 2 or (M & (M - 1)) != 0:
        raise ValueError("points per axis must be a power of two >= 2")
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

    def same_geometry(self, other: "GridField") -> bool:
        return (
            self.dim == other.dim
            and self.half_width == other.half_width
            and self.points_per_axis == other.points_per_axis
        )

    # small arithmetic surface; everything returns a validated field
    def __add__(self, other):
        return self.with_values(self.values + _vals(self, other))

    def __sub__(self, other):
        return self.with_values(self.values - _vals(self, other))

    def __mul__(self, other):
        return self.with_values(self.values * _vals(self, other))

    __rmul__ = __mul__

    def __abs__(self):
        return self.with_values(np.abs(self.values))


def _vals(f: GridField, other):
    if isinstance(other, GridField):
        if not f.same_geometry(other):
            raise ValueError("geometry mismatch")
        return other.values
    return other


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
    """Evaluate a profile on the grid."""
    M = points_per_axis if points_per_axis else DEFAULT_POINTS[dim]
    _check_geometry(dim, M, half_width)
    ax = coordinates(half_width, M)
    if prof.kind == "zero" or not prof.terms:
        return GridField(dim, half_width, np.zeros((M,) * dim))
    # evaluate per term with separated 1-d exponentials: cheaper and exact
    out = np.zeros((M,) * dim)
    for t in prof.terms:
        term = np.array(t.coefficient)
        for d in range(dim):
            g = np.exp(-t.rate * (ax - t.center[d]) ** 2)
            term = np.multiply.outer(term, g)
        out += term
    return GridField(dim, half_width, out)


def lq_norm(f: GridField, q) -> float:
    """L^q norm by cell sum; q = inf gives the sup norm."""
    if q == math.inf or q == "inf":
        return float(np.max(np.abs(f.values)))
    q = float(q)
    if q < 1:
        raise ValueError("q must be >= 1 or inf")
    with np.errstate(over="raise"):
        try:
            total = float(np.sum(np.abs(f.values) ** q))
        except FloatingPointError as exc:
            raise BlowupSignal("norm overflow") from exc
    return (total * f.cell_volume) ** (1.0 / q)


def nonlocal_factor(f: GridField, q, alpha: float) -> float:
    """||f||_q^alpha with the 0^0 = 1 convention at alpha = 0."""
    if alpha == 0:
        return 1.0
    n = lq_norm(f, q)
    try:
        out = n**alpha
    except OverflowError as exc:
        raise BlowupSignal("nonlocal factor overflow") from exc
    if not math.isfinite(out):
        raise BlowupSignal("nonlocal factor overflow")
    return float(out)


def nonlinearity(f: GridField, p: float, q, alpha: float) -> GridField:
    """Pointwise load ||f||_q^alpha * |f|^p; overflow surfaces as BlowupSignal."""
    factor = nonlocal_factor(f, q, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        out = factor * np.abs(f.values) ** p
    if not np.all(np.isfinite(out)):
        raise BlowupSignal("nonlinearity overflow")
    return f.with_values(out)

