"""Problem data: Gaussian-sum profiles and the full parameter record.

A problem instance is the dimension, the four scalar exponents (p, q, alpha,
rho) and two spatial profiles: the initial state u0 and the forcing shape w.
A profile is a finite sum of isotropic Gaussians, zero when it has no terms,
so that its integrals and kernel-weighted averages have closed forms the rest
of the package can lean on.  Its JSON "kind" tag is derived from the terms.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import EXPORTS

__all__ = list(EXPORTS["problem"])

PROFILE_KINDS = ("gaussian_sum", "zero")
KERNEL_AVERAGE_TOL = 1e-10  # profile_sign's slack: w >= 0 means w >= -KERNEL_AVERAGE_TOL
SIGN_BOXES = 1 << 14        # boxes after which profile_sign's branch and bound stops


class SpecFieldError(ValueError):
    """Raised when a problem record or one of its profiles has a malformed field."""

    def __init__(self, field_name: str, reason: str):
        self.field_name = field_name
        self.reason = reason
        super().__init__(f"field '{field_name}': {reason}")


class InadmissibleError(ValueError):
    """Raised for structurally valid records whose parameter values fall
    outside the admissible base region (dim >= 1 integer, p > 1, q >= 1,
    alpha >= 0, rho > -1)."""

    def __init__(self, failed_conditions):
        self.failed_conditions = tuple(failed_conditions)
        super().__init__(
            "inadmissible base parameters: " + ", ".join(self.failed_conditions))


@dataclass(frozen=True)
class GaussianTerm:
    """One term c * exp(-rate * |x - center|^2)."""

    coefficient: float
    rate: float
    center: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", _number(self.coefficient))
        object.__setattr__(self, "rate", _number(self.rate))
        object.__setattr__(self, "center", tuple(_number(c) for c in self.center))
        if not math.isfinite(self.coefficient):
            raise ValueError("gaussian coefficient must be finite")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("gaussian rate must be positive and finite")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("gaussian center must be finite")


@dataclass(frozen=True)
class ProfileSpec:
    """A spatial profile: a finite Gaussian sum, zero when it has no terms.

    Raw rows (coefficient, rate, center) become GaussianTerms; a row that
    does not raises SpecFieldError naming ``terms[i]``."""

    terms: tuple[GaussianTerm, ...] = ()

    def __post_init__(self):
        terms = []
        for i, t in enumerate(self.terms):
            if not isinstance(t, GaussianTerm):
                try:
                    c, r, center = t
                    t = GaussianTerm(c, r, center)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise SpecFieldError(f"terms[{i}]", str(exc)) from exc
            terms.append(t)
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def zero(cls) -> "ProfileSpec":
        return cls()

    @classmethod
    def gaussian(cls, coefficient: float, rate: float, center=(0.0,)) -> "ProfileSpec":
        return cls(((coefficient, rate, center),))

    @classmethod
    def gaussian_sum(cls, terms) -> "ProfileSpec":
        return cls(terms)

    def to_json_dict(self) -> dict:
        return {
            "kind": "gaussian_sum" if self.terms else "zero",
            "terms": [[t.coefficient, t.rate, list(t.center)] for t in self.terms],
        }

    @classmethod
    def from_json_dict(cls, d: dict, field_name: str = "profile") -> "ProfileSpec":
        if not isinstance(d, dict):
            raise SpecFieldError(field_name, "profile must be an object")
        kind = d.get("kind")
        if kind not in PROFILE_KINDS:
            raise SpecFieldError(f"{field_name}.kind", f"must be one of {PROFILE_KINDS}")
        raw_terms = d.get("terms", [])
        if not isinstance(raw_terms, list):
            raise SpecFieldError(f"{field_name}.terms", "must be a list")
        try:
            prof = cls(raw_terms)
        except SpecFieldError as exc:
            raise SpecFieldError(f"{field_name}.{exc.field_name}", exc.reason) from exc
        if kind == "zero" and prof.terms:
            raise SpecFieldError(field_name, "zero profile carries no terms")
        if kind == "gaussian_sum" and not prof.terms:
            raise SpecFieldError(field_name, "gaussian_sum needs at least one term")
        return prof


def profile_on_axis(prof: ProfileSpec, dim: int, ax: np.ndarray) -> np.ndarray:
    """The profile on the tensor grid ax^dim, shape (len(ax),)*dim.

    Each term is a product of 1-d exponentials, multiplied out axis by axis.
    A term centre of another dimension than dim raises ValueError.
    """
    _check_centers(prof, dim)
    out = np.zeros((len(ax),) * dim)
    for t in prof.terms:
        term = np.array(t.coefficient)
        for d in range(dim):
            term = np.multiply.outer(term, np.exp(-t.rate * (ax - t.center[d]) ** 2))
        out += term
    return out


def profile_integral(prof: ProfileSpec, dim: int) -> float:
    """Closed-form integral over all of space: sum of c * (pi/rate)^(dim/2).

    A term whose centre does not have ``dim`` coordinates raises ValueError.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_centers(prof, dim)
    return sum(t.coefficient * (math.pi / t.rate) ** (dim / 2) for t in prof.terms)


def _check_centers(prof: ProfileSpec, dim: int, name: str = "profile") -> None:
    for t in prof.terms:
        if len(t.center) != dim:
            raise ValueError(f"{name} term center must have dim {dim}")


def gaussian_weighted_integral(
    prof: ProfileSpec, dim: int, rate: float, center=None
) -> float:
    """Closed form of ``integral exp(-rate*|x-center|^2) * prof(x) dx``.

    Gaussian-times-Gaussian integrates to
    (pi/(rate+r))^(dim/2) * exp(-(rate*r/(rate+r)) * |center - c|^2) per term.
    A term centre or ``center`` without ``dim`` coordinates raises ValueError.
    """
    if rate <= 0:
        raise ValueError("weight rate must be positive")
    _check_centers(prof, dim)
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise ValueError(f"weight center must have dim {dim}")
    total = 0.0
    for t in prof.terms:
        s = rate + t.rate
        d2 = np.sum((center - np.asarray(t.center)) ** 2)
        total += t.coefficient * (math.pi / s) ** (dim / 2) * np.exp(
            -(rate * t.rate / s) * d2
        )
    return float(total)


def profile_min_rate(prof: ProfileSpec) -> float:
    """Slowest decay rate among the terms; +inf for the zero profile."""
    if not prof.terms:
        return math.inf
    return min(t.rate for t in prof.terms)


def profile_sign(prof: ProfileSpec, dim: int) -> tuple:
    """(True, None) if the profile is >= -KERNEL_AVERAGE_TOL on all of R^dim,
    (False, x) with a point x where it is below that, else (None, None), by
    range bounds and branch and bound as in Moore, Kearfott & Cloud,
    *Introduction to Interval Analysis* (SIAM, 2009).

    Merged by rate and centre, a sum with no negative coefficient is >= 0.
    Else a sole least-rate term c0 exp(-a|x - y0|^2) fixes the far field:
    past the radius R about y0 where each of the m opposite-sign terms is
    <= |c0| exp(-a r^2)/(2m), the sum has c0's sign and half its size, so a
    negative c0 is refuted at y0 + R e_1 if the sum is below the slack there.
    On the cube y0 +- R a box's lower bound takes positive terms at their
    farthest point and negative ones at their nearest; a midpoint below the
    slack refutes, a box whose bound is not below it is certified, and the
    rest split along their widest side.  Least rates at distinct centres, a
    search past SIGN_BOXES boxes, or a negative c0 not refuted give undecided.
    A term centre of another dimension raises ValueError.
    """
    _check_centers(prof, dim)
    merged = {}
    for t in prof.terms:
        merged[t.rate, t.center] = merged.get((t.rate, t.center), 0.0) + t.coefficient
    terms = sorted((r, c, y) for (r, y), c in merged.items() if c != 0.0)
    if all(c > 0 for _, c, _ in terms):
        return True, None
    (a, c0, y0), *rest = terms
    if rest and rest[0][0] == a:
        return None, None
    other = [(abs(c), b, math.dist(y, y0)) for b, c, y in rest if c * c0 < 0]
    R = max(((b * d + math.sqrt(max(0.0, a * b * d * d + (b - a) * (
        math.log(2 * len(other) * c) - math.log(abs(c0)))))) / (b - a)
        for c, b, d in other), default=0.0)
    if not math.isfinite(R):
        return None, None
    B, C, Y = (np.array(v) for v in zip(*terms))
    mid, half = np.array([y0]), np.full((1, dim), R)
    if c0 < 0:  # the far-field witness, as a box of width 0
        mid, half = np.vstack([mid, mid + R * np.eye(dim)[0]]), np.vstack([half, 0 * half])
    used = 0
    while len(mid) and (used := used + len(mid)) <= SIGN_BOXES:
        vals = (C * np.exp(-B * np.sum((mid[:, None] - Y) ** 2, axis=-1))).sum(axis=1)
        i = int(np.argmin(vals))
        if vals[i] < -KERNEL_AVERAGE_TOL:
            return False, tuple(float(v) for v in mid[i])
        gap, h = np.abs(mid[:, None] - Y), half[:, None]
        reach = np.where((C > 0)[:, None], gap + h, np.maximum(gap - h, 0.0))
        keep = (C * np.exp(-B * np.sum(reach**2, axis=-1))).sum(axis=1) < -KERNEL_AVERAGE_TOL
        mid, half = mid[keep], half[keep]
        rows, axis = np.arange(len(mid)), np.argmax(half, axis=1)
        half[rows, axis] /= 2
        step = np.zeros_like(mid)
        step[rows, axis] = half[rows, axis]
        mid, half = np.concatenate([mid - step, mid + step]), np.concatenate([half, half])
    return (True if c0 > 0 and not len(mid) else None), None


def scale_profile(prof: ProfileSpec, factor: float) -> ProfileSpec:
    return ProfileSpec([(t.coefficient * factor, t.rate, t.center) for t in prof.terms])


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem record: geometry-free parameters plus the two profiles."""

    dim: int
    p: float
    q: float
    alpha: float
    rho: float
    u0: ProfileSpec = field(default_factory=ProfileSpec.zero)
    w: ProfileSpec = field(default_factory=ProfileSpec.zero)

    def __post_init__(self):
        dim, p, q, alpha, rho = self.dim, self.p, self.q, self.alpha, self.rho
        base = {
            "dim_positive_integer": isinstance(dim, (int, np.integer))
            and not isinstance(dim, bool) and dim >= 1,
            "p_gt_1": _num(p) and p > 1,
            "q_ge_1": _num(q) and q >= 1,
            "alpha_nonneg": _num(alpha) and alpha >= 0,
            "rho_gt_minus_1": _num(rho) and rho > -1,
        }
        bad = [k for k, ok in base.items() if not ok]
        if bad:
            raise InadmissibleError(bad)
        _check_centers(self.u0, dim, "u0")
        _check_centers(self.w, dim, "w")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "p": self.p,
            "q": self.q,
            "alpha": self.alpha,
            "rho": self.rho,
            "u0": self.u0.to_json_dict(),
            "w": self.w.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProblemSpec":
        if not isinstance(d, dict):
            raise SpecFieldError("spec", "top level must be an object")
        params = _extract_parameters(d)
        u0 = ProfileSpec.from_json_dict(d.get("u0", {"kind": "zero"}), "u0")
        w = ProfileSpec.from_json_dict(d.get("w", {"kind": "zero"}), "w")
        try:
            return cls(u0=u0, w=w, **params)
        except InadmissibleError:
            raise
        except ValueError as exc:
            raise SpecFieldError("spec", str(exc)) from exc

    def spec_hash(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


def _extract_parameters(d: dict) -> dict:
    """Pull and type-check the five scalar fields; no domain checks here."""
    out = {}
    for name in ("dim", "p", "q", "alpha", "rho"):
        if name not in d:
            raise SpecFieldError(name, "missing")
        try:
            x = _number(d[name])
        except (TypeError, OverflowError) as exc:
            raise SpecFieldError(name, str(exc)) from exc
        if name == "dim" and not x.is_integer():
            raise SpecFieldError(name, "must be an integer")
        out[name] = int(d[name]) if name == "dim" else x
    return out


def _number(v) -> float:
    """v as a float when it is a number, not a bool, within float range:
    TypeError otherwise, or OverflowError for an integer beyond that range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"must be a number, got {type(v).__name__}")
    return float(v)


class ValidationReport(NamedTuple):
    """Named admissibility conditions, independently queryable."""

    lwp_ok: bool
    uniq_ok: bool
    conditions: dict

    def failed(self) -> list[str]:
        return [k for k, v in self.conditions.items() if not v]


def _num(x) -> bool:
    return isinstance(x, (int, float, np.floating, np.integer)) and not isinstance(
        x, bool
    ) and math.isfinite(float(x))


def validate(spec: ProblemSpec) -> ValidationReport:
    """Admissibility of a record beyond its base region, which the record
    itself enforces (dim positive integer, p > 1, q >= 1, alpha >= 0,
    rho > -1).

    lwp:  q > dim*(p-1)/2 and (alpha == 0 or alpha >= 1); the band
          0 < alpha < 1 is outside the fixed-point argument's reach.
    uniq: lwp plus q >= p.
    """
    conditions = {
        "q_gt_scaling": spec.q > spec.dim * (spec.p - 1) / 2,
        "alpha_fixed_point_ok": spec.alpha == 0 or spec.alpha >= 1,
        "q_ge_p": spec.q >= spec.p,
    }
    lwp_ok = conditions["q_gt_scaling"] and conditions["alpha_fixed_point_ok"]
    return ValidationReport(lwp_ok, lwp_ok and conditions["q_ge_p"], conditions)
