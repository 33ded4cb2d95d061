"""Critical-exponent calculus for the nonlocal heat problem.

Every function here is plain arithmetic on its arguments: feed floats for the
usual double-precision answers, or ``fractions.Fraction`` throughout for exact
rational results (the test suite uses the latter as a shadow oracle).

Notation used across the package:

* ``delta``  -- effective exponent shift contributed by the nonlocal factor,
  ``alpha * (1 - 1/q)``.
* ``sigma``  -- time-weight exponent of the q-norm smoothing bound,
  ``dim * (p - 1) / (2 p q)``; the fixed-point argument needs ``p*sigma < 1``.
* ``p_star`` -- forcing-driven existence threshold in ``p`` as a function of
  the forcing singularity ``rho``.
* ``p_c``, ``ell``, ``r`` -- integrability exponents used by the small-data
  global-existence scheme; admissible ``1/r`` live in an open window.
* ``theta`` -- certificate exponent whose sign separates the blow-up range
  from the rest (negative means blow-up for positive-mass forcing).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import EXPORTS
from .problem import ProblemSpec, profile_integral

__all__ = list(EXPORTS["exponents"])


class Regime(str, Enum):
    BLOWUP = "blowup"
    GLOBAL_SMALL_DATA = "global_small_data"
    GAP = "gap"


def delta(alpha, q):
    """Nonlocal exponent shift alpha * (1 - 1/q), formed as alpha - alpha/q.

    That is two operations where the product form takes three, and in floats
    it rounds once fewer.  Requires q >= 1; a NaN q fails the check.
    """
    if not q >= 1:
        raise ValueError("q must be >= 1")
    return alpha - alpha / q


def sigma(N, p, q):
    """Smoothing time-weight exponent N*(p-1)/(2*p*q)."""
    if not (p > 1 and q >= 1 and N >= 1):
        raise ValueError("need N >= 1, p > 1, q >= 1")
    return N * (p - 1) / (2 * p * q)


def fujita_scaling_p(N, q, alpha):
    """The p solving p + delta = 1 + 2/N (zero-mass scaling balance)."""
    # written over the common denominator so integer N stays exact under Fractions
    return (N + 2 - N * delta(alpha, q)) / N


def p_star(N, rho):
    """Existence threshold in p induced by t^rho forcing.

    Finite for -1 < rho < 0 (value (N-2rho)/(N-2rho-2)), infinite for
    rho > 0.  The two one-sided limits disagree at rho = 0, so that point is
    a domain error rather than a value.
    """
    if not rho > -1:
        raise ValueError("rho must be > -1")
    if rho == 0:
        raise ValueError("p_star is undefined at rho = 0 (one-sided limits disagree)")
    if rho > 0:
        return math.inf
    den = N - 2 * rho - 2
    if den <= 0:
        raise ValueError("need N - 2*rho - 2 > 0 for the finite branch")
    return (N - 2 * rho) / den


class BlowupCriterion(NamedTuple):
    """Outcome of the blow-up inequality plus its admissibility flags."""

    holds: bool
    admissible: bool
    conditions: dict


def blowup_criterion(N, p, q, alpha, rho) -> BlowupCriterion:
    """Blow-up range test: p + N*delta/(N-2rho-2) < (N-2rho)/(N-2rho-2).

    With D = N - 2 - 2rho > 0, multiplying by D and subtracting D + 2 =
    N - 2rho turns the inequality into (p - 1)*D + N*delta < 2, with no
    division; N*delta is formed once for it and for the delta < 2/N flag.
    That is 8 exact operations on Fraction inputs where the divided form
    takes 13.

    Preconditions (N >= 3, rho <= 0, delta < 2/N) are reported as flags, not
    raised: ``admissible`` is False when any of them fails, and ``holds`` is
    still the literal inequality whenever the denominator is positive.
    """
    nd = N * delta(alpha, q)
    den = N - 2 - 2 * rho
    conditions = {
        "dim_ge_3": N >= 3,
        "rho_nonpos": -1 < rho <= 0,
        "delta_subcritical": nd < 2,
        "denominator_positive": den > 0,
    }
    admissible = all(conditions.values())
    holds = bool(den > 0 and (p - 1) * den + nd < 2)
    return BlowupCriterion(holds, admissible, conditions)


class GepExponents(NamedTuple):
    """Global-existence exponent pack: entry threshold for p, p_c and ell."""

    threshold: object
    p_c: object
    ell: object
    conditions: dict

    @property
    def admissible(self) -> bool:
        return all(self.conditions.values())


def gep_exponents(N, p, q, alpha, rho) -> GepExponents:
    """Compute the small-data global-existence exponents.

    threshold = (N - 2 rho - N delta) / (N - 2 rho - 2)
    p_c = N ((p-1)(q-1) + delta q) / (2(q-1) + N delta)
    ell = N ((p-1)(q-1) + delta)
          / (2(q-1) + N delta + 2(rho+1)(p-1)(q-1) + 2(rho+1) delta)

    Raises ValueError when any denominator is nonpositive; hypothesis flags
    (dimension, rho range, delta subcritical, p >= threshold, q band, and
    p_c, ell >= 1 for the Lebesgue spaces L^p_c, L^ell) are in ``conditions``.
    """
    d = delta(alpha, q)
    den_thr = N - 2 * rho - 2
    den_pc = 2 * (q - 1) + N * d
    den_ell = den_pc + 2 * (rho + 1) * (p - 1) * (q - 1) + 2 * (rho + 1) * d
    for name, den in (("threshold", den_thr), ("p_c", den_pc), ("ell", den_ell)):
        if den <= 0:
            raise ValueError(f"{name} denominator must be positive, got {den}")
    threshold = (N - 2 * rho - N * d) / den_thr
    p_c = N * ((p - 1) * (q - 1) + d * q) / den_pc
    ell = N * ((p - 1) * (q - 1) + d) / den_ell
    conditions = {
        "dim_ge_2": N >= 2,
        "rho_in_minus1_0": -1 < rho < 0,
        "delta_subcritical": d * N < 2,
        "p_ge_threshold": p >= threshold,
        "q_band": N * (p - 1) <= 2 * q and q <= p,
        "lebesgue_exponents": p_c >= 1 and ell >= 1,
    }
    return GepExponents(threshold, p_c, ell, conditions)


class RWindow(NamedTuple):
    """Open admissibility window lo < 1/r < hi; each end is the tighter of
    two candidate bounds."""

    lo: object
    hi: object

    @property
    def nonempty(self) -> bool:
        return self.lo < self.hi

    def contains_r(self, r) -> bool:
        inv = 0 if r == math.inf else 1 / r
        return self.lo < inv < self.hi


def r_window(N, p, q, alpha, rho) -> RWindow:
    """Admissible window in 1/r for the global-existence fixed point."""
    d = delta(alpha, q)
    p_c = gep_exponents(N, p, q, alpha, rho).p_c
    mix = (p - 1) * (q - 1) + q * d  # recurring combination
    if mix <= 0:
        raise ValueError("window denominators require (p-1)(q-1) + q*delta > 0")
    lo1 = (2 * (q - 1) + N * d * p) / (N * p * mix)
    lo2 = 1 / p_c + 2 * rho / N + 2 * d / (N * p * mix)
    hi1 = 1 / p_c
    hi2 = (p - 1) * (q + d - 1) / (p * mix)
    return RWindow(lo=max(lo1, lo2), hi=min(hi1, hi2))


def beta(N, p_c, r):
    """Smoothing budget beta = (N/2) * (1/p_c - 1/r); needs r > p_c."""
    inv_r = 0 if r == math.inf else 1 / r
    if not r > p_c:
        raise ValueError("need r > p_c")
    return N * (1 / p_c - inv_r) / 2


def beta_upper_bound(p, q, alpha):
    """Admissible ceiling for beta: (q-1)/(p(q-1) + q*delta) == 1/(p+alpha)."""
    d = delta(alpha, q)
    den = p * (q - 1) + q * d
    if den <= 0:
        raise ValueError("beta bound denominator must be positive")
    return (q - 1) / den


def certificate_exponent(N, p, q, alpha, rho):
    """theta = (N - 2 rho - 2)/2 + (N delta - 2)/(2 (p-1)).

    Formed as (N - 2 - 2 rho + (N delta - 2)/(p - 1))/2, with N - 2 in int
    arithmetic and one halving: 10 exact operations on Fraction inputs where
    the literal form takes 13.  For positive-mass forcing with delta < 2/N,
    theta < 0 is equivalent to the blow-up inequality; its sign is what the
    scaling certificate measures.
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    return (N - 2 - 2 * rho + (N * delta(alpha, q) - 2) / (p - 1)) / 2


def classify(spec: ProblemSpec) -> Regime:
    """Coarse regime verdict for a full problem record.

    blowup            -- criterion admissible and true, and the forcing has
                         strictly positive total integral;
    global_small_data -- every small-data global-existence hypothesis holds
                         (exponent pack admissible and a nonempty r-window);
    gap               -- admissible parameters matching neither set.

    ProblemSpec refuses base parameter violations, so every record classifies.
    """
    return exponent_report(spec).values["regime"]


def _or_none(f, *args):
    """f(*args), or None where f raises ValueError: the value is undefined."""
    try:
        return f(*args)
    except ValueError:
        return None


class ExponentReport(NamedTuple):
    """Flat, fixed-order summary of every derived exponent for one problem.

    Fields that are undefined for the given parameters (e.g. p_star at
    rho = 0, or the window when a denominator degenerates) are None.
    """

    values: dict

    def to_json_dict(self) -> dict:
        return {k: _jsonable(v) for k, v in self.values.items()}

    def table(self) -> str:
        width = max(map(len, self.values))
        return "\n".join(f"{k.ljust(width)}  {_fmt(v)}" for k, v in self.values.items())


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _fmt(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, Regime):
        return v.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def exponent_report(spec: ProblemSpec) -> ExponentReport:
    """Evaluate the whole calculus for one problem, None-ing undefined parts."""
    N, p, q, a, rho = spec.dim, spec.p, spec.q, spec.alpha, spec.rho
    s = sigma(N, p, q)
    bc = blowup_criterion(N, p, q, a, rho)
    gep = _or_none(gep_exponents, N, p, q, a, rho)
    win = gep and _or_none(r_window, N, p, q, a, rho)
    w_integral = profile_integral(spec.w, N)
    beta_mid = None
    if win and win.nonempty:
        beta_mid = _or_none(beta, N, gep.p_c, 1 / ((win.lo + win.hi) / 2))
    regime = (Regime.BLOWUP if bc.admissible and bc.holds and w_integral > 0
              else Regime.GLOBAL_SMALL_DATA if gep and gep.admissible and win and win.nonempty
              else Regime.GAP)
    return ExponentReport({
        "dim": N,
        "p": p,
        "q": q,
        "alpha": a,
        "rho": rho,
        "delta": delta(a, q),
        "sigma": s,
        "p_sigma": p * s,
        "fujita_scaling_p": fujita_scaling_p(N, q, a),
        "p_star": _or_none(p_star, N, rho),
        "blowup_admissible": bc.admissible,
        "blowup_holds": bc.holds,
        "gep_threshold": gep and gep.threshold,
        "p_c": gep and gep.p_c,
        "ell": gep and gep.ell,
        "r_window_lo": win and win.lo,
        "r_window_hi": win and win.hi,
        "r_window_nonempty": win and win.nonempty,
        "beta_mid": beta_mid,
        "beta_upper_bound": _or_none(beta_upper_bound, p, q, a),
        "certificate_exponent": certificate_exponent(N, p, q, a, rho),
        "w_integral": w_integral,
        "regime": regime,
    })
