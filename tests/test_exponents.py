"""Exponent calculus run twice: once through the package, once through a
shadow oracle in fractions.Fraction.  Comparisons are exact, no tolerances.
The package functions are plain arithmetic, so feeding them Fractions keeps
everything rational end to end."""

import json
import math
import random
from collections import Counter
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from fujitalab import exponents
from fujitalab.exponents import (
    Regime,
    beta,
    beta_upper_bound,
    blowup_criterion,
    certificate_exponent,
    classify,
    delta,
    exponent_report,
    fujita_scaling_p,
    gep_exponents,
    p_star,
    r_window,
    sigma,
)
from fujitalab.problem import ProblemSpec, ProfileSpec

# -------------------------------------------------------------- shadow oracle


def _sh_delta(alpha, q):
    return alpha * (1 - Fr(1) / q)


def _sh_threshold(N, q, alpha, rho):
    d = _sh_delta(alpha, q)
    return (N - 2 * rho - N * d) / (N - 2 * rho - 2)


def _sh_certificate(N, p, q, alpha, rho):
    d = _sh_delta(alpha, q)
    return Fr(N - 2 * rho - 2, 2) + (N * d - 2) / (2 * (p - 1))


def _draw(rng, lo, hi, den=60):
    """Random Fraction in [lo, hi] with denominator <= den."""
    b = rng.randint(1, den)
    a = rng.randint(int(lo * b), int(hi * b))
    return Fr(a, b)


# -------------------------------------------------------------- worked point

WORKED = dict(N=2, p=Fr(3), q=Fr(3), alpha=Fr(0), rho=Fr(-1, 2))


def test_worked_point_exact():
    gep = gep_exponents(**{k: WORKED[k] for k in ("N", "p", "q", "alpha", "rho")})
    assert gep.threshold == Fr(3)
    assert gep.p_c == Fr(2)
    assert gep.ell == Fr(1)
    win = r_window(WORKED["N"], WORKED["p"], WORKED["q"], WORKED["alpha"], WORKED["rho"])
    assert (win.lo, win.hi) == (Fr(1, 6), Fr(1, 3))
    assert win.nonempty and win.contains_r(4)
    assert beta(WORKED["N"], gep.p_c, Fr(4)) == Fr(1, 4)
    assert gep.admissible
    assert gep.conditions["lebesgue_exponents"]  # ell = 1 is a Lebesgue exponent


def test_delta_sigma_values():
    assert delta(Fr(0), Fr(3)) == 0
    assert delta(Fr(3, 2), Fr(3)) == Fr(1)
    assert sigma(2, Fr(3), Fr(3)) == Fr(2, 9)
    with pytest.raises(ValueError):
        delta(1.0, 0.5)
    with pytest.raises(ValueError):
        sigma(2, 1.0, 2.0)
    # NaN fails every domain check rather than slipping through as nan
    with pytest.raises(ValueError, match="q must be >= 1"):
        delta(1.0, math.nan)
    for p, q in ((math.nan, 2.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            sigma(3, p, q)
    with pytest.raises(ValueError, match="p must be > 1"):
        certificate_exponent(3, math.nan, 2.0, 1.0, -0.5)
    with pytest.raises(ValueError, match="q must be >= 1"):
        certificate_exponent(3, 2.0, math.nan, 1.0, -0.5)


def test_fujita_scaling_reduces_to_classical():
    # alpha = 0 kills the shift: 1 + 2/N, the classical scaling exponent
    for N in (1, 2, 3, 5):
        assert fujita_scaling_p(N, Fr(7, 2), Fr(0)) == 1 + Fr(2, N)
    assert fujita_scaling_p(2, Fr(2), Fr(1)) == Fr(3, 2)


def test_p_star_branches():
    assert p_star(3, Fr(-1, 2)) == Fr(4, 2)
    assert p_star(5, 0.25) == math.inf
    with pytest.raises(ValueError):
        p_star(3, 0)
    with pytest.raises(ValueError):
        p_star(3, -1.0)
    with pytest.raises(ValueError):
        p_star(1, Fr(-1, 4))  # denominator N - 2rho - 2 <= 0
    with pytest.raises(ValueError, match="rho must be > -1"):
        p_star(3, math.nan)


def test_alpha_zero_reduction_thousand_points():
    """With alpha = 0 the criterion is p < (N-2rho)/(N-2rho-2) and
    p_c collapses to N(p-1)/2.  Exact on random rational draws."""
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        N = rng.randint(3, 8)
        p = _draw(rng, 1.05, 6)
        q = _draw(rng, 1.05, 8)
        rho = _draw(rng, -0.9, 0)
        crit = blowup_criterion(N, p, q, Fr(0), rho)
        assert crit.holds == (p < Fr(N - 2 * rho) / (N - 2 * rho - 2))
        try:
            gep = gep_exponents(N, p, q, Fr(0), rho)
        except ValueError:
            continue
        assert gep.p_c == Fr(N) * (p - 1) / 2
        checked += 1
    assert checked == 1000


def test_criterion_equals_certificate_sign():
    # 10^4 admissible draws with delta < 2/N; zero violations allowed.
    # alpha is solved back from a subcritical delta so every draw qualifies.
    rng = random.Random(11)
    checked = 0
    while checked < 10000:
        N = rng.randint(3, 8)
        p = _draw(rng, 1.1, 6)
        q = _draw(rng, 1.05, 8)
        rho = _draw(rng, -0.9, 0)
        if p <= 1 or q <= 1 or not (-1 < rho <= 0):
            continue
        d = Fr(2, N) * Fr(rng.randint(0, 38), 40)
        alpha = d * q / (q - 1)
        crit = blowup_criterion(N, p, q, alpha, rho)
        assert crit.admissible
        theta = certificate_exponent(N, p, q, alpha, rho)
        assert crit.holds == (theta < 0)
        assert theta == _sh_certificate(N, p, q, alpha, rho)
        checked += 1
    assert checked == 10000
    with pytest.raises(ValueError, match="p must be > 1"):
        certificate_exponent(3, 1, 2, 0, Fr(-1, 2))


def test_threshold_separates_criterion():
    rng = random.Random(23)
    for _ in range(500):
        N = rng.randint(3, 8)
        q = _draw(rng, 1.05, 8)
        alpha = _draw(rng, 0, 3)
        rho = _draw(rng, -0.9, 0)
        if q <= 1 or _sh_delta(alpha, q) * N >= 2:
            continue
        thr = _sh_threshold(N, q, alpha, rho)
        for p in (thr - Fr(1, 17), thr, thr + Fr(1, 17)):
            if p <= 1:
                continue
            crit = blowup_criterion(N, p, q, alpha, rho)
            assert crit.holds == (p < thr)


def test_undivided_criterion_decides_the_divided_inequality():
    # holds is decided as (p - 1) D + N delta < 2 with D = N - 2 - 2 rho; the
    # shadow divides by D, p + N delta/D < (N - 2 rho)/D, and is False when
    # D <= 0.  Every third draw with D > 0 puts p exactly at the threshold,
    # where both sides are equal and the strict inequality fails
    rng = random.Random(29)
    ties = nonpositive = 0
    for i in range(3000):
        N = rng.randint(1, 8)
        q = _draw(rng, 1.05, 8)
        alpha = _draw(rng, 0, 3)
        rho = _draw(rng, -0.9, 2)
        D = N - 2 * rho - 2
        if D > 0 and i % 3 == 0:
            p = _sh_threshold(N, q, alpha, rho)
            ties += 1
        else:
            p = _draw(rng, 1.05, 6)
        if D > 0:
            d = _sh_delta(alpha, q)
            expected = p + N * d / D < (N - 2 * rho) / D
        else:
            expected = False
            nonpositive += 1
        assert blowup_criterion(N, p, q, alpha, rho).holds == expected
    assert ties > 500 and nonpositive > 500


def test_beta_bound_identity():
    # (q-1)/(p(q-1) + q*delta) == 1/(p+alpha), exact for every draw
    rng = random.Random(3)
    for _ in range(300):
        p = _draw(rng, 1.1, 6)
        q = _draw(rng, 1.1, 8)
        alpha = _draw(rng, 0, 3)
        if p <= 1 or q <= 1:
            continue
        assert beta_upper_bound(p, q, alpha) == Fr(1) / (p + alpha)


def test_beta_edges():
    assert beta(2, Fr(2), math.inf) == Fr(1, 2)
    assert beta(2, Fr(2), Fr(4)) == Fr(1, 4)
    with pytest.raises(ValueError):
        beta(2, 2.0, 2.0)


def test_window_structure():
    win = r_window(2, Fr(3), Fr(3), Fr(0), Fr(-1, 2))
    assert not win.contains_r(Fr(2))  # 1/2 sits above the window
    assert not win.contains_r(math.inf)  # 0 sits below it


def test_gep_denominator_errors():
    with pytest.raises(ValueError):
        gep_exponents(1, 2.0, 1.0, 0.0, -0.5)  # p_c denominator is 0 at q=1, alpha=0
    with pytest.raises(ValueError, match="window denominators"):
        r_window(3, 1.0, 2.0, 0.0, -0.5)  # (p-1)(q-1) + q*delta is 0 at p=1, alpha=0


def _spec(N, p, q, alpha, rho, w_coeff=0.0):
    u0 = ProfileSpec.gaussian(0.5, 1.0, (0.0,) * N)
    w = ProfileSpec.gaussian(w_coeff, 1.0, (0.0,) * N) if w_coeff else ProfileSpec.zero()
    return ProblemSpec(N, p, q, alpha, rho, u0, w)


_REGIME_CASES = (
    # threshold at (N=3, alpha=0, rho=-1/2) is 2, so p=1.5 is in the blow-up range
    (_spec(3, 1.5, 2.0, 0.0, -0.5, w_coeff=1.0), Regime.BLOWUP),
    # same point without forcing mass cannot be certified as blow-up
    (_spec(3, 1.5, 2.0, 0.0, -0.5), Regime.GAP),
    # criterion 1's point, where ell is exactly 1
    (_spec(2, 3.0, 3.0, 0.0, -0.5), Regime.GLOBAL_SMALL_DATA),
    (_spec(3, 3.5, 2.0, 0.0, -0.25, w_coeff=1.0), Regime.GAP),
    # a nonempty window, but ell = 0.9019 < 1: the data cannot be measured in
    # L^ell, so the small-data theorem does not speak
    (_spec(2, 2.2875, 1.875, 0.5, -0.70625, w_coeff=0.5), Regime.GAP),
)


def test_classify_regimes():
    for spec, regime in _REGIME_CASES:
        assert classify(spec) is regime
        assert exponent_report(spec).values["regime"] is regime
    gep = gep_exponents(2, 2.2875, 1.875, 0.5, -0.70625)
    assert gep.ell < 1 and not gep.conditions["lebesgue_exponents"]
    assert r_window(2, 2.2875, 1.875, 0.5, -0.70625).nonempty


def test_a_report_evaluates_the_calculus_once(monkeypatch):
    # the report decides the regime from the values it holds, and classify
    # reads the report: one criterion, one window and one exponent pack
    # (the window takes the second pack) per report, whatever the regime
    calls = Counter()
    for name in ("blowup_criterion", "gep_exponents", "r_window"):
        def counted(*args, _f=getattr(exponents, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(exponents, name, counted)
    for spec, regime in _REGIME_CASES:
        for evaluate in (exponent_report, classify):
            calls.clear()
            evaluate(spec)
            assert calls == {"blowup_criterion": 1, "gep_exponents": 2, "r_window": 1}, (
                evaluate.__name__, regime)


def test_exponent_report_table_and_json():
    rep = exponent_report(_spec(2, 3.0, 3.0, 0.0, -0.5))
    assert rep.values["gep_threshold"] == 3.0
    assert rep.values["p_c"] == 2.0 and rep.values["ell"] == 1.0
    text = rep.table()
    lines = text.splitlines()
    assert len(lines) == 23
    assert lines[0].startswith("dim")
    assert any("regime" in ln and "global_small_data" in ln for ln in lines)
    d = rep.to_json_dict()
    assert d["regime"] == "global_small_data"
    # undefined entries print as 'undefined' and serialize as None
    rep0 = exponent_report(_spec(1, 2.0, 3.0, 0.0, 0.0))
    assert rep0.values["p_star"] is None
    assert "undefined" in rep0.table()
    # inf serializes as the string 'inf'
    repinf = exponent_report(_spec(3, 2.0, 2.0, 0.0, 0.5))
    assert repinf.to_json_dict()["p_star"] == "inf"


# One spec per None path of the report, plus criterion 1's fully defined one.
_PINNED_REPORT_SPECS = (
    _spec(2, 3.0, 3.0, 0.0, -0.5),                # criterion 1: every entry defined
    _spec(3, 2.0, 2.0, 0.0, 0.0),                 # rho = 0: p_star undefined
    _spec(3, 2.0, 2.0, 0.0, 0.5),                 # rho > 0: p_star is inf
    _spec(3, 1.5, 1.0, 1.0, -0.5, w_coeff=1.0),   # q = 1: gep pack and beta bound undefined
    _spec(3, 2.0, 1.5, 1.0, -0.5),                # empty r-window: beta_mid undefined
    _spec(2, 2.0, 3.0, 0.0, 0.5),                 # N - 2 rho - 2 < 0: gep pack undefined
)


def _pinned_reports() -> str:
    blocks = []
    for spec in _PINNED_REPORT_SPECS:
        rep = exponent_report(spec)
        blocks.append(rep.table() + "\n" + json.dumps(rep.to_json_dict(), indent=2) + "\n")
    return "\n".join(blocks)


def test_exponent_report_matches_the_pinned_text():
    golden = Path(__file__).parent / "data" / "exponents_report.txt"
    assert _pinned_reports() == golden.read_text()
