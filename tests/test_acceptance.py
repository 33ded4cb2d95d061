"""Acceptance suite: twelve end-to-end criteria, one test each, covering the
exact exponent calculus, the Gaussian identities, the propagator suite, the
blow-up detectors, the lower-bound comparison, the analytic lemma checks, the
cross-scheme probe, and CSV determinism.  Run with -v to get one line per
criterion."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as Fr

import numpy as np
import pytest
from scipy.integrate import quad

import fujitalab as fl
from fujitalab.cli import main as cli_main
from fujitalab.field import GridField

ZERO = fl.ProfileSpec.zero()


def _gauss(c, r, dim):
    return fl.ProfileSpec.gaussian(c, r, (0.0,) * dim)


# --------------------------------------------------------------- criterion 1

def test_criterion_01_exponent_calculus_worked_point():
    t0 = time.perf_counter()
    gep = fl.gep_exponents(2, Fr(3), Fr(3), Fr(0), Fr(-1, 2))
    win = fl.r_window(2, Fr(3), Fr(3), Fr(0), Fr(-1, 2))
    b = fl.beta(2, gep.p_c, Fr(4))
    elapsed = time.perf_counter() - t0
    # frozen rational reference values, compared exactly
    assert gep.threshold == Fr(3)
    assert gep.p_c == Fr(2)
    assert gep.ell == Fr(1)
    assert (win.lo, win.hi) == (Fr(1, 6), Fr(1, 3))
    assert b == Fr(1, 4)
    assert elapsed < 1.0
    print(f"criterion 1: threshold=3 p_c=2 ell=1 window=(1/6,1/3) "
          f"beta(4)=1/4 exact in {elapsed * 1e3:.2f} ms")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_alpha_zero_reductions():
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        N = rng.randint(3, 9)
        den = rng.randint(2, 50)
        p = 1 + Fr(rng.randint(1, 5 * den), den)
        q = 1 + Fr(rng.randint(1, 7 * den), den)
        rho = -Fr(rng.randint(0, 9 * den), 10 * den)
        crit = fl.blowup_criterion(N, p, q, Fr(0), rho)
        assert crit.holds == (p < Fr(N - 2 * rho) / (N - 2 * rho - 2))
        try:
            gep = fl.gep_exponents(N, p, q, Fr(0), rho)
        except ValueError:
            continue
        assert gep.p_c == Fr(N) * (p - 1) / 2
        checked += 1
    print("criterion 2: criterion and p_c reduce exactly at alpha=0 "
          "on 1000 rational points")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_criterion_certificate_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(404)
    checked = 0
    while checked < 10000:
        N = rng.randint(3, 8)
        den = rng.randint(2, 40)
        p = 1 + Fr(rng.randint(1, 5 * den), den)
        q = 1 + Fr(rng.randint(1, 7 * den), den)
        rho = -Fr(rng.randint(0, 9 * den), 10 * den)
        # delta drawn strictly below 2/N, then alpha recovered from it
        d = Fr(2, N) * Fr(rng.randint(0, 38), 40)
        alpha = d * q / (q - 1)
        crit = fl.blowup_criterion(N, p, q, alpha, rho)
        assert crit.admissible
        theta = fl.certificate_exponent(N, p, q, alpha, rho)
        assert crit.holds == (theta < 0), (N, p, q, alpha, rho)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 3: zero sign violations on 10^4 admissible points "
          f"in {elapsed:.2f} s")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_gaussian_identities():
    unit = fl.ProfileSpec.gaussian(1.0, 1.0, (0.0,))
    root_pi = fl.profile_integral(unit, 1)
    assert root_pi == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert abs(root_pi - 1.772454) < 5e-7

    # the two-term example 0.8 e^{-x^2} - e^{-2 x^2}: closed forms are
    # sqrt(pi)(0.8 - 2^(-1/2)) and 0.8 sqrt(pi/2) - sqrt(pi/3)
    w = fl.ProfileSpec.gaussian_sum([(0.8, 1.0, (0.0,)), (-1.0, 2.0, (0.0,))])
    integral = fl.profile_integral(w, 1)
    weighted = fl.gaussian_weighted_integral(w, 1, rate=1.0)

    def w_at(x):  # pointwise reference
        return sum(t.coefficient * math.exp(-t.rate * x * x) for t in w.terms)

    num_int, err_int = quad(w_at, -np.inf, np.inf)
    num_wt, err_wt = quad(lambda x: math.exp(-x * x) * w_at(x), -np.inf, np.inf)
    assert abs(integral - num_int) <= 1e-6 * abs(num_int) + 10 * err_int
    assert abs(weighted - num_wt) <= 1e-6 * abs(num_wt) + 10 * err_wt
    assert integral == pytest.approx(
        math.sqrt(math.pi) * (0.8 - 2 ** -0.5), rel=1e-12
    )
    assert weighted == pytest.approx(
        0.8 * math.sqrt(math.pi / 2) - math.sqrt(math.pi / 3), rel=1e-12
    )
    assert abs(weighted - (-0.020675)) < 1e-6
    print(f"criterion 4: sqrt(pi)={root_pi:.6f}, example integral "
          f"{integral:.7f}, weighted {weighted:.7f}, both within 1e-6 of "
          f"adaptive quadrature")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_semigroup_suite(band_limited):
    t0 = time.perf_counter()
    t_list = (0.1, 1.0, 10.0)
    norms = (1.0, 2.0, math.inf)
    checks = 0
    for dim, M in ((1, 256), (2, 128)):
        gauss = fl.sample(_gauss(1.0, 1.0, dim), dim, 16.0, M)
        rough = band_limited(dim, 16.0, M, seed=dim)
        # nonnegative smooth variant for the positivity check
        shifted = rough.with_values(rough.values - rough.values.min() + 0.5)
        for f in (gauss, rough, shifted):
            plan = fl.HeatKernelPlan.for_field(f)
            mass0 = float(np.sum(f.values)) * f.cell_volume
            # the grid sup undersamples the interpolant's true max for the
            # random fields, so the sup-norm row is only meaningful for the
            # Gaussian, whose max sits on a grid point
            contraction_norms = norms if f is gauss else (1.0, 2.0)
            for t in t_list:
                g = fl.apply(plan, f, t)
                # semigroup law: two half steps equal one full step
                twice = fl.apply(plan, fl.apply(plan, f, t / 2), t / 2)
                assert np.max(np.abs(twice.values - g.values)) <= 1e-11
                # mass conservation
                mass = float(np.sum(g.values)) * g.cell_volume
                assert abs(mass - mass0) <= 1e-11 * (1.0 + abs(mass0))
                # positivity on nonnegative data
                if f.values.min() >= 0:
                    assert g.values.min() >= -1e-10 * max(g.values.max(), 1e-30)
                # L^a contraction
                for a in contraction_norms:
                    assert fl.lq_norm(g, a) <= fl.lq_norm(f, a) * (1 + 1e-12)
                # spectral vs dense periodized kernel
                slow = fl.apply_direct(f, t)
                rel = np.max(np.abs(g.values - slow.values)) / np.max(
                    np.abs(slow.values)
                )
                assert rel < 1e-6, (dim, t, rel)
                checks += 1
            # smoothing estimate for every ordered (a, b) pair
            for a in norms:
                for b in norms:
                    inv_a = 0 if a == math.inf else 1 / a
                    inv_b = 0 if b == math.inf else 1 / b
                    if inv_b > inv_a:
                        continue
                    rows = fl.smoothing_check(f, a, b, t_list)
                    assert all(r.passed for r in rows), (dim, a, b, rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5: law/mass/positivity/contraction/smoothing/direct "
          f"agree over {checks} propagator evaluations in {elapsed:.1f} s")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_ode_blowup_oracle():
    spec = fl.ProblemSpec(1, 2.0, 2.0, 0.0, 0.0, ZERO, ZERO)
    u0 = GridField(1, 8.0, np.ones(16))
    cfg = fl.SolverConfig(dt0=1e-3, t_end=2.0, blowup_threshold=1e8)
    rec = fl.run_from_fields(spec, u0, None, cfg, fl.HeatKernelPlan.for_field(u0))
    assert rec.verdict is fl.Verdict.BLOWUP_DETECTED
    assert abs(rec.blowup_time_estimate - 1.0) <= 0.05
    print(f"criterion 6: constant-field p=2 run estimates T* = "
          f"{rec.blowup_time_estimate:.4f} (true 1, within 5%)")


# --------------------------------------------------------------- criterion 7

def _p_sweep_verdicts(amplitude, p_values):
    verdicts = []
    for p in p_values:
        spec = fl.ProblemSpec(1, float(p), 2.0, 0.0, 0.0,
                              _gauss(amplitude, 1.0, 1), ZERO)
        rec = fl.run(spec, fl.SolverConfig(dt0=0.02, t_end=12.0),
                     fl.BoxGeometry(16.0, 256))
        verdicts.append(rec.verdict.value)
    return verdicts


def test_criterion_07_fujita_transition():
    t0 = time.perf_counter()
    p_values = np.linspace(1.4, 3.2, 10)
    transitions = {}
    for amplitude in (0.4, 0.8):
        verdicts = _p_sweep_verdicts(amplitude, p_values)
        # single transition: a (possibly empty) block of blow-ups, then
        # completions; no interleaving
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1, verdicts
        assert verdicts[0] == "blowup_detected" and verdicts[-1] == "completed"
        p_hat = float(p_values[verdicts.index("completed")])
        transitions[amplitude] = p_hat
    # larger data blow up over a wider p range, moving the observed
    # transition upward; this is the finite-data signature of the
    # subcritical-all-blow-up vs supercritical-small-data dichotomy
    assert transitions[0.8] > transitions[0.4]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 7: single transitions at p_hat={transitions[0.4]:.2f} "
          f"(A=0.4) and p_hat={transitions[0.8]:.2f} (A=0.8) in {elapsed:.1f} s")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_forced_blowup_pair():
    w = _gauss(0.5, 1.0, 3)
    geometry = fl.BoxGeometry(16.0, 32)
    blow = fl.ProblemSpec(3, 2.0, 2.0, 0.0, 0.0, ZERO, w)
    rec = fl.run(blow, fl.SolverConfig(dt0=0.25, t_end=120.0), geometry)
    assert rec.verdict is fl.Verdict.BLOWUP_DETECTED
    # T* pinned to the bit: a change that claims the same numbers must keep it
    assert rec.blowup_time_estimate == float.fromhex("0x1.6ec0469900000p+5")
    assert len(rec.times) - 1 == 429
    assert rec.metadata["blowup_by"] == "threshold"
    # the work of this run: w, the state and one load per accepted state
    # forward, one inverse per attempt (429 accepted + 33 rejected); rho = 0
    # puts every forcing factor at dt/2, so m(dt) and m(dt/2) per step size
    assert rec.metadata["rejections"] == {"growth": 33, "overflow": 0}
    assert rec.metadata["counts"] == {"forward_transforms": 431,
                                      "inverse_transforms": 462, "multipliers": 80}

    safe = fl.ProblemSpec(3, 4.0, 2.0, 0.0, 0.0, ZERO, w)
    rec2 = fl.run(safe, fl.SolverConfig(dt0=0.25, t_end=20.0), geometry)
    assert rec2.verdict is fl.Verdict.COMPLETED
    assert rec2.times[-1] == pytest.approx(20.0)
    print(f"criterion 8: p=2 forced run blows up (T* ~ "
          f"{rec.blowup_time_estimate:.1f}), p=4 run completes to t=20")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_lower_bound_on_forced_runs():
    reports = []
    for dim, amp, M in ((1, 0.5, 256), (2, 0.4, 128)):
        u0 = _gauss(amp, 1.0, dim)
        w = _gauss(0.2, 2.0, dim)
        cert = fl.w_condition_check(w, dim)
        assert cert.holds_kernel_nonneg and cert.integral_positive
        spec = fl.ProblemSpec(dim, 4.0, 2.0, 0.0, -0.5, u0, w)
        rec = fl.run(spec, fl.SolverConfig(dt0=0.02, t_end=10.0),
                     fl.BoxGeometry(16.0, M))
        assert rec.verdict is fl.Verdict.COMPLETED
        # 500 fixed steps: m(dt) and m(dt/2) once, m(theta) per step
        assert rec.metadata["counts"] == {"forward_transforms": 502,
                                          "inverse_transforms": 500, "multipliers": 502}
        tol = 0.02 + rec.metadata["truncation_bound"]
        rep = fl.comparison_lower_bound(u0, rec, 2.0, dim=dim, tol=tol,
                                        forcing_certified=True)
        assert rep.skipped is None
        assert rep.passed and len(rep.rows) > 0
        reports.append((dim, min(r.margin / r.bound for r in rep.rows)))
    print("criterion 9: recorded q-norms clear the kernel lower bound; "
          + ", ".join(f"dim {d}: min margin {m:.3f}x" for d, m in reports))


# -------------------------------------------------------------- criterion 10

def test_criterion_10_verify_suite_green():
    t0 = time.perf_counter()
    assert cli_main(["verify"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 10: all analytic lemma checks PASS in {elapsed:.1f} s")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_cross_scheme_uniqueness():
    spec = fl.ProblemSpec(1, 2.0, 2.0, 1.0, 0.0, _gauss(0.05, 1.0, 1), ZERO)
    rep = fl.uniqueness_probe(spec, T=0.1)
    assert rep.passed
    assert all(r >= 1.8 for r in rep.ratios), rep.ratios
    print("criterion 11: Picard vs stepper discrepancy contracts by "
          + ", ".join(f"{r:.2f}x" for r in rep.ratios)
          + " per (dt, h) halving")


# -------------------------------------------------------------- criterion 12

def test_criterion_12_sweep_determinism(tmp_path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "dim": 1, "p": 2.0, "q": 2.0, "alpha": 0.0, "rho": 0.0,
        "u0": {"kind": "gaussian_sum", "terms": [[0.6, 1.0, [0.0]]]},
        "w": {"kind": "zero", "terms": []},
    }))
    blobs = {}
    for jobs in ("1", "8"):
        out_prefix = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            [sys.executable, "-m", "fujitalab.cli", "sweep",
             "--spec", str(spec_path), "--axis", "p=1.5:3.0:6",
             "--t-end", "2.0", "--dt0", "0.05", "--points", "128",
             "--jobs", jobs, "--out-prefix", str(out_prefix)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs[jobs] = (tmp_path / f"jobs{jobs}.csv").read_bytes()
    assert blobs["1"] == blobs["8"]
    print(f"criterion 12: sweep CSVs byte-identical across --jobs 1/8 "
          f"({len(blobs['1'])} bytes)")
