"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its elapsed
time (run pytest with -s to see them inline).  Tolerances are pinned
here, not configurable.
"""

import math
import random
import time

import numpy as np

import etalab
from etalab import (
    approx_deviation_scan,
    critical_line_deviation,
    detect_zero_sums,
    eta,
    functional_ratio_modulus,
    gamma,
    nesting_margin,
    orbit_diagnostics,
    partial_sum_path,
    sandwich_report,
    scan_conjecture,
    sum_ratio_path,
    two_power_alpha_derivative,
    ScanGrid,
)
from etalab.cli import main as cli_main

TWO_PI_LN2 = 2.0 * math.pi / math.log(2.0)

def report(number, description, ok, started, limit_seconds):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}  {description}  [{elapsed:.2f}s]")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < 3.0 * limit_seconds, f"criterion {number} exceeded {limit_seconds}s budget"

def test_criterion_01_oracle_values_at_the_mirrored_points():
    t0 = time.perf_counter()
    left = eta(0.404 + 147.0j).value
    right = eta(0.596 + 147.0j).value
    ok = (
        abs(left.real - 1.816326) < 5e-6
        and abs(left.imag - 0.457761) < 5e-6
        and abs(right.real - 1.124161) < 5e-6
        and abs(right.imag - 0.568465) < 5e-6
    )
    report(1, "eta at 0.404+147i and 0.596+147i to printed six decimals", ok, t0, 1.0)

def test_criterion_02_known_zero_magnitudes():
    t0 = time.perf_counter()
    first = abs(eta(complex(0.5, 14.13472514)).value)
    sixth = abs(eta(complex(0.5, 37.586178)).value)
    ok = first < 1e-6 and sixth < 1e-5
    report(2, f"|eta| at the first ({first:.1e}) and sixth ({sixth:.1e}) zero ordinates", ok, t0, 1.0)

def test_criterion_03_margin_transition_index():
    t0 = time.perf_counter()
    s = 0.50567 + 37.58631j
    ns = np.arange(24, 2399)
    margin = nesting_margin(ns, s)
    positive = ns[margin > 0.0]
    ok = positive.size > 0 and positive[0] == 1398 and np.all(margin[ns >= 1398] > 0.0)
    report(3, "first positive nesting margin at n = 1398, stable through 2398", ok, t0, 1.0)

def test_criterion_04_remainder_sandwich_three_points():
    t0 = time.perf_counter()
    ok = True
    for s in (0.5 + 20.0j, 0.404 + 147.0j, 0.25 + 40.0j):
        diag = orbit_diagnostics(s, 0.5)
        start = diag.sandwich_start + 1
        records = sandwich_report(s, 0.5, start, start + 4999, diagnostics=diag)
        ok = ok and len(records) == 5000 and bool(records.holds.all())
    report(4, "sandwich (1-eps)/(2 n^sigma) < |R_n| < n^(-sigma) on (m, m+5000]", ok, t0, 30.0)

def test_criterion_05_critical_line_identity():
    t0 = time.perf_counter()
    worst = max(
        critical_line_deviation(t)
        for t in (1.0, 5.0, 14.134725, TWO_PI_LN2, 50.0, 100.0)
    )
    report(5, f"max ||P(1/2+it)| - 1| = {worst:.1e} over the six ordinates", worst < 1e-9, t0, 1.0)

def test_criterion_06_gamma_modulus_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.1, 50.0, 100):
        want = math.sqrt(math.pi / math.cosh(math.pi * float(t)))
        worst = max(worst, abs(abs(gamma(complex(0.5, float(t)))) - want) / want)
    report(6, f"|Gamma(1/2+it)| vs sqrt(pi/cosh(pi t)), worst rel {worst:.1e}", worst < 1e-10, t0, 1.0)

def test_criterion_07_approximation_deviations():
    t0 = time.perf_counter()
    upper = approx_deviation_scan("upper-approx", 1e-4)
    lower = approx_deviation_scan("lower-approx", 1e-4)
    ok = (
        abs(upper.max_deviation - 1.75e-4) < 0.05 * 1.75e-4
        and abs(lower.max_deviation - 5.75e-3) < 0.05 * 5.75e-3
        and upper.violations == 0
        and lower.violations == 0
    )
    report(
        7,
        f"two-power approximations deviate {upper.max_deviation:.3e} / {lower.max_deviation:.3e}",
        ok, t0, 5.0,
    )

def test_criterion_08_conjecture_grid_scan():
    t0 = time.perf_counter()
    result = scan_conjecture(ScanGrid())  # alpha {0,...,0.45} x t [2pi+1, 120] step 0.25
    ok = (
        len(result.records) == ScanGrid().cardinality
        and result.violations == []
        and result.skipped == []
    )
    report(8, f"ratio bounds hold at all {len(result.records)} grid points", ok, t0, 300.0)

def test_criterion_09_alpha_monotonicity():
    t0 = time.perf_counter()
    alphas = np.arange(0.0, 0.50, 0.01)
    ok = True
    for t in (2.0 * math.pi + 1.0, 20.0, 60.0, 120.0):
        values = [functional_ratio_modulus(complex(0.5 - a, t)) for a in alphas]
        ok = ok and all(b < a for a, b in zip(values, values[1:]))
    report(9, "|P(1/2 - alpha + it)| strictly decreasing at four heights", ok, t0, 10.0)

def test_criterion_10_zero_sum_events():
    t0 = time.perf_counter()
    s_a = 0.4412 + 147.0517j
    s_b = 0.50567 + 37.58631j
    mags_a = np.abs(partial_sum_path(s_a, 200))
    argmin_a = int(np.argmin(mags_a)) + 1
    mags_b = np.abs(partial_sum_path(s_b, 1600))
    argmin_b = int(np.argmin(mags_b[1399:1600])) + 1400
    unique_a = sum(e.beyond_nesting for e in detect_zero_sums(s_a, 10**5))
    unique_b = sum(e.beyond_nesting for e in detect_zero_sums(s_b, 10**5))
    ok = (
        argmin_a == 35
        and mags_a[34] < 1e-2
        and argmin_b == 1516
        and mags_b[1515] < 1e-2
        and unique_a <= 1
        and unique_b <= 1
    )
    report(10, "vanishing partial sums at n = 35 and n = 1516; uniqueness to 1e5", ok, t0, 20.0)

def test_criterion_11_ratio_convergence_and_envelope():
    t0 = time.perf_counter()
    s = 0.404 + 147.0j
    ratios, _, skipped = sum_ratio_path(s, 10**6)
    limit = eta(0.596 + 147.0j).value / eta(0.404 + 147.0j).value
    modulus_ok = abs(abs(ratios[-1]) - 0.67252) < 1e-3
    deviation = np.abs(ratios - limit)
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    normalized = deviation * n**0.404
    envelope_k = 2.0 * normalized[5000:20000].max()  # calibrated around n = 1e4
    envelope_ok = bool(np.all(normalized[10**4 - 1 :] <= envelope_k))
    ok = skipped == [] and modulus_ok and envelope_ok
    report(
        11,
        f"|P_1e6| = {abs(ratios[-1]):.5f} vs 0.67252; envelope K = {envelope_k:.3f} holds to 1e6",
        ok, t0, 30.0,
    )

def test_criterion_12_zeta_ratio_identity():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(0.02, 0.47)
        t = rng.uniform(2.0 * math.pi + 1.0, 120.0)
        worst = max(worst, etalab.sz_relation_deviation(alpha, t))
    report(12, f"eta-ratio identity worst deviation {worst:.1e} over 50 samples", worst < 1e-8, t0, 10.0)

def test_criterion_13_two_power_derivative_signs():
    t0 = time.perf_counter()
    rng = random.Random(31)
    ok = True
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.49)
        t = rng.uniform(2.0 * math.pi + 1.0, 120.0)
        ok = ok and two_power_alpha_derivative(alpha, t) < 0.0
    boundary = abs(two_power_alpha_derivative(0.5, TWO_PI_LN2))
    ok = ok and boundary < 1e-4
    report(13, f"derivative negative at 100 interior points; |d| = {boundary:.1e} at the null", ok, t0, 5.0)

def test_criterion_14_scan_determinism_across_threads(tmp_path, capsys):
    t0 = time.perf_counter()
    out_one = tmp_path / "one.csv"
    out_eight = tmp_path / "eight.csv"
    base = ["scan", "--which", "conjecture"]
    code_one = cli_main(base + ["--threads", "1", "--out", str(out_one)])
    code_eight = cli_main(base + ["--threads", "8", "--out", str(out_eight)])
    capsys.readouterr()
    ok = code_one == 0 and code_eight == 0 and out_one.read_bytes() == out_eight.read_bytes()
    report(14, "default-grid scan byte-identical at --threads 1 and 8", ok, t0, 600.0)
