"""The input domain: each rule of etalab.errors, refused alike by the rule and by an entry point.

Every case calls a rule with a bad value, then a public entry point
that reaches the rule with the same value, and compares both messages
with the expected text.  The orbit kernel, the summation kernel and
the oracle's certification are patched to raise, so a case also shows
that the entry point refuses before it computes anything.
"""

import math

import pytest

from etalab import (
    ScanGrid,
    approx_deviation_scan,
    conjecture_bounds,
    containment_start,
    detect_zero_sums,
    eta_many,
    extrema_structure,
    functional_ratio,
    limit_estimate,
    nesting_margin,
    nesting_start,
    orbit_diagnostics,
    partial_sum_path,
    sandwich_report,
    scan_monotonicity,
    sum_ratio_path,
    turn_angle,
)
from etalab import cli, errors, oracle, orbit, ratios, series
from etalab.config import resolve_config
from etalab.orbit import OrbitDiagnostics

S = 0.5 + 20.0j
DIAG = OrbitDiagnostics(1, 10, 10, 10, 0.5, 1000, 0)  # a sandwich start without a sweep

CASES = [
    # rule, its arguments, an entry point that reaches it, the message of both
    pytest.param(errors.check_points, ([0.5, -1.0], 1.0), lambda: eta_many([0.5, -1.0], 1.0),
                 "eta oracle requires Re(s) > 0, got -1.0", id="eta_many-point"),
    pytest.param(errors.check_points, (0.5, 500.0), lambda: nesting_margin(1000, 0.5 + 500.0j),
                 "|Im(s)| = 500 outside the supported range <= 200", id="nesting_margin-point"),
    pytest.param(errors.check_points, (math.nan, 20.0), lambda: functional_ratio(complex(math.nan, 20.0)),
                 "eta oracle requires finite s, got (nan+20j)", id="functional_ratio-point"),
    pytest.param(errors.check_at_least, ("window", 0, 1), lambda: nesting_start(S, window=0),
                 "window must be >= 1, got 0", id="nesting_start-window"),
    pytest.param(errors.check_in, ("scale", 0.0, "(0, 1]"), lambda: containment_start(S, 0.0),
                 "scale must lie in (0, 1], got 0.0", id="containment_start-scale"),
    pytest.param(errors.check_in, ("epsilon", 1.5, "(0, 1)"), lambda: orbit_diagnostics(S, 1.5),
                 "epsilon must lie in (0, 1), got 1.5", id="orbit_diagnostics-epsilon"),
    pytest.param(errors.check_at_least, ("window", -3, 1), lambda: orbit_diagnostics(S, 0.5, window=-3),
                 "window must be >= 1, got -3", id="orbit_diagnostics-window"),
    pytest.param(errors.check_target, (1e-14,), lambda: sandwich_report(S, 0.5, 11, 20, 1e-14, DIAG),
                 "target_error must be >= 1e-13", id="sandwich_report-target"),
    pytest.param(errors.check_target, (1.0,), lambda: sandwich_report(S, 0.5, 11, 20, 1.0, DIAG),
                 "target_error must be < 1, got 1.0", id="sandwich_report-target-cap"),
    pytest.param(errors.check_n_from, (11, 10), lambda: sum_ratio_path(0.3 + 20.0j, 10, n_from=11),
                 "need 1 <= n_from <= n_max, got n_from = 11, n_max = 10", id="sum_ratio_path-n_from"),
    pytest.param(errors.check_positive, ("zero-sum threshold", math.nan), lambda: sum_ratio_path(S, 10, math.nan),
                 "zero-sum threshold must be finite and positive, got nan", id="sum_ratio_path-threshold"),
    pytest.param(errors.check_at_least, ("n_max", 1, 2), lambda: limit_estimate(S, 1),
                 "n_max must be >= 2, got 1", id="limit_estimate-n_max"),
    pytest.param(errors.check_ceiling, (10**7 + 1,), lambda: detect_zero_sums(S, 10**7 + 1),
                 "n_max must be <= 1e+07", id="detect_zero_sums-ceiling"),
    pytest.param(errors.check_at_least, ("stride", 0, 1), lambda: partial_sum_path(S, 10, 0),
                 "stride must be >= 1, got 0", id="partial_sum_path-stride"),
    pytest.param(errors.check_in, ("alpha", 0.5, "[0, 1/2)"), lambda: extrema_structure(0.5, 10.0, 12.0),
                 "alpha must lie in [0, 1/2), got 0.5", id="extrema_structure-alpha"),
    pytest.param(errors.check_finite, ("t", math.inf), lambda: scan_monotonicity(math.inf, [0.1, 0.2]),
                 "t must be finite, got inf", id="scan_monotonicity-finite"),
    pytest.param(errors.check_im, (300.0,), lambda: scan_monotonicity(-300.0, [0.1, 0.2]),
                 "|Im(s)| = 300 outside the supported range <= 200", id="scan_monotonicity-im"),
    pytest.param(errors.check_conjugated, ("turn_angle", -1.0), lambda: turn_angle(5, -1.0),
                 "turn_angle is defined for t >= 0; conjugate first", id="turn_angle-t"),
    pytest.param(errors.check_positive, ("t", 0.0), lambda: conjecture_bounds(0.2, 0.0),
                 "t must be finite and positive, got 0.0", id="conjecture_bounds-t"),
    pytest.param(errors.check_alpha_range, (0.3, 0.2), lambda: ScanGrid(alpha_from=0.3, alpha_to=0.2),
                 "alpha range must satisfy 0 <= from <= to < 1/2", id="ScanGrid-alpha_range"),
    pytest.param(errors.check_grid_size, (4501 * 1901,), lambda: ScanGrid(0.0, 0.45, 1e-4, 10.0, 200.0, 0.1),
                 "grid has 8556401 points, more than 1000000", id="ScanGrid-grid_size"),
    pytest.param(errors.axis_count, (7.0, 120.0, 1e-9, "t"), lambda: ScanGrid(t_from=7.0, t_step=1e-9),
                 "t_step 1e-09 gives more than 1000000 points on [7.0, 120.0]", id="ScanGrid-axis"),
    pytest.param(errors.axis_count, (0, 0.5, 1e-7, "grid"), lambda: approx_deviation_scan("upper-approx", 1e-7),
                 "grid_step 1e-07 gives more than 1000000 points on [0, 0.5]", id="approx_deviation_scan"),
    pytest.param(errors.check_target, (math.nan,), lambda: resolve_config({"precision": math.nan}),
                 "target_error must be finite, got nan", id="resolve_config-precision"),
    pytest.param(errors.check_target, (1e308,), lambda: resolve_config({"precision": 1e308}),
                 "target_error must be < 1, got 1e+308", id="resolve_config-precision-cap"),
    pytest.param(errors.check_in, ("format", "xml", "{csv, json}"), lambda: resolve_config({"format": "xml"}),
                 "format must lie in {csv, json}, got xml", id="resolve_config-format"),
]


@pytest.fixture(autouse=True)
def nothing_computed(monkeypatch):
    def compute(*args, **kwargs):
        raise AssertionError("computed before the input was refused")

    monkeypatch.setattr(orbit, "_geometry", compute)
    monkeypatch.setattr(oracle, "_certify", compute)
    for module in (series, ratios):  # the summation kernel, where each looks it up
        monkeypatch.setattr(module, "_sum_blocks", compute)
    monkeypatch.delenv("ETALAB_CONFIG", raising=False)


@pytest.mark.parametrize("rule,args,entry,message", CASES)
def test_rule_and_entry_point_refuse_alike(rule, args, entry, message):
    with pytest.raises(ValueError) as by_rule:
        rule(*args)
    with pytest.raises(ValueError) as by_entry:
        entry()
    assert str(by_rule.value) == message
    assert str(by_entry.value) == message


def test_the_cli_checks_with_the_same_rules():
    for name in ("check_at_least", "check_ceiling", "check_points", "check_positive"):
        assert getattr(cli, name) is getattr(errors, name)
    assert cli.resolve_config is resolve_config


def test_good_values_pass():
    sig, t = errors.check_points([0.5, 2.0], 200.0)
    assert sig.tolist() == [0.5, 2.0] and t.tolist() == [200.0, 200.0]
    assert errors.axis_count(0, 0.5, 1e-4, "grid") == 5001
    for rule, args in ((errors.check_at_least, ("n", 2, 2)), (errors.check_ceiling, (10**7,)),
                       (errors.check_n_from, (1, 0)), (errors.check_in, ("alpha", 0.0, "[0, 1/2)")),
                       (errors.check_positive, ("x", 5e-324)), (errors.check_target, (1e-13,)),
                       (errors.check_im, (200.0,)), (errors.check_grid_size, (10**6,))):
        assert rule(*args) is None
