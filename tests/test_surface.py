"""The public names of the package, frozen.

Adding or removing a public name is a visible change to this list.
"""

import types

import etalab

PUBLIC_NAMES = [
    "AccuracyUnreachable", "AngleTooLarge", "ApproxDeviationReport", "AsymptoticRecord",
    "BoundCheckRecord", "ConjectureBounds", "ConjectureScanResult", "DenominatorPole",
    "EnvelopeReport", "EtalabError", "ExtremaReport", "FunctionalRatio", "KNOWN_ZEROS",
    "LimitEstimate", "MonotonicityReport", "OracleValue", "OrbitDiagnostics", "PoleError",
    "RemainderBound", "RemainderRecord", "ScanGrid", "Segment", "WindowExhausted", "ZeroCheck",
    "ZeroDenominator", "ZeroEntry", "ZeroSumEvent", "angle_threshold", "approx_deviation_scan",
    "conjecture_bounds", "containment_start", "critical_line_deviation", "detect_zero_sums",
    "envelope_diagnostics", "eta", "eta_many", "extrema_structure", "functional_ratio",
    "functional_ratio_modulus", "gamma", "limit_estimate", "load_zero_table", "log_abs_gamma",
    "nesting_gap_record", "nesting_margin", "nesting_start", "orbit_diagnostics", "partial_sum",
    "partial_sum_path", "remainder", "sandwich_report", "scan_conjecture", "scan_monotonicity",
    "segment", "shrunk_gap_record", "sum_ratio_path", "sz_relation_deviation", "turn_angle",
    "two_power_alpha_derivative", "two_power_alpha_ratio", "two_power_factor", "verify_zeros",
    "zeta", "zeta_modulus_ratio",
]


def test_public_names_are_frozen():
    # submodules are attributes once imported anywhere, so they are left out
    names = sorted(
        name for name, value in vars(etalab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
