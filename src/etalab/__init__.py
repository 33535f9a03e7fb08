"""Numerical laboratory for the Dirichlet eta function in the critical strip.

The package evaluates the alternating series sum (-1)^(n-1) n^(-s) and
everything computable around it: streaming partial sums and their
segment geometry, accelerated reference values for eta and zeta with
certified error bounds, the disk-nesting construction that sandwiches
remainder magnitudes between (1-eps)/(2 n^sigma) and n^(-sigma), the
functional-equation ratio P(s) with its critical-line and monotonicity
identities, the mirrored partial-sum ratio sequence and its limit, and
grid scans of the conjectured ratio bounds.
"""

from .errors import (
    AccuracyUnreachable,
    AngleTooLarge,
    DenominatorPole,
    EtalabError,
    PoleError,
    WindowExhausted,
    ZeroDenominator,
)
from .series import (
    Segment,
    partial_sum,
    partial_sum_path,
    segment,
    turn_angle,
)
from .oracle import (
    OracleValue,
    RemainderRecord,
    eta,
    eta_many,
    remainder,
    zeta,
)
from .orbit import (
    OrbitDiagnostics,
    RemainderBound,
    angle_threshold,
    containment_start,
    nesting_margin,
    nesting_start,
    orbit_diagnostics,
    sandwich_report,
)
from .functional import (
    ApproxDeviationReport,
    ConjectureBounds,
    FunctionalRatio,
    approx_deviation_scan,
    conjecture_bounds,
    critical_line_deviation,
    functional_ratio,
    functional_ratio_modulus,
    gamma,
    log_abs_gamma,
    sz_relation_deviation,
    two_power_alpha_derivative,
    two_power_alpha_ratio,
    two_power_factor,
    zeta_modulus_ratio,
)
from .ratios import (
    EnvelopeReport,
    LimitEstimate,
    ZeroSumEvent,
    detect_zero_sums,
    envelope_diagnostics,
    limit_estimate,
    sum_ratio_path,
)
from .scans import (
    BoundCheckRecord,
    ConjectureScanResult,
    ExtremaReport,
    MonotonicityReport,
    ScanGrid,
    extrema_structure,
    scan_conjecture,
    scan_monotonicity,
)
from .asymptotics import AsymptoticRecord, nesting_gap_record, shrunk_gap_record
from .zeros import KNOWN_ZEROS, ZeroCheck, ZeroEntry, load_zero_table, verify_zeros

__version__ = "0.1.0"
