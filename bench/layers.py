"""Which etalab functions the traced run wraps, and the per-layer metrics.

Each layer of etalab is measured at its public functions, wrapped at the
name where their callers look them up: ``cli`` imports ``render_csv``,
``render_json``, ``partial_sum_path`` and ``resolve_config`` into its own
namespace, so those are wrapped there (and ``partial_sum_path`` again in ``orbit``);
everything else is reached through its module.

Counts are per round of the job list, so they do not depend on how many
rounds fit in a run.  A layer the workload never reaches reports 0.
"""

from __future__ import annotations

import math
import statistics
import sys

from tracing import Tracer, self_times


def _param(args, kwargs, position: int, keyword: str, default=None):
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position] if len(args) > position else default


def _arg(position: int, keyword: str):
    def work(args, kwargs, result):
        return _param(args, kwargs, position, keyword)
    return work


def _orbit_indices(args, kwargs, diag):
    """Indices the orbit scans certify: acute_start .. sandwich_start + window."""
    return diag.sandwich_start + diag.verified_window - diag.acute_start + 1


def _abs_t(args, kwargs, result):
    return abs(complex(args[0]).imag)


def _scan(args, kwargs, result):
    threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
    return {"points": len(result.records) + len(result.skipped), "threads": threads,
            "t_from": args[0].t_from}


def _extrema_samples(args, kwargs, result):
    """Samples on the t-axis, as ``scans._axis(t_from, t_to, t_step)`` counts them."""
    t_from, t_to = _param(args, kwargs, 1, "t_from"), _param(args, kwargs, 2, "t_to")
    t_step = _param(args, kwargs, 3, "t_step", 0.01)
    return math.floor((t_to - t_from) / t_step + 1e-9) + 1


def _length(args, kwargs, result):
    return len(result)


# (module, attribute path, span name, work(args, kwargs, result) kept on the span)
TARGETS = [
    ("etalab.cli", "main", "cli.main", None),
    ("etalab.cli", "resolve_config", "config.resolve_config", None),
    ("etalab.cli", "render_csv", "emitters.render_csv", _length),
    ("etalab.cli", "render_json", "emitters.render_json", _length),
    ("etalab.emitters", "CacheStore.get", "emitters.cache_get", None),
    ("etalab.cli", "partial_sum_path", "series.partial_sum_path", _arg(1, "n_max")),
    ("etalab.orbit", "partial_sum_path", "series.partial_sum_path", _arg(1, "n_max")),
    ("etalab.oracle", "eta", "oracle.eta", _abs_t),
    ("etalab.functional", "conjecture_bounds", "functional.conjecture_bounds", None),
    ("etalab.functional", "functional_ratio", "functional.functional_ratio", None),
    ("etalab.functional", "functional_ratio_modulus", "functional.functional_ratio_modulus", None),
    ("etalab.ratios", "limit_estimate", "ratios.limit_estimate", _arg(1, "n_max")),
    ("etalab.ratios", "detect_zero_sums", "ratios.detect_zero_sums", _arg(1, "n_max")),
    ("etalab.ratios", "envelope_diagnostics", "ratios.envelope_diagnostics", _arg(2, "n_to")),
    ("etalab.ratios", "sum_ratio_path", "ratios.sum_ratio_path", _arg(1, "n_max")),
    ("etalab.orbit", "orbit_diagnostics", "orbit.orbit_diagnostics", _orbit_indices),
    ("etalab.orbit", "sandwich_report", "orbit.sandwich_report", _length),
    ("etalab.orbit", "nesting_start", "orbit.nesting_start", None),
    ("etalab.scans", "scan_conjecture", "scans.scan_conjecture", _scan),
    ("etalab.scans", "extrema_structure", "scans.extrema_structure", _extrema_samples),
    ("etalab.asymptotics", "nesting_gap_record", "asymptotics.records", None),
    ("etalab.asymptotics", "shrunk_gap_record", "asymptotics.records", None),
    ("etalab.zeros", "verify_zeros", "zeros.verify_zeros", _length),
]


def install() -> Tracer:
    targets = []
    for module, path, name, work in TARGETS:
        owner = sys.modules[module]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        targets.append((owner, attr, name, work))
    tracer = Tracer()
    tracer.install(targets)
    return tracer


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, rounds) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced rounds."""
    spans = [s for s in tracer.spans if s.end is not None]
    own = self_times(spans)
    n_rounds = len(rounds)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def work(name):
        return sum(s.work for s in by_name.get(name, ()))

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, ())) / n_rounds

    def per_call(name, scale, pick=None):
        picked = [s for s in by_name.get(name, ()) if pick is None or pick(s)]
        return per(sum(s.duration for s in picked), len(picked), scale)

    def per_index(name):
        return per(busy(name), work(name), 1e9)

    scans = by_name.get("scans.scan_conjecture", ())
    speedups = []
    for k in {s.round for s in scans}:
        one = {s.work["t_from"]: s.duration for s in scans if s.round == k and s.work["threads"] == 1}
        for s in scans:
            if s.round == k and s.work["threads"] == 2 and s.work["t_from"] in one:
                speedups.append(s.duration / one[s.work["t_from"]])

    ratio_jobs = calls("job.ratio")
    csv_bytes = work("emitters.render_csv")
    json_bytes = work("emitters.render_json")
    return {
        "series.partial_sum_path.ns_per_index": (per_index("series.partial_sum_path"), "ns/index"),
        "series.partial_sum_path.indices": (work("series.partial_sum_path") / n_rounds, "count"),
        "oracle.eta.calls": (calls("oracle.eta") / n_rounds, "count"),
        "oracle.eta.us_per_call_low_t": (per_call("oracle.eta", 1e6, lambda s: s.work < 60.0), "us"),
        "oracle.eta.us_per_call_high_t": (per_call("oracle.eta", 1e6, lambda s: s.work >= 120.0), "us"),
        "oracle.eta.self_s": (self_s("oracle.eta"), "s"),
        "ratios.limit_estimate.ns_per_index": (per_index("ratios.limit_estimate"), "ns/index"),
        "ratios.detect_zero_sums.ns_per_index": (per_index("ratios.detect_zero_sums"), "ns/index"),
        "ratios.envelope_diagnostics.ns_per_index": (per_index("ratios.envelope_diagnostics"), "ns/index"),
        "ratios.passes_per_job": (
            per(calls("ratios.sum_ratio_path") + calls("ratios.detect_zero_sums"), ratio_jobs), "count"),
        "orbit.orbit_diagnostics.ms_per_call": (per_call("orbit.orbit_diagnostics", 1e3), "ms"),
        "orbit.orbit_diagnostics.indices_per_s": (
            per(work("orbit.orbit_diagnostics"), busy("orbit.orbit_diagnostics")), "indices/s"),
        "orbit.sandwich_report.rows_per_s": (
            per(work("orbit.sandwich_report"), busy("orbit.sandwich_report")), "rows/s"),
        "orbit.nesting_start.calls": (calls("orbit.nesting_start") / n_rounds, "count"),
        "functional.conjecture_bounds.us_per_call": (per_call("functional.conjecture_bounds", 1e6), "us"),
        "functional.functional_ratio.us_per_call": (per_call("functional.functional_ratio", 1e6), "us"),
        "functional.functional_ratio_modulus.us_per_call": (
            per_call("functional.functional_ratio_modulus", 1e6), "us"),
        "scans.scan_conjecture.points_per_s": (
            per(sum(s.work["points"] for s in scans), busy("scans.scan_conjecture")), "points/s"),
        "scans.scan_conjecture.self_s": (self_s("scans.scan_conjecture"), "s"),
        "scans.scan_conjecture.threads2_over_threads1": (median(speedups), "ratio"),
        "scans.extrema_structure.points_per_s": (
            per(work("scans.extrema_structure"), busy("scans.extrema_structure")), "points/s"),
        "asymptotics.records_per_s": (per(calls("asymptotics.records"), busy("asymptotics.records")),
                                      "records/s"),
        "emitters.render_csv.mb_per_s": (per(csv_bytes, busy("emitters.render_csv"), 1e-6), "MB/s"),
        "emitters.render_csv.bytes": (csv_bytes / n_rounds, "bytes"),
        "emitters.render_json.mb_per_s": (per(json_bytes, busy("emitters.render_json"), 1e-6), "MB/s"),
        "emitters.cache_get_us": (per_call("emitters.cache_get", 1e6), "us"),
        "zeros.verify_zeros.us_per_entry": (per(busy("zeros.verify_zeros"), work("zeros.verify_zeros"), 1e6),
                                            "us"),
        "config.resolve_config.us_per_call": (per_call("config.resolve_config", 1e6), "us"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
