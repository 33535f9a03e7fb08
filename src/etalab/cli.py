"""Command-line surface.

Subcommands: eta, zeta, path-export, orbit, sandwich, ratio, scan,
verify-zeros, approx-deviation.  Exit codes: 0 success, 1 property
violation found, 2 accuracy failure, 3 I/O failure.

Common flags may also come from a flat key=value config file pointed to
by the ETALAB_CONFIG environment variable; explicit flags win.  Output
is byte-deterministic for a given configuration.  Scans run serially;
--threads is accepted (and must be >= 1) for compatibility only.

A call builds the parser of its own subcommand only; --help, a missing
or an unknown subcommand builds all of them.  A scan records one dict as
its JSON config and hashes it, with the command, into its cache key: the
precision, the scan kind and the axes that kind reads.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import fields

import numpy as np

from . import asymptotics, functional, orbit, ratios, scans, zeros
from . import oracle
from .config import RunConfig, resolve_config
from .emitters import CacheStore, json_document, render_csv, render_json, write_text
from .errors import (
    AccuracyUnreachable,
    AngleTooLarge,
    DenominatorPole,
    PoleError,
    WindowExhausted,
    ZeroDenominator,
    axis,
    check_alpha_range,
    check_at_least,
    check_ceiling,
    check_points,
    check_positive,
)
from .series import partial_sum_path


def _add_common(sub):
    sub.add_argument("--precision", type=float, default=None, help="oracle target error (default 1e-9)")
    sub.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--cache-dir", default=None, help="directory for the result cache")
    sub.add_argument("--threads", type=int, default=None, help="accepted for compatibility; scans run serially")


def _point_args(p):
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)


def _path_export_args(p):
    _point_args(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)


def _orbit_args(p):
    _point_args(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--window", type=int, default=None)


def _sandwich_args(p):
    _orbit_args(p)
    p.add_argument("--n-max", type=int, default=1000, help="indices checked beyond the sandwich start")
    p.add_argument("--with-asymptotics", action="store_true", help="append leading-term cross-check columns")


def _ratio_args(p):
    _point_args(p)
    p.add_argument("--n-max", type=int, default=100000)
    p.add_argument(
        "--zero-threshold", type=float, default=ratios.ZERO_SUM_THRESHOLD,
        help="zero-sum detection threshold (loosen to ~1e-2 for points printed to few decimals)",
    )


def _scan_args(p):
    p.add_argument("--which", choices=("conjecture", "monotonicity", "extrema"), default="conjecture")
    p.add_argument("--grid-alpha-from", "--alpha-from", dest="grid_alpha_from", type=float, default=None)
    p.add_argument("--grid-alpha-to", "--alpha-to", dest="grid_alpha_to", type=float, default=None)
    p.add_argument("--grid-alpha-step", "--alpha-step", dest="grid_alpha_step", type=float, default=None)
    p.add_argument("--grid-t-from", "--t-from", dest="grid_t_from", type=float, default=None)
    p.add_argument("--grid-t-to", "--t-to", dest="grid_t_to", type=float, default=None)
    p.add_argument("--grid-t-step", "--t-step", dest="grid_t_step", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None, help="single alpha (extrema scans, or a one-value alpha axis)")
    p.add_argument("--t", type=float, default=None, help="fixed t for monotonicity scans")


def _verify_zeros_args(p):
    p.add_argument("--table", default=None, help="CSV file ordinal,t (default: embedded table)")


def _approx_deviation_args(p):
    p.add_argument("--which", choices=("upper-approx", "lower-approx", "both"), default="both")
    p.add_argument("--step", type=float, default=1e-4, help="sigma grid step")


def _deliver(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _table(cfg: RunConfig, command: str, config: dict, header, rows, **scan) -> str:
    """A table as CSV (header + rows) or as a JSON document.

    Scan tables pass ``violations`` and ``skipped`` and get the scan
    schema; every other table carries its header in the table schema.
    """
    if cfg.format != "json":
        return render_csv(header, rows)
    data = {"command": command, "rows": [list(r) for r in rows], **scan}
    if not scan:
        data["header"] = list(header)
    schema = "etalab/scan/v1" if scan else "etalab/table/v1"
    return render_json(json_document(schema, config, data))


def _rows(text: str, fmt: str) -> list:
    """The data rows of rendered CSV or JSON table output, as field lists."""
    if fmt == "json":
        return json.loads(text)["data"]["rows"]
    return [line.split(",") for line in text.strip().split("\n")[1:]]


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    op = "+" if z.imag >= 0 else "-"
    return f"{z.real!r} {op} {abs(z.imag)!r}i"


def _value_output(cfg: RunConfig, command: str, s: complex, value: oracle.OracleValue) -> str:
    # at the CLI the flag is judged against the precision the user asked
    # for, not only the (usually much tighter) achieved certificate
    flagged = value.zero_indistinguishable or abs(value.value) < 10.0 * cfg.precision
    if cfg.format == "json":
        doc = json_document(
            "etalab/value/v1",
            {"sigma": s.real, "t": s.imag, "precision": cfg.precision},
            {
                "command": command,
                "value": {"re": value.value.real, "im": value.value.imag},
                "abs_error_bound": value.abs_error_bound,
                "zero_indistinguishable": flagged,
            },
        )
        return render_json(doc)
    lines = [
        _fmt_complex(value.value),
        f"abs_error_bound = {value.abs_error_bound!r}",
    ]
    if flagged:
        lines.append("zero-indistinguishable")
    return "\n".join(lines) + "\n"


def cmd_value(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    value = (oracle.eta if args.command == "eta" else oracle.zeta)(s, cfg.precision)
    _deliver(_value_output(cfg, args.command, s, value), cfg.out)
    return 0


def cmd_path_export(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    check_ceiling(args.n_max)
    check_points(s.real, s.imag)
    path = partial_sum_path(s, args.n_max, args.stride)
    rows = zip(range(1, args.n_max + 1, args.stride), path.real.tolist(), path.imag.tolist())
    config = {"sigma": s.real, "t": s.imag, "n_max": args.n_max, "stride": args.stride}
    _deliver(_table(cfg, "path-export", config, ("n", "re", "im"), rows), cfg.out)
    return 0


def cmd_orbit(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    diag = orbit.orbit_diagnostics(s, cfg.epsilon, cfg.window)
    first_positive = max(diag.nesting_start + 1, diag.acute_start)
    spot = orbit.sandwich_report(
        s, cfg.epsilon, diag.sandwich_start + 1, diag.sandwich_start + 100,
        cfg.precision, diag,
    )
    spot_ok = all(rec.holds for rec in spot)
    lines = [
        f"acute_start = {diag.acute_start}",
        f"nesting_start = {diag.nesting_start}",
        f"first_positive_margin = {first_positive}",
        f"containment_start = {diag.containment_start}",
        f"sandwich_start = {diag.sandwich_start}",
        f"epsilon = {diag.epsilon!r}",
        f"verified_window = {diag.verified_window}",
        f"margin_flips = {diag.margin_flips}",
        f"sandwich_spot_check = {'pass' if spot_ok else 'FAIL'} ({len(spot)} indices)",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if cfg.out:
        lo = diag.acute_start
        hi = diag.sandwich_start + diag.verified_window
        trace = orbit.nesting_margin(np.arange(lo, hi + 1), s)
        rows = [(n, float(v)) for n, v in zip(range(lo, hi + 1), trace)]
        write_text(cfg.out, render_csv(("n", "margin"), rows))
    return 0


def cmd_sandwich(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    check_ceiling(args.n_max)  # the report holds a path of n_max indices and more
    check_at_least("n_max", args.n_max, 1)
    diag = orbit.orbit_diagnostics(s, cfg.epsilon, cfg.window)
    start = diag.sandwich_start + 1
    report = orbit.sandwich_report(
        s, cfg.epsilon, start, start + args.n_max - 1, cfg.precision, diag
    )
    header = ["n", "lower", "measured", "upper", "holds"]
    rows = [(rec.n, rec.lower, rec.measured, rec.upper, "true" if rec.holds else "false")
            for rec in report]
    if args.with_asymptotics:
        ns = np.arange(start, start + len(report))
        full = asymptotics.nesting_gap_record(ns, s)
        half = asymptotics.shrunk_gap_record(ns, s, cfg.epsilon)
        columns = zip(*(a.tolist() for a in (full.exact, full.leading, full.ratio,
                                              half.exact, half.leading, half.ratio)))
        rows = [row + extra for row, extra in zip(rows, columns)]
        header.extend(["gap_exact", "gap_leading", "gap_ratio",
                       "shrunk_exact", "shrunk_leading", "shrunk_ratio"])
    config = {"precision": cfg.precision, "epsilon": cfg.epsilon, "window": cfg.window,
              "sigma": s.real, "t": s.imag, "n_max": args.n_max}
    _deliver(_table(cfg, "sandwich", config, header, rows), cfg.out)
    failures = [rec for rec in report if not rec.holds]
    if failures:
        sys.stderr.write(f"sandwich violations: {len(failures)} of {len(report)}\n")
        return 1
    sys.stderr.write(
        f"sandwich holds on ({diag.sandwich_start}, {diag.sandwich_start + args.n_max}]"
        f" at epsilon = {cfg.epsilon!r}\n"
    )
    return 0


def cmd_ratio(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    check_at_least("n_max", args.n_max, 2)
    check_ceiling(args.n_max)
    check_positive("zero-sum threshold", args.zero_threshold)
    ratio = functional.functional_ratio(s)  # checks s and 0 < sigma < 1 before the sweep
    nesting = orbit.nesting_start(s)
    env_from = max(1, args.n_max - 200)
    events = []

    def collect(lo, mags):
        events.extend(ratios._zero_events(mags, lo, args.zero_threshold, nesting))

    tail, mag, _ = ratios.sum_ratio_path(s, args.n_max, n_from=env_from, on_block=collect)
    estimate = ratios._limit(tail, mag, args.n_max)
    envelope = ratios._envelope(tail, env_from, args.n_max, functional.functional_ratio_modulus(s))
    doc = json_document(
        "etalab/ratio/v1",
        {"sigma": s.real, "t": s.imag, "n_max": args.n_max, "precision": cfg.precision},
        {
            "command": "ratio",
            "limit": {
                "re": estimate.value.real,
                "im": estimate.value.imag,
                "modulus": abs(estimate.value),
                "n_used": estimate.n_used,
                "residual": estimate.residual,
                "zero_flag": estimate.zero_flag,
            },
            "functional_ratio": {
                "re": ratio.value.real,
                "im": ratio.value.imag,
                "modulus": abs(ratio.value),
            },
            "zero_events": [
                {"n": e.n, "magnitude": e.magnitude, "beyond_nesting": e.beyond_nesting}
                for e in events
            ],
            "envelope": {
                "n_from": envelope.n_from,
                "n_to": envelope.n_to,
                "limit_modulus": envelope.limit_modulus,
                "alternation_rate": envelope.alternation_rate,
                "run_lengths": {str(k): v for k, v in envelope.run_lengths.items()},
            },
        },
    )
    _deliver(render_json(doc), cfg.out)
    return 0


def cmd_scan(args, cfg: RunConfig) -> int:
    cache = CacheStore(cfg.cache_dir) if cfg.cache_dir else None
    alpha_axis = (cfg.grid_alpha_from, cfg.grid_alpha_to, cfg.grid_alpha_step)
    if args.alpha is not None:
        # one-point alpha axis; any positive step yields a single value
        alpha_axis = (args.alpha, args.alpha, 1.0)

    if args.which == "conjecture":
        grid = scans.ScanGrid(*alpha_axis, cfg.grid_t_from, cfg.grid_t_to, cfg.grid_t_step)
        extra = {"grid": [grid.alpha_from, grid.alpha_to, grid.alpha_step,
                          grid.t_from, grid.t_to, grid.t_step]}
        header = ("alpha", "t", "ratio", "lower", "upper", "pass_lower", "pass_upper")

        def table():
            result = scans.scan_conjecture(grid, cfg.precision)
            if result.skipped:
                sys.stderr.write(f"skipped {len(result.skipped)} zero-indistinguishable points\n")
            if result.informational:
                sys.stderr.write("note: t range extends below 2*pi + 1; bounds are informational there\n")
            rows = [
                (r.alpha, r.t, r.ratio, r.lower, r.upper,
                 "true" if r.pass_lower else "false", "true" if r.pass_upper else "false")
                for r in result.records
            ]
            violations = [[r.alpha, r.t, r.ratio, r.lower, r.upper] for r in result.violations]
            return rows, violations, [[p.alpha, p.t, p.reason] for p in result.skipped]

        def verify_row(fields) -> bool:
            alpha, t = float(fields[0]), float(fields[1])
            point = scans.scan_conjecture(scans.ScanGrid(alpha, alpha, 1.0, t, t, 1.0), cfg.precision)
            stored = tuple(float(f) for f in fields[2:5])
            return [(r.ratio, r.lower, r.upper) for r in point.records] == [stored]

        def count_violations(rows) -> int:
            return sum("false" in row for row in rows)

    elif args.which == "monotonicity":
        if args.t is None:
            raise ValueError("scan --which monotonicity requires --t")
        check_alpha_range(*alpha_axis[:2])
        alphas = axis(*alpha_axis, "alpha").tolist()
        extra = {"t": args.t, "grid": list(alpha_axis)}
        header = ("alpha", "modulus")

        def table():
            report = scans.scan_monotonicity(args.t, alphas)
            violations = [] if report.strictly_decreasing else [list(report.first_violation)]
            return list(zip(alphas, report.values)), violations, []

        def verify_row(fields) -> bool:
            s = complex(0.5 - float(fields[0]), args.t)
            return functional.functional_ratio_modulus(s) == float(fields[1])

        def count_violations(rows) -> int:
            values = [float(row[1]) for row in rows]
            return sum(1 for a, b in zip(values, values[1:]) if not b < a)

    else:  # extrema
        if args.alpha is None:
            raise ValueError("scan --which extrema requires --alpha")
        t_step = min(cfg.grid_t_step, 0.01)
        extra = {"alpha": args.alpha, "grid": [cfg.grid_t_from, cfg.grid_t_to, t_step]}
        header = ("kind", "t", "ratio", "nearest_multiple", "distance")

        def table():
            report = scans.extrema_structure(
                args.alpha, cfg.grid_t_from, cfg.grid_t_to, t_step, cfg.precision
            )
            rows = [("min", r.t, r.ratio, r.nearest_multiple, r.distance) for r in report.minima]
            rows += [("max", r.t, r.ratio, r.nearest_multiple, r.distance) for r in report.maxima]
            rows.sort(key=lambda r: r[1])
            return rows, [], []

        def verify_row(fields) -> bool:
            # the axis may reach t <= 0, where a conjecture scan has no bounds
            t = float(fields[1])
            num, den = (abs(oracle.eta(complex(sigma, t), cfg.precision).value)
                        for sigma in (0.5 + args.alpha, 0.5 - args.alpha))
            return num / den == float(fields[2])

        def count_violations(rows) -> int:
            return 0

    config = {"precision": cfg.precision, "which": args.which, **extra}

    def compute():
        rows, violations, skipped = table()
        return _table(cfg, "scan", config, header, rows, violations=violations, skipped=skipped), rows

    text, rows = _cached_scan(cache, {"command": "scan", **config}, cfg.format, compute, verify_row)
    _deliver(text, cfg.out)
    violations = count_violations(rows)
    if violations:
        sys.stderr.write(f"scan violations: {violations}\n")
        return 1
    return 0


def _cached_scan(cache, params, fmt, compute, verify_row):
    """Scan output and its rows, served from the cache when one random row re-verifies.

    ``compute()`` returns the text and the rows it rendered; a cache hit
    parses its text once, for the spot check and for the caller.
    """
    if cache is None:
        return compute()
    key = CacheStore.key(params)
    payload = cache.get(key, fmt)
    if payload is not None:
        text = payload.decode()
        rows = _rows(text, fmt)
        if not rows or verify_row(rows[random.Random(key).randrange(len(rows))]):
            return text, rows
        sys.stderr.write("cache integrity check failed; recomputing\n")
    text, rows = compute()
    cache.put(key, fmt, text.encode())
    return text, rows


def cmd_verify_zeros(args, cfg: RunConfig) -> int:
    entries = zeros.load_zero_table(args.table) if args.table else None
    checks = zeros.verify_zeros(entries, cfg.precision)
    header = ("ordinal", "t", "magnitude", "abs_error_bound", "zero_indistinguishable", "is_zero_like")
    rows = [
        (c.ordinal, c.t, c.magnitude, c.abs_error_bound,
         "true" if c.zero_indistinguishable else "false",
         "true" if c.is_zero_like else "false")
        for c in checks
    ]
    config = {"precision": cfg.precision, "table": args.table or "embedded"}
    _deliver(_table(cfg, "verify-zeros", config, header, rows), cfg.out)
    not_zero = [c for c in checks if not c.is_zero_like]
    for c in not_zero:
        sys.stderr.write(f"ordinal {c.ordinal}: |eta(1/2 + {c.t}i)| = {c.magnitude:.3e} marked not-a-zero\n")
    return 1 if not_zero else 0


def cmd_approx_deviation(args, cfg: RunConfig) -> int:
    which = ("upper-approx", "lower-approx") if args.which == "both" else (args.which,)
    reports = [functional.approx_deviation_scan(w, args.step) for w in which]
    header = ("which", "max_deviation", "argmax_sigma", "violations", "grid_step")
    rows = [(r.which, r.max_deviation, r.argmax_sigma, r.violations, r.grid_step) for r in reports]
    _deliver(_table(cfg, "approx-deviation", {"step": args.step}, header, rows), cfg.out)
    return 1 if any(r.violations for r in reports) else 0


# name -> (help, argument adder, handler), in the order --help lists them
COMMANDS = {
    "eta": ("evaluate eta(s) with a certified error bound", _point_args, cmd_value),
    "zeta": ("evaluate zeta(s) = eta(s)/(1 - 2^(1-s))", _point_args, cmd_value),
    "path-export": ("partial-sum path as CSV rows n,re,im", _path_export_args, cmd_path_export),
    "orbit": ("disk-nesting diagnostics and margin trace", _orbit_args, cmd_orbit),
    "sandwich": ("remainder sandwich records beyond the start index", _sandwich_args, cmd_sandwich),
    "ratio": ("partial-sum ratio limit report (JSON)", _ratio_args, cmd_ratio),
    "scan": ("grid scans: conjecture bounds, monotonicity, extrema", _scan_args, cmd_scan),
    "verify-zeros": ("check |eta(1/2 + it)| over a zero table", _verify_zeros_args, cmd_verify_zeros),
    "approx-deviation": ("deviation of the elementary bound approximations",
                         _approx_deviation_args, cmd_approx_deviation),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for one subcommand, or for all of them when ``command`` is None.

    A one-subcommand parser parses that subcommand's command lines to the
    same namespace, and prints the same help, usage and error messages,
    as the whole tree: its subcommand metavar spells out every name.
    """
    # --help leaves out the docstring's last paragraph, which is about how
    # this module works (there is no docstring under python -OO)
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = argparse.ArgumentParser(prog="etalab", description=description)
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_text, add_args, handler = COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        add_args(p)
        _add_common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # help, a missing or an unknown subcommand needs the whole tree
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        # every subcommand resolves, and so checks, the whole configuration
        cfg = resolve_config({f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
        return args.handler(args, cfg)
    except (AccuracyUnreachable, DenominatorPole, PoleError, WindowExhausted, ZeroDenominator) as exc:
        sys.stderr.write(f"accuracy failure: {exc}\n")
        return 2
    except (AngleTooLarge, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
