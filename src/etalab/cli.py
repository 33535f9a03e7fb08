"""Command-line surface.

Subcommands: eta, zeta, path-export, orbit, sandwich, ratio, scan,
verify-zeros, approx-deviation.  Exit codes: 0 success, 1 property
violation found, 2 accuracy failure or invalid input, 3 I/O failure.

Each subcommand takes --out and the settings flags it reads.  A flat
key=value file named by ETALAB_CONFIG may set any setting; explicit
flags win.  Output is byte-deterministic for a given configuration.
Scans run serially; scan --threads is accepted for compatibility only.

A call builds the parser of its own subcommand only; --help, a missing
or an unknown subcommand builds all of them.  Tables travel as columns.
A scan records one dict as its JSON config and hashes it, with the
command, into its cache key: the precision, the scan kind and the axes
that kind reads.  Its notes and exit code follow from the grid and the
rows, cold or re-served.
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
    check_in,
    check_points,
    check_positive,
)
from .series import partial_sum_path


_SETTINGS = {  # in --help order
    "--precision": {"type": float, "help": "oracle target error (default 1e-9)"},
    "--format": {"choices": ("csv", "json"), "help": "output format"},
    "--out": {"help": "output path (default stdout)"},
    "--cache-dir": {"help": "directory for the result cache"},
    "--threads": {"type": int, "help": "accepted for compatibility; scans run serially"},
}


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


def _table(cfg: RunConfig, command: str, config: dict, header, columns, **scan) -> str:
    """A table, given as its header and columns, as CSV or as a JSON document of rows.

    Scan tables pass ``violations`` and ``skipped`` and get the scan
    schema; every other table carries its header in the table schema.
    """
    if cfg.format != "json":
        return render_csv(header, columns)
    data = {"command": command, "rows": [list(r) for r in zip(*columns)], **scan}
    if not scan:
        data["header"] = list(header)
    schema = "etalab/scan/v1" if scan else "etalab/table/v1"
    return render_json(json_document(schema, config, data))


def _columns(text: str, fmt: str, width: int) -> list[list]:
    """The `width` columns of rendered CSV or JSON table output, as field lists."""
    rows = json.loads(text)["data"]["rows"] if fmt == "json" else [r.split(",") for r in text.strip().split("\n")[1:]]
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]


def _fields(records, names) -> list[list]:
    """The named attributes of records, as columns."""
    return [[getattr(r, name) for r in records] for name in names]


def _flags(values) -> list[str]:
    """Booleans as table cells."""
    return ["true" if v else "false" for v in values]


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
    columns = [range(1, args.n_max + 1, args.stride), path.real.tolist(), path.imag.tolist()]
    config = {"sigma": s.real, "t": s.imag, "n_max": args.n_max, "stride": args.stride}
    _deliver(_table(cfg, "path-export", config, ("n", "re", "im"), columns), cfg.out)
    return 0


def cmd_orbit(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    diag = orbit.orbit_diagnostics(s, cfg.epsilon, cfg.window)
    first_positive = max(diag.nesting_start + 1, diag.acute_start)
    spot = orbit.sandwich_report(s, cfg.epsilon, diag.sandwich_start + 1, diag.sandwich_start + 100,
                                 cfg.precision, diag)
    spot_ok = bool(spot.holds.all())
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
        ns = np.arange(diag.acute_start, diag.sandwich_start + diag.verified_window + 1)
        write_text(cfg.out, render_csv(("n", "margin"), [ns.tolist(), orbit.nesting_margin(ns, s).tolist()]))
    return 0


def cmd_sandwich(args, cfg: RunConfig) -> int:
    s = complex(args.sigma, args.t)
    check_ceiling(args.n_max)  # the report holds a path of n_max indices and more
    check_at_least("n_max", args.n_max, 1)
    # orbit_diagnostics' checks, then the decidability test where the report ends at the earliest
    check_in("epsilon", cfg.epsilon, "(0, 1)")
    eta = oracle.eta(s, cfg.precision)
    check_at_least("window", cfg.window, 1)
    orbit.check_decidable(s, cfg.epsilon, orbit.angle_threshold(abs(s.imag)) + args.n_max - 1, eta)
    diag = orbit.orbit_diagnostics(s, cfg.epsilon, cfg.window)
    start = diag.sandwich_start + 1
    report = orbit.sandwich_report(s, cfg.epsilon, start, start + args.n_max - 1, cfg.precision, diag, eta)
    holds = report.holds
    header = ["n", "lower", "measured", "upper", "holds"]
    columns = [*(a.tolist() for a in (report.n, report.lower, report.measured, report.upper)), _flags(holds.tolist())]
    if args.with_asymptotics:
        full = asymptotics.nesting_gap_record(report.n, s)
        half = asymptotics.shrunk_gap_record(report.n, s, cfg.epsilon)
        columns += [a.tolist() for a in (full.exact, full.leading, full.ratio,
                                         half.exact, half.leading, half.ratio)]
        header.extend(["gap_exact", "gap_leading", "gap_ratio",
                       "shrunk_exact", "shrunk_leading", "shrunk_ratio"])
    config = {"precision": cfg.precision, "epsilon": cfg.epsilon, "window": cfg.window,
              "sigma": s.real, "t": s.imag, "n_max": args.n_max}
    _deliver(_table(cfg, "sandwich", config, header, columns), cfg.out)
    failures = len(report) - int(np.count_nonzero(holds))
    if failures:
        sys.stderr.write(f"sandwich violations: {failures} of {len(report)}\n")
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
    envelope = ratios._envelope(tail, env_from, args.n_max, abs(ratio.value))
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
            r = result.records
            columns = [r.alpha, r.t, r.ratio, r.lower, r.upper, _flags(r.pass_lower), _flags(r.pass_upper)]
            violations = [[r.alpha[i], r.t[i], r.ratio[i], r.lower[i], r.upper[i]] for i in result.violations]
            return columns, violations, [[p.alpha, p.t, p.reason] for p in result.skipped]

        def verify_row(columns, i) -> bool:
            alpha, t = float(columns[0][i]), float(columns[1][i])
            r = scans.scan_conjecture(scans.ScanGrid(alpha, alpha, 1.0, t, t, 1.0), cfg.precision).records
            return list(zip(r.ratio, r.lower, r.upper)) == [tuple(float(c[i]) for c in columns[2:5])]

        def verdict(columns) -> int:
            # the grid and the rows decide the notes, so a warm re-serve prints them too
            if skipped := grid.cardinality - len(columns[0]):
                sys.stderr.write(f"skipped {skipped} zero-indistinguishable points\n")
            if grid.t_from < scans.CONJECTURED_T_FROM:
                sys.stderr.write("note: t range extends below 2*pi + 1; bounds are informational there\n")
            return sum("false" in flags for flags in zip(columns[5], columns[6]))

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
            return [alphas, report.values], violations, []

        def verify_row(columns, i) -> bool:
            s = complex(0.5 - float(columns[0][i]), args.t)
            return functional.functional_ratio_modulus(s) == float(columns[1][i])

        def verdict(columns) -> int:
            values = [float(v) for v in columns[1]]
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
            tagged = sorted([("min", r) for r in report.minima] + [("max", r) for r in report.maxima],
                            key=lambda kind_record: kind_record[1].t)
            return [[kind for kind, _ in tagged], *_fields([r for _, r in tagged], header[1:])], [], []

        def verify_row(columns, i) -> bool:
            # the axis may reach t <= 0, where a conjecture scan has no bounds
            t = float(columns[1][i])
            num, den = (abs(oracle.eta(complex(sigma, t), cfg.precision).value)
                        for sigma in (0.5 + args.alpha, 0.5 - args.alpha))
            return num / den == float(columns[2][i])

        def verdict(columns) -> int:
            return 0

    config = {"precision": cfg.precision, "which": args.which, **extra}

    def compute():
        columns, violations, skipped = table()
        return _table(cfg, "scan", config, header, columns, violations=violations, skipped=skipped), columns

    params = {"command": "scan", **config}
    text, columns = _cached_scan(cache, params, cfg.format, len(header), compute, verify_row)
    violations = verdict(columns)
    _deliver(text, cfg.out)
    if violations:
        sys.stderr.write(f"scan violations: {violations}\n")
        return 1
    return 0


def _cached_scan(cache, params, fmt, width, compute, verify_row):
    """Scan output and its columns, served from the cache when one random row re-verifies.

    ``compute()`` returns the text and the columns it rendered; a cache
    hit parses its `width` columns once, for ``verify_row(columns, i)``
    and for the caller.
    """
    if cache is None:
        return compute()
    key = CacheStore.key(params)
    payload = cache.get(key, fmt)
    if payload is not None:
        text = payload.decode()
        columns = _columns(text, fmt, width)
        if not columns[0] or verify_row(columns, random.Random(key).randrange(len(columns[0]))):
            return text, columns
        sys.stderr.write("cache integrity check failed; recomputing\n")
    text, columns = compute()
    cache.put(key, fmt, text.encode())
    return text, columns


def cmd_verify_zeros(args, cfg: RunConfig) -> int:
    entries = zeros.load_zero_table(args.table) if args.table else None
    checks = zeros.verify_zeros(entries, cfg.precision)
    header = ("ordinal", "t", "magnitude", "abs_error_bound", "zero_indistinguishable", "is_zero_like")
    columns = _fields(checks, header[:4]) + [_flags(c) for c in _fields(checks, header[4:])]
    config = {"precision": cfg.precision, "table": args.table or "embedded"}
    _deliver(_table(cfg, "verify-zeros", config, header, columns), cfg.out)
    not_zero = [c for c in checks if not c.is_zero_like]
    for c in not_zero:
        sys.stderr.write(f"ordinal {c.ordinal}: |eta(1/2 + {c.t}i)| = {c.magnitude:.3e} marked not-a-zero\n")
    return 1 if not_zero else 0


def cmd_approx_deviation(args, cfg: RunConfig) -> int:
    which = ("upper-approx", "lower-approx") if args.which == "both" else (args.which,)
    reports = [functional.approx_deviation_scan(w, args.step) for w in which]
    header = ("which", "max_deviation", "argmax_sigma", "violations", "grid_step")
    _deliver(_table(cfg, "approx-deviation", {"step": args.step}, header, _fields(reports, header)), cfg.out)
    return 1 if any(r.violations for r in reports) else 0


# name -> (help, argument adder, handler, the _SETTINGS flags it reads besides --out), in --help order
COMMANDS = {
    "eta": ("evaluate eta(s) with a certified error bound", _point_args, cmd_value, ("--precision", "--format")),
    "zeta": ("evaluate zeta(s) = eta(s)/(1 - 2^(1-s))", _point_args, cmd_value, ("--precision", "--format")),
    "path-export": ("partial-sum path as CSV rows n,re,im", _path_export_args, cmd_path_export, ("--format",)),
    "orbit": ("disk-nesting diagnostics and margin trace", _orbit_args, cmd_orbit, ("--precision",)),
    "sandwich": ("remainder sandwich records beyond the start index", _sandwich_args, cmd_sandwich,
                 ("--precision", "--format")),
    "ratio": ("partial-sum ratio limit report (JSON)", _ratio_args, cmd_ratio, ("--precision",)),
    "scan": ("grid scans: conjecture bounds, monotonicity, extrema", _scan_args, cmd_scan,
             ("--precision", "--format", "--cache-dir", "--threads")),
    "verify-zeros": ("check |eta(1/2 + it)| over a zero table", _verify_zeros_args, cmd_verify_zeros,
                     ("--precision", "--format")),
    "approx-deviation": ("deviation of the elementary bound approximations",
                         _approx_deviation_args, cmd_approx_deviation, ("--format",)),
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
        help_text, add_args, handler, settings = COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        add_args(p)
        for flag, options in _SETTINGS.items():
            if flag == "--out" or flag in settings:
                p.add_argument(flag, **options)
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
