"""Checks of every job's output against the mpmath references.

Each ``check_<kind>`` takes the job, the bytes it produced (stdout, or
its ``--out`` file) as text, and a ``random.Random`` that picks the
sampled rows; it returns a list of problems, empty when the output is
correct.  Tolerances follow from the precision the command certifies
(``--precision``, 1e-9 by default) and from the summation error of
double-precision partial sums; each is spelled out where it is used.
"""

from __future__ import annotations

import json
import math
import operator
import random

import reference
import workloads

PRECISION = 1e-9            # the CLI's default --precision
EPS = 2.0**-52
PI_OVER_LN2 = math.pi / math.log(2.0)
ROW_SAMPLES = 4             # reference-checked rows per conjecture window
PATH_SAMPLES = 8
SANDWICH_SAMPLES = 12
CONJECTURE_HEADER = "alpha,t,ratio,lower,upper,pass_lower,pass_upper"
EXTREMA_HEADER = "kind,t,ratio,nearest_multiple,distance"
ZEROS_HEADER = "ordinal,t,magnitude,abs_error_bound,zero_indistinguishable,is_zero_like"
SANDWICH_HEADER = ("n,lower,measured,upper,holds,gap_exact,gap_leading,gap_ratio,"
                   "shrunk_exact,shrunk_leading,shrunk_ratio")


def sum_allowance(n: int, t: float) -> float:
    """Error allowed in a double partial sum S_n at height t.

    Each term carries a phase t ln n rounded to double, and the rounding
    errors of n terms add up like a random walk; the observed error stays
    below a fifth of this on the sampled regions.
    """
    return 4.0 * EPS * math.sqrt(n) * (1.0 + abs(t) * math.log(n + 1.0)) + 1e-15


def ratio_tolerance(ratio: float, den_abs: float, b: float = PRECISION) -> float:
    """Largest |computed - true| for |num|/|den| from two values certified to b."""
    return (b + ratio * b) / (den_abs - b) + 1e-13 * ratio


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _table(text: str, header: str) -> list[list[str]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row with {len(row)} fields: {row}")
    return rows


def _flag(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"flag {value!r}")
    return value == "true"


def _judge_flag(problems, where, name, flag, bound, ratio, tol, holds):
    """Compare a pass flag with holds(ratio, bound) unless ratio is within tol of bound."""
    if abs(ratio - bound) > tol and flag != holds(ratio, bound):
        problems.append(f"{where}: {name} = {flag} but ratio {ratio!r} vs bound {bound!r}")


# ---------------------------------------------------------------- strip-scan

def check_conjecture(job, text, rng):
    problems = []
    rows = _table(text, CONJECTURE_HEADER)
    expected = workloads.STRIP_ALPHAS * workloads.STRIP_T_COUNT
    if len(rows) != expected:
        return [f"{len(rows)} rows, grid has {expected} points"]
    t_from = job.meta["t_from"]
    above, below = operator.ge, operator.le  # pass_lower: ratio >= lower; pass_upper: ratio <= upper
    for i, row in enumerate(rows):
        j, k = divmod(i, workloads.STRIP_ALPHAS)
        alpha, t, ratio, lower, upper = (float(x) for x in row[:5])
        pass_lower, pass_upper = _flag(row[5]), _flag(row[6])
        where = f"row {i + 1}"
        if abs(alpha - 0.05 * k) > 1e-12 or abs(t - (t_from + workloads.STRIP_T_STEP * j)) > 1e-9:
            problems.append(f"{where}: point ({alpha}, {t}) is not grid point ({j}, {k})")
            continue
        lower_ref, upper_ref = reference.conjecture_bounds(alpha, t)
        if not (_close(lower, lower_ref, 1e-13) and _close(upper, upper_ref, 1e-13)):
            problems.append(f"{where}: bounds ({lower}, {upper}) vs reference ({lower_ref}, {upper_ref})")
        tol = 1e-12 * ratio
        _judge_flag(problems, where, "pass_lower", pass_lower, lower_ref, ratio, tol, above)
        _judge_flag(problems, where, "pass_upper", pass_upper, upper_ref, ratio, tol, below)
    for i in sorted(rng.sample(range(len(rows)), ROW_SAMPLES)):
        row = rows[i]
        alpha, t, ratio = float(row[0]), float(row[1]), float(row[2])
        ref = reference.eta_ratio_modulus(alpha, t)
        tol = ratio_tolerance(ref, reference.eta_abs(0.5 - alpha, t))
        where = f"row {i + 1}"
        if abs(ratio - ref) > tol:
            problems.append(f"{where}: ratio {ratio!r} vs reference {ref!r} (tolerance {tol:.2e})")
        lower_ref, upper_ref = reference.conjecture_bounds(alpha, t)
        _judge_flag(problems, where, "pass_lower", _flag(row[5]), lower_ref, ref, tol, above)
        _judge_flag(problems, where, "pass_upper", _flag(row[6]), upper_ref, ref, tol, below)
    return problems


def check_extrema(job, text, rng):
    problems = []
    rows = _table(text, EXTREMA_HEADER)
    alpha, t_from, t_to = job.meta["alpha"], job.meta["t_from"], job.meta["t_to"]
    kinds = [row[0] for row in rows]
    if kinds.count("min") < 2 or kinds.count("max") < 2:
        problems.append(f"{kinds.count('min')} minima and {kinds.count('max')} maxima in a "
                        f"{t_to - t_from:g}-wide window")
    previous = -math.inf
    for i, row in enumerate(rows):
        where = f"row {i + 1}"
        kind, t, ratio, k, distance = row[0], float(row[1]), float(row[2]), int(row[3]), float(row[4])
        if kind not in ("min", "max"):
            problems.append(f"{where}: kind {kind!r}")
            continue
        steps = (t - t_from) / 0.01
        if not (t_from < t < t_to) or abs(steps - round(steps)) > 1e-6 or t < previous:
            problems.append(f"{where}: t = {t!r} off the ascending 0.01 grid inside ({t_from}, {t_to})")
        previous = t
        if k % 2 != (0 if kind == "min" else 1):
            problems.append(f"{where}: {kind} carries multiple {k}")
        ref_distance = abs(t - k * PI_OVER_LN2)
        if abs(distance - ref_distance) > 1e-12 * (1.0 + t) or distance > PI_OVER_LN2 + 1e-9:
            problems.append(f"{where}: distance {distance!r} vs |t - {k} pi/ln 2| = {ref_distance!r}")
        ref = reference.eta_ratio_modulus(alpha, t)
        tol = ratio_tolerance(ref, reference.eta_abs(0.5 - alpha, t))
        if abs(ratio - ref) > tol:
            problems.append(f"{where}: ratio {ratio!r} vs reference {ref!r} (tolerance {tol:.2e})")
    return problems


def check_verify_zeros(job, text, rng):
    problems = []
    rows = _table(text, ZEROS_HEADER)
    ordinals = job.meta["ordinals"]
    if [int(row[0]) for row in rows] != ordinals:
        return [f"ordinals {[row[0] for row in rows]} vs table {ordinals}"]
    for row, k, t in zip(rows, ordinals, job.meta["ts"]):
        if float(row[1]) != t:
            problems.append(f"ordinal {k}: t = {row[1]} vs zetazero {t!r}")
        if not _flag(row[5]) or not float(row[2]) < 1e-4:
            problems.append(f"ordinal {k}: zero at t = {t!r} not zero-like (|eta| = {row[2]})")
        _flag(row[4])
    return problems


# ------------------------------------------------------------ mirrored-ratio

def _mirrored_p(n, sigma, t):
    """P_n = S_n(1 - sigma + it) / S_n(sigma + it) and its error allowance."""
    num = reference.partial_sum(n, 1.0 - sigma, t)
    den = reference.partial_sum(n, sigma, t)
    value = num / den
    e = sum_allowance(n, t)
    return value, (e + abs(value) * e) / (abs(den) - e)


def check_ratio(job, text, rng):
    problems = []
    doc = json.loads(text)
    sigma, t, n = job.meta["sigma"], job.meta["t"], job.meta["n_max"]
    if doc.get("schema") != "etalab/ratio/v1":
        problems.append(f"schema {doc.get('schema')!r}")
    config = doc["config"]
    if (config["sigma"], config["t"], config["n_max"]) != (sigma, t, n):
        problems.append(f"config {config}")
    data = doc["data"]
    limit = data["limit"]
    value = complex(limit["re"], limit["im"])

    p_n, tol_n = _mirrored_p(n, sigma, t)
    p_m, tol_m = _mirrored_p(n - 1, sigma, t)
    rebuilt = 0.5 * (p_n + p_m)
    if abs(value - rebuilt) > max(tol_n, tol_m):
        problems.append(f"limit {value!r} vs (P_n + P_(n-1))/2 = {rebuilt!r}")
    if abs(limit["residual"] - abs(p_n - p_m)) > tol_n + tol_m:
        problems.append(f"residual {limit['residual']!r} vs |P_n - P_(n-1)| = {abs(p_n - p_m)!r}")
    if not _close(limit["modulus"], abs(value), 1e-15) or limit["n_used"] != n or limit["zero_flag"]:
        problems.append(f"limit fields {limit}")

    eta_s = reference.eta(sigma, t)
    eta_mirror = reference.eta(1.0 - sigma, t)
    big_l = eta_mirror / eta_s
    for m in (n, n - 1):
        r_s = abs(reference.remainder(m, sigma, t))
        r_mirror = abs(reference.remainder(m, 1.0 - sigma, t))
        bound = (r_mirror + abs(big_l) * r_s) / (abs(eta_s) - r_s)
        if abs(value - big_l) > bound + max(tol_n, tol_m):
            problems.append(f"|limit - L| = {abs(value - big_l):.3e} exceeds the remainder bound "
                            f"{bound:.3e} at n = {m}")

    p_ref = eta_mirror.conjugate() / eta_s  # eta(1-s) = conj(eta(1 - sigma + it))
    fr = data["functional_ratio"]
    p_out = complex(fr["re"], fr["im"])
    if abs(p_out - p_ref) > 1e-10 * abs(p_ref) or not _close(fr["modulus"], abs(p_ref), 1e-10):
        problems.append(f"functional_ratio {p_out!r} vs mpmath {p_ref!r}")

    events = data["zero_events"]
    for event in events:
        ref_mag = abs(reference.partial_sum(event["n"], sigma, t))
        if ref_mag >= 1e-9 + sum_allowance(event["n"], t):
            problems.append(f"zero event at n = {event['n']} but |S_n| = {ref_mag:.3e}")
    if sum(1 for e in events if e["beyond_nesting"]) > 1:
        problems.append(f"{len(events)} zero events beyond nesting")

    env = data["envelope"]
    n_from = max(1, n - 200)
    runs = {int(k): v for k, v in env["run_lengths"].items()}
    if (env["n_from"], env["n_to"]) != (n_from, n):
        problems.append(f"envelope range ({env['n_from']}, {env['n_to']})")
    if sum(length * count for length, count in runs.items()) != n - n_from + 1:
        problems.append(f"envelope runs {runs} do not cover {n - n_from + 1} indices")
    changes = sum(runs.values()) - 1
    if abs(env["alternation_rate"] - changes / (n - n_from)) > 1e-15:
        problems.append(f"alternation_rate {env['alternation_rate']!r} vs {changes} changes")
    if not _close(env["limit_modulus"], abs(p_ref), 1e-10):
        problems.append(f"envelope limit_modulus {env['limit_modulus']!r} vs |P| = {abs(p_ref)!r}")
    return problems


def check_path_export(job, text, rng):
    problems = []
    rows = _table(text, "n,re,im")
    sigma, t, n_max, stride = (job.meta[k] for k in ("sigma", "t", "n_max", "stride"))
    indices = list(range(1, n_max + 1, stride))
    if [int(row[0]) for row in rows] != indices:
        return [f"indices are not 1, 1 + {stride}, ..., <= {n_max}"]
    picks = {0, len(rows) - 1} | set(rng.sample(range(len(rows)), PATH_SAMPLES - 2))
    for i in sorted(picks):
        n = indices[i]
        value = complex(float(rows[i][1]), float(rows[i][2]))
        ref = reference.partial_sum(n, sigma, t)
        if abs(value - ref) > sum_allowance(n, t):
            problems.append(f"S_{n} = {value!r} vs Hurwitz {ref!r}")
    return problems


# ------------------------------------------------------------ orbit-sandwich

def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().split("\n"):
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"line {line!r}")
        out[key] = value
    return out


def _expected_orbit(meta) -> dict[str, int]:
    nesting, containment = meta["nesting_start"], meta["containment_start"]
    return {
        "acute_start": meta["acute_start"],
        "nesting_start": nesting,
        "first_positive_margin": max(nesting + 1, meta["acute_start"]),
        "containment_start": containment,
        "sandwich_start": max(nesting, containment),
    }


def check_orbit(job, text, rng):
    values = _key_values(text)
    problems = [f"{key} = {values.get(key)} vs reference {want}"
                for key, want in _expected_orbit(job.meta).items()
                if values.get(key) != str(want)]
    if values.get("epsilon") != repr(workloads.EPSILON) or values.get("verified_window") != "1000":
        problems.append(f"epsilon/window {values.get('epsilon')}, {values.get('verified_window')}")
    if not values.get("margin_flips", "").isdigit():
        problems.append(f"margin_flips {values.get('margin_flips')!r}")
    if values.get("sandwich_spot_check") != "pass (100 indices)":
        problems.append(f"sandwich_spot_check {values.get('sandwich_spot_check')!r}")
    return problems


def check_sandwich(job, text, rng):
    problems = []
    rows = _table(text, SANDWICH_HEADER)
    meta = job.meta
    sigma, t, eps = meta["sigma"], meta["t"], workloads.EPSILON
    first = _expected_orbit(meta)["sandwich_start"] + 1
    if [int(row[0]) for row in rows] != list(range(first, first + meta["n_max"])):
        return [f"rows are not n = {first} .. {first + meta['n_max'] - 1}"]
    if any(row[4] != "true" for row in rows):
        problems.append("a row has holds = false")
    picks = {0, len(rows) - 1} | set(rng.sample(range(len(rows)), SANDWICH_SAMPLES - 2))
    for i in sorted(picks):
        row = rows[i]
        n = int(row[0])
        lower, measured, upper = (float(x) for x in row[1:4])
        gap_exact, gap_leading, gap_ratio, shrunk_exact, shrunk_leading, shrunk_ratio = (
            float(x) for x in row[5:]
        )
        where = f"n = {n}"
        r_abs = abs(reference.remainder(n, sigma, t))
        if abs(measured - r_abs) > PRECISION + sum_allowance(n, t):
            problems.append(f"{where}: measured {measured!r} vs |R_n| = {r_abs!r}")
        lower_ref = (1.0 - eps) / (2.0 * n**sigma)
        upper_ref = n**-sigma
        if not (_close(lower, lower_ref, 1e-14) and _close(upper, upper_ref, 1e-14)):
            problems.append(f"{where}: bounds ({lower}, {upper}) vs ({lower_ref}, {upper_ref})")
        if not lower_ref < r_abs < upper_ref:
            problems.append(f"{where}: |R_n| = {r_abs!r} outside ({lower_ref}, {upper_ref})")

        margin = float(reference.margin(n, sigma, t))
        denom = n**sigma * (n + 1.0) ** (2 * sigma) * (n + 2.0) ** sigma
        gap_ref = margin / denom
        radius_diff_sq = 0.25 * (n**-sigma - (n + 2.0) ** -sigma) ** 2
        shrunk_ref = gap_ref - (1.0 - eps**2) * radius_diff_sq
        # the margin is a difference of terms of size n^(2 sigma)
        slack = 16.0 * EPS * n ** (2 * sigma) / denom
        if abs(gap_exact - gap_ref) > slack or abs(shrunk_exact - shrunk_ref) > slack + 4 * EPS * radius_diff_sq:
            problems.append(f"{where}: gaps ({gap_exact!r}, {shrunk_exact!r}) vs ({gap_ref!r}, {shrunk_ref!r})")
        lead = sigma**2 / (n * (n + 1.0)) / ((n + 1.0) ** sigma * (n + 2.0) ** sigma)
        shrunk_lead = eps**2 * sigma**2 / (n * (n + 1.0)) / (n + 2.0) ** (2 * sigma)
        if not (_close(gap_leading, lead, 1e-13) and _close(shrunk_leading, shrunk_lead, 1e-13)):
            problems.append(f"{where}: leading terms ({gap_leading!r}, {shrunk_leading!r})")
        if not (_close(gap_ratio, gap_exact / gap_leading, 1e-15)
                and _close(shrunk_ratio, shrunk_exact / shrunk_leading, 1e-15)):
            problems.append(f"{where}: ratio columns ({gap_ratio!r}, {shrunk_ratio!r})")
    return problems


CHECKERS = {
    "conjecture": check_conjecture,
    "extrema": check_extrema,
    "verify-zeros": check_verify_zeros,
    "ratio": check_ratio,
    "path-export": check_path_export,
    "orbit": check_orbit,
    "sandwich": check_sandwich,
}


def check_job(job, text: str, rng: random.Random) -> list[str]:
    """Problems with one job's output; a malformed output is one problem."""
    try:
        return CHECKERS[job.kind](job, text, rng)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
