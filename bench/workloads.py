"""Seeded job lists for the three benchmark workloads.

A workload is a list of jobs, each one ``etalab`` command line.  The
seed picks the windows and points; everything else is fixed, so one
seed always yields the same argv lists.  The total work of a job list
barely depends on the seed: t-windows come in antithetic pairs whose
oracle cost (linear in t) sums to a constant, and points are drawn one
per cell of a stratified grid.

Argument strings may contain ``{round}``, the per-round temporary
directory, which the runner substitutes before each round so cache
directories and ``--out`` files start cold in every round, and ``{run}``,
the run directory that holds the workload's input files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import reference

# Sampling regions.  The checks in checks.py are proven on these.
STRIP_T = (2.0 * math.pi + 1.0, 200.0)
STRIP_T_STEP = 0.25
STRIP_T_COUNT = 24            # t-values per conjecture window
STRIP_ALPHAS = 10             # default alpha axis 0, 0.05, ..., 0.45
WARM_RESERVES = 40
EXTREMA_ALPHA = (0.1, 0.4)
EXTREMA_T_FROM = (40.0, 44.0)
EXTREMA_WIDTH = 30.0
ZERO_ORDINALS = (1, 79)       # zeta zeros with 0 < t <= 200
ZERO_COUNT = 12

RATIO_SIGMA = (0.15, 0.45)
RATIO_T = (10.0, 150.0)
RATIO_N_MAX = 1_000_000
RATIO_POINTS = 4
PATH_N_MAX = 2_000_000
PATH_STRIDE = 1000
PATH_POINTS = 2

ORBIT_SIGMA = (0.25, 0.75)
ORBIT_T = (10.0, 150.0)
ORBIT_SIGMA_CELLS = 5
ORBIT_T_CELLS = 8
SANDWICH_POINTS = 2
SANDWICH_N_MAX = 5000
EPSILON = 0.5
# A point is redrawn when the reference margin or containment gap next to
# its sign change lies within this many double rounding units of zero:
# there the sign cannot be decided in double precision (see README).
UNDECIDABLE_UNITS = 16.0

# Workload rates: metric -> unit.  A job that feeds one names it in
# meta["rate"] and its amount of work in meta["work"]; the rate is the
# summed work over the summed job time of the jobs that feed it.
RATES = {
    "grid_points_per_s": "points/s",
    "extrema_points_per_s": "points/s",
    "cached_scans_per_s": "scans/s",
    "ratio_indices_per_s": "indices/s",
    "path_indices_per_s": "indices/s",
    "orbit_points_per_s": "points/s",
    "sandwich_rows_per_s": "rows/s",
}


@dataclass
class Job:
    kind: str
    argv: list[str]
    out: str | None = None          # file the job writes, relative to the round directory
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    jobs: list[Job]
    files: dict[str, str] = field(default_factory=dict)  # run-directory inputs: name -> text


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _num(x: float) -> str:
    return repr(float(x))


def _feeds(rate: str, work: float) -> dict:
    assert rate in RATES
    return {"rate": rate, "work": work}


# ---------------------------------------------------------------- strip-scan

def strip_windows(rng: random.Random) -> list[float]:
    """Four window starts a1, b1, a2, b2 with a_k + b_k constant."""
    width = STRIP_T_STEP * (STRIP_T_COUNT - 1)
    lo, hi = STRIP_T[0], STRIP_T[1] - width
    span = hi - lo
    starts = []
    for q in (0, 1):
        x = rng.uniform(q * span / 4.0, (q + 1) * span / 4.0)
        starts.append(math.ceil((lo + x) * 1000.0) / 1000.0)
        starts.append(math.floor((hi - x) * 1000.0) / 1000.0)
    return starts


def _conjecture_argv(t_from: float, *extra: str) -> list[str]:
    t_to = t_from + STRIP_T_STEP * (STRIP_T_COUNT - 1)
    return ["scan", "--which", "conjecture", "--t-from", _num(t_from), "--t-to", _num(t_to),
            "--t-step", _num(STRIP_T_STEP), *extra]


def strip_scan(seed: int) -> Workload:
    rng = _rng("strip-scan", seed)
    a1, b1, a2, b2 = strip_windows(rng)
    jobs = []
    for t_from in (a1, b1, a2, b2):
        jobs.append(Job("conjecture", _conjecture_argv(t_from, "--threads", "1"),
                        meta={"t_from": t_from,
                              **_feeds("grid_points_per_s", STRIP_ALPHAS * STRIP_T_COUNT)}))
    jobs.append(Job("conjecture-threads2", _conjecture_argv(a1, "--threads", "2"),
                    meta={"t_from": a1, "same_as": 0}))
    cache = ("--cache-dir", "{round}/cache")
    jobs.append(Job("conjecture-cache-cold", _conjecture_argv(b1, *cache),
                    meta={"t_from": b1, "same_as": 1}))
    for _ in range(WARM_RESERVES):
        jobs.append(Job("conjecture-cache-warm", _conjecture_argv(b1, *cache),
                        meta={"t_from": b1, "same_as": 1, **_feeds("cached_scans_per_s", 1)}))

    alpha = round(rng.uniform(*EXTREMA_ALPHA), 3)
    t_from = round(rng.uniform(*EXTREMA_T_FROM), 2)
    t_to = round(t_from + EXTREMA_WIDTH, 2)
    samples = round((t_to - t_from) / 0.01) + 1
    jobs.append(Job("extrema", ["scan", "--which", "extrema", "--alpha", _num(alpha),
                                "--t-from", _num(t_from), "--t-to", _num(t_to)],
                    meta={"alpha": alpha, "t_from": t_from, "t_to": t_to,
                          **_feeds("extrema_points_per_s", samples)}))

    ordinals = zero_ordinals(rng)
    ts = [reference.zero_ordinate(k) for k in ordinals]
    table = "ordinal,t\n" + "".join(f"{k},{_num(t)}\n" for k, t in zip(ordinals, ts))
    jobs.append(Job("verify-zeros", ["verify-zeros", "--table", "{run}/zeros.csv"],
                    meta={"ordinals": ordinals, "ts": ts}))
    return Workload(jobs, {"zeros.csv": table})


def zero_ordinals(rng: random.Random) -> list[int]:
    """One ordinal from each of ZERO_COUNT equal strata of ZERO_ORDINALS."""
    lo, hi = ZERO_ORDINALS
    edges = [lo + (hi - lo + 1) * i // ZERO_COUNT for i in range(ZERO_COUNT + 1)]
    return [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]


# ------------------------------------------------------------ mirrored-ratio

def _strata(lo: float, hi: float, count: int):
    width = (hi - lo) / count
    return [(lo + i * width, lo + (i + 1) * width) for i in range(count)]


def ratio_point(rng: random.Random, t_range) -> tuple[float, float]:
    """A point where |eta(s)| exceeds twice |R_n(s)|, so the limit bound is defined."""
    while True:
        sigma = round(rng.uniform(*RATIO_SIGMA), 6)
        t = round(rng.uniform(*t_range), 6)
        if reference.eta_abs(sigma, t) > 2.0 * abs(reference.remainder(RATIO_N_MAX, sigma, t)):
            return sigma, t


def mirrored_ratio(seed: int) -> Workload:
    rng = _rng("mirrored-ratio", seed)
    jobs = []
    for t_range in _strata(*RATIO_T, RATIO_POINTS):
        sigma, t = ratio_point(rng, t_range)
        jobs.append(Job("ratio", ["ratio", "--sigma", _num(sigma), "--t", _num(t),
                                  "--n-max", str(RATIO_N_MAX)],
                        meta={"sigma": sigma, "t": t, "n_max": RATIO_N_MAX,
                              **_feeds("ratio_indices_per_s", RATIO_N_MAX)}))
    for t_range in _strata(*RATIO_T, PATH_POINTS):
        sigma = round(rng.uniform(*RATIO_SIGMA), 6)
        t = round(rng.uniform(*t_range), 6)
        jobs.append(Job("path-export", ["path-export", "--sigma", _num(sigma), "--t", _num(t),
                                        "--n-max", str(PATH_N_MAX), "--stride", str(PATH_STRIDE),
                                        "--out", "{round}/path.csv"],
                        out="path.csv",
                        meta={"sigma": sigma, "t": t, "n_max": PATH_N_MAX, "stride": PATH_STRIDE,
                              **_feeds("path_indices_per_s", PATH_N_MAX)}))
    return Workload(jobs)


# ------------------------------------------------------------ orbit-sandwich

def _decidable(sigma: float, t: float, nesting: int, containment: int, acute: int) -> bool:
    eps = 2.0**-52
    for n in (nesting, nesting + 1):
        if n >= acute and abs(reference.margin(n, sigma, t)) < UNDECIDABLE_UNITS * eps * n ** (2 * sigma):
            return False
    for n in (containment, containment + 1):
        if n >= acute and abs(reference.containment_gap(n, sigma, t, EPSILON)) < (
            UNDECIDABLE_UNITS * eps * n**-sigma
        ):
            return False
    return True


def orbit_point(rng: random.Random, sigma_range, t_range) -> dict:
    """A point in the cell with its reference orbit indices."""
    while True:
        sigma = round(rng.uniform(*sigma_range), 6)
        t = round(rng.uniform(*t_range), 6)
        acute = reference.acute_start(t)
        nesting = reference.nesting_start(sigma, t)
        containment = reference.containment_start(sigma, t, EPSILON)
        if _decidable(sigma, t, nesting, containment, acute):
            return {"sigma": sigma, "t": t, "acute_start": acute,
                    "nesting_start": nesting, "containment_start": containment}


def orbit_sandwich(seed: int) -> Workload:
    rng = _rng("orbit-sandwich", seed)
    jobs = []
    for sigma_range in _strata(*ORBIT_SIGMA, ORBIT_SIGMA_CELLS):
        for t_range in _strata(*ORBIT_T, ORBIT_T_CELLS):
            p = orbit_point(rng, sigma_range, t_range)
            jobs.append(Job("orbit", ["orbit", "--sigma", _num(p["sigma"]), "--t", _num(p["t"])],
                            meta={**p, **_feeds("orbit_points_per_s", 1)}))
    for sigma_range in _strata(*ORBIT_SIGMA, SANDWICH_POINTS):
        p = orbit_point(rng, sigma_range, ORBIT_T)
        p.update(n_max=SANDWICH_N_MAX, **_feeds("sandwich_rows_per_s", SANDWICH_N_MAX))
        jobs.append(Job("sandwich", ["sandwich", "--sigma", _num(p["sigma"]), "--t", _num(p["t"]),
                                     "--n-max", str(SANDWICH_N_MAX), "--with-asymptotics",
                                     "--out", "{round}/sandwich.csv"],
                        out="sandwich.csv", meta=p))
    return Workload(jobs)


GENERATORS = {
    "strip-scan": strip_scan,
    "mirrored-ratio": mirrored_ratio,
    "orbit-sandwich": orbit_sandwich,
}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
