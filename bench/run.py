"""The etalab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; etalab is imported from ./src.
The seed builds the workload's job list (workloads.py).  The run then

1. imports ``etalab.cli`` once, makes one untimed warm-up call, and runs
   whole rounds of the job list through ``etalab.cli.main(argv)`` in this
   process until S seconds of job time have passed; stdout and stderr are
   captured, ``--out`` files and cache directories live in a temporary
   directory under bench/tmp;
2. before each round, times ``import etalab.cli`` and then ``import
   numpy`` in fresh interpreters (setup_s, see ``setup_metrics``);
3. checks every job's output against mpmath (checks.py): each round must
   repeat the first round's bytes, and the first round's output must pass
   its checks.

wall_s sums each job's median time over the rounds, with every job time
scaled by a calibration loop run right before it (see ``calibrate``).

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 half of the time runs untraced and half traced (tracing.py),
and the last line reports the per-layer metrics.  A job fails when it
exits non-zero, when its bytes differ from another round or from the
output it must equal, or when a check fails; ``correct`` is false when a
job that exited 0 produced wrong output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from layers import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# A round figure near numpy's usual import time, with one BLAS thread, on
# the 2-core machine the reference figures come from, so that setup_s
# reads close to raw seconds there (see ``setup_metrics``).
NUMPY_IMPORT_NOMINAL_S = 0.085
# A round figure near the calibration loop's usual time on the same
# machine, so that wall_s reads close to raw seconds there.
CALIBRATION_NOMINAL_S = 0.001
WARM_UP = ["eta", "--sigma", "0.5", "--t", "10"]

_IMPORT_PROBE = """
import json, time
start = time.perf_counter()
import {module}
print(json.dumps({{"seconds": time.perf_counter() - start, "file": {module}.__file__}}))
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _time_import(module: str) -> float:
    """Seconds taken by ``import module`` in a fresh interpreter.

    The interpreter gets one OpenBLAS thread.  With the default pool,
    importing numpy also starts one BLAS thread per core, which took up to
    0.07 s longer whenever another process kept a core busy; that start-up
    is numpy's, whatever etalab does.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(module=module)],
                          env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"import of {module} failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout)
    if module == "etalab.cli" and not _under_src(probe["file"]):
        _fail(f"etalab was imported from {probe['file']}, not from {SRC}")
    return probe["seconds"]


def probe_imports() -> dict[str, float]:
    """One import of etalab.cli and, right after it, one of numpy alone."""
    return {"cli": _time_import("etalab.cli"), "numpy": _time_import("numpy")}


def setup_metrics(probes) -> dict[str, tuple[float, str]]:
    """setup_s, and the import split into numpy's part and etalab's own.

    setup_s is the import time of etalab.cli, numpy included, in units of
    the numpy-only import timed right after it, times a nominal numpy
    import time.  numpy is not part of the repository, so its import is a
    fixed amount of the same kind of work (reading, unmarshalling and
    running modules, loading extensions) and slows down with the machine
    as etalab's does.  Anything etalab adds to, or removes from, its
    import moves the ratio.  The probes are spread over the run, one pair
    before each round, and the median of the pairs is kept.
    """
    cli = median([p["cli"] for p in probes])
    numpy_s = median([p["numpy"] for p in probes])
    ratio = median([p["cli"] / p["numpy"] for p in probes])
    return {
        "setup_s": (ratio * NUMPY_IMPORT_NOMINAL_S, "s"),
        "cli.import_s": (cli - numpy_s, "s"),
        "numpy.import_s": (numpy_s, "s"),
    }


_CALIBRATION_K = np.arange(1, 201, dtype=np.longdouble)


def calibrate() -> float:
    """Seconds taken by a fixed loop of the kind of work etalab does most.

    Eight passes of logs, exponentials, cosines and sines over 200
    extended-precision values and one complex sum: small numpy calls whose
    cost is mostly call overhead, as in the oracle, the orbit scans and
    the per-row loops.  It runs right before each job, and the job's time
    is scaled by the nominal over the measured loop time.  On a shared
    machine the speed of both drifts together, by up to 40% between runs
    minutes apart, while their ratio moves a few percent.  (Loops of
    Python arithmetic, or of numpy over 8192 doubles, tracked the jobs
    worse: over ten runs of strip-scan they left spreads of 6% and 13%
    where this loop left 3%.)
    """
    start = time.perf_counter()
    for _ in range(8):
        logs = np.log(_CALIBRATION_K)
        modulus = np.exp(-0.3 * logs)
        theta = -80.0 * logs
        (modulus * np.cos(theta) + 1j * (modulus * np.sin(theta))).sum()
    return time.perf_counter() - start


class Result:
    """One job in one round.  Only the first round keeps the output text;
    later rounds keep whether they repeated it byte for byte.  `calib` is
    the calibration loop's time measured right before the job."""

    __slots__ = ("rc", "wall", "calib", "text", "stderr", "same")

    def __init__(self, rc, wall, calib, text, stderr):
        self.rc, self.wall, self.calib, self.text, self.stderr = rc, wall, calib, text, stderr
        self.same = True

    @property
    def scaled(self) -> float:
        return self.wall * CALIBRATION_NOMINAL_S / self.calib


def run_job(cli, argv, tracer=None, name="job") -> tuple[object, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.enter(name) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # a traceback is a failed job, not a failed benchmark
        rc = "exception"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    if span is not None:
        tracer.exit(span)
    return rc, wall, out.getvalue(), err.getvalue()


def run_round(cli, jobs, run_dir: Path, index: int, tracer=None) -> list[Result]:
    round_dir = run_dir / f"round-{index}"
    round_dir.mkdir()
    results = []
    try:
        for i, job in enumerate(jobs):
            argv = [a.replace("{round}", str(round_dir)).replace("{run}", str(run_dir))
                    for a in job.argv]
            if tracer is not None:
                tracer.job, tracer.round = i, index
            calib = calibrate()
            rc, wall, text, err = run_job(cli, argv, tracer, f"job.{job.kind}")
            if job.out is not None and rc == 0:
                text = (round_dir / job.out).read_text()
            results.append(Result(rc, wall, calib, text, err))
    finally:
        shutil.rmtree(round_dir)
    return results


def run_phase(cli, jobs, run_dir, seconds, probes, first=None, tracer=None) -> list[list[Result]]:
    """Whole rounds until `seconds` of job time have passed.

    Before each round one pair of import probes is appended to `probes`.
    Later rounds are compared with `first` (or with this phase's first
    round) and drop their text, so stored output does not grow the
    process's memory.
    """
    rounds, spent = [], 0.0
    while not rounds or spent < seconds:
        probes.append(probe_imports())
        index = len(rounds) if first is None else len(rounds) + 1
        results = run_round(cli, jobs, run_dir, index, tracer)
        if first is None:
            first = results
        else:
            for result, reference in zip(results, first):
                result.same = result.text == reference.text
                result.text = None
        spent += sum(r.wall for r in results)
        rounds.append(results)
    return rounds


def judge(jobs, rounds, seed) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, problems) over every round of every job."""
    import checks

    first = rounds[0]
    verdicts = []
    for i, (job, result) in enumerate(zip(jobs, first)):
        same_as = job.meta.get("same_as")
        if result.rc != 0:
            verdicts.append([f"exit code {result.rc}: {result.stderr.strip()[-500:]}"])
        elif same_as is None:
            verdicts.append(checks.check_job(job, result.text, random.Random(f"check:{seed}:{i}")))
        elif result.text != first[same_as].text:
            verdicts.append([f"bytes differ from job {same_as + 1}"])
        elif verdicts[same_as]:  # same_as points back to an earlier job
            verdicts.append([f"equal to job {same_as + 1}, which failed"])
        else:
            verdicts.append([])

    attempted = failed = 0
    correct = True
    problems = []
    for k, results in enumerate(rounds):
        for i, (job, result) in enumerate(zip(jobs, results)):
            attempted += 1
            bad = list(verdicts[i])
            if result.rc != 0:
                bad = bad or [f"exit code {result.rc}"]
            elif not result.same:
                bad.append(f"round {k + 1} bytes differ from round 1")
            if bad:
                failed += 1
                if result.rc == 0:
                    correct = False
                if k == 0 or not result.same:
                    problems.append(f"job {i + 1} ({job.kind}, round {k + 1}): {'; '.join(bad[:5])}")
    return attempted, failed, correct, problems


def round_walls(rounds) -> list[float]:
    return [sum(r.wall for r in results) for results in rounds]


def job_walls(rounds, scaled=False) -> list[float]:
    """Each job's median time over the rounds, raw or calibrated.

    Their sum is the time of the job list; taking the median per job
    filters slow spells that hit different jobs in different rounds.
    """
    pick = (lambda r: r.scaled) if scaled else (lambda r: r.wall)
    return [median([pick(results[i]) for results in rounds]) for i in range(len(rounds[0]))]


def kind_walls(jobs, walls) -> dict[str, float]:
    per_kind: dict[str, float] = {}
    for job, wall in zip(jobs, walls):
        per_kind[job.kind] = per_kind.get(job.kind, 0.0) + wall
    return per_kind


def workload_rates(jobs, walls) -> dict[str, tuple[float, str]]:
    """Work per second of each rate's jobs (workloads.RATES); 0 where none runs."""
    from workloads import RATES

    work, spent = dict.fromkeys(RATES, 0.0), dict.fromkeys(RATES, 0.0)
    for job, wall in zip(jobs, walls):
        rate = job.meta.get("rate")
        if rate is not None:
            work[rate] += job.meta["work"]
            spent[rate] += wall
    return {k: (work[k] / spent[k] if spent[k] else 0.0, unit) for k, unit in RATES.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etalab" / "cli.py").is_file():
        _fail(f"no etalab sources under {SRC}")
    try:
        import mpmath  # noqa: F401  (the reference needs it)
    except ImportError:
        _fail("mpmath is required for the reference checks")
    sys.path.insert(0, str(SRC))
    import etalab.cli as cli
    import etalab

    if not _under_src(etalab.__file__):
        _fail(f"etalab was imported from {etalab.__file__}, not from {SRC}")
    import layers
    import workloads

    if args.workload not in workloads.GENERATORS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")

    workload = workloads.build(args.workload, args.seed)
    jobs = workload.jobs
    probes: list[dict[str, float]] = []

    (BENCH / "tmp").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "tmp"))
    tracer = None
    try:
        for name, text in workload.files.items():
            (run_dir / name).write_text(text)
        run_job(cli, WARM_UP)
        if args.trace:
            untraced = run_phase(cli, jobs, run_dir, args.seconds / 2.0, probes)
            tracer = layers.install()
            try:
                traced = run_phase(cli, jobs, run_dir, args.seconds / 2.0, probes, untraced[0], tracer)
            finally:
                tracer.uninstall()
            rounds = untraced + traced
        else:
            untraced = rounds = run_phase(cli, jobs, run_dir, args.seconds, probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, correct, problems = judge(jobs, rounds, args.seed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    walls = job_walls(untraced)
    scaled = job_walls(untraced, scaled=True)
    setup = setup_metrics(probes)
    if args.trace:
        metrics = layers.per_layer(tracer, traced)
        metrics["trace.overhead_s"] = (sum(job_walls(traced, scaled=True)) - sum(scaled), "s")
        metrics.update(workload_rates(jobs, scaled))
        metrics["cli.import_s"], metrics["numpy.import_s"] = setup["cli.import_s"], setup["numpy.import_s"]
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "wall_s": (sum(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for line in problems[:20]:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=len(rounds),
                  raw_wall_s=sum(walls), calibration_s=median([r.calib for rs in untraced for r in rs]),
                  round_walls=round_walls(rounds), kind_walls=kind_walls(jobs, walls),
                  raw_setup_s=median([p["cli"] for p in probes]), probes=probes, problems=problems,
                  jobs=[{"kind": j.kind, "argv": j.argv} for j in jobs])
    (results_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
