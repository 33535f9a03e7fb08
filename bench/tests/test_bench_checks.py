"""Each checker accepts real etalab output and rejects a perturbed copy.

The outputs come from one job of each kind of the seed-1 workloads, run
through etalab.cli.main exactly as the benchmark runs them.
"""

import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest

import checks
import run
import workloads
from conftest import BENCH

SEED = 1


@pytest.fixture(scope="module")
def outputs():
    """kind -> (job, text) for the first job of each kind."""
    import etalab.cli as cli

    found = {}
    (BENCH / "tmp").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=BENCH / "tmp"))
    try:
        for name in workloads.GENERATORS:
            workload = workloads.build(name, SEED)
            for file_name, text in workload.files.items():
                (run_dir / file_name).write_text(text)
            jobs = []
            for job in workload.jobs:
                if job.kind in checks.CHECKERS and job.kind not in found:
                    found[job.kind] = job
                    jobs.append(job)
            for job, result in zip(jobs, run.run_round(cli, jobs, run_dir, len(found))):
                assert result.rc == 0, result.stderr
                found[job.kind] = (job, result.text)
    finally:
        shutil.rmtree(run_dir)
    return found


def _problems(outputs, kind, text=None):
    job, original = outputs[kind]
    return checks.check_job(job, original if text is None else text, random.Random(f"check:{SEED}"))


def _bump_digit(value: str) -> str:
    """The same number with its fourth significant digit changed."""
    seen = 0
    for i, ch in enumerate(value):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == 4:
                return value[:i] + str((int(ch) + 1) % 10) + value[i + 1:]
    raise ValueError(f"{value!r} has fewer than four significant digits")


def _edit_field(text: str, line: int, field: int, edit) -> str:
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[field] = edit(fields[field])
    lines[line] = ",".join(fields)
    return "\n".join(lines)


def _edit_value(text: str, key: str, edit) -> str:
    """Edit the value on the first `key = value` or `"key": value` line."""
    pattern = re.compile(rf'^(\s*"?{re.escape(key)}"?(?: =|:) )([^,\n]+)', re.M)
    match = pattern.search(text)
    assert match, key
    return text[: match.start(2)] + edit(match.group(2)) + text[match.end(2):]


def _flip(flag: str) -> str:
    return {"true": "false", "false": "true", "pass (100 indices)": "FAIL (100 indices)"}[flag]


def _plus_one(value: str) -> str:
    return str(int(value) + 1)


@pytest.mark.parametrize("kind", sorted(checks.CHECKERS))
def test_real_output_passes(outputs, kind):
    assert _problems(outputs, kind) == []


PERTURBATIONS = {
    "conjecture": {
        "digit": lambda t: _edit_field(t, 7, 3, _bump_digit),            # a lower bound
        "flag": lambda t: _edit_field(t, 5, 6, _flip),                    # pass_upper
        "index": lambda t: "\n".join(t.split("\n")[:1] + t.split("\n")[2:]),  # a row missing
    },
    "extrema": {
        "digit": lambda t: _edit_field(t, 1, 4, _bump_digit),            # distance
        "index": lambda t: _edit_field(t, 1, 3, _plus_one),              # nearest multiple
    },
    "verify-zeros": {
        "flag": lambda t: _edit_field(t, 1, 5, _flip),
        "index": lambda t: _edit_field(t, 2, 0, _plus_one),
        "digit": lambda t: _edit_field(t, 1, 1, _bump_digit),
    },
    "ratio": {
        "digit": lambda t: _edit_value(t, "residual", _bump_digit),
        "index": lambda t: _edit_value(t, "n_used", _plus_one),
        "flag": lambda t: _edit_value(t, "zero_flag", _flip),
    },
    "path-export": {
        "digit": lambda t: _edit_field(t, -2, 1, _bump_digit),           # the last row, always sampled
        "index": lambda t: _edit_field(t, 2, 0, _plus_one),
    },
    "orbit": {
        "index": lambda t: _edit_value(t, "nesting_start", _plus_one),
        "flag": lambda t: _edit_value(t, "sandwich_spot_check", _flip),
    },
    "sandwich": {
        "digit": lambda t: _edit_field(t, 1, 2, _bump_digit),            # measured |R_n|
        "flag": lambda t: _edit_field(t, 3, 4, _flip),                    # holds
        "index": lambda t: _edit_field(t, 1, 0, lambda v: str(int(v) - 1)),
    },
}


@pytest.mark.parametrize(
    "kind,change",
    [(kind, change) for kind, edits in sorted(PERTURBATIONS.items()) for change in sorted(edits)],
)
def test_perturbed_output_is_rejected(outputs, kind, change):
    text = PERTURBATIONS[kind][change](outputs[kind][1])
    assert text != outputs[kind][1]
    assert _problems(outputs, kind, text)


def test_sampled_conjecture_ratio_with_a_changed_digit_is_rejected(outputs):
    job, text = outputs["conjecture"]
    row = sorted(random.Random(f"check:{SEED}").sample(range(240), checks.ROW_SAMPLES))[0]
    assert _problems(outputs, "conjecture", _edit_field(text, row + 1, 2, _bump_digit))


class _Result:
    def __init__(self, text, rc=0, same=True):
        self.rc, self.wall, self.text, self.stderr, self.same = rc, 0.0, text, "", same


def test_judge_counts_bytes_that_differ(outputs):
    job, text = outputs["orbit"]
    twin = workloads.Job("orbit", job.argv, meta=dict(job.meta, same_as=0))
    rounds = [[_Result(text), _Result(text)], [_Result(None), _Result(None)]]
    assert run.judge([job, twin], rounds, SEED)[:3] == (4, 0, True)

    changed = text.replace("\n", "\n ", 1)
    rounds = [[_Result(text), _Result(changed)], [_Result(None), _Result(None)]]
    attempted, failed, correct, _ = run.judge([job, twin], rounds, SEED)
    assert (attempted, failed, correct) == (4, 2, False)

    rounds = [[_Result(text), _Result(text)], [_Result(None, same=False), _Result(None)]]
    assert run.judge([job, twin], rounds, SEED)[:3] == (4, 1, False)


def test_judge_counts_a_failed_exit_without_calling_it_wrong(outputs):
    job, text = outputs["orbit"]
    rounds = [[_Result("", rc=2)], [_Result(None, rc=2)]]
    assert run.judge([job], rounds, SEED)[:3] == (2, 2, True)
