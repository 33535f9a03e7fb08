"""The seeded generators are deterministic and stay inside their regions."""

import math

import pytest

import workloads as w

SEEDS = (1, 2, 3, 101)


def _arg(job, flag):
    return float(job.argv[job.argv.index(flag) + 1])


@pytest.mark.parametrize("name", sorted(w.GENERATORS))
def test_same_seed_same_jobs(name):
    first, again = w.build(name, 7), w.build(name, 7)
    assert [j.argv for j in first.jobs] == [j.argv for j in again.jobs]
    assert first.files == again.files


@pytest.mark.parametrize("seed", SEEDS)
def test_strip_scan_windows_stay_in_range(seed):
    jobs = w.strip_scan(seed).jobs
    conjecture = [j for j in jobs if j.kind.startswith("conjecture")]
    assert len(conjecture) == 6 + w.WARM_RESERVES
    starts = [_arg(j, "--t-from") for j in conjecture[:4]]
    for job in conjecture:
        t_from, t_to = _arg(job, "--t-from"), _arg(job, "--t-to")
        assert w.STRIP_T[0] <= t_from and t_to <= w.STRIP_T[1]
        assert math.isclose(t_to - t_from, w.STRIP_T_STEP * (w.STRIP_T_COUNT - 1))
        assert "--alpha" not in job.argv  # the default alpha axis
    # antithetic pairs: the two pair sums agree to the rounding of the starts
    assert abs((starts[0] + starts[1]) - (starts[2] + starts[3])) < 0.003
    assert conjecture[4].argv[-2:] == ["--threads", "2"] and conjecture[4].meta["t_from"] == starts[0]
    assert all(j.meta["t_from"] == starts[1] for j in conjecture[5:])

    extrema = next(j for j in jobs if j.kind == "extrema")
    assert w.EXTREMA_ALPHA[0] <= _arg(extrema, "--alpha") <= w.EXTREMA_ALPHA[1]
    t_from = _arg(extrema, "--t-from")
    assert w.EXTREMA_T_FROM[0] <= t_from <= w.EXTREMA_T_FROM[1]
    assert math.isclose(_arg(extrema, "--t-to") - t_from, w.EXTREMA_WIDTH)

    zeros = next(j for j in jobs if j.kind == "verify-zeros")
    ordinals = zeros.meta["ordinals"]
    assert len(ordinals) == w.ZERO_COUNT and ordinals == sorted(set(ordinals))
    assert w.ZERO_ORDINALS[0] <= ordinals[0] and ordinals[-1] <= w.ZERO_ORDINALS[1]
    assert all(0 < t <= 200.0 for t in zeros.meta["ts"])


@pytest.mark.parametrize("seed", SEEDS)
def test_mirrored_ratio_points_stay_in_range(seed):
    jobs = w.mirrored_ratio(seed).jobs
    assert [j.kind for j in jobs] == ["ratio"] * w.RATIO_POINTS + ["path-export"] * w.PATH_POINTS
    for job in jobs:
        assert w.RATIO_SIGMA[0] <= _arg(job, "--sigma") <= w.RATIO_SIGMA[1]
        assert w.RATIO_T[0] <= _arg(job, "--t") <= w.RATIO_T[1]
    ts = [_arg(j, "--t") for j in jobs[: w.RATIO_POINTS]]
    assert ts == sorted(ts)  # one point per t-stratum


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_orbit_points_stay_in_their_cells(seed):
    jobs = w.orbit_sandwich(seed).jobs
    orbit = [j for j in jobs if j.kind == "orbit"]
    assert len(orbit) == w.ORBIT_SIGMA_CELLS * w.ORBIT_T_CELLS
    sigma_width = (w.ORBIT_SIGMA[1] - w.ORBIT_SIGMA[0]) / w.ORBIT_SIGMA_CELLS
    t_width = (w.ORBIT_T[1] - w.ORBIT_T[0]) / w.ORBIT_T_CELLS
    for i, job in enumerate(orbit):
        row, col = divmod(i, w.ORBIT_T_CELLS)
        sigma, t = _arg(job, "--sigma"), _arg(job, "--t")
        assert w.ORBIT_SIGMA[0] + row * sigma_width - 1e-6 <= sigma <= w.ORBIT_SIGMA[0] + (row + 1) * sigma_width + 1e-6
        assert w.ORBIT_T[0] + col * t_width - 1e-6 <= t <= w.ORBIT_T[0] + (col + 1) * t_width + 1e-6
    for job in jobs[len(orbit):]:
        assert job.kind == "sandwich"
        assert w.ORBIT_SIGMA[0] <= _arg(job, "--sigma") <= w.ORBIT_SIGMA[1]
        assert w.ORBIT_T[0] <= _arg(job, "--t") <= w.ORBIT_T[1]


def test_every_rate_is_fed_by_exactly_one_workload():
    fed = {}
    for name in sorted(w.GENERATORS):
        for job in w.build(name, 1).jobs:
            if "rate" in job.meta:
                assert job.meta["work"] > 0
                fed.setdefault(job.meta["rate"], set()).add(name)
    assert set(fed) == set(w.RATES)
    assert all(len(names) == 1 for names in fed.values())
