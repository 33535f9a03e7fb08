"""Command-line surface: outputs, exit codes, config and cache behavior."""

import argparse
import json
import math
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from etalab import detect_zero_sums, orbit, partial_sum_path, sum_ratio_path
from etalab.cli import COMMANDS, build_parser, main
from etalab.config import RunConfig, resolve_config
from etalab.emitters import render_csv, validate_document
from etalab.errors import axis_count

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

def run_exit(capsys, call):
    """Exit code, stdout and stderr of a call that may end in SystemExit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err

class TestParser:
    """A call builds only its subcommand's parser, with the whole tree's bytes."""

    CASES = [
        ["--help"], ["-h"], [], ["bogus"], ["bogus", "--sigma", "1"], ["--sigma", "1"],
        *([name, "--help"] for name in COMMANDS),
        ["eta"], ["path-export", "--sigma", "0.5"],            # missing required flag
        ["scan", "--which", "nope"], ["approx-deviation", "--which", "x"],  # bad choice
        ["eta", "--sigma", "abc"], ["orbit", "--sigma", "0.5", "--t", "x"],  # bad type
        ["eta", "--sigma", "1", "--bogus"], ["eta", "--sigma", "1", "extra"],  # the top-level usage
    ]

    @pytest.fixture(autouse=True)
    def pinned_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_same_bytes_as_the_whole_tree(self, capsys, argv):
        got = run_exit(capsys, lambda: main(list(argv)))
        expected = run_exit(capsys, lambda: build_parser().parse_args(list(argv)))
        assert got == expected
        assert got[0] == (0 if argv[-1:] in (["--help"], ["-h"]) else 2)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_named_call_builds_one_subparser(self, capsys, monkeypatch, name):
        built = []
        for key, (help_text, add_args, handler, settings) in COMMANDS.items():
            def recording(p, key=key, add_args=add_args):
                built.append(key)
                add_args(p)
            monkeypatch.setitem(COMMANDS, key, (help_text, recording, handler, settings))
        run_exit(capsys, lambda: main([name, "--help"]))
        assert built == [name]
        built.clear()
        run_exit(capsys, lambda: main(["--help"]))
        assert built == list(COMMANDS)

    def test_help_description_is_the_command_overview(self, capsys):
        # the docstring's note on parser construction stays out of --help
        _, out, _ = run_exit(capsys, lambda: main(["--help"]))
        assert "for compatibility only. positional arguments:" in " ".join(out.split())

    def test_parses_like_the_whole_tree(self):
        argv = ["scan", "--which", "extrema", "--alpha", "0.25", "--t-from", "10", "--threads", "2"]
        assert vars(build_parser("scan").parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        # the installed `etalab` script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["etalab", "eta", "--sigma", "1", "--t", "0"])
        code, out, _ = run_exit(capsys, main)
        assert code == 0
        assert out.splitlines()[0] == "0.6931471805599453"

class TestEtaZeta:
    def test_eta_ln2(self, capsys):
        code, out, _ = run(capsys, "eta", "--sigma", "1", "--t", "0")
        assert code == 0
        assert out.splitlines()[0] == "0.6931471805599453"

    def test_eta_paper_point(self, capsys):
        code, out, _ = run(capsys, "eta", "--sigma", "0.404", "--t", "147")
        assert code == 0
        assert out.startswith("1.816325")

    def test_eta_zero_flagged(self, capsys):
        code, out, _ = run(capsys, "eta", "--sigma", "0.5", "--t", "14.134725141734694")
        assert code == 0
        assert "zero-indistinguishable" in out

    def test_eta_printed_ordinate_flagged(self, capsys):
        # |eta| ~ 3e-9 at the 8-decimal ordinate: below ten times the
        # default requested precision, so the CLI marks it possibly-zero
        code, out, _ = run(capsys, "eta", "--sigma", "0.5", "--t", "14.13472514")
        assert code == 0
        assert "zero-indistinguishable" in out
        # a genuinely nonzero value never gets marked
        code, out, _ = run(capsys, "eta", "--sigma", "0.5", "--t", "10")
        assert code == 0
        assert "zero-indistinguishable" not in out

    def test_eta_json_document(self, capsys):
        code, out, _ = run(capsys, "eta", "--sigma", "0.5", "--t", "5", "--format", "json")
        doc = json.loads(out)
        validate_document(doc)
        assert abs(complex(doc["data"]["value"]["re"], doc["data"]["value"]["im"])) > 1.0

    def test_accuracy_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "eta", "--sigma", "0.5", "--t", "500")
        assert code == 2
        assert "accuracy" in err or "supported" in err

    def test_zeta_pole_exit_code(self, capsys):
        code, _, err = run(capsys, "zeta", "--sigma", "1", "--t", "0")
        assert code == 2

    @pytest.mark.parametrize("t", ["0", "-0.0"])
    def test_signs_of_zero_at_t_zero(self, capsys, t):
        # the real axis keeps eta's imaginary part +0.0 and zeta's -0.0
        for command, im in (("eta", "0.0"), ("zeta", "-0.0")):
            code, out, _ = run(capsys, command, "--sigma", "0.5", "--t", t, "--format", "json")
            assert code == 0
            assert f'"im": {im},' in out

    def test_zeta_value(self, capsys):
        code, out, _ = run(capsys, "zeta", "--sigma", "2", "--t", "0")
        assert code == 0
        assert out.splitlines()[0].startswith("1.644934066848")

class TestPathExport:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "path-export", "--sigma", "0.5", "--t", "38", "--n-max", "1")
        assert code == 0
        assert out == "n,re,im\n1,1.0,0.0\n"

    def test_stride_and_endpoint(self, capsys, tmp_path):
        out_file = tmp_path / "path.csv"
        code, _, _ = run(
            capsys, "path-export", "--sigma", "0.5", "--t", "38",
            "--n-max", "313", "--stride", "4", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n,re,im"
        assert lines[1].startswith("1,")
        assert len(lines) == 1 + math.ceil(313 / 4)

    def test_mirrored_paths_have_parallel_segments(self, capsys, tmp_path):
        # segments at sigma and 1-sigma share their axis angle modulo pi
        a_file, b_file = tmp_path / "a.csv", tmp_path / "b.csv"
        for sigma, path in (("0.404", a_file), ("0.596", b_file)):
            code, _, _ = run(
                capsys, "path-export", "--sigma", sigma, "--t", "147",
                "--n-max", "50", "--out", str(path),
            )
            assert code == 0

        def segments(path):
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            pts = rows[:, 1] + 1j * rows[:, 2]
            return np.diff(np.concatenate(([0.0 + 0.0j], pts)))

        va, vb = segments(a_file), segments(b_file)
        cross = np.abs(np.imag(va * np.conj(vb)))  # zero iff parallel
        assert np.all(cross < 1e-12)

    @pytest.mark.parametrize("t,n_max,stride", [
        ("38", 65536, 7), ("-38", 65537, 1), ("0", 3, 1), ("0", 131073, 1000),
        ("-38", 131073, 65536), ("38", 5, 10),
    ])
    def test_rows_are_the_strided_path(self, capsys, t, n_max, stride):
        # rows are read off each block of sums; they carry the path's bits
        code, out, _ = run(capsys, "path-export", "--sigma", "0.3", "--t", t,
                           "--n-max", str(n_max), "--stride", str(stride))
        assert code == 0
        path = partial_sum_path(complex(0.3, float(t)), n_max)
        columns = [list(range(1, n_max + 1, stride)), path.real[::stride], path.imag[::stride]]
        assert out == render_csv(("n", "re", "im"), columns)
        if t == "0":  # the sign of zero: S_1 = 1 + 0i prints as 0.0
            assert out.splitlines()[1] == "1,1.0,0.0"

class TestOrbitSandwich:
    def test_orbit_reports_transition(self, capsys):
        code, out, _ = run(capsys, "orbit", "--sigma", "0.50567", "--t", "37.58631")
        assert code == 0
        assert "first_positive_margin = 1398" in out
        assert "nesting_start = 1397" in out

    def test_orbit_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "margin.csv"
        code, out, _ = run(
            capsys, "orbit", "--sigma", "1.0", "--t", "0", "--out", str(trace)
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "n,margin"
        assert float(lines[1].split(",")[1]) > 0.0

    def test_sandwich_passes(self, capsys, tmp_path):
        out_file = tmp_path / "sw.csv"
        code, _, err = run(
            capsys, "sandwich", "--sigma", "0.5", "--t", "20",
            "--n-max", "200", "--out", str(out_file),
        )
        assert code == 0
        assert "sandwich holds" in err
        header = out_file.read_text().splitlines()[0]
        assert header == "n,lower,measured,upper,holds"

    def test_sandwich_asymptotics_columns(self, capsys, tmp_path):
        out_file = tmp_path / "sw.csv"
        code, _, _ = run(
            capsys, "sandwich", "--sigma", "0.5", "--t", "20",
            "--n-max", "50", "--with-asymptotics", "--out", str(out_file),
        )
        assert code == 0
        header = out_file.read_text().splitlines()[0].split(",")
        assert "gap_ratio" in header and "shrunk_ratio" in header

class TestRatioCommand:
    def test_critical_line_limit(self, capsys):
        code, out, _ = run(capsys, "ratio", "--sigma", "0.5", "--t", "21", "--n-max", "4000")
        assert code == 0
        doc = json.loads(out)
        validate_document(doc)
        assert abs(doc["data"]["limit"]["modulus"] - 1.0) < 1e-12

    def test_near_null_point_events(self, capsys):
        # machine threshold: sums at the few-decimal printed point never
        # vanish exactly, so the default report carries no events
        code, out, _ = run(
            capsys, "ratio", "--sigma", "0.50567", "--t", "37.58631", "--n-max", "2000"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["zero_events"] == []
        assert doc["data"]["limit"]["modulus"] > 0.0
        # reproduction threshold: the near-vanishing sum at n = 1516 appears
        code, out, _ = run(
            capsys, "ratio", "--sigma", "0.50567", "--t", "37.58631",
            "--n-max", "2000", "--zero-threshold", "1e-2",
        )
        assert code == 0
        doc = json.loads(out)
        assert 1516 in [e["n"] for e in doc["data"]["zero_events"]]

    @pytest.mark.parametrize("sigma,t,n_max,threshold", [
        ("0.50567", "37.58631", 2000, "1e-2"), ("0.50567", "-37.58631", 65537, "1e-2"),
        ("0.3", "80", 131073, "1e-9"), ("0.3", "0", 2, "1e-9"),
    ])
    def test_report_is_the_array_path(self, capsys, sigma, t, n_max, threshold):
        # the streamed report reads the bits of sum_ratio_path
        code, out, _ = run(capsys, "ratio", "--sigma", sigma, "--t", t,
                           "--n-max", str(n_max), "--zero-threshold", threshold)
        assert code == 0
        data = json.loads(out)["data"]
        s = complex(float(sigma), float(t))
        ratios, _, _ = sum_ratio_path(s, n_max)
        value = 0.5 * (complex(ratios[-1]) + complex(ratios[-2]))
        assert (data["limit"]["re"], data["limit"]["im"]) == (value.real, value.imag)
        assert data["limit"]["n_used"] == n_max
        assert data["envelope"]["limit_modulus"] == data["functional_ratio"]["modulus"]
        events = detect_zero_sums(s, n_max, float(threshold))
        assert [(e["n"], e["magnitude"], e["beyond_nesting"]) for e in data["zero_events"]] == [
            (e.n, e.magnitude, e.beyond_nesting) for e in events
        ]
        n_from = max(1, n_max - 200)
        assert (data["envelope"]["n_from"], data["envelope"]["n_to"]) == (n_from, n_max)
        signs = np.sign(np.abs(ratios[n_from - 1 :]) - data["envelope"]["limit_modulus"])
        changes = signs[1:] != signs[:-1]
        assert data["envelope"]["alternation_rate"] == (float(np.mean(changes)) if changes.size else 0.0)


class TestMemory:
    """`ratio` and `path-export` hold a few kernel blocks, not the path."""

    @pytest.mark.parametrize("argv", [
        ("ratio", "--sigma", "0.3", "--t", "80", "--n-max", "1000000"),
        ("path-export", "--sigma", "0.3", "--t", "80", "--n-max", "2000000", "--stride", "1000"),
    ])
    def test_traced_peak_is_block_sized(self, capsys, argv):
        # a path of 10^6 indices alone would take 16 MB, its mirrored ratios 56 MB
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 16 * 2**20


class TestScanCommand:
    def test_alpha_zero_rows_are_unity(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--which", "conjecture", "--alpha", "0",
            "--t-from", "10", "--t-to", "11", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "alpha,t,ratio,lower,upper,pass_lower,pass_upper"
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[2]) - 1.0) < 1e-12
            assert fields[5] == "true" and fields[6] == "true"

    def test_cache_hit_is_byte_identical(self, capsys, tmp_path):
        for fmt in ("csv", "json"):
            out_a, out_b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            cache = tmp_path / "cache"
            argv = ["scan", "--which", "conjecture", "--alpha", "0.1", "--format", fmt,
                    "--t-from", "8", "--t-to", "9", "--cache-dir", str(cache)]
            code, _, _ = run(capsys, *argv, "--out", str(out_a))
            assert code == 0
            assert list(cache.glob(f"*.{fmt}"))
            code, _, err = run(capsys, *argv, "--out", str(out_b))
            assert code == 0
            assert "cache integrity" not in err
            assert out_a.read_bytes() == out_b.read_bytes()

    def test_corrupted_cache_is_recomputed(self, capsys, tmp_path):
        for fmt in ("csv", "json"):
            out_a, out_b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
            cache = tmp_path / "cache"
            argv = ["scan", "--which", "conjecture", "--alpha", "0.1", "--format", fmt,
                    "--t-from", "8", "--t-to", "9", "--cache-dir", str(cache)]
            code, _, _ = run(capsys, *argv, "--out", str(out_a))
            assert code == 0
            entry = next(cache.glob(f"*.{fmt}"))
            if fmt == "json":  # corrupt the ratio column of every row
                doc = json.loads(out_a.read_text())
                for row in doc["data"]["rows"]:
                    row[2] = 0.123456
                entry.write_text(json.dumps(doc))
            else:
                lines = out_a.read_text().splitlines()
                poisoned = [lines[0]]
                for line in lines[1:]:
                    fields = line.split(",")
                    fields[2] = "0.123456"
                    poisoned.append(",".join(fields))
                entry.write_text("\n".join(poisoned) + "\n")
            code, _, err = run(capsys, *argv, "--out", str(out_b))
            assert code == 0
            assert "cache integrity check failed" in err
            assert out_a.read_bytes() == out_b.read_bytes()

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["scan", "--which", "conjecture", "--alpha-from", "0", "--alpha-to", "0.2",
                "--alpha-step", "0.1", "--t-from", "8", "--t-to", "9", "--t-step", "0.25"]
        assert run(capsys, *base, "--threads", "1", "--out", str(out_a))[0] == 0
        assert run(capsys, *base, "--threads", "4", "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_monotonicity_scan(self, capsys, tmp_path):
        out_file = tmp_path / "mono.csv"
        code, _, _ = run(
            capsys, "scan", "--which", "monotonicity", "--t", "40",
            "--alpha-from", "0", "--alpha-to", "0.4", "--alpha-step", "0.05",
            "--out", str(out_file),
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out_file.read_text().splitlines()[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_monotonicity_violation_count_matches_across_formats(self, capsys, fmt):
        # below the conjectured t range the modulus rises in 45 of the 45 steps
        code, _, err = run(
            capsys, "scan", "--which", "monotonicity", "--t", "1",
            "--alpha-step", "0.01", "--format", fmt,
        )
        assert code == 1
        assert err == "scan violations: 45\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cached_violation_count(self, capsys, tmp_path, fmt):
        # a cache hit counts the violations from the rows it re-served
        argv = ["scan", "--which", "monotonicity", "--t", "1", "--alpha-step", "0.01",
                "--format", fmt, "--cache-dir", str(tmp_path)]
        cold = run(capsys, *argv)
        assert cold[0] == 1 and cold[2] == "scan violations: 45\n"
        assert run(capsys, *argv) == cold

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid,err", [
        (("--t-from", "3", "--t-to", "4", "--alpha-step", "0.2"),
         "note: t range extends below 2*pi + 1; bounds are informational there\n"),
        # the first zero's ordinate: alpha = 0 is skipped, 0.1 and 0.2 are not
        (("--alpha-to", "0.2", "--alpha-step", "0.1", "--t-from", "14.134725141734693",
          "--t-to", "14.134725141734693"), "skipped 1 zero-indistinguishable points\n"),
        (("--alpha", "0", "--t-from", "14.134725141734693", "--t-to", "14.134725141734693"),
         "skipped 1 zero-indistinguishable points\n"),  # no row at all
    ], ids=["informational", "skipped", "all-skipped"])
    def test_cached_scan_prints_the_cold_notes(self, capsys, tmp_path, fmt, grid, err):
        # the grid and the re-served rows decide the notes, so a warm run prints them too
        argv = ["scan", "--which", "conjecture", *grid, "--format", fmt, "--cache-dir", str(tmp_path)]
        cold = run(capsys, *argv)
        assert cold[0] == 0 and cold[2] == err
        assert run(capsys, *argv) == cold

    def test_scan_json_document(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--which", "conjecture", "--alpha", "0.2",
            "--t-from", "8", "--t-to", "8.5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        validate_document(doc)
        assert doc["data"]["violations"] == []

class TestVerifyZeros:
    def test_default_table_passes(self, capsys):
        code, out, _ = run(capsys, "verify-zeros")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("ordinal,")
        assert len(lines) == 3
        assert all(line.endswith(",true") for line in lines[1:])

    def test_non_zero_row_flagged(self, capsys, tmp_path):
        table = tmp_path / "zeros.csv"
        table.write_text("ordinal,t\n1,10.0\n")
        code, out, err = run(capsys, "verify-zeros", "--table", str(table))
        assert code == 1
        assert "not-a-zero" in err

    def test_empty_table(self, capsys, tmp_path):
        table = tmp_path / "zeros.csv"
        table.write_text("ordinal,t\n")
        code, out, _ = run(capsys, "verify-zeros", "--table", str(table))
        assert code == 0
        assert out.splitlines()[1:] == []

    @pytest.mark.parametrize("text,message", [
        ("ordinal,t\n1,abc\n", "zero table line 2: could not convert string to float: 'abc'"),
        ("ordinal,t\nx,14.1\n", "zero table line 2: invalid literal for int() with base 10: 'x'"),
        ("1,14.13472514\n\n6,3x\n", "zero table line 3: could not convert string to float: '3x'"),
    ])
    def test_row_with_a_non_number(self, capsys, tmp_path, text, message):
        table = tmp_path / "zeros.csv"
        table.write_text(text)
        code, out, err = run(capsys, "verify-zeros", "--table", str(table))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("text,line,fields", [
        ("ordinal,t\n1\n", 2, 1),
        ("1,14.13472514\n6,37.586178,x\n", 2, 3),
    ])
    def test_row_without_two_fields(self, capsys, tmp_path, text, line, fields):
        table = tmp_path / "zeros.csv"
        table.write_text(text)
        code, out, err = run(capsys, "verify-zeros", "--table", str(table))
        assert code == 2
        assert err == f"error: zero table line {line}: expected 2 fields ordinal,t, got {fields}\n"
        assert out == ""

class TestApproxDeviation:
    def test_both_scans_pass(self, capsys):
        code, out, _ = run(capsys, "approx-deviation")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        upper = lines[1].split(",")
        assert abs(float(upper[1]) - 1.75e-4) < 0.05 * 1.75e-4

class TestInvalidInput:
    """Bad input exits 2 with an `error:` line, before any long computation."""

    def test_window_below_one(self, capsys):
        for command in ("orbit", "sandwich"):
            code, out, err = run(capsys, command, "--sigma", "0.5", "--t", "20", "--window", "0")
            assert code == 2
            assert err.startswith("error: window must be >= 1")
            assert out == ""

    def test_threads_flag_below_one(self, capsys):
        for threads in ("0", "-3"):
            code, _, err = run(capsys, "scan", "--threads", threads)
            assert code == 2
            assert err.startswith("error: threads must be >= 1")

    def test_threads_config_key_below_one(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "etalab.conf"
        cfg.write_text("threads=0\n")
        monkeypatch.setenv("ETALAB_CONFIG", str(cfg))
        code, _, err = run(capsys, "scan")
        assert code == 2
        assert err.startswith("error: threads must be >= 1")

    def test_non_finite_sigma(self, capsys):
        for argv in (("eta", "--sigma", "nan"),
                     ("path-export", "--sigma", "nan", "--n-max", "10"),
                     ("ratio", "--sigma", "nan", "--t", "20")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("error:") and "finite" in err
            assert out == ""

    def test_scan_axis_validated(self, capsys):
        for argv in (("scan", "--t-step", "nan"),
                     ("scan", "--t-step", "0"),
                     ("scan", "--alpha-step", "inf"),
                     ("scan", "--which", "extrema", "--alpha", "0.2", "--t-step", "nan"),
                     ("scan", "--which", "monotonicity", "--t", "40", "--alpha-step", "nan")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith("error:") and "_step must be finite and positive" in err
            assert out == ""
        # refused before a ~1e11-sample axis is allocated
        code, out, err = run(capsys, "scan", "--t-step", "1e-9")
        assert code == 2
        assert err.startswith("error: t_step 1e-09 gives more than 1000000 points")
        assert out == ""

    def test_non_finite_precision(self, capsys):
        for argv in (("eta", "--sigma", "0.5", "--t", "5", "--precision", "inf"),
                     ("eta", "--sigma", "0.5", "--t", "5", "--precision", "nan"),
                     ("zeta", "--sigma", "0.5", "--t", "5", "--precision", "inf"),
                     ("verify-zeros", "--precision", "inf")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert err == f"error: target_error must be finite, got {argv[-1]}\n"
            assert out == ""

    def test_monotonicity_non_finite_t(self, capsys):
        for t in ("nan", "inf", "-inf"):
            code, out, err = run(capsys, "scan", "--which", "monotonicity", f"--t={t}")
            assert code == 2
            assert err == f"error: t must be finite, got {t}\n"
            assert out == ""

    @pytest.mark.parametrize("argv,message", [
        (("--sigma", "nan", "--t", "20"), "error: eta oracle requires finite s, got (nan+20j)\n"),
        (("--sigma", "0", "--t", "20"), "error: eta oracle requires Re(s) > 0, got 0.0\n"),
        (("--sigma", "0.5", "--t", "inf"), "error: eta oracle requires finite s, got (0.5+infj)\n"),
        (("--sigma", "0.5", "--t", "nan"), "error: eta oracle requires finite s, got (0.5+nanj)\n"),
        (("--sigma", "0.5", "--t", "500"), "error: |Im(s)| = 500 outside the supported range <= 200\n"),
    ])
    def test_orbit_point_validated_before_the_sweep(self, capsys, monkeypatch, argv, message):
        from etalab import orbit, ratios, series

        def sweep(*args, **kwargs):
            raise AssertionError("swept an invalid point")

        monkeypatch.setattr(orbit, "_geometry", sweep)
        for module in (series, ratios):  # the summation kernel, where each looks it up
            monkeypatch.setattr(module, "_sum_blocks", sweep)
        for command, extra in (("orbit", ()), ("sandwich", ()), ("ratio", ()), ("zeta", ()),
                               ("path-export", ("--n-max", "10"))):
            code, out, err = run(capsys, command, *argv, *extra)
            assert code == 2
            assert err == message
            assert out == ""

    @pytest.mark.parametrize("command,argv,message", [
        ("ratio", ("--sigma", "1.5", "--t", "20", "--n-max", "10000000"),
         "error: functional ratio needs 0 < Re(s) < 1, got 1.5\n"),
        ("ratio", ("--sigma", "1", "--t", "20"), "error: functional ratio needs 0 < Re(s) < 1, got 1.0\n"),
        ("sandwich", ("--sigma", "0.5", "--t", "20", "--n-max", "10000001"),
         "error: n_max must be <= 1e+07\n"),
        ("sandwich", ("--sigma", "0.5", "--t", "20", "--n-max", "0"), "error: n_max must be >= 1, got 0\n"),
        ("sandwich", ("--sigma", "0.5", "--t", "20", "--n-max", "-3"), "error: n_max must be >= 1, got -3\n"),
        ("path-export", ("--sigma", "0.5", "--t", "20", "--n-max", "10000001"),
         "error: n_max must be <= 1e+07\n"),
    ])
    def test_refused_before_the_sweep(self, capsys, monkeypatch, command, argv, message):
        from etalab import orbit, ratios, series

        def sweep(*args, **kwargs):
            raise AssertionError("swept before refusing the input")

        monkeypatch.setattr(orbit, "_geometry", sweep)
        for module in (series, ratios):  # the summation kernel, where each looks it up
            monkeypatch.setattr(module, "_sum_blocks", sweep)
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert err == message
        assert out == ""

    def test_extrema_alpha_range(self, capsys):
        for alpha in ("-0.2", "0.5", "0.6"):
            code, out, err = run(capsys, "scan", "--which", "extrema", f"--alpha={alpha}")
            assert code == 2
            assert err == f"error: alpha must lie in [0, 1/2), got {float(alpha)}\n"
            assert out == ""

    def test_monotonicity_t_range(self, capsys):
        for t in ("300", "-300", "200.5"):
            code, out, err = run(capsys, "scan", "--which", "monotonicity", f"--t={t}")
            assert code == 2
            assert err == f"error: |Im(s)| = {abs(float(t)):g} outside the supported range <= 200\n"
            assert out == ""

    def test_ratio_n_max_range(self, capsys):
        code, _, err = run(capsys, "ratio", "--sigma", "0.3", "--t", "20", "--n-max", "1")
        assert code == 2
        assert err == "error: n_max must be >= 2, got 1\n"
        # rejected before any summation, so no 2e7-index path is built
        code, _, err = run(capsys, "ratio", "--sigma", "0.3", "--t", "20", "--n-max", "20000000")
        assert code == 2
        assert err == "error: n_max must be <= 1e+07\n"


    @pytest.mark.parametrize("step,message", [
        ("0", "grid_step must be finite and positive, got 0.0"),
        ("-1", "grid_step must be finite and positive, got -1.0"),
        ("nan", "grid_step must be finite and positive, got nan"),
        ("inf", "grid_step must be finite and positive, got inf"),
        ("1e-7", "grid_step 1e-07 gives more than 1000000 points on [0, 0.5]"),
    ])
    def test_approx_deviation_step(self, capsys, step, message):
        code, out, err = run(capsys, "approx-deviation", f"--step={step}")
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_ratio_zero_threshold(self, capsys, monkeypatch):
        from etalab import ratios

        def summed(*args, **kwargs):
            raise AssertionError("summed with an invalid threshold")

        monkeypatch.setattr(ratios, "_sum_blocks", summed)
        for threshold in ("nan", "inf", "0", "-1e-9"):
            code, out, err = run(capsys, "ratio", "--sigma", "0.3", "--t", "20", f"--zero-threshold={threshold}")
            assert code == 2
            assert err == f"error: zero-sum threshold must be finite and positive, got {float(threshold)}\n"
            assert out == ""

    @pytest.mark.parametrize("argv", [
        ("ratio", "--sigma", "0.3", "--t", "20", "--n-max", "100", "--precision", "nan"),
        ("ratio", "--sigma", "0.3", "--t", "20", "--n-max", "100", "--precision", "-5"),
        ("approx-deviation", "--precision", "nan"),
        ("path-export", "--sigma", "0.3", "--t", "20", "--n-max", "10", "--precision", "nan"),
    ], ids=" ".join)
    def test_precision_refused_by_every_subcommand(self, capsys, tmp_path, monkeypatch, argv):
        # none of these runs the oracle on the precision: the configuration refuses it,
        # from ETALAB_CONFIG on every subcommand and as a flag where the subcommand reads it
        message = ("error: target_error must be >= 1e-13\n" if argv[-1] == "-5"
                   else "error: target_error must be finite, got nan\n")
        code, out, err = run_exit(capsys, lambda: main(list(argv)))
        if "--precision" in COMMANDS[argv[0]][3]:
            assert (code, out, err) == (2, "", message)
        else:
            assert (code, out) == (2, "")
            assert err.endswith(f"error: unrecognized arguments: --precision {argv[-1]}\n")
        (tmp_path / "etalab.conf").write_text(f"precision={argv[-1]}\n")
        monkeypatch.setenv("ETALAB_CONFIG", str(tmp_path / "etalab.conf"))
        assert run(capsys, *argv[:-2]) == (2, "", message)

    def test_format_config_key_outside_the_choices(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "etalab.conf"
        cfg.write_text("format=xml\n")
        monkeypatch.setenv("ETALAB_CONFIG", str(cfg))
        for argv in (("eta", "--sigma", "0.5", "--t", "5"), ("approx-deviation",)):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "error: format must lie in {csv, json}, got xml\n")

    def test_undecidable_sandwich_refused_before_the_sums(self, capsys, monkeypatch):
        # at sigma = 8 the lower bound (1-eps)/(2 n^sigma) near n = 100 is about
        # 1e-17, below the oracle's bound: |R_n| there is rounding noise
        from etalab import orbit

        def summed(*args, **kwargs):
            raise AssertionError("summed an undecidable sandwich")

        monkeypatch.setattr(orbit, "partial_sum_path", summed)
        for argv in (("sandwich", "--sigma", "8", "--t", "5", "--n-max", "100"),
                     ("orbit", "--sigma", "21", "--t", "5")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("accuracy failure: sandwich undecidable at s = (")
            assert err.count("\n") == 1

    def test_decidable_sandwich_at_large_sigma_still_holds(self, capsys):
        # at sigma = 5 the smallest lower bound, 1.6e-11, is far above the noise
        code, out, err = run(capsys, "sandwich", "--sigma", "5", "--t", "5", "--n-max", "100")
        assert code == 0
        assert err == "sandwich holds on (9, 109] at epsilon = 0.5\n"
        lines = out.splitlines()
        assert len(lines) == 101 and lines[1].startswith("10,2.5e-06,")
        assert all(line.endswith(",true") for line in lines[1:])


class TestSmallT:
    """At 0 < |t| below about 0.0022 the angle threshold is 1, not an overflow."""

    @pytest.mark.parametrize("argv", [
        ["orbit", "--sigma", "0.5", "--t", "0.001"],
        ["orbit", "--sigma", "0.5", "--t", "-0.001"],
        ["sandwich", "--sigma", "0.5", "--t", "0.002"],
        ["ratio", "--sigma", "0.3", "--t", "0.001", "--n-max", "10"],
        ["ratio", "--sigma", "0.3", "--t", "1e-300", "--n-max", "1000"],
        ["ratio", "--t", "1e-300"],
    ], ids=" ".join)
    def test_no_traceback(self, capsys, argv):
        code, out, err = run_exit(capsys, lambda: main(argv))
        assert code in (0, 2)
        if code == 2:
            assert "error:" in err.splitlines()[-1]
        else:
            assert out

    def test_orbit_starts_at_one(self, capsys):
        code, out, _ = run(capsys, "orbit", "--sigma", "0.5", "--t", "0.001")
        assert code == 0
        assert out.splitlines()[0] == "acute_start = 1"


class TestConfigFile:
    def test_env_config_and_flag_override(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "etalab.conf"
        cfg.write_text("# comment line\nprecision=1e-10\nformat=json\n")
        monkeypatch.setenv("ETALAB_CONFIG", str(cfg))
        code, out, _ = run(capsys, "eta", "--sigma", "1", "--t", "0")
        assert code == 0
        doc = json.loads(out)  # format came from the config file
        assert doc["config"]["precision"] == 1e-10
        # explicit flag beats the file
        code, out, _ = run(capsys, "eta", "--sigma", "1", "--t", "0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "0.6931471805599453"

    def test_malformed_config_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "etalab.conf"
        cfg.write_text("precision 1e-10\n")
        monkeypatch.setenv("ETALAB_CONFIG", str(cfg))
        code, _, err = run(capsys, "eta", "--sigma", "1")
        assert code == 2
        assert "config" in err or "malformed" in err


class TestScanReadsOnlyWhatItScans:
    """Command lines whose outcome depends only on the settings the command reads."""

    SCAN_JSON = ("scan", "--which", "conjecture", "--t-from", "8", "--t-to", "9", "--format", "json")

    @pytest.mark.parametrize("conf,argv,code", [
        (None, ("scan", "--which", "monotonicity", "--t", "40", "--t-to", "250"), 0),  # no t axis read
        (None, ("scan", "--which", "monotonicity", "--t", "40", "--alpha-step", "1e-4"), 0),
        ("ceiling=500\n", ("orbit", "--sigma", "0.5", "--t", "20"), 2),
        (None, ("zeta", "--sigma", "0.5", "--t", "inf"), 2),
        (None, ("zeta", "--sigma", "0.5", "--t", "nan"), 2),
        (None, ("ratio", "--sigma", "0.3", "--t", "5e-324", "--n-max", "100"), 0),
        # t = 5e-324 lies below 2 pi + 1, where the modulus rises with alpha
        (None, ("scan", "--which", "monotonicity", "--alpha-step", "0.1", "--t", "5e-324"), 1),
        # the conjecture bounds (8 pi / 9t)^alpha overflow at a subnormal t
        (None, ("scan", "--which", "conjecture", "--t-from", "5e-324", "--t-to", "11", "--alpha-step", "0.2",
                "--format", "json"), 2),
        ("epsilon=0.3\n", (*SCAN_JSON, "--cache-dir", "{cache}"), 0),  # then re-served warm
    ], ids=lambda v: " ".join(v).strip() if isinstance(v, tuple) else str(v).strip())
    def test_exit_code_without_traceback(self, capsys, tmp_path, monkeypatch, conf, argv, code):
        argv = [a.format(cache=tmp_path / "cache") for a in argv]
        if conf:
            (tmp_path / "etalab.conf").write_text(conf)
            monkeypatch.setenv("ETALAB_CONFIG", str(tmp_path / "etalab.conf"))
        got, out, err = run_exit(capsys, lambda: main(argv))
        assert got == code
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        if "--cache-dir" in argv:
            # a warm run under another configuration prints the bytes of a cold one
            monkeypatch.delenv("ETALAB_CONFIG")
            warm = run(capsys, *argv)
            assert warm == run(capsys, *self.SCAN_JSON)
            assert sorted(json.loads(warm[1])["config"]) == ["grid", "precision", "which"]


FLOATS = ["nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e-320", "-1", "0.5", "1", "2", "200",
          repr(math.nextafter(200.0, math.inf)), "1e308"]
INTS = ["-1", "0", "1", "2", "3", str(10**7 + 1)]
PATHS = {"out": ["{tmp}/out", "{tmp}"], "cache_dir": ["{cache}"],
         "table": ["{tmp}/zeros.csv", "{tmp}/missing.csv"]}
MAX_N_MAX, MAX_GRID_POINTS = 10**4, 10**3


def _rarely(draw) -> bool:
    """True in about one draw of three: most drawn values are refused, so few are set at once."""
    return draw(st.sampled_from((True, False, False)))


def _value(draw, dest: str, kind, choices=None) -> str:
    return draw(st.sampled_from(list(choices or {float: FLOATS, int: INTS}.get(kind) or PATHS[dest])))


@st.composite
def _invocations(draw):
    """(argv, ETALAB_CONFIG text): flags from one subcommand's own parser, keys from RunConfig."""
    name = draw(st.sampled_from(list(COMMANDS)))
    [subs] = [a for a in build_parser(name)._actions if isinstance(a, argparse._SubParsersAction)]
    argv = [name]
    for action in subs.choices[name]._actions:
        flags = [f for f in action.option_strings if f.startswith("--")]
        # a default beyond the work bound (ratio's --n-max) is always overridden
        forced = action.required or (action.dest == "n_max" and action.default > MAX_N_MAX)
        if flags == ["--help"] or not (forced or _rarely(draw)):
            continue
        flag = draw(st.sampled_from(flags))
        if action.nargs != 0:  # --flag=value, as argparse reads a bare -inf as an option
            flag += "=" + _value(draw, action.dest, action.type, action.choices)
        argv.append(flag)
    conf = ""
    if _rarely(draw):
        for f in fields(RunConfig):
            if _rarely(draw):
                kind = str if f.default is None else type(f.default)
                choices = ("csv", "json", "xml") if f.name == "format" else None
                conf += f"{f.name.replace('_', '-')}={_value(draw, f.name, kind, choices)}\n"
    return argv, conf


def _grid_points(args, cfg) -> int:
    """Points a scan would evaluate; 0 where an axis is refused first."""
    if args.command != "scan":
        return 0
    alpha = ((args.alpha, args.alpha, 1.0) if args.alpha is not None
             else (cfg.grid_alpha_from, cfg.grid_alpha_to, cfg.grid_alpha_step))
    t = (cfg.grid_t_from, cfg.grid_t_to, cfg.grid_t_step)
    try:
        if args.which == "conjecture":
            return axis_count(*alpha, "alpha") * axis_count(*t, "t")
        if args.which == "monotonicity":
            return axis_count(*alpha, "alpha")
        return axis_count(*t[:2], min(t[2], 0.01), "t")
    except ValueError:
        return 0


def _no_constant(name):
    raise AssertionError(f"{name} in JSON output")


class TestFuzz:
    """Every drawn command line ends in a documented exit code, with the same bytes each run.

    A warm cache hit gives the cold run's exit code, output and stderr.
    """

    @pytest.mark.filterwarnings("error")  # a numpy warning escapes main as an exception
    @settings(derandomize=True, database=None, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
    @given(case=_invocations())
    @example(case=(["orbit", "--sigma=800", "--t=20"], ""))
    @example(case=(["sandwich", "--sigma=1e308", "--t=20", "--n-max=5"], ""))
    @example(case=(["path-export", "--sigma=1e308", "--t=20", "--n-max=50", "--stride=7"], ""))
    @example(case=(["scan", "--which=conjecture", "--t-from=5e-324", "--t-to=11", "--alpha-step=0.2",
                    "--format=json"], ""))
    @example(case=(["scan", "--which=conjecture", "--t-from=3", "--t-to=4", "--alpha-step=0.2",
                    "--cache-dir={cache}"], ""))
    def test_exit_codes_and_bytes(self, capsys, monkeypatch, tmp_path_factory, case):
        argv, conf = case
        monkeypatch.setattr(orbit, "DEFAULT_CEILING", 10**5)
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "zeros.csv").write_text("ordinal,t\n1,14.134725141734694\n")
        monkeypatch.setenv("ETALAB_CONFIG", str(tmp / "etalab.conf"))

        def fill(text: str, cache) -> str:
            return text.replace("{tmp}", str(tmp)).replace("{cache}", str(cache))

        def once(cache):
            """One run with its own cache directory: (exit code, stdout, stderr, --out bytes)."""
            (tmp / "etalab.conf").write_text(fill(conf, cache))
            (tmp / "out").unlink(missing_ok=True)
            code = main([fill(a, cache) for a in argv])
            out, err = capsys.readouterr()
            return code, out, err, (tmp / "out").read_bytes() if (tmp / "out").is_file() else None

        (tmp / "etalab.conf").write_text(fill(conf, tmp / "c1"))
        try:
            args = build_parser(argv[0]).parse_args([fill(a, tmp / "c1") for a in argv])
        except SystemExit:
            raise AssertionError(f"argparse refused {argv}")
        try:
            cfg = resolve_config({f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
            assume(_grid_points(args, cfg) <= MAX_GRID_POINTS)
        except ValueError:
            pass  # refused before any work

        first = code, out, err, written = once(tmp / "c1")
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 2:
            assert out == "" and re.fullmatch(r"(error|accuracy failure): [^\n]*\n", err), err
        for text in (out, (written or b"").decode()):
            if text.startswith("{"):
                json.loads(text, parse_constant=_no_constant)
        assert once(tmp / "c2") == first
        if "{cache}" in conf + " ".join(argv):
            assert once(tmp / "c2") == first
