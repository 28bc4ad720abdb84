"""End-to-end tests of the command line interface.

Each test invokes main() in process and inspects the exit code together
with the emitted report, so the full argument, config, and output stack is
exercised without spawning subprocesses; the process tests at the end run
``python -m growthlab.cli`` and check that it does what main does.
"""

import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab
from growthlab import build_sharp_example, compute_C0, default_check_pairs, solve_C1
from growthlab.cli import _COMMANDS, Report, main, report_to_dict, run as cli_run


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_constants_json_roundtrip(capsys):
    rc, out, _ = run(capsys, ["constants", "--p", "2", "--q", "2", "--mu", "2", "--lambda", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "constants"
    # repr-based floats survive the round trip bit for bit
    assert doc["constants"]["C0"] == compute_C0(2.0, 2.0, 1.0)
    assert doc["constants"]["C1"] == solve_C1(2.0, 2.0, 1.0)
    assert doc["constants"]["c5"] == doc["constants"]["C1"]
    assert doc["config"]["tol"] == 1e-8
    assert doc["provenance"] == [
        "growthlab.params:compute_C0",
        "growthlab.params:solve_C1",
        "growthlab.params:comparison_constants",
    ]


def test_constants_human_default(capsys):
    rc, out, _ = run(capsys, ["constants", "--p", "2", "--q", "2", "--mu", "0", "--lambda", "1"])
    assert rc == 0
    assert out.startswith("command: constants")
    assert "C1" in out


def test_missing_required_option(capsys):
    rc, _, err = run(capsys, ["constants", "--p", "2", "--q", "2", "--lambda", "1"])
    assert rc == 2
    assert "missing required option(s): --mu" in err


def test_domain_error_exit_code(capsys):
    rc, _, err = run(capsys, ["constants", "--p", "0.5", "--q", "2", "--mu", "0", "--lambda", "1"])
    assert rc == 2
    assert "p must exceed 1" in err


def test_non_finite_parameter_exit_code(capsys):
    rc, _, err = run(capsys, ["constants", "--p", "2", "--q", "inf", "--mu", "0", "--lambda", "1"])
    assert rc == 2
    assert "q must be finite" in err
    assert "Traceback" not in err


def test_extreme_k_exit_code(capsys):
    rc, _, err = run(capsys, ["constants", "--p", "2", "--q", "3", "--mu", "0", "--lambda", "1e300", "--k", "1e-300"])
    assert rc == 2
    assert "leave double range" in err
    assert "Traceback" not in err


def test_sharp_near_borderline_exit_code(capsys):
    rc, _, err = run(capsys, ["sharp", "--p", "2", "--q", "3", "--mu", "1.999"])
    assert rc == 2
    assert "positivity radius" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["l1", "--p", "1.01", "--q", "30", "--mu", "1.01"],
    ["sharp", "--p", "1.003", "--q", "5", "--mu", "1.003"],
])
def test_support_radius_past_double_exit_code(capsys, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert re.search(r"level radius t = exp\([0-9.]+\) of the level s = 2 exceeds the largest double", err)
    assert "Traceback" not in err


def test_rate_csv_schema(capsys):
    rc, out, _ = run(capsys, ["rate", "--p", "2", "--q", "3", "--mu", "0", "--samples", "4", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,logG,quad_error"
    assert len(lines) == 5
    for line in lines[1:]:
        R, logG, err = (float(x) for x in line.split(","))
        assert R > 0.0 and math.isfinite(logG) and err >= 0.0


def test_inequalities_csv_schema(capsys):
    rc, out, _ = run(capsys, ["inequalities", "--p", "2", "--q", "2", "--mu", "2", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,passed,tolerance"
    assert len(lines) == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[4] == "true"
        assert float(fields[5]) > 0.0


def test_verify_passes_and_reports_checks(capsys):
    rc, out, _ = run(capsys, ["verify", "--p", "2", "--q", "3", "--mu", "1", "--num", "12", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["equation-residual", "fd-cross-check"]
    assert all(c["passed"] for c in doc["checks"])


def test_verify_failure_exit_code(capsys):
    rc, out, _ = run(capsys, ["verify", "--p", "2", "--q", "3", "--mu", "1", "--num", "12", "--residual-tol", "1e-30"])
    assert rc == 1


def test_verify_fd_cross_check_far_out(capsys):
    # the stencil nodes r + j*h rounded at r = 1e10: margin -0.00203843
    rc, out, _ = run(capsys, ["verify", "--p", "2", "--q", "4", "--mu", "0", "--rmax", "1e10",
                              "--format", "json"])
    assert rc == 0
    checks = json.loads(out)["checks"]
    assert checks[1]["name"] == "fd-cross-check" and checks[1]["passed"]


def test_sharp_rate_report(capsys):
    rc, out, _ = run(capsys, ["sharp", "--p", "2", "--q", "3", "--mu", "0", "--rate", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["example"]["lam"] == 2.0
    assert doc["rate"]["expected"] == 4.0
    assert abs(doc["rate"]["rate"] - 4.0) <= 0.01 * 4.0
    assert doc["passed"] is True


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# comment line\np = 2\nq = 2\nmu = 0\nlambda = 1\ntol = 0.5\n")
    rc, out, _ = run(capsys, ["constants", "--config", str(cfg), "--format", "json"])
    assert rc == 0
    assert json.loads(out)["config"]["tol"] == 0.5
    rc, out, _ = run(capsys, ["constants", "--config", str(cfg), "--tol", "1e-3", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["config"]["tol"] == 1e-3


def test_config_file_not_utf8_exit_code(capsys, tmp_path):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"tol = 1e-8 # \xff\n")
    rc, out, err = run(capsys, ["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"growthlab: error: {cfg}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("value, auto", [("yes", True), ("off", False)])
def test_config_eps_auto(capsys, tmp_path, value, auto):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"eps-auto = {value}\n")
    rc, out, _ = run(capsys, ["inequalities", "--p", "2", "--q", "3", "--mu", "1", "--config", str(cfg), "--format", "json"])
    assert rc == 0
    config = json.loads(out)["config"]
    assert config["eps_auto"] is auto
    ex = build_sharp_example(2.0, 3.0, 1.0)
    b = default_check_pairs(ex)["annulus-caccioppoli"][0]
    assert config["eps"] == (ex.eps_for_radius(b) if auto else 0.0)


def test_config_bad_bool_exit_code(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("eps-auto = maybe\n")
    rc, out, err = run(capsys, ["inequalities", "--p", "2", "--q", "3", "--mu", "1", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert "bad bool 'maybe' for eps-auto" in err


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 2\nwibble = 7\n")
    rc, _, err = run(capsys, ["constants", "--config", str(cfg)])
    assert rc == 2
    assert "wibble" in err


def test_env_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("GROWTHLAB_TOL", "0.001")
    rc, out, _ = run(capsys, ["constants", "--p", "2", "--q", "2", "--mu", "0", "--lambda", "1", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["config"]["tol"] == 0.001


def test_output_file_format_by_extension(capsys, tmp_path):
    target = tmp_path / "report.csv"
    rc, out, _ = run(capsys, ["rate", "--p", "2", "--q", "3", "--mu", "0", "--samples", "4", "--output", str(target)])
    assert rc == 0
    assert str(target) in out
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "R,logG,quad_error"
    assert len(lines) == 5


@pytest.mark.parametrize("argv", [
    ["constants", "--p", "2", "--q", "3", "--mu", "0", "--lambda", "1"],
    ["sharp", "--p", "2", "--q", "3", "--mu", "0", "--format", "csv"],
    ["l1", "--slope", "3", "--p", "2"],
    ["liouville", "--p", "2", "--q", "2", "--lambda", "1", "--growth", "1.5"],
])
def test_output_without_table_keeps_file(capsys, tmp_path, argv):
    # csv by extension or by --format, for a report with no table
    target = tmp_path / "keep.csv"
    target.write_bytes(b"keep\n")
    rc, _, err = run(capsys, argv + ["--output", str(target)])
    assert rc == 2
    assert "no tabular section" in err
    assert target.read_bytes() == b"keep\n"


def test_l1_slope_sentinel_json(capsys):
    rc, out, _ = run(capsys, ["l1", "--slope=-inf", "--p", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["constants"]["slope"] == doc["constants"]["slope_ratio"] == "-inf"
    assert doc["classification"] == "condition_holds"
    rc, out, _ = run(capsys, ["l1", "--slope=inf", "--p", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["constants"]["slope"] == doc["constants"]["slope_ratio"] == "inf"
    assert doc["classification"] == "condition_fails"


def test_l1_euclidean_counterexample(capsys):
    rc, out, _ = run(capsys, ["l1", "--euclidean", "2", "--p", "3", "--q", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["constants"]["slope"] - 2.5) <= 0.025
    assert doc["classification"] == "holds_only_for_small_r"


def test_l1_euclidean_past_the_gamma_range(capsys):
    # Gamma(200) overflows; omega = 2 pi**200 / Gamma(200) is formed from lgamma
    rc, out, _ = run(capsys, ["l1", "--euclidean", "400", "--p", "600", "--q", "5", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["classification"] == "condition_holds"


def test_l1_euclidean_sphere_area_below_the_normal_doubles(capsys):
    rc, _, err = run(capsys, ["l1", "--euclidean", "1000", "--p", "1200", "--q", "5"])
    assert rc == 2
    assert "unit sphere area of dimension n=1000 is below the smallest normal double" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    # log G(1e300) is about 4e150, far past 2**53: no panel of the first
    # segment [t0, 1e300] resolves rel_tol, which fails at the floor
    (["--mu", "1", "--rmin", "1e300", "--rmax", "1e308"],
     r"below the double-precision floor on \[2\.8667473750380914, 1e\+300\]"),
    # g * (v - s0)**3 = e**(4 s) with its log past the largest double
    (["--mu", "0", "--rmin", "10", "--rmax", "8e307"],
     r"integrand log-value at 7\.965821498285148e\+307 is inf"),
])
def test_rate_past_the_largest_double_exit_code(capsys, argv, message):
    # numpy's overflow warnings escaped the integration pass, and the first
    # error named a node at inf
    rc, _, err = run(capsys, ["rate", "--p", "2", "--q", "3", *argv])
    assert rc == 2
    assert re.search(message, err)
    assert "Traceback" not in err


def test_rate_past_the_scale_of_the_relative_tolerance_exit_code(capsys):
    # log G reaches about 4e17 in the window up to 1e18: the tolerance test
    # passed segments missing rel_tol there, and the fit passed on samples
    # whose log G was off by 1e14
    rc, _, err = run(capsys, ["sharp", "--p", "2", "--q", "3", "--mu", "0", "--rate",
                              "--rmax", "1e18"])
    assert rc == 2
    assert "is below the double-precision floor" in err
    assert "Traceback" not in err


def test_rate_window_up_to_the_largest_double(capsys):
    rc, out, _ = run(capsys, ["sharp", "--p", "2", "--q", "3", "--mu", "2", "--rate",
                              "--rmax", "1e308", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_liouville_classifications(capsys):
    rc, out, _ = run(capsys, ["liouville", "--p", "2", "--q", "2", "--lambda", "1", "--growth", "1.5", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["classification"] == "forced_zero"
    rc, out, _ = run(capsys, ["liouville", "--p", "2", "--q", "2", "--lambda", "1", "--growth", "2", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["classification"] == "inconclusive"
    rc, out, _ = run(capsys, ["liouville", "--p", "2", "--q", "2", "--lambda", "1", "--growth", "2.5", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["classification"] == "inconclusive"


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_rate_too_few_samples_exit_code(capsys):
    rc, _, err = run(capsys, ["rate", "--p", "2", "--q", "3", "--mu", "1", "--samples", "1", "--rmin", "10", "--rmax", "100"])
    assert rc == 2
    assert "need at least 4 samples" in err


def test_rate_rmin_needs_rmax(capsys):
    rc, _, err = run(capsys, ["rate", "--p", "2", "--q", "3", "--mu", "1", "--rmin", "10"])
    assert rc == 2
    assert "--rmin needs --rmax" in err
    # --rmax alone still ends the default window
    rc, out, _ = run(capsys, ["rate", "--p", "2", "--q", "3", "--mu", "1", "--rmax", "1e5", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["rate"]["window"][1] == pytest.approx(1e5, rel=1e-12)


@pytest.mark.parametrize("mu, rmin, rmax, regime, rate", [
    ("1", 50.0, 1e4, "power", 2.0),
    ("2", 1e4, 1e6, "log", None),
])
def test_rate_explicit_window(capsys, mu, rmin, rmax, regime, rate):
    rc, out, _ = run(capsys, ["rate", "--p", "2", "--q", "3", "--mu", mu, "--rmin", repr(rmin), "--rmax", repr(rmax), "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["rate"]["window"] == [rmin, pytest.approx(rmax, rel=1e-12)]
    assert doc["rate"]["n_samples"] == len(doc["samples"]) == 7
    assert doc["rate"]["regime"] == regime
    if rate is not None:
        assert abs(doc["rate"]["rate"] - rate) <= 0.01


@pytest.mark.parametrize("argv, flag", [
    (["rate", "--rmax", "0"], "rmax"),
    (["rate", "--rmax", "-5"], "rmax"),
    (["sharp", "--rate", "--rmax", "-5"], "rmax"),
    (["rate", "--rmax", "inf"], "rmax"),
    (["sharp", "--rate", "--rmax", "nan"], "rmax"),
    (["verify", "--rmax", "inf"], "rmax"),
    (["rate", "--rmin", "10", "--rmax", "inf"], "rmax"),
    (["rate", "--rmin", "nan", "--rmax", "100"], "rmin"),
])
def test_bad_window_radius_exit_code(capsys, argv, flag):
    rc, _, err = run(capsys, [*argv, "--p", "2", "--q", "3", "--mu", "1"])
    assert rc == 2
    assert f"{flag} must be finite and positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, text", [
    (["verify", "--residual-tol", "nan"], "residual_tol", "nan"),
    (["verify", "--fd-tol=-1e-6"], "fd_tol", "-1e-06"),
    (["sharp", "--rate", "--rate-tol", "-0.5"], "rate_tol", "-0.5"),
    (["sharp", "--rate", "--rate-tol", "nan"], "rate_tol", "nan"),
    (["inequalities", "--tol", "nan"], "base_tol", "nan"),
    # a tolerance of inf made a check that cannot fail
    (["verify", "--residual-tol", "inf"], "residual_tol", "inf"),
    (["verify", "--fd-tol", "inf"], "fd_tol", "inf"),
    (["sharp", "--rate", "--rate-tol", "inf"], "rate_tol", "inf"),
])
def test_bad_tolerance_exit_code(capsys, argv, flag, text):
    rc, out, err = run(capsys, [*argv, "--p", "2", "--q", "3", "--mu", "1"])
    assert (rc, out) == (2, "")
    rule = "be finite" if text == "inf" else "be nonnegative"
    assert err == f"growthlab: error: {flag} must {rule}, got {text}\n"


@pytest.mark.parametrize("argv, config, env, message", [
    (["verify", "--p", "2", "--q", "3", "--mu", "1", "--tol", "nan"], None, None,
     "base_tol must be nonnegative, got nan"),
    (["verify", "--p", "2", "--q", "3", "--mu", "1", "--quad-tol", "nan"], None, None,
     "rel_tol must be finite and positive, got nan"),
    (["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1", "--tol", "nan"], None, None,
     "base_tol must be nonnegative, got nan"),
    (["l1", "--p", "2", "--q", "3", "--mu", "2", "--quad-tol", "-1"], None, None,
     "rel_tol must be finite and positive, got -1.0"),
    (["liouville", "--p", "2", "--q", "3", "--lambda", "1", "--growth", "1", "--tol", "nan"], None, None,
     "base_tol must be nonnegative, got nan"),
    (["sharp", "--p", "2", "--q", "3", "--mu", "1", "--tol", "nan"], None, None,
     "base_tol must be nonnegative, got nan"),
    (["rate", "--p", "2", "--q", "3", "--mu", "1", "--quad-tol", "0"], None, None,
     "rel_tol must be finite and positive, got 0.0"),
    (["verify"], "p = 2\nq = 3\nmu = 1\nquad-tol = -1e-12\n", None,
     "rel_tol must be finite and positive, got -1e-12"),
    (["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1"], None, "nan",
     "base_tol must be nonnegative, got nan"),
    (["inequalities", "--p", "2", "--q", "3", "--mu", "1", "--tol", "inf"], None, None,
     "base_tol must be finite, got inf"),
    (["verify"], "p = 2\nq = 3\nmu = 1\ntol = inf\n", None, "base_tol must be finite, got inf"),
    (["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1"], None, "inf",
     "base_tol must be finite, got inf"),
], ids=["verify-tol", "verify-quad-tol", "constants-tol", "l1-quad-tol", "liouville-tol",
        "sharp-tol", "rate-quad-tol-zero", "config-quad-tol", "env-tol", "inequalities-tol-inf",
        "config-tol-inf", "env-tol-inf"])
def test_bad_shared_tolerance_exit_code(capsys, tmp_path, monkeypatch, argv, config, env, message):
    """--tol and --quad-tol are checked for every command, from any source."""
    if config is not None:
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    if env is not None:
        monkeypatch.setenv("GROWTHLAB_TOL", env)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"growthlab: error: {message}\n"


@pytest.mark.parametrize("config, env, key, text", [
    ("p = abc\nq = 3\nmu = 1\n", None, "p", "abc"),
    ("p = 2\nq = 3\nmu = 1\nsamples = 2.5\n", None, "samples", "2.5"),
    (None, "abc", "tol", "abc"),
], ids=["config-float", "config-int", "env-tol"])
def test_malformed_value_exit_code(capsys, tmp_path, monkeypatch, config, env, key, text):
    argv = ["rate", "--p", "2", "--q", "3", "--mu", "1"]
    if config is not None:
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(config)
        argv = ["rate", "--config", str(cfg)]
    if env is not None:
        monkeypatch.setenv("GROWTHLAB_TOL", env)
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert f"{text!r} for {key}" in err


@pytest.mark.parametrize("argv, t0", [
    (["--p", "2.206009028241012", "--q", "5.430045016579829", "--mu", "2.19099545838915"],
     "7.60958e+303"),
    (["--p", "5.081038456343246", "--q", "7.641636973882101", "--mu", "5.028690852538179"],
     "4.7582e+306"),
])
def test_l1_window_past_the_largest_double_exit_code(capsys, argv, t0):
    # the slope read nan on the first tuple, and the second named [inf, inf]
    rc, out, err = run(capsys, ["l1", *argv])
    assert (rc, out) == (2, "")
    assert err == ("growthlab: error: slope window [R, 1e4*R] with R = max(1e4, 100*t0) "
                   f"reaches past the largest double at t0={t0}\n")


@pytest.mark.parametrize("config, message", [
    ("p 2\n", "{cfg}:1: expected 'key = value', got 'p 2\\n'"),
    ("# comment\n = 2\n", "{cfg}:2: empty key"),
], ids=["no-equals", "empty-key"])
def test_malformed_config_line_exit_code(capsys, tmp_path, config, message):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(config)
    rc, out, err = run(capsys, ["rate", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert err == f"growthlab: error: {message.format(cfg=cfg)}\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--p", "2", "--q", "3", "--mu", "1", "--num", "1"],
     "grid needs at least 2 points, got 1"),
    (["rate", "--p", "2", "--q", "3", "--mu", "1", "--rmin", "2.8667473750380914", "--rmax", "100"],
     "need t0 < rmin < rmax, got [2.8667473750380914, 100.0]"),
    (["rate", "--p", "2", "--q", "3", "--mu", "1", "--rmin", "1", "--rmax", "100"],
     "need t0 < rmin < rmax, got [1.0, 100.0]"),
    (["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1", "--format", "xml"],
     "unknown format 'xml'; use json or csv"),
    (["liouville"], "missing required option(s): --p, --q, --lambda, --growth"),
    # c = 2.9e-309, so 1/c and with it t0 are inf
    *[([command, "--p", "1.5", "--q", "1.7e308", "--mu", mu, "--format", "json"],
       "level radius t = exp(inf) of the level s = 2 exceeds the largest double")
      for command, mu in (("sharp", "0"), ("inequalities", "0"), ("verify", "1.5"))],
    (["l1", "--slope", "inf", "--p", "inf", "--format", "json"], "p must be finite, got inf"),
    (["l1", "--slope", "1", "--p", "inf"], "p must be finite, got inf"),
    (["l1", "--slope", "nan", "--p", "2"], "sphere_log_slope is nan"),
    (["l1", "--slope", "1", "--p", "1"], "p must exceed 1, got 1.0"),
    # alpha = (p - n) / (p - 1) is nan at p = inf, and the slope with it
    (["l1", "--euclidean", "3", "--p", "inf", "--q", "1"], "p must be finite, got inf"),
    # q * log v passes the largest double: "sphere_log_slope is nan"
    (["l1", "--euclidean", "3", "--p", "4", "--q", "1e308"],
     "log phi is +inf or nan on [10000.0, 100000000.0], q=1e+308"),
    # c**(p - 1) overflowed with a traceback, or lam = 0.0 reached Params
    (["sharp", "--p", "50", "--q", "2450.0000001", "--mu", "0"],
     "potential amplitude lam = inf leaves double range at p=50.0, mu=0.0"),
    (["sharp", "--p", "1e6", "--q", "1e13", "--mu", "0"],
     "potential amplitude lam = 0.0 leaves double range at p=1000000.0, mu=0.0"),
], ids=["verify-num", "rate-rmin-at-t0", "rate-rmin-below-t0", "format-xml",
        "missing-flags", "sharp-t0-inf", "inequalities-t0-inf", "verify-t0-inf",
        "l1-slope-inf-p-inf", "l1-p-inf", "l1-slope-nan", "l1-p-one",
        "l1-euclidean-p-inf", "l1-euclidean-slope-overflow", "sharp-lam-overflow",
        "sharp-lam-underflow"])
def test_usage_error_messages(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"growthlab: error: {message}\n"


def test_json_maps_nan_and_the_infinities_to_strings():
    report = Report(command="l1", constants={"slope": math.nan, "hi": math.inf, "lo": -math.inf},
                    samples=[[1.0, math.nan]])
    doc = report_to_dict(report)
    assert doc["constants"] == {"slope": "nan", "hi": "inf", "lo": "-inf"}
    assert doc["samples"] == [[1.0, "nan"]]


def test_rate_human_sample_block(capsys):
    argv = ["rate", "--p", "2", "--q", "3", "--mu", "1", "--samples", "4"]
    rc, out, _ = run(capsys, [*argv, "--format", "json"])
    assert rc == 0
    samples = json.loads(out)["samples"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    start = lines.index("  R, logG, quad_error:")
    assert lines[start + 1:start + 5] == [
        f"    {s['R']:.6e}  {s['logG']:.12g}  {s['quad_error']:.3e}" for s in samples]
    assert lines[start + 5].startswith("  rate.rate = ")


def test_l1_human_classification_line(capsys):
    argv = ["l1", "--p", "2", "--q", "3", "--mu", "1"]
    rc, out, _ = run(capsys, [*argv, "--format", "json"])
    assert rc == 0
    slope = json.loads(out)["constants"]["slope"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[:5] == ["command: l1", f"  slope = {slope!r}", "  p = 2.0",
                         f"  slope_ratio = {slope!r}", "  initial_infinite = True"]
    assert lines[5].startswith("  example: p=2, q=3, mu=1, ")
    assert lines[6:] == ["  classification: holds_only_for_small_r"]


def test_sharp_truncation_level_overflow_exit_code(capsys):
    # as q -> p - 1 the positivity radius grows until 2*v(r+) passes the largest double
    rc, _, err = run(capsys, ["sharp", "--p", "1.5", "--q", "0.5000001", "--mu", "0.75"])
    assert rc == 2
    assert "positivity radius r_ref = 1.5625e+12 exceeds double range" in err
    assert "Traceback" not in err


def test_sharp_rate_window_names_support_radius(capsys):
    rc, _, err = run(capsys, ["sharp", "--p", "50", "--q", "3000", "--mu", "25", "--rate"])
    assert rc == 2
    assert "rate window starts at R=6.17539, not past the support radius t0=286.04" in err
    assert "rmax" not in err


def test_sharp_rate_window_overflow_exit_code(capsys):
    rc, _, err = run(capsys, ["sharp", "--p", "2", "--q", "3", "--mu", "1.986", "--rate"])
    assert rc == 2
    assert "largest double" in err
    assert "Traceback" not in err


# (p, q, mu, rmax) where r*r or r**mu passes the largest double inside the
# grid: the two mu = p cases at 1e300 and 1e250 raised DomainError for
# r**mu, and the 1e200 cases gave a wrong verdict or raised, because the
# residual formed t*t and r**mu; it now forms r**mu-scaled terms only
_PAST_R_SQUARED = [
    ("2", "3", "2", "1e300"),
    ("1.5", "0.625", "1.5", "1e250"),
    ("1.5", "0.625", "1.5", "1e200"),
    ("1.5", "0.875", "1.5", "1e200"),
    ("2", "3", "2", "1e200"),
    ("3", "7", "3", "1e200"),
]


@pytest.mark.parametrize("p, q, mu, rmax", _PAST_R_SQUARED, ids=["-".join(c) for c in _PAST_R_SQUARED])
def test_verify_passes_past_double_range_of_r_squared(capsys, p, q, mu, rmax):
    rc, out, err = run(capsys, ["verify", "--p", p, "--q", q, "--mu", mu, "--rmax", rmax,
                                "--format", "json"])
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["passed"] for c in doc["checks"]] == [True, True]


def test_verify_fd_stencil_that_rounds_exit_code(capsys):
    # the potential no longer overflows at (3, 4, 1.5); the fd step at the
    # grid's second fd radius is below the spacing of doubles there
    rc, _, err = run(capsys, ["verify", "--p", "3", "--q", "4", "--mu", "1.5", "--rmax", "1e300"])
    assert rc == 2
    assert err.startswith("growthlab: error: stencil nodes r + j*h round at r=1.0608309184555996e+76")
    assert "Traceback" not in err


# t0 = 4.58e13, where log v does not resolve t0 + 0.1 from t0
_HUGE_T0 = ["--p", "2.6197565880454388", "--q", "7.0285483973644585",
            "--mu", "2.4184550030463954"]


def test_verify_starts_where_log_v_resolves_the_level(capsys):
    # the grid starts at the level radius of s0 * (1 + 2**-30), not at
    # t0 + 0.1, where v > s0 is not seen
    rc, out, err = run(capsys, ["verify", *_HUGE_T0, "--rmax", "1e20", "--format", "json"])
    assert rc == 0, err
    checks = json.loads(out)["checks"]
    assert [c["passed"] for c in checks] == [True, True]
    assert abs(checks[0]["lhs"]) <= 1e-14


@pytest.mark.parametrize("argv, start", [
    # t0 + 0.1 where that resolves v > s0, the level radius past it
    (["--p", "2", "--q", "3", "--mu", "1", "--rmax", "1"], "2.96674737503809"),
    ([*_HUGE_T0, "--rmax", "1e13"], "4580410822877"),
])
def test_verify_rmax_below_the_grid_start_names_it(capsys, argv, start):
    rc, _, err = run(capsys, ["verify", *argv])
    assert rc == 2
    assert err.startswith(f"growthlab: error: rmax={float(argv[-1])} must exceed "
                          f"the grid start {start}")


def test_quadrature_error_exit_code(capsys):
    # at gamma = q - p + 1 = 0.01 the singular edge of H runs out of panels
    rc, _, err = run(capsys, ["inequalities", "--p", "1.5", "--q", "0.51", "--mu", "0.75"])
    assert rc == 2
    assert err.startswith("growthlab: error: needed more than 4096 panels")
    assert "Traceback" not in err


# Each command's config keys in report order, and its provenance, frozen from
# the JSON reports of growthlab 0.1.0; l1's names the modules that
# sphere_log_slope and classify_l1_condition moved to, and inequalities'
# names run_inequality_suite, the function its handler runs.
COMMAND_TABLE = {
    "constants": (
        ["p", "q", "mu", "lam", "k", "eps", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.params:compute_C0", "growthlab.params:solve_C1",
         "growthlab.params:comparison_constants"]),
    "sharp": (
        ["p", "q", "mu", "rate", "rmax", "samples", "rate_tol", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.sharp:build_sharp_example", "growthlab.growth:measure_rate"]),
    "verify": (
        ["p", "q", "mu", "num", "rmax", "residual_tol", "fd_tol", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.models:subsolution_residual", "growthlab.models:fd_cross_check"]),
    "rate": (
        ["p", "q", "mu", "rmin", "rmax", "samples", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.growth:growth_samples", "growthlab.growth:estimate_rate"]),
    "inequalities": (
        ["p", "q", "mu", "eps", "eps_auto", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.growth:run_inequality_suite"]),
    "l1": (
        ["slope", "initial_infinite", "euclidean", "p", "q", "mu", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.models:sphere_log_slope", "growthlab.params:classify_l1_condition"]),
    "liouville": (
        ["p", "q", "lam", "k", "growth", "output", "fmt", "tol", "quad_tol"],
        ["growthlab.params:liouville_check"]),
}

COMMAND_ARGV = {
    "constants": ["--p", "2", "--q", "3", "--mu", "1", "--lambda", "1"],
    "sharp": ["--p", "2", "--q", "3", "--mu", "1"],
    "verify": ["--p", "2", "--q", "3", "--mu", "1", "--num", "12"],
    "rate": ["--p", "2", "--q", "3", "--mu", "1", "--samples", "4"],
    "inequalities": ["--p", "2", "--q", "3", "--mu", "1"],
    "l1": ["--slope", "0.5", "--p", "2"],
    "liouville": ["--p", "2", "--q", "2", "--lambda", "1", "--growth", "1.5"],
}


def flag_of(key):
    """The long flag of a report config key."""
    return "--" + {"lam": "lambda", "fmt": "format"}.get(key, key.replace("_", "-"))


@pytest.mark.parametrize("command", COMMAND_TABLE)
def test_config_keys_and_provenance(capsys, command):
    rc, out, _ = run(capsys, [command, *COMMAND_ARGV[command], "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    keys, provenance = COMMAND_TABLE[command]
    assert list(doc["config"]) == keys
    assert doc["provenance"] == provenance


@pytest.mark.parametrize("command", COMMAND_TABLE)
def test_provenance_names_the_functions(command):
    """Each "module:name" of the table imports as the exported function of
    that name, defined in that module."""
    for entry in _COMMANDS[command][2]:
        module, name = entry.split(":")
        fn = getattr(importlib.import_module(module), name)
        assert f"{fn.__module__}:{fn.__name__}" == entry
        assert fn is getattr(growthlab, name)


@pytest.mark.parametrize("command", COMMAND_TABLE)
def test_help_lists_the_table_flags(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    usage = capsys.readouterr().out.split("options:")[0]
    flags = re.findall(r"\[(-[-\w]+)", usage)
    expected = ["-h", "--config", *map(flag_of, COMMAND_TABLE[command][0])]
    assert sorted(flags) == sorted(expected)


@pytest.mark.parametrize("command", COMMAND_TABLE)
def test_config_file_keys_are_the_flags(capsys, tmp_path, command):
    # a key the command does not know is rejected; each of its flags is not
    keys = [flag_of(key)[2:] for key in COMMAND_TABLE[command][0]]
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("".join(f"{key} = x\n" for key in keys))
    rc, _, err = run(capsys, [command, "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" not in err


# ---------------------------------------------------------------------------
# the process: python -m growthlab.cli against main in process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, code", [
    (["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1", "--format", "json"], 0),
    (["inequalities", "--p", "2", "--q", "3", "--mu", "1", "--format", "csv"], 0),
    (["sharp", "--p", "2", "--q", "3", "--mu", "0", "--rate", "--rate-tol", "0"], 1),
    (["sharp", "--p", "2", "--q", "3", "--mu", "0", "--rate-tol", "-1"], 2),
    (["constants", "--p", "2", "--q", "3", "--mu", "1", "--lambda", "1", "--output", "{tmp}"], 0),
])
def test_process_matches_main(capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.delenv("GROWTHLAB_TOL", raising=False)
    target = tmp_path / "report.json"
    argv = [arg.replace("{tmp}", str(target)) for arg in argv]
    env = dict(os.environ)
    src = str(Path(growthlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "growthlab.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    written = target.read_bytes() if target.exists() else None
    target.unlink(missing_ok=True)

    state = gc.isenabled(), gc.get_freeze_count()
    rc, out, err = run(capsys, argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == state
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)
    assert rc == code
    assert written == (target.read_bytes() if target.exists() else None)
    assert (written is not None) == ("--output" in argv)
    if code == 2:
        assert err == "growthlab: error: rate_tol must be nonnegative, got -1.0\n"


def test_run_exits_with_the_status_of_main_and_freezes(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["growthlab", "sharp", "--p", "2", "--q", "3",
                                      "--mu", "0", "--rate-tol", "-1"])
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as info:
            cli_run()
        assert info.value.code == 2
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert "rate_tol" in capsys.readouterr().err
