"""End-to-end tests of the command line interface.

Each test invokes main() in process and inspects the exit code together
with the emitted report, so the full argument, config, and output stack is
exercised without spawning subprocesses.
"""

import importlib
import json
import math
import re

import pytest

import growthlab
from growthlab import build_sharp_example, compute_C0, default_check_pairs, solve_C1
from growthlab.cli import _COMMANDS, main


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
])
def test_bad_tolerance_exit_code(capsys, argv, flag, text):
    rc, out, err = run(capsys, [*argv, "--p", "2", "--q", "3", "--mu", "1"])
    assert (rc, out) == (2, "")
    assert err == f"growthlab: error: {flag} must be nonnegative, got {text}\n"


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
], ids=["verify-tol", "verify-quad-tol", "constants-tol", "l1-quad-tol", "liouville-tol",
        "sharp-tol", "rate-quad-tol-zero", "config-quad-tol", "env-tol"])
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


def test_quadrature_error_exit_code(capsys):
    # at gamma = q - p + 1 = 0.01 the singular edge of H runs out of panels
    rc, _, err = run(capsys, ["inequalities", "--p", "1.5", "--q", "0.51", "--mu", "0.75"])
    assert rc == 2
    assert err.startswith("growthlab: error: needed more than 4096 panels")
    assert "Traceback" not in err


# Each command's config keys in report order, and its provenance, frozen from
# the JSON reports of growthlab 0.1.0; l1's names the modules that
# sphere_log_slope and classify_l1_condition moved to.
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
        ["growthlab.growth:check_growth_lower_bound", "growthlab.growth:check_caccioppoli",
         "growthlab.growth:check_surface_capacity"]),
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
