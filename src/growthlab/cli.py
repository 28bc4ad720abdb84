"""Command line interface for the growth laboratory.

Subcommands:

    constants     sharp constants and the comparison chain for (p, q, ...)
    sharp         build an extremal example; optionally measure its rate
    verify        check the example solves its critical equation pointwise
    rate          sample ball integrals and fit the growth exponent
    inequalities  run the integral-inequality suite on an example
    l1            classify reciprocal integrability of sphere integrals
    liouville     compare a growth constant against the vanishing threshold

Every subcommand accepts --config FILE (lines of "key = value", where key is
a long option name), --output PATH and --format {json,csv}.  Without
--output or --format a human-readable summary is printed.  The base check
tolerance comes from --tol, a config file, or the GROWTHLAB_TOL environment
variable, in that order of precedence.

Exit status: 0 on success with all checks passed, 1 when a requested check
failed, 2 for usage or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

from .growth import (CheckReport, classify_l1_condition, estimate_rate,
                     growth_samples, measure_rate, rate_window,
                     run_inequality_suite, sphere_log_slope)
from .models import (ModelManifold, PHarmonicRn, fd_cross_check,
                     subsolution_residual)
from .params import (DomainError, Params, comparison_constants, compute_C0,
                     derived_exponents, liouville_check, solve_C1)
from .quadrature import QuadratureError
from .sharp import build_sharp_example

FD_DEFAULT_TOL = 1e-6
RESIDUAL_DEFAULT_TOL = 1e-9

# provenance strings identify the package checks that produced a report
_PROV = {
    "constants": ["growthlab.params:compute_C0", "growthlab.params:solve_C1",
                  "growthlab.params:comparison_constants"],
    "sharp": ["growthlab.sharp:build_sharp_example",
              "growthlab.growth:measure_rate"],
    "verify": ["growthlab.models:subsolution_residual",
               "growthlab.models:fd_cross_check"],
    "rate": ["growthlab.growth:growth_samples",
             "growthlab.growth:estimate_rate"],
    "inequalities": ["growthlab.growth:check_growth_lower_bound",
                     "growthlab.growth:check_caccioppoli",
                     "growthlab.growth:check_surface_capacity"],
    "l1": ["growthlab.growth:sphere_log_slope",
           "growthlab.growth:classify_l1_condition"],
    "liouville": ["growthlab.params:liouville_check"],
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one invocation: flag > config file > env > default."""

    command: str
    options: dict


@dataclass
class Report:
    """Everything a subcommand produced, ready for emission."""

    command: str
    config: dict
    provenance: list
    constants: dict | None = None
    example: dict | None = None
    samples: list = field(default_factory=list)
    rate: dict | None = None
    checks: list = field(default_factory=list)
    classification: str | None = None
    passed: bool | None = None


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

# registry: command -> option dest -> (config key, converter, default)
_OPTION_SPECS: dict[str, dict[str, tuple[str, object, object]]] = {}


def _add_opt(parser, command, flag, dest, conv, default, help_text,
             is_flag=False):
    specs = _OPTION_SPECS.setdefault(command, {})
    specs[dest] = (flag.lstrip("-"), conv, default)
    if is_flag:
        parser.add_argument(flag, dest=dest, action="store_true",
                            default=False, help=help_text)
    else:
        parser.add_argument(flag, dest=dest, type=conv, default=None,
                            help=help_text)


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise DomainError(f"{path}:{lineno}: empty key")
            values[key] = value
    return values


def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise DomainError(f"expected a boolean, got {text!r}")


def _resolve(args: argparse.Namespace) -> RunConfig:
    command = args.command
    specs = _OPTION_SPECS.get(command, {})
    file_values = _parse_config_file(args.config) if args.config else {}
    known_keys = {spec[0] for spec in specs.values()}
    for key in file_values:
        if key not in known_keys:
            raise DomainError(f"unknown config key {key!r} for {command!r}")
    options = {}
    for dest, (key, conv, default) in specs.items():
        cli_value = getattr(args, dest)
        if conv is _to_bool:
            value = cli_value or (key in file_values
                                  and _to_bool(file_values[key]))
            options[dest] = bool(value)
            continue
        if cli_value is not None:
            options[dest] = cli_value
        elif key in file_values:
            options[dest] = conv(file_values[key])
        else:
            options[dest] = default
    if options.get("tol") is None:
        env = os.environ.get("GROWTHLAB_TOL")
        options["tol"] = float(env) if env else 1e-8
    return RunConfig(command=command, options=options)


def _common_opts(parser, command):
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="read defaults from FILE (key = value lines)")
    _add_opt(parser, command, "--output", "output", str, None,
             "write the report to this path")
    _add_opt(parser, command, "--format", "fmt", str, None,
             "report format: json or csv")
    _add_opt(parser, command, "--tol", "tol", float, None,
             "base tolerance for checks (env GROWTHLAB_TOL)")
    _add_opt(parser, command, "--quad-tol", "quad_tol", float, 1e-12,
             "relative tolerance for quadratures")


def _param_opts(parser, command, mu_required):
    _add_opt(parser, command, "--p", "p", float, None, "degeneracy exponent")
    _add_opt(parser, command, "--q", "q", float, None, "zero-order exponent")
    if mu_required:
        _add_opt(parser, command, "--mu", "mu", float, None,
                 "potential decay exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="sharp growth constants and extremal examples for "
                    "degenerate quasilinear inequalities on model surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("constants", help="sharp and comparison constants")
    _param_opts(cp, "constants", mu_required=True)
    _add_opt(cp, "constants", "--lambda", "lam", float, None,
             "potential amplitude")
    _add_opt(cp, "constants", "--k", "k", float, 1.0, "coercivity constant")
    _add_opt(cp, "constants", "--eps", "eps", float, 0.0,
             "amplitude reduction for the comparison chain")
    _common_opts(cp, "constants")

    sp = sub.add_parser("sharp", help="build an extremal example")
    _param_opts(sp, "sharp", mu_required=True)
    _add_opt(sp, "sharp", "--rate", "rate", _to_bool, False,
             "measure the growth rate and compare", is_flag=True)
    _add_opt(sp, "sharp", "--rmax", "rmax", float, None,
             "largest sampling radius for --rate")
    _add_opt(sp, "sharp", "--samples", "samples", int, 7,
             "number of rate samples")
    _add_opt(sp, "sharp", "--rate-tol", "rate_tol", float, None,
             "relative tolerance on the measured rate")
    _common_opts(sp, "sharp")

    vp = sub.add_parser("verify", help="pointwise check of the example")
    _param_opts(vp, "verify", mu_required=True)
    _add_opt(vp, "verify", "--num", "num", int, 200, "grid size")
    _add_opt(vp, "verify", "--rmax", "rmax", float, 1e3, "grid end")
    _add_opt(vp, "verify", "--residual-tol", "residual_tol", float,
             RESIDUAL_DEFAULT_TOL, "tolerance on the equation residual")
    _add_opt(vp, "verify", "--fd-tol", "fd_tol", float, FD_DEFAULT_TOL,
             "tolerance on the finite-difference cross check")
    _common_opts(vp, "verify")

    rp = sub.add_parser("rate", help="sample ball integrals and fit a rate")
    _param_opts(rp, "rate", mu_required=True)
    _add_opt(rp, "rate", "--rmin", "rmin", float, None,
             "smallest sampling radius")
    _add_opt(rp, "rate", "--rmax", "rmax", float, None,
             "largest sampling radius")
    _add_opt(rp, "rate", "--samples", "samples", int, 7,
             "number of sampling radii")
    _common_opts(rp, "rate")

    ip = sub.add_parser("inequalities", help="integral inequality suite")
    _param_opts(ip, "inequalities", mu_required=True)
    _add_opt(ip, "inequalities", "--eps", "eps", float, 0.0,
             "amplitude reduction for the comparison constants")
    _add_opt(ip, "inequalities", "--eps-auto", "eps_auto", _to_bool, False,
             "derive eps from the example's amplitude deficit", is_flag=True)
    _common_opts(ip, "inequalities")

    lp = sub.add_parser("l1", help="reciprocal integrability classification")
    _add_opt(lp, "l1", "--slope", "slope", float, None,
             "log-log slope of the sphere integral (skips measurement)")
    _add_opt(lp, "l1", "--initial-infinite", "initial_infinite", _to_bool,
             False, "the sphere integrand vanishes near the origin",
             is_flag=True)
    _add_opt(lp, "l1", "--euclidean", "euclidean", int, None,
             "measure the slope on Euclidean space of this dimension")
    _param_opts(lp, "l1", mu_required=True)
    _common_opts(lp, "l1")

    wp = sub.add_parser("liouville", help="threshold classification")
    _param_opts(wp, "liouville", mu_required=False)
    _add_opt(wp, "liouville", "--lambda", "lam", float, None,
             "potential amplitude")
    _add_opt(wp, "liouville", "--k", "k", float, 1.0, "coercivity constant")
    _add_opt(wp, "liouville", "--growth", "growth", float, None,
             "growth constant to classify")
    _common_opts(wp, "liouville")

    return parser


def _require(options: dict, *names: str) -> None:
    missing = [n for n in names if options.get(n) is None]
    if missing:
        raise DomainError(
            "missing required option(s): " + ", ".join(
                "--lambda" if n == "lam" else "--" + n.replace("_", "-")
                for n in missing))


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _example_dict(ex) -> dict:
    return {"p": ex.p, "q": ex.q, "mu": ex.mu, "a": ex.a, "c": ex.c,
            "lam": ex.lam, "beta": ex.beta, "s0": ex.s0, "t0": ex.t0,
            "expected_rate": ex.expected_rate,
            "positivity_radius": ex.potential.r_min_positive}


def _constants_dict(p, q, mu, lam, k, eps) -> dict:
    params = Params(p=p, q=q, mu=mu, lam=lam, k=k)
    ex = derived_exponents(params)
    cc = comparison_constants(params, eps)
    return {"p": p, "q": q, "mu": mu, "lam": lam, "k": k, "eps": eps,
            "gamma": ex.gamma, "p_conj": ex.p_conj, "beta": ex.beta,
            "C0": compute_C0(p, q, lam, k), "C1": solve_C1(p, q, lam, k),
            "c1": cc.c1, "c2": cc.c2, "c3": cc.c3, "C2": cc.C2,
            "c4": cc.c4, "c5": cc.c5, "c6": cc.c6}


def _handle_constants(cfg: RunConfig) -> Report:
    o = cfg.options
    _require(o, "p", "q", "mu", "lam")
    constants = _constants_dict(o["p"], o["q"], o["mu"], o["lam"], o["k"],
                                o["eps"])
    return Report(command=cfg.command, config=dict(o),
                  provenance=_PROV["constants"], constants=constants)


def _handle_sharp(cfg: RunConfig) -> Report:
    o = cfg.options
    _require(o, "p", "q", "mu")
    ex = build_sharp_example(o["p"], o["q"], o["mu"])
    report = Report(command=cfg.command, config=dict(o),
                    provenance=_PROV["sharp"], example=_example_dict(ex))
    if o["rate"]:
        est = measure_rate(ex, rmax=o["rmax"], num=o["samples"],
                           rel_tol=o["quad_tol"])
        rate_tol = o["rate_tol"]
        if rate_tol is None:
            rate_tol = 0.005 if ex.is_borderline else 0.01
        rel_gap = abs(est.rate - ex.expected_rate) / abs(ex.expected_rate)
        report.rate = dict(asdict(est), expected=ex.expected_rate,
                           rel_gap=rel_gap, rel_tol=rate_tol)
        report.passed = rel_gap <= rate_tol
    return report


def _handle_verify(cfg: RunConfig) -> Report:
    o = cfg.options
    _require(o, "p", "q", "mu")
    ex = build_sharp_example(o["p"], o["q"], o["mu"])
    lo, hi, num = ex.t0 + 0.1, o["rmax"], o["num"]
    if num < 2:
        raise DomainError(f"grid needs at least 2 points, got {num}")
    if hi <= lo:
        raise DomainError(f"rmax={hi} must exceed t0 + 0.1 = {lo}")
    radii = [lo * (hi / lo) ** (i / (num - 1)) for i in range(num)]
    residual = subsolution_residual(ex.manifold, ex.profile, ex.potential,
                                    ex.p, ex.s0, radii)
    fd_radii = [radii[0], radii[num // 4], radii[num // 2],
                radii[(3 * num) // 4], radii[-1]]
    fd_worst = max(fd_cross_check(ex.manifold, ex.profile, ex.p, r)
                   for r in fd_radii)
    checks = [
        CheckReport(name="equation-residual", lhs=residual, rhs=0.0,
                    margin=-abs(residual), passed=abs(residual) <= o["residual_tol"],
                    tolerance=o["residual_tol"]),
        CheckReport(name="fd-cross-check", lhs=fd_worst, rhs=0.0,
                    margin=-fd_worst, passed=fd_worst <= o["fd_tol"],
                    tolerance=o["fd_tol"]),
    ]
    return Report(command=cfg.command, config=dict(o),
                  provenance=_PROV["verify"], example=_example_dict(ex),
                  checks=checks, passed=all(c.passed for c in checks))


def _handle_rate(cfg: RunConfig) -> Report:
    o = cfg.options
    _require(o, "p", "q", "mu")
    ex = build_sharp_example(o["p"], o["q"], o["mu"])
    num = o["samples"]
    if o["rmin"] is not None and o["rmax"] is not None:
        lo, hi = o["rmin"], o["rmax"]
        if not (ex.t0 < lo < hi):
            raise DomainError(f"need t0 < rmin < rmax, got [{lo}, {hi}]")
        radii = [lo * (hi / lo) ** (i / (num - 1)) for i in range(num)]
        regime = "log" if ex.is_borderline else "power"
    else:
        radii, regime = rate_window(ex, rmax=o["rmax"], num=num)
    samples = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, radii,
                             rel_tol=o["quad_tol"])
    beta = ex.beta if regime == "power" else None
    est = estimate_rate(samples, regime=regime, beta=beta)
    return Report(command=cfg.command, config=dict(o),
                  provenance=_PROV["rate"], example=_example_dict(ex),
                  samples=samples,
                  rate=dict(asdict(est), expected=ex.expected_rate))


def _handle_inequalities(cfg: RunConfig) -> Report:
    o = cfg.options
    _require(o, "p", "q", "mu")
    ex = build_sharp_example(o["p"], o["q"], o["mu"])
    eps = o["eps"]
    if o["eps_auto"]:
        b = ex.t0 + max(1.0, 0.2 * ex.t0)
        eps = ex.eps_for_radius(b)
    checks = run_inequality_suite(ex, eps=eps, base_tol=o["tol"],
                                  rel_tol=o["quad_tol"])
    return Report(command=cfg.command, config=dict(o, eps=eps),
                  provenance=_PROV["inequalities"],
                  example=_example_dict(ex), checks=checks,
                  passed=all(c.passed for c in checks))


def _handle_l1(cfg: RunConfig) -> Report:
    o = cfg.options
    example = None
    if o["slope"] is not None:
        _require(o, "p")
        slope = o["slope"]
        initial_infinite = o["initial_infinite"]
    elif o["euclidean"] is not None:
        _require(o, "p", "q")
        n = o["euclidean"]
        profile = PHarmonicRn(n, o["p"])
        manifold = ModelManifold.euclidean(n)
        slope = sphere_log_slope(manifold, profile, o["q"], 0.0, 1e4, 1e8)
        # the profile vanishes on the unit ball, so small balls see nothing
        initial_infinite = True
        example = {"space": f"euclidean-{n}", "alpha": profile.alpha,
                   "profile_exponent": profile.alpha}
    else:
        _require(o, "p", "q", "mu")
        ex = build_sharp_example(o["p"], o["q"], o["mu"])
        lo = max(1e4, 100.0 * ex.t0)
        slope = sphere_log_slope(ex.manifold, ex.profile, ex.q, ex.s0,
                                 lo, 1e4 * lo)
        initial_infinite = True  # truncation kills the integrand below t0
        example = _example_dict(ex)
    verdict = classify_l1_condition(slope, o["p"],
                                    finite_radius_infinite=initial_infinite)
    return Report(command=cfg.command, config=dict(o),
                  provenance=_PROV["l1"], example=example,
                  constants={"slope": slope, "p": o["p"],
                             "slope_ratio": slope / (o["p"] - 1.0),
                             "initial_infinite": initial_infinite},
                  classification=verdict)


def _handle_liouville(cfg: RunConfig) -> Report:
    o = cfg.options
    _require(o, "p", "q", "lam", "growth")
    params = Params(p=o["p"], q=o["q"], mu=0.0, lam=o["lam"], k=o["k"])
    verdict = liouville_check(params, o["growth"])
    threshold = compute_C0(o["p"], o["q"], o["lam"], o["k"])
    return Report(command=cfg.command, config=dict(o),
                  provenance=_PROV["liouville"],
                  constants={"C0": threshold, "growth": o["growth"]},
                  classification=verdict)


_HANDLERS = {
    "constants": _handle_constants,
    "sharp": _handle_sharp,
    "verify": _handle_verify,
    "rate": _handle_rate,
    "inequalities": _handle_inequalities,
    "l1": _handle_l1,
    "liouville": _handle_liouville,
}


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _json_safe(obj):
    """Map nan and the infinities to strings; keep finite floats exact."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if obj == math.inf:
            return "inf"
        if obj == -math.inf:
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def report_to_dict(report: Report) -> dict:
    out = {"command": report.command, "config": report.config,
           "provenance": report.provenance}
    if report.constants is not None:
        out["constants"] = report.constants
    if report.example is not None:
        out["example"] = report.example
    if report.samples:
        out["samples"] = [asdict(s) for s in report.samples]
    if report.rate is not None:
        out["rate"] = report.rate
    if report.checks:
        out["checks"] = [asdict(c) for c in report.checks]
    if report.classification is not None:
        out["classification"] = report.classification
    if report.passed is not None:
        out["passed"] = report.passed
    return _json_safe(out)


def emit_json(report: Report, fh) -> None:
    # floats serialize via repr: shortest decimal that round-trips exactly,
    # never more than 17 significant digits
    json.dump(report_to_dict(report), fh, indent=2)
    fh.write("\n")


def _csv_num(x: float) -> str:
    return repr(float(x))


def emit_csv(report: Report, fh) -> None:
    """Tabular section of a report: checks if present, else samples."""
    writer = csv.writer(fh, lineterminator="\n")
    if report.checks:
        writer.writerow(["name", "lhs", "rhs", "margin", "passed",
                         "tolerance"])
        for c in report.checks:
            writer.writerow([c.name, _csv_num(c.lhs), _csv_num(c.rhs),
                             _csv_num(c.margin),
                             "true" if c.passed else "false",
                             _csv_num(c.tolerance)])
    elif report.samples:
        writer.writerow(["R", "logG", "quad_error"])
        for s in report.samples:
            writer.writerow([_csv_num(s.R), _csv_num(s.logG),
                             _csv_num(s.quad_error)])
    else:
        raise DomainError(
            f"report for {report.command!r} has no tabular section for csv")


def emit_human(report: Report, fh) -> None:
    print(f"command: {report.command}", file=fh)
    if report.constants:
        for key, value in report.constants.items():
            if value is not None:
                print(f"  {key} = {value}", file=fh)
    if report.example:
        parts = ", ".join(f"{k}={v:.10g}" if isinstance(v, float) else
                          f"{k}={v}" for k, v in report.example.items())
        print(f"  example: {parts}", file=fh)
    if report.samples:
        print("  R, logG, quad_error:", file=fh)
        for s in report.samples:
            print(f"    {s.R:.6e}  {s.logG:.12g}  {s.quad_error:.3e}",
                  file=fh)
    if report.rate:
        for key, value in report.rate.items():
            print(f"  rate.{key} = {value}", file=fh)
    for c in report.checks:
        status = "passed" if c.passed else "FAILED"
        print(f"  {c.name}: margin={c.margin:.6g} tol={c.tolerance:.3g} "
              f"[{status}]", file=fh)
    if report.classification is not None:
        print(f"  classification: {report.classification}", file=fh)
    if report.passed is not None:
        print(f"  passed: {report.passed}", file=fh)


def _emit(report: Report, options: dict) -> None:
    fmt = options.get("fmt")
    output = options.get("output")
    if fmt is not None and fmt not in ("json", "csv"):
        raise DomainError(f"unknown format {fmt!r}; use json or csv")
    if output:
        chosen = fmt or ("csv" if output.endswith(".csv") else "json")
        with open(output, "w", encoding="utf-8", newline="") as fh:
            (emit_csv if chosen == "csv" else emit_json)(report, fh)
        print(f"wrote {chosen} report to {output}")
    elif fmt == "json":
        emit_json(report, sys.stdout)
    elif fmt == "csv":
        emit_csv(report, sys.stdout)
    else:
        emit_human(report, sys.stdout)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        report = _HANDLERS[cfg.command](cfg)
        _emit(report, cfg.options)
    except (DomainError, QuadratureError) as exc:
        print(f"growthlab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"growthlab: error: {exc}", file=sys.stderr)
        return 2
    if report.passed is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
