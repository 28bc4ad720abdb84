"""Command line interface for the growth laboratory.

Subcommands:

    constants     sharp constants and the comparison chain for (p, q, ...)
    sharp         build an extremal example; optionally measure its rate
    verify        check the example solves its critical equation pointwise
    rate          sample ball integrals and fit the growth exponent
    inequalities  run the integral-inequality suite on an example
    l1            classify reciprocal integrability of sphere integrals
    liouville     compare a growth constant against the vanishing threshold

Every subcommand accepts --config FILE, --output PATH and --format
{json,csv}.  Without --output or --format a human-readable summary is
printed.  A config file holds "key = value" lines, where key is a long flag
without "--" (lambda, quad-tol, rate-tol, eps-auto, ...).  Each option takes
the first value found of: its flag, the config file, the GROWTHLAB_TOL
environment variable (--tol only), its default.  One table, _COMMANDS,
declares every subcommand with its options, handler and provenance.  Only
growthlab.params loads with this module; each handler imports models, sharp
or growth where it uses them, so constants, liouville and l1 --slope load
neither models nor sharp, and only the handlers that integrate load growth,
and with it numpy.  run() is the process: it freezes the collector before
the interpreter exits, so the exit does not walk the loaded modules.

Exit status: 0 on success with all checks passed, 1 when a requested check
failed, 2 for usage or domain errors, including a config or environment
value that does not parse.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

from .params import (CheckReport, DomainError, Params, QuadratureError,
                     _check_finite_positive, _check_nonnegative,
                     classify_l1_condition, comparison_constants, compute_C0,
                     liouville_check, solve_C1)


@dataclass
class Report:
    """Everything a subcommand produced, ready for emission.

    Handlers fill in the results; main adds command, config and provenance.
    """

    command: str = ""
    config: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)
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

# An option is (flag, dest, type, default, help); its config key is the flag
# without "--", and type bool marks an on/off switch.
_P = ("--p", "p", float, None, "degeneracy exponent")
_Q = ("--q", "q", float, None, "zero-order exponent")
_MU = ("--mu", "mu", float, None, "potential decay exponent")
_LAM = ("--lambda", "lam", float, None, "potential amplitude")
_K = ("--k", "k", float, 1.0, "coercivity constant")
# every command takes these after its own options and --config; main checks
# --tol and --quad-tol for every command, under the names of the library
# arguments they set (base_tol, rel_tol), also where the command reads neither
_SHARED = (
    ("--output", "output", str, None, "write the report to this path"),
    ("--format", "fmt", str, None, "report format: json or csv"),
    ("--tol", "tol", float, 1e-8,
     "base tolerance for checks (env GROWTHLAB_TOL)"),
    ("--quad-tol", "quad_tol", float, 1e-12,
     "relative tolerance for quadratures"),
)


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
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


# the spellings a switch accepts from a config file, case and spaces aside
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _convert(typ, key: str, text: str, source: str):
    try:
        return _BOOLS[text.strip().lower()] if typ is bool else typ(text)
    except (KeyError, ValueError):
        raise DomainError(f"{source}: bad {typ.__name__} {text!r} "
                          f"for {key}") from None


def _resolve(args: argparse.Namespace, options: tuple) -> dict:
    """Each option's first value of: flag, config file, env, default.

    The environment (GROWTHLAB_TOL) only supplies tol.
    """
    file_values = _parse_config_file(args.config) if args.config else {}
    keys = [flag[2:] for flag, *_ in options]
    for key in file_values:
        if key not in keys:
            raise DomainError(
                f"unknown config key {key!r} for {args.command!r}")
    env_tol = os.environ.get("GROWTHLAB_TOL")
    resolved = {}
    for key, (_, dest, typ, default, _) in zip(keys, options):
        value = getattr(args, dest)
        if value is None and key in file_values:
            value = _convert(typ, key, file_values[key], args.config)
        if value is None and key == "tol" and env_tol:
            value = _convert(typ, key, env_tol, "GROWTHLAB_TOL")
        resolved[dest] = default if value is None else value
    return resolved


def _add_arguments(parser, options) -> None:
    for flag, dest, typ, _, help_text in options:
        if typ is bool:
            parser.add_argument(flag, dest=dest, action="store_true",
                                default=None, help=help_text)
        else:
            parser.add_argument(flag, dest=dest, type=typ, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="sharp growth constants and extremal examples for "
                    "degenerate quasilinear inequalities on model surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        _add_arguments(sp, options)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="read defaults from FILE (key = value lines)")
        _add_arguments(sp, _SHARED)
    return parser


def _require(options: dict, *names: str) -> None:
    """DomainError naming, by its flag, each of names that has no value."""
    missing = [_FLAGS[n] for n in names if options.get(n) is None]
    if missing:
        raise DomainError("missing required option(s): " + ", ".join(missing))


# ---------------------------------------------------------------------------
# handlers: each takes the resolved options and returns a Report
# ---------------------------------------------------------------------------


def _example_dict(ex) -> dict:
    return {"p": ex.p, "q": ex.q, "mu": ex.mu, "a": ex.a, "c": ex.c,
            "lam": ex.lam, "beta": ex.beta, "s0": ex.s0, "t0": ex.t0,
            "expected_rate": ex.expected_rate,
            "positivity_radius": ex.potential.r_min_positive}


def _example(o: dict):
    """The sharp example of --p, --q and --mu; importing sharp loads models."""
    _require(o, "p", "q", "mu")
    from .sharp import build_sharp_example
    return build_sharp_example(o["p"], o["q"], o["mu"])


def _handle_constants(o: dict) -> Report:
    _require(o, "p", "q", "mu", "lam")
    p, q, mu, lam, k = o["p"], o["q"], o["mu"], o["lam"], o["k"]
    params = Params(p=p, q=q, mu=mu, lam=lam, k=k)
    cc = comparison_constants(params, o["eps"])
    return Report(constants={
        "p": p, "q": q, "mu": mu, "lam": lam, "k": k, "eps": o["eps"],
        "gamma": params.gamma, "p_conj": params.p_conj, "beta": params.beta,
        "C0": compute_C0(p, q, lam, k), "C1": solve_C1(p, q, lam, k),
        "c1": cc.c1, "c2": cc.c2, "c3": cc.c3, "C2": cc.C2,
        "c4": cc.c4, "c5": cc.c5, "c6": cc.c6})


def _handle_sharp(o: dict) -> Report:
    ex = _example(o)
    if o["rate_tol"] is not None:
        _check_nonnegative("rate_tol", o["rate_tol"])
    report = Report(example=_example_dict(ex))
    if o["rate"]:
        from .growth import measure_rate
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


def _handle_verify(o: dict) -> Report:
    ex = _example(o)
    from .models import fd_cross_check, geometric_grid, subsolution_residual
    _check_nonnegative("residual_tol", o["residual_tol"])
    _check_nonnegative("fd_tol", o["fd_tol"])
    lo, hi, num = ex.t0 + 0.1, o["rmax"], o["num"]
    if num < 2:
        raise DomainError(f"grid needs at least 2 points, got {num}")
    _check_finite_positive("rmax", hi)
    if not ex.profile.log_value(lo) > math.log(ex.s0):
        # past t0 ~ 1e13 log v cannot tell t0 + 0.1 from t0
        lo = max(lo, ex.profile.level_radius(ex.s0 * (1.0 + 2.0 ** -30)))
    if hi <= lo:
        raise DomainError(f"rmax={hi} must exceed the grid start {lo}")
    radii = geometric_grid(lo, hi, num)
    residual = subsolution_residual(ex.manifold, ex.profile, ex.potential,
                                    ex.p, ex.s0, radii)
    fd_radii = [radii[0], radii[num // 4], radii[num // 2],
                radii[(3 * num) // 4], radii[-1]]
    fd_worst = max(fd_cross_check(ex.manifold, ex.profile, ex.p, r)
                   for r in fd_radii)
    checks = [
        CheckReport(name="equation-residual", lhs=residual, rhs=0.0,
                    margin=-abs(residual), tolerance=o["residual_tol"]),
        CheckReport(name="fd-cross-check", lhs=fd_worst, rhs=0.0,
                    margin=-fd_worst, tolerance=o["fd_tol"]),
    ]
    return Report(example=_example_dict(ex), checks=checks,
                  passed=all(c.passed for c in checks))


def _handle_rate(o: dict) -> Report:
    # the example, and with it sharp and models, before growth: compiled
    # from source after numpy has loaded, they raise the process's peak RSS
    # by about 0.45 MiB
    ex = _example(o)
    from .models import geometric_grid
    from .growth import estimate_rate, growth_samples, rate_window
    lo, hi, num = o["rmin"], o["rmax"], o["samples"]
    if lo is None:
        radii = rate_window(ex, rmax=hi, num=num)
    else:
        if hi is None:
            raise DomainError("--rmin needs --rmax")
        _check_finite_positive("rmin", lo)
        _check_finite_positive("rmax", hi)
        if not (ex.t0 < lo < hi):
            raise DomainError(f"need t0 < rmin < rmax, got [{lo}, {hi}]")
        if num < 4:
            raise DomainError(f"need at least 4 samples, got num={num}")
        radii = geometric_grid(lo, hi, num)
    samples = growth_samples(ex.manifold, ex.profile, ex.q, ex.s0, radii,
                             rel_tol=o["quad_tol"])
    est = estimate_rate(samples, ex.beta)
    return Report(example=_example_dict(ex), samples=samples,
                  rate=dict(asdict(est), expected=ex.expected_rate))


def _handle_inequalities(o: dict) -> Report:
    ex = _example(o)  # before growth, as in _handle_rate
    from .growth import default_check_pairs, run_inequality_suite
    if o["eps_auto"]:
        # the deficit at the suite's smallest radius; the derived eps is
        # what the report's config shows
        o["eps"] = ex.eps_for_radius(
            default_check_pairs(ex)["annulus-caccioppoli"][0])
    checks = run_inequality_suite(ex, eps=o["eps"], base_tol=o["tol"],
                                  rel_tol=o["quad_tol"])
    return Report(example=_example_dict(ex), checks=checks,
                  passed=all(c.passed for c in checks))


def _handle_l1(o: dict) -> Report:
    example = None
    if o["slope"] is not None:
        _require(o, "p")
        slope = o["slope"]
        initial_infinite = o["initial_infinite"]
    elif o["euclidean"] is not None:
        from .models import ModelManifold, PHarmonicRn, sphere_log_slope
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
        ex = _example(o)
        from .models import sphere_log_slope
        lo = max(1e4, 100.0 * ex.t0)
        if not 1e4 * lo < math.inf:
            raise DomainError(
                f"slope window [R, 1e4*R] with R = max(1e4, 100*t0) reaches "
                f"past the largest double at t0={ex.t0:.6g}")
        slope = sphere_log_slope(ex.manifold, ex.profile, ex.q, ex.s0,
                                 lo, 1e4 * lo)
        initial_infinite = True  # truncation kills the integrand below t0
        example = _example_dict(ex)
    verdict = classify_l1_condition(slope, o["p"],
                                    finite_radius_infinite=initial_infinite)
    return Report(example=example,
                  constants={"slope": slope, "p": o["p"],
                             "slope_ratio": slope / (o["p"] - 1.0),
                             "initial_infinite": initial_infinite},
                  classification=verdict)


def _handle_liouville(o: dict) -> Report:
    _require(o, "p", "q", "lam", "growth")
    params = Params(p=o["p"], q=o["q"], mu=0.0, lam=o["lam"], k=o["k"])
    verdict = liouville_check(params, o["growth"])
    threshold = compute_C0(o["p"], o["q"], o["lam"], o["k"])
    return Report(constants={"C0": threshold, "growth": o["growth"]},
                  classification=verdict)


# command -> (help, handler, the "module:name" of each package function its
#             provenance names, its own options); --config and _SHARED
#             follow the own options
_COMMANDS = {
    "constants": (
        "sharp and comparison constants", _handle_constants,
        ("growthlab.params:compute_C0", "growthlab.params:solve_C1",
         "growthlab.params:comparison_constants"),
        (_P, _Q, _MU, _LAM, _K,
         ("--eps", "eps", float, 0.0,
          "amplitude reduction for the comparison chain"))),
    "sharp": (
        "build an extremal example", _handle_sharp,
        ("growthlab.sharp:build_sharp_example",
         "growthlab.growth:measure_rate"),
        (_P, _Q, _MU,
         ("--rate", "rate", bool, False,
          "measure the growth rate and compare"),
         ("--rmax", "rmax", float, None, "largest sampling radius for --rate"),
         ("--samples", "samples", int, 7, "number of rate samples"),
         ("--rate-tol", "rate_tol", float, None,
          "relative tolerance on the measured rate"))),
    "verify": (
        "pointwise check of the example", _handle_verify,
        ("growthlab.models:subsolution_residual",
         "growthlab.models:fd_cross_check"),
        (_P, _Q, _MU,
         ("--num", "num", int, 200, "grid size"),
         ("--rmax", "rmax", float, 1e3, "grid end"),
         ("--residual-tol", "residual_tol", float, 1e-9,
          "tolerance on the equation residual"),
         ("--fd-tol", "fd_tol", float, 1e-6,
          "tolerance on the finite-difference cross check"))),
    "rate": (
        "sample ball integrals and fit a rate", _handle_rate,
        ("growthlab.growth:growth_samples",
         "growthlab.growth:estimate_rate"),
        (_P, _Q, _MU,
         ("--rmin", "rmin", float, None, "smallest sampling radius"),
         ("--rmax", "rmax", float, None, "largest sampling radius"),
         ("--samples", "samples", int, 7, "number of sampling radii"))),
    "inequalities": (
        "integral inequality suite", _handle_inequalities,
        ("growthlab.growth:run_inequality_suite",),
        (_P, _Q, _MU,
         ("--eps", "eps", float, 0.0,
          "amplitude reduction for the comparison constants"),
         ("--eps-auto", "eps_auto", bool, False,
          "derive eps from the example's amplitude deficit"))),
    "l1": (
        "reciprocal integrability classification", _handle_l1,
        ("growthlab.models:sphere_log_slope",
         "growthlab.params:classify_l1_condition"),
        (("--slope", "slope", float, None,
          "log-log slope of the sphere integral (skips measurement)"),
         ("--initial-infinite", "initial_infinite", bool, False,
          "the sphere integrand vanishes near the origin"),
         ("--euclidean", "euclidean", int, None,
          "measure the slope on Euclidean space of this dimension"),
         _P, _Q, _MU)),
    "liouville": (
        "threshold classification", _handle_liouville,
        ("growthlab.params:liouville_check",),
        (_P, _Q, _LAM, _K,
         ("--growth", "growth", float, None, "growth constant to classify"))),
}
# dest -> flag of every command's own options, for _require's message
_FLAGS = {dest: flag for *_, options in _COMMANDS.values()
          for flag, dest, *_ in options}


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
    """The fields of report in order: command, config and provenance
    always, every other one unless it is None or an empty list."""
    return _json_safe({
        key: value for key, value in asdict(report).items()
        if key in ("command", "config", "provenance")
        or (value is not None and value != [])})


def emit_json(report: Report, fh) -> None:
    # floats serialize via repr: shortest decimal that round-trips exactly,
    # never more than 17 significant digits
    json.dump(report_to_dict(report), fh, indent=2)
    fh.write("\n")


def emit_csv(report: Report, fh) -> None:
    """Tabular section of a report, checks if present, else samples: one
    column per field of the record, in order; a string as it is, a boolean
    as true or false, a number as the repr of its float."""
    records = report.checks or report.samples
    if not records:
        raise DomainError(
            f"report for {report.command!r} has no tabular section for csv")
    names = [f.name for f in fields(records[0])]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for record in records:
        row = [getattr(record, name) for name in names]
        writer.writerow([v if isinstance(v, str)
                         else ("true" if v else "false") if isinstance(v, bool)
                         else repr(float(v)) for v in row])


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


# --format -> emitter; None is the human summary, which --output replaces
# by the format its file name ends in
_EMITTERS = {None: emit_human, "json": emit_json, "csv": emit_csv}


def _emit(report: Report, options: dict) -> None:
    fmt, output = options["fmt"], options["output"]
    if fmt not in _EMITTERS:
        raise DomainError(f"unknown format {fmt!r}; use json or csv")
    if output:
        fmt = fmt or ("csv" if output.endswith(".csv") else "json")
    # render first: a report with no csv table leaves the file as it was
    text = io.StringIO()
    _EMITTERS[fmt](report, text)
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text.getvalue())
        print(f"wrote {fmt} report to {output}")
    else:
        sys.stdout.write(text.getvalue())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, calls, options = _COMMANDS[args.command]
    try:
        resolved = _resolve(args, options + _SHARED)
        _check_nonnegative("base_tol", resolved["tol"])
        _check_finite_positive("rel_tol", resolved["quad_tol"])
        report = handler(resolved)
        report.command, report.config = args.command, resolved
        report.provenance = list(calls)
        _emit(report, resolved)
    except (DomainError, QuadratureError, OSError) as exc:
        print(f"growthlab: error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.passed is False else 0


def run() -> None:
    """The growthlab process: main on sys.argv, then exit with its status.

    Whatever main does, the collector is frozen before the interpreter
    exits: the exit would otherwise collect over every object of the loaded
    modules, numpy's included, whose memory the OS is about to free anyway.
    main itself leaves the collector as it found it.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
