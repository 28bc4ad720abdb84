"""Inputs, operations and output checks of the three benchmark workloads.

Every input is a point of ``sharp_grid()``, the 27 extremal examples on
which each output has a designed value to be checked against.  The seed
only decides the order of the grid in each sweep and, for ``cli``, which
grid tuple and output format each subcommand call gets.

An operation returns what the program produced; ``check_*`` compares that
against values worked out in set-up and returns a list of problems, empty
when the output is correct.  The growthlab modules are reached through
their module attributes at call time, so a traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import growthlab.cli as cli
import growthlab.growth as growth
import growthlab.models as models
import growthlab.params as params
import growthlab.sharp as sharp

import reference

WORKLOADS = ("cli", "grid-suite", "grid-rate")
SUBCOMMANDS = ("constants", "sharp", "verify", "rate", "inequalities", "l1",
               "liouville")
CSV_CAPABLE = ("verify", "rate", "inequalities")
EXAMPLE_COMMANDS = ("sharp", "verify", "rate", "inequalities", "l1")

# the CLI's own tolerances: verify's defaults and sharp --rate's rate_tol
RESIDUAL_TOL = 1e-9
FD_TOL = 1e-6
RATE_TOL_POWER = 0.01
RATE_TOL_BORDERLINE = 0.005
VERIFY_RMAX = 1e3
VERIFY_NUM = 200
# the l1 handler's window [lo, L1_WINDOW * lo] and its number of radii, and
# the relative distance of the measured slope from the designed one
L1_WINDOW = 1e4
L1_POINTS = 9
L1_SLOPE_TOL = 1e-9
SUITE_CHECKS = 9
RATE_SAMPLES = 7

CHECK_HEADER = ["name", "lhs", "rhs", "margin", "passed", "tolerance"]
SAMPLE_HEADER = ["R", "logG", "quad_error"]
CLI_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Case:
    """One grid example and the designed values its outputs must meet."""

    index: int
    p: float
    q: float
    mu: float
    lam: float
    borderline: bool
    expected_rate: float
    C0: float
    C1: float
    l1_alpha: float
    radii: tuple
    fd_radii: tuple

    @property
    def rate_tol(self) -> float:
        return RATE_TOL_BORDERLINE if self.borderline else RATE_TOL_POWER


def geometric(lo: float, hi: float, num: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (num - 1)) for i in range(num)]


def l1_slope(warp_exp: float, c: float, q: float, s0: float, radii) -> float:
    """Least-squares log-log slope of t**warp_exp * (t**c - s0)**q.

    The designed sphere integral of a borderline example, fitted on the
    radii the CLI's l1 handler uses.
    """
    xs = [math.log(r) for r in radii]
    ys = [warp_exp * x + q * math.log(r ** c - s0) for x, r in zip(xs, radii)]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) \
        / sum((x - xm) ** 2 for x in xs)


def make_cases(grid) -> list[Case]:
    cases = []
    for i, ex in enumerate(grid):
        radii = geometric(ex.t0 + 0.1, VERIFY_RMAX, VERIFY_NUM)
        n = VERIFY_NUM
        fd_radii = (radii[0], radii[n // 4], radii[n // 2],
                    radii[(3 * n) // 4], radii[-1])
        lo = max(1e4, 100.0 * ex.t0)
        if ex.is_borderline:
            alpha = l1_slope(ex.a + ex.p - 1.0, ex.c, ex.q, ex.s0,
                             geometric(lo, L1_WINDOW * lo, L1_POINTS))
        else:
            # smallest local log-slope of exp(kappa * t**beta) on the window
            alpha = ex.kappa * ex.beta * lo ** ex.beta
        cases.append(Case(
            index=i, p=ex.p, q=ex.q, mu=ex.mu, lam=ex.lam,
            borderline=ex.is_borderline, expected_rate=ex.expected_rate,
            C0=params.compute_C0(ex.p, ex.q, ex.lam),
            C1=params.solve_C1(ex.p, ex.q, ex.lam),
            l1_alpha=alpha, radii=tuple(radii), fd_radii=fd_radii))
    return cases


# ---------------------------------------------------------------------------
# schedules: what the seed decides
# ---------------------------------------------------------------------------


def grid_sweeps(n_cases: int, seed: int):
    """Endless sweeps over the grid, each in a fresh seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_cases))
        rng.shuffle(order)
        yield order


def cli_sweeps(cases: list[Case], seed: int):
    """Endless cycles through the 7 subcommands with seeded grid tuples.

    Each item is a list of (subcommand, case, argv, extra) for one cycle;
    extra carries the growth factor of a liouville call.
    """
    rng = random.Random(seed)
    while True:
        cycle = []
        for sub in SUBCOMMANDS:
            case = rng.choice(cases)
            fmt = rng.choice(("json", "csv")) if sub in CSV_CAPABLE else "json"
            factor = rng.choice((0.5, 2.0)) if sub == "liouville" else None
            cycle.append((sub, case, cli_argv(sub, case, fmt, factor), factor))
        yield cycle


def cli_argv(sub: str, case: Case, fmt: str, factor: float | None) -> list:
    pq = ["--p", repr(case.p), "--q", repr(case.q)]
    mu = ["--mu", repr(case.mu)]
    tail = ["--format", fmt]
    if sub == "constants":
        return [sub, *pq, *mu, "--lambda", repr(case.lam), *tail]
    if sub == "sharp":
        return [sub, *pq, *mu, "--rate", *tail]
    if sub == "liouville":
        return [sub, *pq, "--lambda", repr(case.lam),
                "--growth", repr(factor * case.C0), *tail]
    return [sub, *pq, *mu, *tail]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def op_suite(example):
    return growth.run_inequality_suite(example)


@dataclass(frozen=True)
class RateResult:
    expected_rate: float
    residual: float
    fd_worst: float
    rate: float


def op_rate(case: Case) -> RateResult:
    ex = sharp.build_sharp_example(case.p, case.q, case.mu)
    residual = models.subsolution_residual(ex.manifold, ex.profile,
                                           ex.potential, ex.p, ex.s0,
                                           case.radii)
    fd_worst = max(models.fd_cross_check(ex.manifold, ex.profile, ex.p, r)
                   for r in case.fd_radii)
    est = growth.measure_rate(ex)
    return RateResult(expected_rate=ex.expected_rate, residual=residual,
                      fd_worst=fd_worst, rate=est.rate)


def cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + old if old else "")
    env.pop("GROWTHLAB_TOL", None)
    return env


def op_cli_process(argv: list, cwd: str, env: dict):
    """One fresh ``python -m growthlab.cli`` process: (exit code, stdout,
    stderr)."""
    return reference.run_process([sys.executable, "-m", "growthlab.cli", *argv],
                                 CLI_TIMEOUT_S, cwd=cwd, env=env)


def op_cli_main(argv: list):
    """growthlab.cli.main in this process with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_suite(case: Case, reports) -> list[str]:
    problems = []
    if len(reports) != SUITE_CHECKS:
        problems.append(f"suite on case {case.index} gave {len(reports)} "
                        f"checks, expected {SUITE_CHECKS}")
    problems += [f"case {case.index}: {r.name} failed (margin {r.margin!r}, "
                 f"tolerance {r.tolerance!r})" for r in reports if not r.passed]
    return problems


def _rate_problems(case: Case, expected: float, rate: float) -> list[str]:
    """The reported expected rate is the designed one, and rate meets it."""
    problems = []
    if expected != case.expected_rate:
        problems.append(f"expected_rate {expected!r} is not the designed "
                        f"{case.expected_rate!r}")
    gap = abs(rate - case.expected_rate) / abs(case.expected_rate)
    if not gap <= case.rate_tol:
        problems.append(f"rate {rate!r} misses {case.expected_rate!r} by "
                        f"{gap:.3e} > {case.rate_tol}")
    return problems


def check_rate(case: Case, res: RateResult) -> list[str]:
    problems = _rate_problems(case, res.expected_rate, res.rate)
    if not abs(res.residual) <= RESIDUAL_TOL:
        problems.append(f"equation residual {res.residual!r} > {RESIDUAL_TOL}")
    if not res.fd_worst <= FD_TOL:
        problems.append(f"fd deviation {res.fd_worst!r} > {FD_TOL}")
    tag = f"case {case.index} (p={case.p}, q={case.q}, mu={case.mu})"
    return [f"{tag}: {p}" for p in problems]


def _parse_csv(text: str, header: list, rows: int) -> list[dict]:
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        raise ValueError(f"csv header {table[:1]} is not {header}")
    if len(table) - 1 != rows:
        raise ValueError(f"csv has {len(table) - 1} rows, expected {rows}")
    return [dict(zip(header, row, strict=True)) for row in table[1:]]


def _check_csv_checks(text: str, rows: int) -> list[str]:
    problems = []
    for row in _parse_csv(text, CHECK_HEADER, rows):
        for key in ("lhs", "rhs", "margin", "tolerance"):
            float(row[key])
        if row["passed"] != "true":
            problems.append(f"csv check {row['name']} passed={row['passed']}")
    return problems


def _check_json_checks(doc: dict, rows: int) -> list[str]:
    checks = doc["checks"]
    problems = [] if len(checks) == rows else [
        f"{len(checks)} checks, expected {rows}"]
    for c in checks:
        if set(c) != set(CHECK_HEADER):
            problems.append(f"check keys {sorted(c)}")
        elif c["passed"] is not True:
            problems.append(f"check {c['name']} did not pass")
    if doc.get("passed") is not True:
        problems.append(f"passed is {doc.get('passed')!r}")
    return problems


def check_cli(sub: str, case: Case, argv: list, factor, code: int,
              out: str) -> list[str]:
    """Exit code 0 and the documented JSON/CSV schema with designed values."""
    if code != 0:
        return [f"{' '.join(argv)}: exit code {code}"]
    try:
        problems = _check_cli_output(sub, case, argv, factor, out)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unparsable output: {exc!r}"]
    return [f"{' '.join(argv)}: {p}" for p in problems]


def _check_cli_output(sub, case, argv, factor, out) -> list[str]:
    if argv[-1] == "csv":
        if sub == "rate":
            rows = _parse_csv(out, SAMPLE_HEADER, RATE_SAMPLES)
            rs = [float(r["R"]) for r in rows]
            gs = [float(r["logG"]) for r in rows]
            ok = (all(b > a for a, b in zip(rs, rs[1:]))
                  and all(b > a for a, b in zip(gs, gs[1:]))
                  and all(math.isfinite(float(r["quad_error"])) for r in rows))
            return [] if ok else ["rate samples are not increasing and finite"]
        return _check_csv_checks(out, 2 if sub == "verify" else SUITE_CHECKS)
    doc = json.loads(out)
    problems = [] if doc["command"] == sub else [f"command {doc['command']}"]
    if sub in EXAMPLE_COMMANDS:
        if doc["example"]["expected_rate"] != case.expected_rate:
            problems.append("example.expected_rate differs from the design")
    if sub == "constants":
        c = doc["constants"]
        if c["C0"] != case.C0:
            problems.append(f"C0 {c['C0']!r} != compute_C0 {case.C0!r}")
        if c["C1"] != case.C1:
            problems.append(f"C1 {c['C1']!r} != solve_C1 {case.C1!r}")
    elif sub == "sharp":
        problems += _rate_problems(case, doc["rate"]["expected"],
                                   doc["rate"]["rate"])
        if doc["rate"]["rel_tol"] != case.rate_tol:
            problems.append(f"rate.rel_tol {doc['rate']['rel_tol']}")
        if doc.get("passed") is not True:
            problems.append(f"passed is {doc.get('passed')!r}")
    elif sub == "verify":
        problems += _check_json_checks(doc, 2)
    elif sub == "rate":
        if len(doc["samples"]) != RATE_SAMPLES:
            problems.append(f"{len(doc['samples'])} samples")
        problems += _rate_problems(case, doc["rate"]["expected"],
                                   doc["rate"]["rate"])
    elif sub == "inequalities":
        problems += _check_json_checks(doc, SUITE_CHECKS)
    elif sub == "l1":
        slope = doc["constants"]["slope"]
        want = growth.classify_l1_condition(case.l1_alpha, case.p, True)
        if doc["classification"] != want:
            problems.append(f"classification {doc['classification']} != {want}")
        if case.borderline and not (
                abs(slope - case.l1_alpha) <= L1_SLOPE_TOL * case.l1_alpha):
            problems.append(f"slope {slope!r} is not {case.l1_alpha!r}")
    elif sub == "liouville":
        c = doc["constants"]
        if c["C0"] != case.C0:
            problems.append(f"C0 {c['C0']!r} != compute_C0 {case.C0!r}")
        want = "forced_zero" if factor < 1.0 else "inconclusive"
        if doc["classification"] != want:
            problems.append(f"classification {doc['classification']} != {want}")
    return problems
