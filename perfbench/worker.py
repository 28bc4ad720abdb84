"""One fresh benchmark process: set up a workload, run its loop, report.

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

The first form only sets up (import plus input generation) and reports the
moment it was ready, so that run.py can time set-up from a fresh process.
The second also runs the closed loop: one client, the next op starts when
the previous one has been checked.  Either prints one JSON object as its
last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import growthlab.sharp as sharp  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIN_TRACED_SWEEPS = 2
MICROBENCH_POINTS = 32
MICROBENCH_REPEATS = 15


@dataclass
class Workload:
    """Sweeps of op inputs, how to run one op, and how to check its output."""

    name: str
    sweeps: object          # iterator of lists of op inputs
    execute: object         # input -> output
    check: object           # (input, output) -> list of problems
    key: object             # input -> hashable key of the exact input
    grid: list
    kernel: object = reference.compute_kernel_s   # the reference for one op
    kernel_ref_s: float = reference.COMPUTE_REF_S


def make_workload(name: str, seed: int) -> Workload:
    grid = sharp.sharp_grid()
    cases = wl.make_cases(grid)
    if name == "grid-suite":
        sweeps = ([(cases[i], grid[i]) for i in order]
                  for order in wl.grid_sweeps(len(grid), seed))
        return Workload(name, sweeps,
                        execute=lambda item: wl.op_suite(item[1]),
                        check=lambda item, out: wl.check_suite(item[0], out),
                        key=lambda item: item[0].index, grid=grid)
    if name == "grid-rate":
        sweeps = ([cases[i] for i in order]
                  for order in wl.grid_sweeps(len(grid), seed))
        return Workload(name, sweeps, execute=wl.op_rate, check=wl.check_rate,
                        key=lambda case: case.index, grid=grid)
    if name == "cli":
        env = wl.cli_env(SRC)
        return Workload(
            name, wl.cli_sweeps(cases, seed),
            execute=lambda item: wl.op_cli_process(item[2], ROOT, env),
            check=lambda item, out: wl.check_cli(*item[:2], item[2], item[3],
                                                 out[0], out[1]),
            key=lambda item: tuple(item[2]), grid=grid,
            kernel=reference.process_kernel_s,
            kernel_ref_s=reference.PROCESS_REF_S)
    raise ValueError(f"unknown workload {name!r}")


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# the loops
# ---------------------------------------------------------------------------


class Loop:
    def __init__(self, work: Workload):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, item, call=None, check=None):
        """Run and check one op; returns (seconds, output) or None on error.

        call and check replace the workload's own execute and check.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = (call or self.work.execute)(item)
        except Exception as exc:  # an op that raises is a failed op
            self.failed += 1
            self.problems.append(f"{self.work.key(item)}: {exc!r}")
            return None
        seconds = time.perf_counter() - start
        problems = (check or self.work.check)(item, out)
        if problems:
            self.failed += 1
            self.problems += problems
        return seconds, out


def run_plain(work: Workload, seconds: float) -> dict:
    """The end-to-end loop: ops until the time is up, no tracing.

    Each op is preceded by one run of the workload's reference kernel; ops lists
    (op seconds, op and check seconds, kernel seconds) of every op that ran.
    """
    loop = Loop(work)
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    for sweep in work.sweeps:
        for item in sweep:
            if time.perf_counter() >= deadline:
                break
            kernel = work.kernel()
            begin = time.perf_counter()
            res = loop.run_op(item)
            if res is not None:
                ops.append((res[0], time.perf_counter() - begin, kernel))
        else:
            continue
        break
    return {"attempted": loop.attempted, "failed": loop.failed,
            "problems": loop.problems[:20], "ops": ops,
            "kernel_ref_s": work.kernel_ref_s,
            "loop_s": time.perf_counter() - start}


def run_traced(work: Workload, seconds: float) -> dict:
    """Whole sweeps, alternately untraced and traced, until the time is up.

    At least MIN_TRACED_SWEEPS traced sweeps run, so every input is traced
    twice and its exact counts can be compared.
    """
    loop = Loop(work)
    tracer = tracing.Tracer()
    op_time = {False: [0.0, 0], True: [0.0, 0]}
    sweep_counts, op_keys, op_subs = [], {}, {}

    def call(item):
        return tracer.span("op." + work.name, work.execute, item)

    def check(item, out):
        problems = work.check(item, out)
        if work.name == "cli":
            problems += _cli_main_matches(item, out)
        return problems

    deadline = time.perf_counter() + seconds
    n_traced = 0
    for k, sweep in enumerate(work.sweeps):
        traced = k % 2 == 1
        if not traced and time.perf_counter() >= deadline \
                and n_traced >= MIN_TRACED_SWEEPS:
            break
        ctx = tracer.installed() if traced else contextlib.nullcontext()
        with ctx:
            first_op = tracer.op_id + 1
            for item in sweep:
                tracer.op_id += 1
                if traced:
                    op_keys[tracer.op_id] = work.key(item)
                    if work.name == "cli":
                        op_subs[tracer.op_id] = item[0]
                    res = loop.run_op(item, call, check)
                else:
                    res = loop.run_op(item)
                if res is not None:
                    op_time[traced][0] += res[0]
                    op_time[traced][1] += 1
        if traced:
            n_traced += 1
            sweep_counts.append(_sum_counts(
                tracer.op_counts(i) for i in range(first_op, tracer.op_id + 1)))
    count_problems = _count_problems(tracer, op_keys, sweep_counts,
                                     work.name != "cli")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{work.name}.jsonl"))
    layers = _layers(tracer, n_traced, op_subs)
    rate = {m: n / t if t > 0 else 0.0 for m, (t, n) in op_time.items()}
    layers["trace_overhead_frac"] = (1.0 - rate[True] / rate[False]
                                     if rate[False] > 0 else 0.0)
    layers["models.log_value.ns_per_call"] = log_value_ns(work.grid)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "problems": (count_problems + loop.problems)[:20],
            "counts_repeat": not count_problems, "layers": layers,
            "sweep_counts": sweep_counts[0] if sweep_counts else {},
            "traced_sweeps": n_traced}


def _cli_main_matches(item, out) -> list[str]:
    """growthlab.cli.main in this process must print what the process did.

    Runs while the tracer is installed, as a span of its own outside the op.
    """
    code, stdout, _ = wl.op_cli_main(item[2])
    if (code, stdout) != (out[0], out[1]):
        return [f"{' '.join(item[2])}: in-process main differs from the "
                f"process (exit {code} vs {out[0]})"]
    return []


def _sum_counts(per_op) -> dict:
    total = dict.fromkeys(tracing.EXACT_COUNTS, 0)
    for c in per_op:
        for k, v in c.items():
            total[k] += v
    return total


def _count_problems(tracer, op_keys, sweep_counts, whole_sweeps) -> list[str]:
    """Exact counts must repeat for the same input and for every sweep."""
    problems, seen = [], {}
    for op, key in op_keys.items():
        counts = tracer.op_counts(op)
        if seen.setdefault(key, counts) != counts:
            problems.append(f"counts for {key} changed between passes: "
                            f"{seen[key]} then {counts}")
    if whole_sweeps and any(c != sweep_counts[0] for c in sweep_counts):
        problems.append(f"sweep counts differ: {sweep_counts}")
    return problems


def _layers(tracer, n_sweeps: int, op_subs: dict) -> dict:
    """Per-layer metrics, counts and times per traced sweep."""
    tot = tracer.layer_totals()
    per = 1.0 / max(n_sweeps, 1)
    counts = _sum_counts(tracer.op_counts(op) for op in tracer.counts)
    calls = tot["quadrature.log_quad"][0]
    m = {
        "quadrature.log_quad.calls": calls * per,
        "quadrature.log_quad.evals": counts["evals"] * per,
        "quadrature.log_quad.panels": counts["panels"] * per,
        "quadrature.log_quad.evals_per_call":
            counts["evals"] / calls if calls else 0.0,
        "quadrature.log_quad.busy_s": tot["quadrature.log_quad"][1] * per,
        "quadrature.log_quad.failures": counts["quad_failures"] * per,
        "quadrature.log_quad.worst_rel_error": tracer.worst_rel_error,
        "growth.GH.distinct_frac": (counts["gh_distinct"] / counts["gh_calls"]
                                    if counts["gh_calls"] else 0.0),
        "growth.suite.failed_checks": counts["suite_failed_checks"] * per,
        "growth.rate.worst_rel_gap": tracer.worst_rate_gap,
    }
    for fn in ("log_ball_integral", "log_energy_integral"):
        n, busy, self_s = tot["growth." + fn]
        m[f"growth.{fn}.calls"] = n * per
        m[f"growth.{fn}.busy_s"] = busy * per
        m[f"growth.{fn}.self_s"] = self_s * per
    for name in ("growth.check_growth_lower_bound", "growth.check_caccioppoli",
                 "growth.check_surface_capacity", "growth.measure_rate",
                 "growth.estimate_rate", "models.subsolution_residual",
                 "models.fd_cross_check"):
        m[name + ".busy_s"] = tot[name][1] * per
    for name in ("sharp.build_sharp_example", "params.solve_C1",
                 "params.comparison_constants"):
        m[name + ".calls"] = tot[name][0] * per
        m[name + ".busy_s"] = tot[name][1] * per
    m.update(_cli_layers(tracer, op_subs))
    return m


def _cli_layers(tracer, op_subs: dict) -> dict:
    """Medians per call: whole process, in-process main, and the gap."""
    proc, main, by_sub = [], [], {s: [] for s in wl.SUBCOMMANDS}
    for name, start, end, parent, op in tracer.spans:
        if name == "op.cli":
            proc.append(end - start)
        elif name == "cli.main" and parent == -1:
            main.append(end - start)
            by_sub[op_subs[op]].append(end - start)
    def med(xs):
        return statistics.median(xs) if xs else 0.0
    m = {"cli.process_s": med(proc), "cli.main_s": med(main)}
    m["cli.startup_s"] = m["cli.process_s"] - m["cli.main_s"]
    for sub, xs in by_sub.items():
        m["cli.main_s." + sub] = med(xs)
    return m


def log_value_ns(grid) -> float:
    """ns per call of profile.log_value and manifold.log_warp on the grid."""
    work = []
    for ex in grid:
        b = ex.t0 + max(1.0, 0.2 * ex.t0)
        work.append((ex.profile.log_value, ex.manifold.log_warp,
                     wl.geometric(ex.t0, 16.0 * b, MICROBENCH_POINTS)))
    times = []
    for _ in range(MICROBENCH_REPEATS):
        start = time.perf_counter()
        for log_value, log_warp, radii in work:
            for r in radii:
                log_value(r)
                log_warp(r)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (2 * len(work) * MICROBENCH_POINTS) * 1e9


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the process that does the work, in MiB."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else \
        resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = make_workload(args.workload, args.seed)
    result = {"t_ready": clock()}
    if not args.setup_only:
        run = run_traced if args.trace else run_plain
        result.update(run(work, args.seconds))
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
