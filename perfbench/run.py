"""growthlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {cli,grid-suite,grid-rate}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is taken from ``src/`` of that
checkout; nothing is installed.  With ``--trace 0`` the last line of
standard output is a JSON object whose metrics are the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics.  The
lines above it say the same in words, with the seed, the sample counts and
the exact work counts.  A full record is written to
``perfbench/out/result-<workload>-trace<t>.json`` (and the spans of a traced
run to ``perfbench/out/spans-<workload>.jsonl``).

Exit status: 0 when every op's output was correct, 1 when an op failed or
gave a wrong output, 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli", "grid-suite", "grid-rate")

# fresh processes timed for setup_s (untraced runs only): SETUP_PROBES probes
# plus the measured worker itself, after one untimed start that warms the
# file cache (and the bytecode cache, where Python may write one); the
# process kernel of reference.py runs right before each
SETUP_PROBES = 6
IMPORT_PROBES = 3
# op_tail_s: a percentile per workload that kept at least 10 samples beyond
# it at the op counts of the runs made when the benchmark was defined
# (21-27 cli, 1,073-1,617 grid-suite and 1,857-3,042 grid-rate ops: 10-13,
# 53-80 and 18-30 beyond).  It is fixed, so that the op count of a run,
# which follows the machine's speed, never moves it.
TAIL_PERCENTILE = {"cli": 50.0, "grid-suite": 95.0, "grid-rate": 99.0}
PROBE_TIMEOUT_S = 60.0

# exact work per sweep over sharp_grid() at the commit that defined the
# benchmark; compared and reported, not gated (a change to the quadrature
# rule or to sharing changes them on purpose)
BASELINE_COUNTS = {
    "grid-suite": {"quad_calls": 648, "evals": 185592, "gh_calls": 486,
                   "gh_distinct": 324},
    "grid-rate": {"quad_calls": 189, "evals": 96360},
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("GROWTHLAB_TOL", None)
    return env


def run_worker(args: list, timeout: float) -> tuple[float, dict]:
    """Start a fresh worker; (launch time, its JSON result)."""
    launched = clock()
    code, out, err = reference.run_process([sys.executable, WORKER, *args],
                                           timeout, cwd=ROOT, env=worker_env())
    if code != 0 or not out.strip():
        raise RuntimeError(f"worker {' '.join(args)} exited {code}: "
                           f"{err.strip()[-2000:]}")
    return launched, json.loads(out.strip().splitlines()[-1])


def tail(durations: list, pct: float) -> tuple[float, int]:
    """The pct percentile and the number of samples beyond it."""
    xs = sorted(durations)
    k = max(math.ceil(pct / 100.0 * len(xs)) - 1, 0)
    return xs[k], len(xs) - k - 1


def import_layers() -> dict:
    """Median over fresh processes of ``python -X importtime``."""
    samples = []
    for _ in range(IMPORT_PROBES):
        code, _, err = reference.run_process(
            [sys.executable, "-X", "importtime", "-c", "import growthlab"],
            PROBE_TIMEOUT_S, cwd=ROOT, env=dict(worker_env(), PYTHONPATH=SRC))
        if code != 0:
            raise RuntimeError(f"import growthlab failed: {err[-2000:]}")
        samples.append(parse_importtime(err))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def parse_importtime(text: str) -> dict:
    """Split ``-X importtime`` output into growthlab, third-party and total."""
    own = third = 0.0
    total = None
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if not fields[0].isdigit():
            continue  # the header line
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2]
        top = name.split(".")[0]
        if top == "growthlab":
            own += self_us
            if name == "growthlab":
                total = cum_us
        elif top not in sys.stdlib_module_names and not top.startswith("_"):
            third += self_us
    if total is None:
        raise RuntimeError("no import time reported for growthlab")
    return {"import.total_s": total / 1e6, "import.third_party_s": third / 1e6,
            "import.growthlab_self_s": own / 1e6}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "growthlab", "__init__.py")):
        return fail(f"no growthlab package under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)
        setups, kernels = [], []
        probes = 0 if args.trace else SETUP_PROBES
        for probe in range(probes + 1):
            kernels.append(reference.process_kernel_s())
            if probe < probes:
                launched, res = run_worker(common + ["--setup-only"],
                                           PROBE_TIMEOUT_S)
            else:
                launched, res = run_worker(
                    common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                    args.seconds + 120.0)
            setups.append(res["t_ready"] - launched)
        layers = import_layers() if args.trace else {}
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": res["attempted"], "failed": res["failed"],
              "failed_frac": res["failed"] / max(res["attempted"], 1),
              "problems": res["problems"],
              "setup_raw_s": setups, "setup_kernel_s": kernels}
    if args.trace:
        layers.update(res["layers"])
        values = layers
        baseline = BASELINE_COUNTS.get(args.workload, {})
        record.update(traced_sweeps=res["traced_sweeps"],
                      counts_repeat=res["counts_repeat"],
                      sweep_counts=res["sweep_counts"],
                      baseline_counts=baseline,
                      counts_match_baseline=all(
                          res["sweep_counts"].get(k) == v
                          for k, v in baseline.items()))
    else:
        ops = res["ops"]
        if not ops:
            return fail("no op completed")
        done = res["attempted"] - res["failed"]
        ref_s = res["kernel_ref_s"]
        op_s = [reference.scaled(d, k, ref_s) for d, _, k in ops]
        level = TAIL_PERCENTILE[args.workload]
        tail_s, beyond = tail(op_s, level)
        values = {"setup_s": statistics.median(
                      reference.scaled(t, k, reference.PROCESS_REF_S)
                      for t, k in zip(setups, kernels)),
                  "op_p50_s": statistics.median(op_s),
                  "op_tail_s": tail_s,
                  "ops_per_s": done / sum(reference.scaled(w, k, ref_s)
                                          for _, w, k in ops),
                  "peak_rss_mb": res["peak_rss_mb"]}
        raw = [d for d, _, _ in ops]
        record.update(ops=len(ops), op_tail_percentile=level,
                      op_tail_beyond=beyond, loop_s=res["loop_s"],
                      raw={"setup_s": statistics.median(setups),
                           "op_p50_s": statistics.median(raw),
                           "op_tail_s": tail(raw, level)[0],
                           "ops_per_s": done / sum(w for _, w, _ in ops)},
                      kernel_p50_s=statistics.median(k for _, _, k in ops))

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record["metrics"] = metrics
    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"ops attempted {res['attempted']}  failed {res['failed']}  "
          f"failed_frac {record['failed_frac']:.4g}")
    for p in res["problems"]:
        print(f"  problem: {p}")
    if args.trace:
        print(f"traced sweeps {res['traced_sweeps']}  counts repeat "
              f"{res['counts_repeat']}  counts per sweep {res['sweep_counts']}")
        if record["baseline_counts"]:
            print(f"counts match the baseline {record['baseline_counts']}: "
                  f"{record['counts_match_baseline']}")
    else:
        print(f"op_tail_s is p{record['op_tail_percentile']:g} of "
              f"{record['ops']} ops ({record['op_tail_beyond']} beyond)")
    raw = record.get("raw", {})
    for name, m in metrics.items():
        also = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{also}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
