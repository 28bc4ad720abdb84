"""Smoke test of the benchmark itself, at minimal run length.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed with its unit, that
the exact work counts match the baseline and repeat, and that a wrong
expected value makes the output checks fail.  Takes about two minutes,
most of it the traced ``cli`` run, which always runs two traced cycles.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import run
import worker
import workloads as wl

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"),
                      encoding="utf-8"))


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT, f"result-{workload}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return last, json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_and_counts(workload, trace):
    last, record = bench(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())
    assert record["seed"] == 7
    if trace and workload != "cli":
        assert record["traced_sweeps"] >= 2
        assert record["counts_match_baseline"], record["sweep_counts"]


def first_item(name: str):
    work = worker.make_workload(name, seed=7)
    return work, next(iter(work.sweeps))[0]


def test_wrong_expected_rate_fails_rate_check():
    work, case = first_item("grid-rate")
    out = work.execute(case)
    assert work.check(case, out) == []
    wrong = dataclasses.replace(case, expected_rate=case.expected_rate * 1.05)
    assert wl.check_rate(wrong, out)


def test_wrong_constant_fails_cli_check():
    work, item = first_item("cli")
    sub, case, argv, factor = item
    assert sub == "constants"
    code, out, _ = work.execute(item)
    assert wl.check_cli(sub, case, argv, factor, code, out) == []
    wrong = dataclasses.replace(case, C0=math.nextafter(case.C0, math.inf))
    assert wl.check_cli(sub, wrong, argv, factor, code, out)


def test_failing_check_counts_as_failed_op():
    work, _ = first_item("grid-suite")
    work.check = lambda item, reports: wl.check_suite(
        item[0], [dataclasses.replace(r, passed=False) for r in reports])
    res = worker.run_plain(work, seconds=0.2)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]
