"""Outcome counts of the inequality suite and the rate over the domain sweep.

    python tests/domain_sweep.py [N]

For each of the first N (default 200) tuples of sweep_tuples, builds the
sharp example, runs run_inequality_suite and measure_rate, and sorts each
outcome: a suite into verified (every check passes) or a failed check, a
rate into measured, and either into QuadratureError or DomainError; a build
refusal counts as a DomainError of both.  It prints one line per failure,
with the tuple, the stage and the error's message (which names the
interval that failed), then the counts and the wall time.
Any other exception propagates with its traceback.  pytest does not collect
this file; tests/test_growth.py runs the first 40 tuples.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter


def sweep_tuples(n):
    """The first n (p, q, mu) of the domain sweep: random.Random(1),
    p = 1 + 10**U(-2, 1), gamma = q - p + 1 = 10**U(-3, 1.5), and mu/p
    drawn from {0, 1, U, U, U}."""
    rng = random.Random(1)
    out = []
    for _ in range(n):
        p = 1.0 + 10.0 ** rng.uniform(-2.0, 1.0)
        q = p - 1.0 + 10.0 ** rng.uniform(-3.0, 1.5)
        frac = rng.choice([0.0, 1.0, None, None, None])
        out.append((p, q, p * (rng.uniform(0.0, 1.0) if frac is None else frac)))
    return out


def main(n: int = 200) -> None:
    from growthlab import (DomainError, QuadratureError, build_sharp_example,
                           measure_rate, run_inequality_suite)

    counts = {"suite": Counter(), "rate": Counter()}
    start = time.perf_counter()
    for pqmu in sweep_tuples(n):
        try:
            ex = build_sharp_example(*pqmu)
        except DomainError as exc:
            for stage in counts:
                counts[stage]["DomainError"] += 1
            print(f"{pqmu} build DomainError: {exc}")
            continue
        for stage, run in (("suite", run_inequality_suite),
                           ("rate", measure_rate)):
            try:
                out = run(ex)
            except (DomainError, QuadratureError) as exc:
                outcome = type(exc).__name__
                print(f"{pqmu} {stage} {outcome}: {exc}")
            else:
                outcome = "measured"
                if stage == "suite":
                    outcome = "verified" if all(r.passed for r in out) \
                        else "failed check"
                    if outcome == "failed check":
                        print(f"{pqmu} suite failed check")
            counts[stage][outcome] += 1
    elapsed = time.perf_counter() - start
    for stage, first in (("suite", ("verified", "failed check")),
                         ("rate", ("measured",))):
        print(f"{stage}: " + ", ".join(
            f"{counts[stage][k]} {k}"
            for k in (*first, "QuadratureError", "DomainError")))
    print(f"{n} tuples in {elapsed:.1f} s")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:2]))
