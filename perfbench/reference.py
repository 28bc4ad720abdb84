"""Reference kernels that put wall times on a steady scale.

The speed of the small shared virtual machines this benchmark runs on
drifts with the load of neighbours on the host, by a factor of up to about
1.6 over minutes.  A fixed kernel, timed right before each measured
interval, reads that drift: a time t measured while the kernel took k
seconds is reported as

    t * ref_s / k,

the time the interval would have taken at the speed where the kernel takes
ref_s.  The kernels contain none of growthlab's code, so a change to the
program moves t and not k.  Load that the program itself leaves behind (a
background thread, say) slows a kernel too and is partly scaled away; the
raw seconds are recorded next to the scaled ones for that reason.

There are two kernels, because the two kinds of interval slow down
differently: work inside one Python process (the library ops), and a fresh
Python process that imports a large package (set-up and the CLI ops).
"""

from __future__ import annotations

import math
import subprocess
import sys
import threading
import time

# typical kernel times on the 2-core Xeon VM the benchmark was defined on
COMPUTE_REF_S = 2.0e-3
PROCESS_REF_S = 0.1
COMPUTE_POINTS = 2200
PROCESS_ARGV = [sys.executable, "-I", "-B", "-c",
                "import argparse, csv, decimal, email.parser, json"]


class _Power:
    def __init__(self, c: float, beta: float):
        self.c, self.beta = c, beta

    def log_value(self, t: float) -> float:
        return self.c * t ** self.beta


def _compute() -> float:
    """A frozen log-space integrand loop in the style of growthlab's own:
    method calls, powers, libm calls and a log-sum-exp over a list."""
    profile, warp = _Power(1.3, 0.5), _Power(0.7, 0.5)
    vals = []
    t = 1.0
    for _ in range(COMPUTE_POINTS):
        t += 0.37
        d = profile.log_value(t) - 1.0
        le = math.log1p(-math.exp(-d)) if d > 0.7 else math.log(math.expm1(d))
        vals.append(warp.log_value(t) + 2.0 * le)
    top = max(vals)
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


def compute_kernel_s() -> float:
    """Seconds the in-process kernel takes now."""
    start = time.perf_counter()
    _compute()
    return time.perf_counter() - start


def run_process(argv: list, timeout: float, **kwargs):
    """Run argv to its end: (exit code, stdout, stderr).

    subprocess.run(timeout=...) waits by polling with sleeps of up to 50 ms,
    which would round every measured process time; this waits with a
    blocking waitpid instead, and a timer kills a process that overruns.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


def process_kernel_s() -> float:
    """Seconds a fresh interpreter takes to import a few stdlib modules."""
    start = time.perf_counter()
    code, _, err = run_process(PROCESS_ARGV, timeout=60.0)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"reference process exited {code}: {err}")
    return elapsed


def scaled(seconds: float, kernel: float, ref_s: float) -> float:
    """seconds at the reference speed, given the kernel's time alongside."""
    return seconds * ref_s / kernel
