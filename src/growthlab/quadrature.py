"""Adaptive Gauss-Kronrod quadrature for log-represented integrands.

The integrals this package needs have integrands spanning thousands of
orders of magnitude: a log-integrand routinely reaches 1e4.  Nothing here
ever exponentiates an absolute magnitude.  The integrand is supplied as its
logarithm, each panel factors out its running maximum before summing the
node contributions, and panels are combined with log-sum-exp, so the result
is the logarithm of the integral with full relative accuracy regardless of
scale.

Each panel uses the nested 7/15 Gauss-Kronrod pair of QUADPACK's QK15
(Piessens et al., 1983): the 15-point Kronrod rule K15 integrates
polynomials of degree up to 22 exactly, and its odd-indexed nodes together
with the midpoint are the nodes of the 7-point Gauss rule G7, so one panel
costs 15 integrand evaluations.  The panel value is K15 and its error
estimate is |K15 - G7| (both in log form).

Refinement is globally adaptive: the panel with the largest estimate is
bisected until the total estimated error drops below rel_tol times the
total value.  Panels are scanned in a fixed order, so results are
deterministic and independent of dict or heap internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DomainError

# QK15 on [-1, 1], from QUADPACK: the nonnegative Kronrod nodes (xgk), their
# K15 weights (wgk), and the G7 weights (wg) of xgk[1], xgk[3], xgk[5] and 0
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975,
       0.417959183673469387755102040816327)

_LOG2 = math.log(2.0)

# (node, log K15 weight, log G7 weight or None) for all 15 nodes
_NODES = tuple(
    (sign * x, math.log(wk), math.log(_WG[i // 2]) if i % 2 else None)
    for i, (x, wk) in enumerate(zip(_XGK, _WGK))
    for sign in ((1.0, -1.0) if x > 0.0 else (1.0,)))


def log_sum(values) -> float:
    """log(sum(exp(v))) over an iterable of log values; -inf for empty input."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_diff(a: float, b: float) -> float:
    """log(|exp(a) - exp(b)|); -inf when the two values agree."""
    if a == b:
        return -math.inf
    hi, lo = (a, b) if a > b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(-math.exp(lo - hi))


@dataclass(frozen=True)
class LogQuadResult:
    """Logarithm of an integral, its relative error estimate and its cost.

    evals counts the integrand calls made, 15 per panel ever evaluated.
    """

    log_value: float
    rel_error: float
    panels: int
    evals: int


class QuadratureError(RuntimeError):
    """Panel budget exhausted before reaching the tolerance.

    Carries the best available estimate so callers can inspect how far the
    refinement got.
    """

    def __init__(self, message: str, log_value: float, rel_error: float,
                 panels: int, evals: int):
        super().__init__(message)
        self.log_value = log_value
        self.rel_error = rel_error
        self.panels = panels
        self.evals = evals


def _panel(logf, a: float, b: float) -> tuple[float, float]:
    """(log K15, log |K15 - G7|) for one panel [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals15 = []
    vals7 = []
    for x, lwk, lwg in _NODES:
        v = logf(mid + half * x)
        if math.isnan(v) or v == math.inf:
            raise DomainError(f"integrand log-value at {mid + half * x} is {v}")
        vals15.append(v + lwk)
        if lwg is not None:
            vals7.append(v + lwg)
    # log(b - a) rather than log(half): half rounds to 0 on a panel one
    # subnormal wide, and bisection can leave a panel of zero width
    log_half = math.log(b - a) - _LOG2 if b > a else -math.inf
    k15 = log_sum(vals15) + log_half
    g7 = log_sum(vals7) + log_half
    return k15, log_diff(k15, g7)


def _initial_breakpoints(lo: float, hi: float, n: int = 8) -> list[float]:
    if lo > 0.0 and 16.0 <= hi / lo < math.inf:
        return np.geomspace(lo, hi, n + 1).tolist()
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def log_quad(logf, lo: float, hi: float, rel_tol: float = 1e-12,
             max_panels: int = 4096, breakpoints=None) -> LogQuadResult:
    """Integrate exp(logf) over [lo, hi] in log space.

    logf maps a radius to the log of the (nonnegative) integrand; -inf marks
    zeros.  Returns log of the integral together with an error estimate
    relative to the integral.  Raises QuadratureError when max_panels panels
    cannot reach rel_tol, and DomainError when logf produces nan or +inf.
    """
    if not (rel_tol > 0.0):
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        raise DomainError(f"bad integration interval [{lo}, {hi}]")
    if lo == hi:
        return LogQuadResult(log_value=-math.inf, rel_error=0.0, panels=0,
                             evals=0)

    if breakpoints is None:
        pts = _initial_breakpoints(lo, hi)
    else:
        pts = sorted(set([lo, hi] + [x for x in breakpoints if lo < x < hi]))
    panels = [(pts[i], pts[i + 1], *_panel(logf, pts[i], pts[i + 1]))
              for i in range(len(pts) - 1)]
    evaluated = len(panels)

    log_rel_tol = math.log(rel_tol)
    while True:
        total = log_sum(p[2] for p in panels)
        toterr = log_sum(p[3] for p in panels)
        if toterr <= total + log_rel_tol or toterr == -math.inf:
            rel = math.exp(toterr - total) if total > -math.inf else 0.0
            return LogQuadResult(log_value=total, rel_error=rel,
                                 panels=len(panels), evals=15 * evaluated)
        if len(panels) >= max_panels:
            rel = math.exp(toterr - total) if total > -math.inf else math.inf
            raise QuadratureError(
                f"needed more than {max_panels} panels on [{lo}, {hi}] "
                f"for rel_tol={rel_tol}; reached {rel:.3e}",
                log_value=total, rel_error=rel, panels=len(panels),
                evals=15 * evaluated)
        worst = 0
        for i in range(1, len(panels)):
            if panels[i][3] > panels[worst][3]:
                worst = i
        a, b, _, _ = panels[worst]
        m = 0.5 * (a + b)
        panels[worst:worst + 1] = [(a, m, *_panel(logf, a, m)),
                                   (m, b, *_panel(logf, m, b))]
        evaluated += 2


def _log_combine(parts) -> tuple[float, float]:
    """(log of the summed values, relative error of the sum) of results.

    The relative error of a sum of nonnegative parts is the value-weighted
    mean of the parts' relative errors; one part keeps its own exactly.
    """
    total = log_sum(r.log_value for r in parts)
    if total == -math.inf:
        return total, 0.0
    return total, math.fsum(r.rel_error * math.exp(r.log_value - total)
                            for r in parts if r.rel_error > 0.0)


def log_quad_cumulative(logf, lo: float, radii,
                        rel_tol: float = 1e-12) -> list[LogQuadResult]:
    """Integrals of exp(logf) over [lo, R] for each R of a nondecreasing list.

    The consecutive segments [lo, R1], [R1, R2], ... are integrated once
    each by log_quad, and the result at R sums the segments up to R: its
    panels and evals count those segments, and its relative error is their
    combined one.  The integrand is nonnegative, so when every segment meets
    rel_tol, every sum of them does too.  Radii at or below lo give -inf
    with zero error.
    """
    out = []
    parts = []
    start = lo
    prev = -math.inf
    for R in radii:
        if not R >= prev:
            raise DomainError(f"radii must be nondecreasing, got {R} after "
                              f"{prev}")
        prev = R
        if R > start:
            parts.append(log_quad(logf, start, R, rel_tol=rel_tol))
            start = R
        total, rel = _log_combine(parts)
        out.append(LogQuadResult(
            log_value=total, rel_error=rel,
            panels=sum(r.panels for r in parts),
            evals=sum(r.evals for r in parts)))
    return out
