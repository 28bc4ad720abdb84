"""Adaptive Gauss-Kronrod quadrature for log-represented integrands.

The integrals this package needs have integrands spanning thousands of
orders of magnitude: a log-integrand routinely reaches 1e4.  Nothing here
ever exponentiates an absolute magnitude.  The integrand is supplied as its
logarithm, each panel factors out its running maximum before summing the
node contributions, and panels are combined with log-sum-exp, so the result
is the logarithm of the integral with full relative accuracy regardless of
scale.

The integrand is vectorised: logf takes a 1-D float ndarray of nodes and
returns an ndarray of the same shape holding the log-integrand at each
node, with -inf marking zeros.  A nan or +inf among them raises
DomainError naming the first such node in panel order.  Interval ends and
radii that are not finite, and a rel_tol that is not finite and positive,
raise DomainError before any node is formed.

Each panel uses the nested 7/15 Gauss-Kronrod pair of QUADPACK's QK15
(Piessens et al., 1983): the 15-point Kronrod rule K15 integrates
polynomials of degree up to 22 exactly, and its odd-indexed nodes together
with the midpoint are the nodes of the 7-point Gauss rule G7, so one panel
costs 15 integrand evaluations.  The panel value is K15 and its error
estimate is |K15 - G7| (both in log form).

A segment starts from eight even or geometric panels.  log_quad_tables lets
a table add panel ends at the top of its segments: growthlab.growth puts
them where nearly all of the mass of a long segment of G lies.

Refinement is globally adaptive and runs in rounds (vectorised adaptive
quadrature in the manner of Shampine, 2008).  A round that finds the total
estimated error above rel_tol times the total value bisects the fewest
worst panels whose removal would bring the remaining error under that
bound, ties going to the lower index, and evaluates all of their children
with one call of logf.  Refinement stops at the floor of double precision
with QuadratureError: a panel whose halves' nodes would round onto their
ends is not halved, and an initial panel with a node rounded onto an end
where the integrand is not finite fails too.  log_quad_tables refines
integrals of several integrands up to several radii together, each with
its own panels, tolerance test and panel budget, so a round costs one
call however many are open: growthlab.growth refines every integral of an
example (G and H, each with its support edge, and J) in one pass.  When
integrals fail, the error raised is the one refining the tables alone, in
order, would raise.  Panels are kept in position order, so results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .models import geometric_grid
from .params import DomainError, QuadratureError, _check_finite_positive

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

# the most panels one segment may be refined into
_MAX_PANELS = 4096

# (node, log K15 weight, log G7 weight or None) for all 15 nodes
_NODES = tuple(
    (sign * x, math.log(wk), math.log(_WG[i // 2]) if i % 2 else None)
    for i, (x, wk) in enumerate(zip(_XGK, _WGK))
    for sign in ((1.0, -1.0) if x > 0.0 else (1.0,)))

# the same rule as arrays over the node axis of a batch of panels
_X = np.array([x for x, _, _ in _NODES])
_LOG_WK = np.array([lwk for _, lwk, _ in _NODES])
_G7 = [i for i, (_, _, lwg) in enumerate(_NODES) if lwg is not None]
_LOG_WG = np.array([_NODES[i][2] for i in _G7])


def log_sum(values) -> float:
    """log(sum(exp(v))) over an iterable of log values; -inf for empty input."""
    vals = values if isinstance(values, list) else list(values)
    if not vals:
        return -math.inf
    m = max(vals)
    if m == -math.inf or m == math.inf:
        return m
    # exp(-inf - m) is 0.0, which leaves the exactly rounded sum as it is
    return m + math.log(math.fsum([math.exp(v - m) for v in vals]))


@dataclass(frozen=True)
class LogQuadResult:
    """Logarithm of an integral, its relative error estimate and its cost.

    evals counts the integrand values computed, 15 per panel ever evaluated.
    """

    log_value: float
    rel_error: float
    panels: int
    evals: int


def _row_log_sum(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) along each row; -inf for a row of -inf, which takes
    log(0), so the caller ignores divide-by-zero."""
    m = v.max(axis=1)
    m[m == -np.inf] = 0.0
    return m + np.log(np.exp(v - m[:, None]).sum(axis=1))


class _BelowFloor(Exception):
    """args[0]: the row of an initial panel with a bad node at an end."""


def _floor(a: float, b: float) -> str:
    return f"panel [{a}, {b}] is below the double-precision floor"


def _panels(logf, a: np.ndarray, b: np.ndarray):
    """(log K15, log |K15 - G7|) of the panels [a[i], b[i]], one logf call."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = (mid[:, None] + half[:, None] * _X).ravel()
    v = logf(x)
    if not v.max() < np.inf:
        # a nan or +inf: name the first, in panel order
        i = int((~(v < np.inf)).argmax())
        row = i // len(_X)
        if x[i] == a[row] or x[i] == b[row]:
            raise _BelowFloor(row)
        raise DomainError(f"integrand log-value at {x[i]} is {v[i]}")
    v = v.reshape(len(a), len(_X))
    # -inf and log(0) stand for zeros here, and where k15 == g7 the masked
    # difference takes log1p(-1) or inf - inf
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(b - a) rather than log(half): half rounds to 0 on a panel one
        # subnormal wide, and bisection can leave a panel of zero width
        log_half = np.log(b - a) - _LOG2
        k15 = _row_log_sum(v + _LOG_WK) + log_half
        g7 = _row_log_sum(v[:, _G7] + _LOG_WG) + log_half
        hi, lo = np.maximum(k15, g7), np.minimum(k15, g7)
        err = np.where(k15 == g7, -np.inf, hi + np.log1p(-np.exp(lo - hi)))
    return k15, err


def _initial_breakpoints(lo: float, hi: float, n: int = 8) -> list[float]:
    if lo > 0.0 and 16.0 <= hi / lo < math.inf:
        return geometric_grid(lo, hi, n + 1)
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def _inside(a: float, b: float) -> bool:
    """Whether every node of the panel [a, b], as _panels computes it, lies
    strictly inside it.  Below this floor of double precision the nodes
    round onto the ends, where the integrand may be infinite."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return a < mid - half * _XGK[0] and mid + half * _XGK[0] < b


def _worst(errors: list[float], target: float, limit: int) -> list[int]:
    """Ascending indices of the fewest largest errors (at most limit) whose
    removal brings log(sum(exp(errors))) to target or below.

    Ties go to the lower index.  The remaining sums are accumulated from the
    smallest error up, so none of them is formed by cancellation.
    """
    order = sorted(range(len(errors)), key=errors.__getitem__, reverse=True)
    top = errors[order[0]]
    bound = math.exp(target - top)
    count, rest = len(order), 0.0
    for j in range(len(order) - 1, 0, -1):
        rest += math.exp(errors[order[j]] - top)
        if rest > bound:
            break
        count = j
    return sorted(order[:min(count, limit)])


class _Segment:
    """The panels of one integral over [lo, hi] in position order: their
    ends x, panel i being [x[i], x[i + 1]], their log K15 values and log
    error estimates, the number ever evaluated, and the table the integral
    belongs to."""

    def __init__(self, lo: float, hi: float, pts: list[float], table: int):
        self.lo, self.hi = lo, hi
        self.x = pts
        self.k: list[float] = []
        self.e: list[float] = []
        self.evaluated = 0
        self.table = table

    def halves(self, worst: list[int]) -> tuple[list[float], list[float]]:
        """Ends of the two halves of each panel in worst, in position order."""
        ca, cb = [], []
        for i in worst:
            a, b = self.x[i], self.x[i + 1]
            m = 0.5 * (a + b)
            ca += (a, m)
            cb += (m, b)
        return ca, cb

    def store(self, worst, ca, k, e) -> None:
        """Put evaluated panels in place: every panel on the first round
        (worst is None), else the halves of each panel in worst, with left
        ends ca."""
        self.evaluated += len(k)
        if worst is None:
            self.k, self.e = k, e
            return
        # one merge pass: take from each list the panels before each panel
        # in worst, then its halves, which follow the n old ones; in x a
        # panel stands for its left end, and the last end stays; with at
        # least one panel halved, take returns a tuple
        n, order, prev = len(self.k), [], 0
        for j, i in enumerate(worst):
            order += range(prev, i)
            order += (n + 2 * j, n + 2 * j + 1)
            prev = i + 1
        order += range(prev, n)
        take = itemgetter(*order)
        self.x = [*take(self.x[:-1] + ca), self.x[-1]]
        self.k = list(take(self.k + k))
        self.e = list(take(self.e + e))

    def failure(self, reason: str, rel_tol: float) -> QuadratureError:
        """This integral's QuadratureError, with its panels' estimate."""
        total, toterr = log_sum(self.k), log_sum(self.e)
        rel = math.exp(toterr - total) if total > -math.inf else math.inf
        return QuadratureError(
            f"{reason} on [{self.lo}, {self.hi}] for rel_tol={rel_tol}; "
            f"reached {rel:.3e}",
            log_value=total, rel_error=rel, panels=len(self.k),
            evals=15 * self.evaluated)


def _batch(logf, pending, segs, ntables: int, rel_tol: float):
    """(log K15, log error) lists of the new panels of pending, with one
    call logf(x, starts): the nodes of table t are x[starts[t]:starts[t+1]]."""
    a = np.array([x for _, _, ca, _ in pending for x in ca])
    b = np.array([x for _, _, _, cb in pending for x in cb])
    sizes = [0] * (ntables + 1)
    for i, _, ca, _ in pending:
        sizes[segs[i].table + 1] += len(_X) * len(ca)
    starts = list(accumulate(sizes))
    try:
        k, e = _panels(lambda x: logf(x, starts), a, b)
    except _BelowFloor as exc:
        row = exc.args[0]
        seg = segs[[i for i, _, ca, _ in pending for _ in ca][row]]
        raise seg.failure(_floor(a[row], b[row]), rel_tol) from None
    return k.tolist(), e.tolist()


def _refine(logf, segments: list[tuple], ntables: int,
            rel_tol: float) -> list[LogQuadResult]:
    """Integrate over each (lo, hi, breakpoints, table) of segments, together.

    Tables are numbered from 0 to ntables - 1 and the segments of each are
    consecutive, in table order.  Each round evaluates the new panels of
    every open segment with one logf call (see _batch); a segment closes
    once it meets rel_tol.  A panel is halved only when every node of both
    halves lies strictly inside them (_inside).  The error raised is the
    one refining the tables alone, in order, would raise.  A segment fails
    the tolerance test when it misses rel_tol with _MAX_PANELS panels or with
    a panel to halve below that floor; later segments then stop and earlier
    ones go on, so the first such failure in list order is raised.  A logf
    batch that raises (a DomainError of an integrand value, or an initial
    panel's floor error, see _batch) and spans several tables is redone one
    table at a time, from scratch and in order, and the first table's error
    is raised; only that error path pays for the redo.
    """
    log_rel_tol = math.log(rel_tol)
    segs = [_Segment(*segment) for segment in segments]
    results: list = [None] * len(segs)
    failure = None
    pending = [(i, None, s.x[:-1], s.x[1:]) for i, s in enumerate(segs)]
    while pending:
        try:
            k, e = _batch(logf, pending, segs, ntables, rel_tol)
        except (DomainError, QuadratureError):
            tables = sorted({segs[i].table for i, _, _, _ in pending})
            if len(tables) > 1:
                for t in tables:
                    _refine(logf, [seg for seg in segments if seg[3] == t],
                            ntables, rel_tol)
            raise
        pos = 0
        for i, worst, ca, _ in pending:
            n = len(ca)
            segs[i].store(worst, ca, k[pos:pos + n], e[pos:pos + n])
            pos += n
        opened = [i for i, _, _, _ in pending]
        pending = []
        for i in opened:
            if failure is not None and i > failure[0]:
                break
            seg = segs[i]
            total, toterr = log_sum(seg.k), log_sum(seg.e)
            if toterr <= total + log_rel_tol or toterr == -math.inf:
                rel = math.exp(toterr - total) if total > -math.inf else 0.0
                results[i] = LogQuadResult(
                    log_value=total, rel_error=rel, panels=len(seg.k),
                    evals=15 * seg.evaluated)
                continue
            if len(seg.k) >= _MAX_PANELS:
                reason = f"needed more than {_MAX_PANELS} panels"
            else:
                worst = _worst(seg.e, total + log_rel_tol,
                               _MAX_PANELS - len(seg.k))
                ca, cb = seg.halves(worst)
                floor = [(a, b) for a, b in zip(ca, cb) if not _inside(a, b)]
                if not floor:
                    pending.append((i, worst, ca, cb))
                    continue
                reason = _floor(*floor[0])
            failure = (i, seg.failure(reason, rel_tol))
    if failure is not None:
        raise failure[1]
    return results


def log_quad(logf, lo: float, hi: float,
             rel_tol: float = 1e-12) -> LogQuadResult:
    """Integrate exp(logf) over [lo, hi] in log space.

    logf maps a 1-D float ndarray of radii to an ndarray of the same shape
    holding the log of the (nonnegative) integrand; -inf marks zeros.  It
    is called once per refinement round, with the nodes of every panel
    that round evaluates.  Returns log of the integral together with an
    error estimate relative to the integral.  Raises QuadratureError when
    _MAX_PANELS panels cannot reach rel_tol or refinement meets the floor
    of double precision, and DomainError when logf produces nan or +inf.
    It is log_quad_tables with one table and one radius.
    """
    _check_finite_positive("rel_tol", rel_tol)
    if not (-math.inf < lo <= hi < math.inf):
        raise DomainError(f"bad integration interval [{lo}, {hi}]: its ends "
                          "must be finite and in order")
    return log_quad_tables(lambda x, starts: logf(x), [(lo, [hi])],
                           rel_tol)[0][0]


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


def log_quad_tables(logf, tables, rel_tol: float = 1e-12
                    ) -> list[list[LogQuadResult]]:
    """Integrals of several integrands, each up to several radii, in one pass.

    tables lists (lo, radii) pairs, one per integrand, and one list of
    results is returned per table: the integrals of exp(logf) from lo up to
    each radius of a nondecreasing list of finite radii.  The segments
    [lo, R1], [R1, R2], ... of all tables are refined together, each with
    its own initial panels, tolerance test and _MAX_PANELS budget, so it
    gets the panels it would get refined alone.  A table may carry a
    third element top(lo, hi): the initial panel ends at the top of each of
    its segments, ending at hi; the default eight even or geometric panels
    run from lo to the first of them.  The result at R sums the segments up
    to R, their panels and their evals, with their combined relative error;
    at or below lo it is -inf with zero error.  Each round makes one call
    logf(x, starts) for the new panels of every open segment: x holds the
    nodes table by table, in table order, and those of table t are
    x[starts[t]:starts[t + 1]], so logf can give each table its own
    integrand.  When integrals fail, the error raised is the one that
    refining the tables one after another, in order, would raise (see
    _refine).
    """
    _check_finite_positive("rel_tol", rel_tol)
    segments = []
    spans = []
    for t, (lo, radii, *ends) in enumerate(tables):
        top = ends[0] if ends else lambda a, b: [b]
        begin, upto = len(segments), []
        start = lo
        prev = -math.inf
        for R in [lo, *radii]:
            if not math.isfinite(R):
                raise DomainError(f"integration radius {R} is not finite")
        for R in radii:
            if not R >= prev:
                raise DomainError(f"radii must be nondecreasing, got {R} "
                                  f"after {prev}")
            prev = R
            if R > start:
                pts = top(start, R)
                pts[:1] = _initial_breakpoints(start, pts[0])
                segments.append((start, R, pts, t))
                start = R
            upto.append(len(segments))
        spans.append((begin, upto))
    parts = _refine(logf, segments, len(tables), rel_tol) if segments else []
    out = []
    for begin, upto in spans:
        row = []
        for n in upto:
            own = parts[begin:n]
            total, rel = _log_combine(own)
            row.append(LogQuadResult(
                log_value=total, rel_error=rel,
                panels=sum(r.panels for r in own),
                evals=sum(r.evals for r in own)))
        out.append(row)
    return out
